"""Read-side queries, checked against the frozen federated store and small synthetic graphs."""

import dataclasses
import gc
import json
import pickle
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skg import (
    Edge,
    Graph,
    Node,
    NodeKey,
    Prop,
    RangeError,
    approve_pending,
    builtin_registry,
    merge,
)
import skg
from skg import queries
from skg.canonical import render_number, render_value
from skg.queries import (
    DecisionPointRow,
    automation_reuse,
    cascade_paths,
    elicitation_gaps,
    is_silent,
    low_confidence_claims,
    masking_exposures,
    ranked_failures,
    ranked_silent_failures,
    rows_to_json,
    rows_to_tsv,
    step_decision_points,
    subgraph_stats,
)

SG = "SYN"


def syn_graph() -> Graph:
    return Graph(builtin_registry())


def add_fm(graph, id_, name=None, *, confidence=0.8, srisk=False):
    key = NodeKey(SG, "FailureMode", id_)
    props = {
        "name": Prop(name or id_),
        "confidence": Prop(confidence),
        "silent_failure_risk": Prop(srisk),
    }
    return merge(graph, [Node(key, props)]), key


def add_node(graph, label, id_, subgraph=SG, **props):
    key = NodeKey(subgraph, label, id_)
    rendered = {"name": Prop(id_)}
    rendered.update({k: Prop(v) for k, v in props.items()})
    return merge(graph, [Node(key, rendered)]), key


class TestRankedFailures:
    def test_top_row_elisa(self, federated):
        rows = ranked_failures(federated, "ELISA")
        assert len(rows) == 18
        top = rows[0]
        assert top.id == "FM-ELISA-008"
        assert top.name == "Hook Effect at High Concentrations"
        assert top.confidence == 0.92
        assert top.silent is False
        assert top.masking_assets == ()

    def test_top_row_lcms(self, federated):
        rows = ranked_failures(federated, "LCMS_PRM")
        assert len(rows) == 23
        assert rows[0].id == "FM-LCMS-021"
        assert rows[0].name == "Recombinant/Endogenous Mismatch"
        assert rows[0].confidence == 0.9

    def test_sorted_by_confidence_then_id(self, federated):
        rows = ranked_failures(federated, "ELISA")
        assert rows == sorted(rows, key=lambda r: (-r.confidence, r.id))
        assert len({r.id for r in rows}) == len(rows)

    def test_ties_break_by_id(self, federated):
        rows = ranked_failures(federated, "ELISA")
        tied = [r.id for r in rows if r.confidence == 0.88]
        assert tied == sorted(tied)

    def test_unknown_subgraph(self, federated):
        with pytest.raises(KeyError):
            ranked_failures(federated, "NOPE")

    def test_provenance_columns_populated(self, federated):
        for row in ranked_failures(federated, "ELISA"):
            assert row.confidence_method in ("SHELF_elicited", "linguistic_approximation")
            assert row.source_scientist


class TestSilentRanking:
    def test_elisa_silent_set(self, federated):
        rows = ranked_silent_failures(federated, "ELISA")
        assert [r.id for r in rows] == ["FM-ELISA-001", "FM-ELISA-005", "FM-ELISA-011"]
        top = rows[0]
        assert top.name == "Washer Carryover"
        assert top.confidence == 0.9
        assert top.masking_assets == ("EL406 Plate Washer",)
        assert top.confidence_method == "SHELF_elicited"

    def test_lcms_silent_set(self, federated):
        rows = ranked_silent_failures(federated, "LCMS_PRM")
        assert [r.id for r in rows] == [
            "FM-LCMS-016",
            "FM-LCMS-011",
            "FM-LCMS-018",
            "FM-LCMS-022",
        ]
        # risk flagged in the interview but nothing masks them yet
        assert all(r.masking_assets == () for r in rows)

    def test_subset_of_full_ranking(self, federated):
        full = {r.id for r in ranked_failures(federated, "ELISA")}
        silent = {r.id for r in ranked_silent_failures(federated, "ELISA")}
        assert silent < full

    def test_unknown_subgraph(self, federated):
        with pytest.raises(KeyError):
            ranked_silent_failures(federated, "NOPE")


class TestIsSilent:
    def test_masked_is_silent_even_without_risk_flag(self):
        g, fm = add_fm(syn_graph(), "FM-SYN-001", srisk=False)
        g, asset = add_node(g, "AutomationAsset", "AA-robot")
        g = merge(g, [Edge("MASKED_BY", fm, asset)])
        assert is_silent(g, g.node(fm))

    def test_pending_mask_does_not_count(self):
        g, fm = add_fm(syn_graph(), "FM-SYN-001", srisk=False)
        g, asset = add_node(g, "AutomationAsset", "AA-robot", subgraph="AUTO")
        g = merge(g, [Edge("MASKED_BY", fm, asset, pending=True)])
        assert not is_silent(g, g.node(fm))
        g, _ = approve_pending(g, [("MASKED_BY", fm, asset)])
        assert is_silent(g, g.node(fm))

    def test_risk_flag_alone_is_silent(self):
        g, fm = add_fm(syn_graph(), "FM-SYN-001", srisk=True)
        assert is_silent(g, g.node(fm))

    def test_detection_clears_risk_flag(self):
        g, fm = add_fm(syn_graph(), "FM-SYN-001", srisk=True)
        g, sig = add_node(g, "ErrorSignature", "ES-spike")
        g = merge(g, [Edge("DETECTED_BY", fm, sig)])
        assert not is_silent(g, g.node(fm))

    def test_detection_does_not_clear_masking(self):
        g, fm = add_fm(syn_graph(), "FM-SYN-001", srisk=True)
        g, sig = add_node(g, "ErrorSignature", "ES-spike")
        g, asset = add_node(g, "AutomationAsset", "AA-robot")
        g = merge(g, [Edge("DETECTED_BY", fm, sig)])
        g = merge(g, [Edge("MASKED_BY", fm, asset)])
        assert is_silent(g, g.node(fm))

    def test_plain_node_is_not_silent(self):
        g, fm = add_fm(syn_graph(), "FM-SYN-001", srisk=False)
        assert not is_silent(g, g.node(fm))


class TestStepDecisionPoints:
    def test_readout_step_has_six_gates(self, federated):
        rows = step_decision_points(federated, "ELISA", "ST-ELISA-009")
        assert [r.id for r in rows] == [f"DP-ELISA-00{i}" for i in range(1, 7)]
        for row in rows:
            assert isinstance(row.threshold_value, float)
            assert row.comparator in ("<=", ">=", "==", "within_range")
            assert row.pass_action and row.fail_action and row.escalation_action
            assert 0.6 <= row.confidence <= 1.0

    def test_first_gate_fields(self, federated):
        row = step_decision_points(federated, "ELISA", "ST-ELISA-009")[0]
        assert row.name == "Blank absorbance gate"
        assert row.condition_type == "blank_absorbance"
        assert row.threshold_value == 0.08
        assert row.comparator == "<="
        assert row.units == "OD450"
        assert row.pass_action == "proceed_to_fit"
        assert row.fail_action == "rewash_and_reread_once"
        assert row.escalation_action == "invalidate_plate_and_notify_lead"
        assert row.confidence == 0.9

    def test_step_without_gates(self, federated):
        assert step_decision_points(federated, "ELISA", "ST-ELISA-003") == []

    def test_unknown_step(self, federated):
        with pytest.raises(KeyError):
            step_decision_points(federated, "ELISA", "ST-ELISA-099")

    def test_unknown_subgraph(self, federated):
        with pytest.raises(KeyError):
            step_decision_points(federated, "NOPE", "ST-ELISA-009")


class TestCascadePaths:
    def test_depth_two_from_washer_carryover(self, federated):
        paths = cascade_paths(federated, "ELISA", "FM-ELISA-001", 2)
        assert paths == [
            ("Washer Carryover", "High Background / Nonspecific Signal"),
            (
                "Washer Carryover",
                "High Background / Nonspecific Signal",
                "Standard Curve Failure",
            ),
        ]

    def test_depth_one_truncates(self, federated):
        paths = cascade_paths(federated, "ELISA", "FM-ELISA-001", 1)
        assert paths == [("Washer Carryover", "High Background / Nonspecific Signal")]

    def test_leaf_has_no_paths(self, federated):
        assert cascade_paths(federated, "ELISA", "FM-ELISA-018", 3) == []

    def test_cycle_terminates(self):
        g = syn_graph()
        for i, name in enumerate(("alpha", "beta", "gamma"), start=1):
            g, _ = add_fm(g, f"FM-SYN-00{i}", name)
        keys = [NodeKey(SG, "FailureMode", f"FM-SYN-00{i}") for i in (1, 2, 3)]
        g = merge(g, [Edge("CASCADES_TO", keys[0], keys[1])])
        g = merge(g, [Edge("CASCADES_TO", keys[1], keys[2])])
        g = merge(g, [Edge("CASCADES_TO", keys[2], keys[0])])
        paths = cascade_paths(g, SG, "FM-SYN-001", 10)
        # each node may appear once per path, so the cycle stops after one lap
        assert paths == [("alpha", "beta"), ("alpha", "beta", "gamma")]

    def test_branching_sorted_short_first(self):
        g, root = add_fm(syn_graph(), "FM-SYN-001", "root")
        g, left = add_fm(g, "FM-SYN-002", "left")
        g, right = add_fm(g, "FM-SYN-003", "right")
        g, deep = add_fm(g, "FM-SYN-004", "deep")
        g = merge(g, [Edge("CASCADES_TO", root, right)])
        g = merge(g, [Edge("CASCADES_TO", root, left)])
        g = merge(g, [Edge("CASCADES_TO", left, deep)])
        paths = cascade_paths(g, SG, "FM-SYN-001", 5)
        assert paths == [
            ("root", "left"),
            ("root", "right"),
            ("root", "left", "deep"),
        ]

    def test_upstream_walk(self, federated):
        paths = cascade_paths(federated, "ELISA", "FM-ELISA-018", 2, "up")
        assert paths == [
            ("Standard Curve Failure", "High Background / Nonspecific Signal"),
            ("Standard Curve Failure", "Inconsistent Antigen Coating"),
            (
                "Standard Curve Failure",
                "High Background / Nonspecific Signal",
                "Washer Carryover",
            ),
        ]

    def test_upstream_of_source_is_empty(self, federated):
        assert cascade_paths(federated, "ELISA", "FM-ELISA-001", 3, "up") == []

    def test_bad_direction_rejected(self, federated):
        with pytest.raises(ValueError):
            cascade_paths(federated, "ELISA", "FM-ELISA-001", 2, "sideways")

    def test_negative_depth_rejected(self, federated):
        with pytest.raises(RangeError):
            cascade_paths(federated, "ELISA", "FM-ELISA-001", -1)

    def test_depth_zero_is_empty(self, federated):
        assert cascade_paths(federated, "ELISA", "FM-ELISA-001", 0) == []

    def test_leaves_no_reference_cycle(self, federated):
        # a cycle would keep the graph alive until the next collection
        gc.collect()
        gc.disable()
        try:
            assert cascade_paths(federated, "ELISA", "FM-ELISA-001", 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unknown_root(self, federated):
        with pytest.raises(KeyError):
            cascade_paths(federated, "ELISA", "FM-ELISA-999", 2)


class TestElicitationGaps:
    def test_elisa_rows(self, federated):
        rows = elicitation_gaps(federated, "ELISA")
        assert [(r.id, r.status, r.decision_point_count) for r in rows] == [
            ("ST-ELISA-003", "ELICITATION_GAP", 0),
            ("ST-ELISA-008", "ELICITATION_GAP", 0),
            ("ST-ELISA-009", "EVALUATIVE_STEP", 6),
        ]
        assert rows[0].name == "Sample Dilution Strategy"
        assert rows[0].step_index == 3.0

    def test_lcms_has_no_flagged_steps(self, federated):
        assert elicitation_gaps(federated, "LCMS_PRM") == []

    def test_unknown_subgraph(self, federated):
        with pytest.raises(KeyError):
            elicitation_gaps(federated, "NOPE")


class TestLowConfidence:
    def test_floor_threshold(self, federated):
        rows = low_confidence_claims(federated, "LCMS_PRM", 0.60)
        assert [r.id for r in rows] == ["FM-LCMS-007", "FM-LCMS-013", "FM-LCMS-023"]
        assert all(r.confidence == 0.6 for r in rows)
        assert all(r.label == "FailureMode" for r in rows)

    def test_wider_threshold_includes_silent_risk(self, federated):
        rows = low_confidence_claims(federated, "LCMS_PRM", 0.65)
        by_id = {r.id: r for r in rows}
        assert len(rows) == 7
        assert by_id["FM-LCMS-022"].silent_failure_risk is True
        assert by_id["FM-LCMS-022"].confidence == 0.65

    def test_threshold_is_inclusive(self, federated):
        rows = low_confidence_claims(federated, "ELISA", 0.70)
        assert [r.id for r in rows] == ["FM-ELISA-018"]
        assert rows[0].confidence == 0.65

    @pytest.mark.parametrize("bad", [0.599, 1.001, 0.0, 2.0])
    def test_threshold_outside_band_rejected(self, federated, bad):
        with pytest.raises(RangeError):
            low_confidence_claims(federated, "LCMS_PRM", bad)

    @pytest.mark.parametrize("ok", [0.6, 1.0])
    def test_threshold_band_edges_accepted(self, federated, ok):
        low_confidence_claims(federated, "LCMS_PRM", ok)

    def test_unknown_subgraph(self, federated):
        with pytest.raises(KeyError):
            low_confidence_claims(federated, "NOPE", 0.7)


class TestMaskingExposures:
    def test_elisa_rows(self, federated):
        rows = masking_exposures(federated, "ELISA")
        assert [(r.failure_mode_id, r.loop) for r in rows] == [
            ("FM-ELISA-005", False),
            ("FM-ELISA-001", True),
        ]
        assert all(r.asset_name == "EL406 Plate Washer" for r in rows)
        assert rows[0].loop_path == ()
        assert rows[1].loop_path == (
            "Plate Washing",
            "Plate Washing",
            "EL406 Plate Washer",
            "Washer Carryover",
        )

    def test_lcms_has_none(self, federated):
        assert masking_exposures(federated, "LCMS_PRM") == []

    def test_empty_before_convergence(self, unconverged_federated):
        assert masking_exposures(unconverged_federated, "ELISA") == []

    def test_unknown_subgraph(self, federated):
        with pytest.raises(KeyError):
            masking_exposures(federated, "NOPE")


class TestAutomationReuse:
    def test_tier_census(self, federated):
        rows = automation_reuse(federated)
        assert len(rows) == 22
        tiers = {}
        for row in rows:
            tiers[row.tier] = tiers.get(row.tier, 0) + 1
        assert tiers == {"SHARED_BOTH": 10, "ELISA_ONLY": 6, "LCMS_PRM_ONLY": 6}

    def test_shared_assets_sort_first(self, federated):
        rows = automation_reuse(federated)
        shared = [r for r in rows if r.tier == "SHARED_BOTH"]
        assert rows[: len(shared)] == shared
        assert shared[0].name == "Bravo Liquid Handler"
        assert shared[0].use_cases == ("Bulk Reagent Dispensing", "Serial Dilution")
        assert shared[0].serving_subgraphs == ("ELISA", "LCMS_PRM")

    def test_single_subgraph_tier_names(self, federated):
        rows = automation_reuse(federated)
        for row in rows:
            if row.tier == "ELISA_ONLY":
                assert row.serving_subgraphs == ("ELISA",)
            elif row.tier == "LCMS_PRM_ONLY":
                assert row.serving_subgraphs == ("LCMS_PRM",)

    def test_unused_tier(self):
        g, _ = add_node(syn_graph(), "AutomationAsset", "AA-shelfware")
        rows = automation_reuse(g)
        assert len(rows) == 1
        assert rows[0].tier == "UNUSED"
        assert rows[0].use_cases == ()
        assert rows[0].serving_subgraphs == ()


class TestSubgraphStats:
    def test_elisa(self, federated):
        s = subgraph_stats(federated, "ELISA")
        assert s.subgraph == "ELISA"
        assert s.n_failure_modes == 18
        assert s.mean_confidence == 0.82
        assert s.histogram == (0, 1, 0, 4, 6, 5, 2, 0)
        assert s.n_at_floor == 0
        assert s.n_silent == 3

    def test_lcms(self, federated):
        s = subgraph_stats(federated, "LCMS_PRM")
        assert s.n_failure_modes == 23
        assert s.mean_confidence == 0.71
        assert s.histogram == (3, 7, 4, 7, 1, 0, 1, 0)
        assert s.n_at_floor == 3
        assert s.n_silent == 4

    def test_histogram_counts_everything(self, federated):
        for sg in ("ELISA", "LCMS_PRM"):
            s = subgraph_stats(federated, sg)
            assert sum(s.histogram) == s.n_failure_modes

    def test_empty_subgraph(self):
        g, _ = add_node(syn_graph(), "WorkflowStep", "ST-SYN-001", step_index=1)
        s = subgraph_stats(g, SG)
        assert s.n_failure_modes == 0
        assert s.mean_confidence is None
        assert s.histogram == (0,) * 8
        assert s.n_silent == 0

    def test_top_bin_clamps(self):
        g, _ = add_fm(syn_graph(), "FM-SYN-001", confidence=1.0)
        s = subgraph_stats(g, SG)
        assert s.histogram == (0, 0, 0, 0, 0, 0, 0, 1)

    def test_floor_lands_in_first_bin(self):
        g, _ = add_fm(syn_graph(), "FM-SYN-001", confidence=0.6)
        s = subgraph_stats(g, SG)
        assert s.histogram[0] == 1
        assert s.n_at_floor == 1

    def test_unknown_subgraph(self, federated):
        with pytest.raises(KeyError):
            subgraph_stats(federated, "NOPE")

    def test_is_a_frozen_dataclass_built_once(self, federated):
        s = subgraph_stats(federated, "ELISA")
        assert type(s) is queries.SubgraphStats is skg.SubgraphStats
        assert dataclasses.is_dataclass(s)
        assert dataclasses.asdict(s)["histogram"] == (0, 1, 0, 4, 6, 5, 2, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.n_silent = 0
        assert pickle.loads(pickle.dumps(s)) == s
        assert repr(s).startswith("SubgraphStats(subgraph='ELISA', ")

    @pytest.mark.parametrize("subgraph", ["ELISA", "LCMS_PRM", "AUTOMATION", "PROGRAM"])
    def test_record_is_the_dataclass_as_a_dict(self, federated, subgraph):
        record = queries.subgraph_stats_record(federated, subgraph)
        assert record == dataclasses.asdict(subgraph_stats(federated, subgraph))
        assert list(record) == [f.name for f in dataclasses.fields(queries.SubgraphStats)]

    def test_record_of_unknown_subgraph(self, federated):
        with pytest.raises(KeyError):
            queries.subgraph_stats_record(federated, "NOPE")

    def test_unknown_module_attribute_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            queries.no_such_name


class TestRendering:
    def test_tsv_layout(self, federated):
        rows = ranked_silent_failures(federated, "ELISA")
        text = rows_to_tsv(rows)
        lines = text.splitlines()
        assert lines[0].split("\t") == [
            "id",
            "name",
            "confidence",
            "silent",
            "masking_assets",
            "confidence_method",
            "source_scientist",
        ]
        assert lines[1].startswith("FM-ELISA-001\tWasher Carryover\t0.9\ttrue\t")
        assert text.endswith("\n")

    def test_tsv_cell_conventions(self, federated):
        rows = masking_exposures(federated, "ELISA")
        lines = rows_to_tsv(rows).splitlines()
        # tuples join with a pipe, booleans render lowercase
        assert "Plate Washing|Plate Washing|EL406 Plate Washer|Washer Carryover" in lines[2]
        assert "\tfalse\t" in lines[1]
        assert "\ttrue\t" in lines[2]

    def test_tsv_none_is_empty_cell(self):
        g, _ = add_fm(syn_graph(), "FM-SYN-001", confidence=0.7)
        rows = low_confidence_claims(g, SG, 0.75)
        line = rows_to_tsv(rows).splitlines()[1]
        # optional columns that were never set come out as empty cells
        assert line.split("\t")[4] == "false"

    def test_tsv_escapes_text_and_list_items(self):
        rows = [
            queries.AssetReuseRow(
                id="AA-1",
                name="back\\slash\r\nand\ttab",
                use_cases=("a|b", "c\\d", "e\nf"),
                serving_subgraphs=(),
                tier="T",
            ),
            queries.AssetReuseRow(
                id="AA-2", name="plain", use_cases=("x", "y"), serving_subgraphs=("S",), tier="T"
            ),
            # a pipe is the only escape in the row
            queries.AssetReuseRow(
                id="AA-3", name="n", use_cases=("a|b",), serving_subgraphs=(), tier="T"
            ),
        ]
        assert rows_to_tsv(rows).splitlines() == [
            "id\tname\tuse_cases\tserving_subgraphs\ttier",
            "AA-1\tback\\\\slash\\r\\nand\\ttab\ta\\|b|c\\\\d|e\\nf\t\tT",
            "AA-2\tplain\tx|y\tS\tT",
            "AA-3\tn\ta\\|b\t\tT",
        ]
        # JSON stays exact
        assert json.loads(rows_to_json(rows))[0]["use_cases"] == ["a|b", "c\\d", "e\nf"]

    def test_tsv_empty_rows(self):
        assert rows_to_tsv([]) == ""

    def test_tsv_numbers_canonical(self, federated):
        text = rows_to_tsv(step_decision_points(federated, "ELISA", "ST-ELISA-009"))
        assert "\t0.08\t" in text
        assert "\t15\t" in text  # 15.0 renders without the trailing zero

    def test_json_round_trip(self, federated):
        rows = elicitation_gaps(federated, "ELISA")
        text = rows_to_json(rows)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert [r["id"] for r in parsed] == ["ST-ELISA-003", "ST-ELISA-008", "ST-ELISA-009"]
        assert parsed[2]["decision_point_count"] == 6

    def test_json_tuples_become_arrays(self, federated):
        parsed = json.loads(rows_to_json(automation_reuse(federated)))
        assert parsed[0]["use_cases"] == ["Bulk Reagent Dispensing", "Serial Dilution"]

    def test_json_empty_rows(self):
        assert json.loads(rows_to_json([])) == []

    def test_json_and_tsv_of_every_query_match_the_general_renderer(self, federated):
        # render_value is the reference for rows_to_json
        sweeps = [automation_reuse(federated)]
        for sg in ("ELISA", "LCMS_PRM"):
            sweeps += [
                ranked_failures(federated, sg),
                elicitation_gaps(federated, sg),
                low_confidence_claims(federated, sg, 0.8),
                masking_exposures(federated, sg),
            ]
        sweeps.append(step_decision_points(federated, "ELISA", "ST-ELISA-009"))
        assert sum(map(len, sweeps)) > 50
        for rows in sweeps:
            assert rows_to_json(rows) == render_value([row._asdict() for row in rows]) + "\n"
            for line, row in zip(rows_to_tsv(rows).splitlines()[1:], rows):
                assert line.split("\t") == [reference_cell(value) for value in row]

    def test_json_non_plain_float_renders_canonically(self):
        # 5e-05 has no plain form: its repr is in exponent notation
        row = DecisionPointRow(
            "DP-SYN-001", "tiny", "absorbance", 5e-05, "<", "AU", "go", "stop", "call", 0.8
        )
        rows = [row, row._replace(id="DP-SYN-002", threshold_value=0.5)]
        text = rows_to_json(rows)
        assert text == render_value([r._asdict() for r in rows]) + "\n"
        assert '"threshold_value": 0.00005' in text
        assert "e-05" not in text


# every row class the queries return
ROW_CLASSES = [
    cls
    for name, cls in vars(queries).items()
    if name.endswith("Row") and isinstance(cls, type) and issubclass(cls, tuple)
]
# text a JSON string must escape, or must pass through, beside any other character
ROW_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\xe9\u2713/'), st.characters()),
    max_size=8,
)
ROW_FLOATS = st.one_of(
    # 5e-05 has no plain form; 1e16 and 3.0 are integral; -0.0 renders as 0
    st.sampled_from([5e-05, 1e-07, 1e16, 3.0, -0.0, 0.125, 0.1234567]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ROW_TEXTS = st.lists(ROW_TEXT, max_size=3).map(tuple)
# a row's ints are counts; beyond 2**53, render_value's fixed-point format rounds them
ROW_INTS = st.integers(-(2**53), 2**53)
ROW_CELLS = {str: ROW_TEXT, float: ROW_FLOATS, bool: st.booleans(), int: ROW_INTS}
ROW_CELLS[tuple[str, ...]] = ROW_TEXTS
# an optional field holds a node's property, which may be of any property kind
ROW_CELLS[bool | None] = st.one_of(st.none(), st.booleans(), ROW_FLOATS, ROW_TEXT, ROW_TEXTS)


def row_lists():
    def rows_of(cls):
        hints = typing.get_type_hints(cls)
        row = st.builds(cls, *(ROW_CELLS[hints[name]] for name in cls._fields))
        return st.lists(row, max_size=4)

    return st.sampled_from(ROW_CLASSES).flatmap(rows_of)


class TestJsonRows:
    def test_every_row_class_is_generated(self):
        assert len(ROW_CLASSES) == 6
        for cls in ROW_CLASSES:
            hints = typing.get_type_hints(cls)
            assert all(hints[name] in ROW_CELLS for name in cls._fields), cls

    @settings(max_examples=100)
    @given(row_lists())
    def test_rows_render_as_the_general_renderer_renders_them(self, rows):
        assert rows_to_json(rows) == render_value([row._asdict() for row in rows]) + "\n"


def reference_cell(value: object) -> str:
    """A TSV cell by the rules rows_to_tsv states: empty, lowercase, canonical, piped."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return render_number(value)
    if isinstance(value, tuple):
        return "|".join(map(reference_cell, value))
    return str(value)


class TestGraphEquivalence:
    def test_rebuilt_store_answers_identically(self, federated, fresh_federated):
        for sg in ("ELISA", "LCMS_PRM"):
            assert ranked_failures(federated, sg) == ranked_failures(fresh_federated, sg)
            assert subgraph_stats(federated, sg) == subgraph_stats(fresh_federated, sg)
        assert automation_reuse(federated) == automation_reuse(fresh_federated)
