import copy
import hashlib
import itertools
import json
import re
from functools import lru_cache, partial

import pytest
from conftest import DOC_SUBGRAPHS, FIXTURES, ISSUE_REPORT
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skg import (
    EXECUTION_SUBGRAPH,
    Edge,
    Graph,
    NodeKey,
    Prop,
    Provenance,
    RegistryMismatch,
    Rejected,
    SeoParseError,
    SubgraphMismatch,
    apply_plan,
    approve_pending,
    builtin_registry,
    canonical_serialize,
    compile_seo,
    digest_path,
    emit_cypher,
    graph_hash,
    load_plan,
    load_store,
    merge,
    parse_seo,
    plan_to_bytes,
    serialize_seo,
    validate_graph,
    validate_seo,
)
from skg.annotator import MergePlan, PlanProvenance, _property_fields
from skg.cli import EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from skg.metrics import default_aliases, normalize_label
from skg.seo import (
    AutomationContextClaim,
    DecisionPointClaim,
    EvidentiaryInputClaim,
    FailureModeClaim,
    MethodAlternativeClaim,
    ProgramMilestoneClaim,
    StepRecord,
    _fields,
)

SD = Provenance.SCHEMA_DEFAULT
IC = Provenance.INTERVIEW_CONFIRMED


def json_doc(
    steps=None,
    decision_points=None,
    automation_context=None,
    method_alternatives=None,
    subgraph="TESTSG",
    pre_extracted=False,
):
    return parse_seo(
        json.dumps(
            {
                "session_mode": "DESIGN_EXPERT",
                "protocol": {
                    "workflow_id": "WF-T-01",
                    "workflow_name": "Test Workflow",
                    "subgraph": subgraph,
                    "pre_extracted": pre_extracted,
                    "steps": steps or [],
                },
                "decision_model": {
                    "_elicitation_scope": "full",
                    "decision_points": decision_points,
                    "design_rationale": None,
                },
                "strategic": None,
                "method_alternatives": method_alternatives,
                "automation_context": automation_context,
                "twin_metadata": {
                    "source_scientist": "T. Example",
                    "session_mode": "DESIGN_EXPERT",
                },
            }
        )
    )


def claim(name, **overrides):
    fields = {
        "name": name,
        "confidence": 0.8,
        "confidence_method": "linguistic_approximation",
        "source_scientist": "T. Example",
    }
    fields.update(overrides)
    return fields


def named_stub(name):
    """The property map of a stub whose label requires only ``name``."""
    return {"name": Prop(name, SD), "flagged_for_review": Prop(True, SD)}


DECISION_POINT = {
    "condition_type": "threshold",
    "threshold_value": 1.0,
    "comparator": "<",
    "units": "au",
    "pass_action": "go",
    "fail_action": "stop",
    "escalation_action": "ask",
    "confidence": 0.81,
    "confidence_method": "linguistic_approximation",
    "source_scientist": "T. Example",
}


def director_doc(source):
    """A DIRECTOR session whose one evidentiary input is sourced from ``source``."""
    return parse_seo(
        json.dumps(
            {
                "session_mode": "DIRECTOR",
                "protocol": None,
                "decision_model": None,
                "strategic": {
                    "program_milestones": [
                        {
                            "name": "First in human",
                            "evidentiary_inputs": [
                                {
                                    "name": "PK exposure",
                                    "required_output": "AUC",
                                    "quality_threshold": "CV < 20 %",
                                    "decision_consequence": "dose escalation",
                                    "sourced_from": source,
                                }
                            ],
                        }
                    ]
                },
                "method_alternatives": None,
                "automation_context": None,
                "twin_metadata": {"source_scientist": "D. Irector", "session_mode": "DIRECTOR"},
            }
        )
    )


def node_by_id(plan, node_id):
    for stmt in plan.nodes:
        if stmt.key.id == node_id:
            return stmt
    raise AssertionError(f"{node_id} not in plan")


class TestCompile:
    def test_invalid_document_is_rejected_with_report(self):
        doc = json_doc([{"name": "s", "step_index": 1, "failure_modes": [claim("f", confidence=0.5)]}])
        with pytest.raises(Rejected) as err:
            compile_seo(doc, "TESTSG")
        assert err.value.report.has("ConfidenceOutOfRange")

    def test_subgraph_mismatch(self, elisa_doc):
        with pytest.raises(SubgraphMismatch):
            compile_seo(elisa_doc, "WRONG")

    def test_plan_bytes_are_deterministic(self, elisa_doc, fixtures_dir):
        again = parse_seo((fixtures_dir / "elisa.seo.json").read_bytes())
        assert plan_to_bytes(compile_seo(elisa_doc, "ELISA")) == plan_to_bytes(
            compile_seo(again, "ELISA")
        )

    def test_provenance_block(self, elisa_doc):
        plan = compile_seo(elisa_doc, "ELISA")
        assert plan.provenance.doc_sha256 == hashlib.sha256(serialize_seo(elisa_doc)).hexdigest()
        assert plan.provenance.source_scientist == "M. Alvarez"
        assert plan.provenance.session_mode == "DESIGN_EXPERT"
        assert plan.provenance.subgraph == "ELISA"
        assert plan.provenance.registry_version == "skg-ontology-1"

    def test_derived_ids(self):
        doc = json_doc(
            steps=[
                {"name": "one", "step_index": 1, "failure_modes": [claim("fa")]},
                {"name": "two", "step_index": 2, "failure_modes": [claim("fb"), claim("fc")]},
            ],
            decision_points=[
                {
                    "step_id": "ST-TESTSG-001",
                    "condition_type": "threshold",
                    "threshold_value": 2.0,
                    "comparator": "<=",
                    "units": "au",
                    "pass_action": "go",
                    "fail_action": "stop",
                    "escalation_action": "ask",
                    "confidence": 0.81,
                    "confidence_method": "linguistic_approximation",
                    "source_scientist": "T. Example",
                }
            ],
            method_alternatives=[{"step_id": "ST-TESTSG-002", "name": "other way"}],
        )
        plan = compile_seo(doc, "TESTSG")
        ids = {stmt.key.id for stmt in plan.nodes}
        assert {"ST-TESTSG-001", "ST-TESTSG-002", "FM-TESTSG-001", "FM-TESTSG-002", "FM-TESTSG-003"} <= ids
        assert "DP-TESTSG-001" in ids
        assert "MA-TESTSG-001" in ids

    def test_explicit_ids_respected(self, elisa_doc):
        plan = compile_seo(elisa_doc, "ELISA")
        ids = {stmt.key.id for stmt in plan.nodes}
        assert "FM-ELISA-001" in ids
        assert "ST-ELISA-009" in ids
        assert "DP-ELISA-006" in ids

    def test_cascade_resolves_to_claims_before_stubbing(self):
        doc = json_doc(
            steps=[
                {
                    "name": "one",
                    "step_index": 1,
                    "failure_modes": [
                        claim("Primary Failure", cascades_to=["Known Downstream", "Ghost Failure"]),
                        claim("Known Downstream"),
                    ],
                }
            ]
        )
        plan = compile_seo(doc, "TESTSG")
        ids = {stmt.key.id for stmt in plan.nodes}
        # the claimed target resolves to its claim node, the unknown one stubs
        assert "FM-ghost-failure" in ids
        assert "FM-known-downstream" not in ids
        assert node_by_id(plan, "FM-ghost-failure").properties == {
            "name": Prop("Ghost Failure", SD),
            "confidence": Prop(0.6, SD),
            "confidence_method": Prop("", SD),
            "source_scientist": Prop("", SD),
            "silent_failure_risk": Prop(False, SD),
            "is_critical_path": Prop(False, SD),
            "flagged_for_review": Prop(True, SD),
        }

    def test_masking_and_detection_stubs(self):
        doc = json_doc(
            steps=[
                {
                    "name": "one",
                    "step_index": 1,
                    "failure_modes": [
                        claim("f", masked_by_assets=["Plate Washer X"], detected_by=["CV spike"])
                    ],
                }
            ]
        )
        plan = compile_seo(doc, "TESTSG")
        asset = node_by_id(plan, "AA-plate-washer-x")
        assert asset.key.subgraph == EXECUTION_SUBGRAPH
        assert asset.key.label == "AutomationAsset"
        assert asset.properties == named_stub("Plate Washer X")
        signature = node_by_id(plan, "ES-cv-spike")
        assert signature.key.subgraph == "TESTSG"
        assert signature.key.label == "ErrorSignature"
        assert signature.properties == named_stub("CV spike")

    def test_required_use_cases_stub_into_execution_subgraph(self):
        doc = json_doc(steps=[{"name": "one", "step_index": 1, "required_use_cases": ["Plate Washing"]}])
        plan = compile_seo(doc, "TESTSG")
        uc = node_by_id(plan, "UC-plate-washing")
        assert uc.key.subgraph == EXECUTION_SUBGRAPH
        assert uc.properties == named_stub("Plate Washing")

    def test_real_statement_displaces_stub_within_one_plan(self):
        doc = json_doc(
            steps=[{"name": "one", "step_index": 1, "required_use_cases": ["Plate Washing"]}],
            automation_context=[
                {"asset_name": "Washer 9000", "use_case_names": ["Plate Washing"]}
            ],
        )
        plan = compile_seo(doc, "TESTSG")
        uc = node_by_id(plan, "UC-plate-washing")
        assert uc.properties["name"].provenance is IC
        assert uc.properties["flagged_for_review"].value is False

    def test_described_asset_displaces_its_masking_stub(self):
        doc = json_doc(
            steps=[
                {
                    "name": "one",
                    "step_index": 1,
                    "failure_modes": [claim("f", masked_by_assets=["Washer 9000"])],
                }
            ],
            automation_context=[{"asset_name": "Washer 9000", "log_scope": "cycle log"}],
        )
        plan = compile_seo(doc, "TESTSG")
        assert node_by_id(plan, "AA-washer-9000").properties == {
            "flagged_for_review": Prop(False, IC),
            "name": Prop("Washer 9000", IC),
            "log_scope": Prop("cycle log", IC),
        }

    def test_unknown_decision_step_gets_a_stub(self):
        doc = json_doc(decision_points=[dict(DECISION_POINT, step_id="ST-ELSEWHERE-001")])
        plan = compile_seo(doc, "TESTSG")
        stub = node_by_id(plan, "ST-ELSEWHERE-001")
        assert stub.key.label == "WorkflowStep"
        assert stub.properties == {
            "name": Prop("ST-ELSEWHERE-001", SD),
            "step_index": Prop(0, SD),
            "flagged_for_review": Prop(True, SD),
        }

    def test_sourced_workflow_gets_a_stub_in_its_own_subgraph(self):
        source = {"subgraph": "ELSEWHERE", "workflow_id": "WF-ELSEWHERE-01"}
        plan = compile_seo(director_doc(source), "PROGRAM")
        stub = node_by_id(plan, "WF-ELSEWHERE-01")
        assert (stub.key.subgraph, stub.key.label) == ("ELSEWHERE", "AssayWorkflow")
        assert stub.properties == named_stub("WF-ELSEWHERE-01")
        (edge,) = plan.pending_edges
        assert (edge.edge_type, edge.dst) == ("SOURCED_FROM", stub.key)

    def test_every_stub_kind_passes_graph_validation(self, registry):
        doc = json_doc(
            steps=[
                {
                    "name": "one",
                    "step_index": 1,
                    "required_use_cases": ["Plate Washing"],
                    "failure_modes": [
                        claim(
                            "f",
                            cascades_to=["Ghost Failure"],
                            masked_by_assets=["Plate Washer X"],
                            detected_by=["CV spike"],
                        )
                    ],
                }
            ],
            decision_points=[dict(DECISION_POINT, step_id="ST-ELSEWHERE-001")],
            method_alternatives=[{"step_id": "ST-ELSEWHERE-002", "name": "other way"}],
        )
        source = {"subgraph": "ELSEWHERE", "workflow_id": "WF-ELSEWHERE-01"}
        plans = [compile_seo(doc, "TESTSG"), compile_seo(director_doc(source), "PROGRAM")]
        stubs = [node for plan in plans for node in plan.nodes if node.get("flagged_for_review")]
        assert sorted(node.key.label for node in stubs) == [
            "AssayWorkflow",
            "AutomationAsset",
            "ErrorSignature",
            "FailureMode",
            "UseCase",
            "WorkflowStep",
            "WorkflowStep",
        ]
        graph = Graph(registry)
        for plan in plans:
            graph = apply_plan(graph, plan)
        assert validate_graph(graph, registry).ok
        assert validate_graph(approve_pending(graph)[0], registry).ok

    def test_pre_extracted_claims_carry_default_provenance(self):
        doc = json_doc(
            steps=[{"name": "one", "step_index": 1, "failure_modes": [claim("f")]}],
            pre_extracted=True,
        )
        plan = compile_seo(doc, "TESTSG")
        step = node_by_id(plan, "ST-TESTSG-001")
        assert step.properties["name"].provenance is SD
        fm = node_by_id(plan, "FM-TESTSG-001")
        assert fm.properties["confidence"].provenance is SD

    def test_interviewed_claims_are_confirmed(self):
        doc = json_doc(steps=[{"name": "one", "step_index": 1, "failure_modes": [claim("f")]}])
        plan = compile_seo(doc, "TESTSG")
        fm = node_by_id(plan, "FM-TESTSG-001")
        assert fm.properties["confidence"].provenance is IC
        assert fm.properties["silent_failure_risk"].provenance is SD  # unstated default

    def test_calibration_record_aggregates_claims(self, elisa_doc):
        plan = compile_seo(elisa_doc, "ELISA")
        sha8 = plan.provenance.doc_sha256[:8]
        cal = node_by_id(plan, f"CAL-ELISA-{sha8}")
        assert cal.properties["n_claims"].value == 24
        assert cal.properties["n_linguistic"].value == 22
        assert cal.properties["n_shelf"].value == 2
        assert cal.properties["methods_used"].value == (
            "SHELF_elicited",
            "linguistic_approximation",
        )
        assert cal.properties["calibration_status"].value == "calibrated"
        calibrated = [e for e in plan.edges if e.edge_type == "CALIBRATED_BY"]
        assert len(calibrated) == 24

    def test_no_claims_means_no_calibration_record(self, automation_doc, program_doc):
        for doc, subgraph in ((automation_doc, "AUTOMATION"), (program_doc, "PROGRAM")):
            plan = compile_seo(doc, subgraph)
            assert not [s for s in plan.nodes if s.key.label == "CalibrationRecord"]

    def test_pending_exactly_covers_cross_subgraph_edges(self, all_docs):
        for subgraph, doc in all_docs.items():
            plan = compile_seo(doc, subgraph)
            for stmt in plan.edges:
                assert stmt.src.subgraph == stmt.dst.subgraph
                assert not stmt.pending
            for stmt in plan.pending_edges:
                assert stmt.src.subgraph != stmt.dst.subgraph
                assert stmt.pending

    def test_precedes_chain_follows_step_index(self):
        doc = json_doc(
            steps=[
                {"name": "third", "step_index": 3},
                {"name": "first", "step_index": 1},
                {"name": "second", "step_index": 2},
            ]
        )
        plan = compile_seo(doc, "TESTSG")
        chain = sorted(
            (e.src.id, e.dst.id) for e in plan.edges if e.edge_type == "PRECEDES"
        )
        assert chain == [
            ("ST-TESTSG-001", "ST-TESTSG-002"),
            ("ST-TESTSG-002", "ST-TESTSG-003"),
        ]

    def test_sourcing_pends_toward_the_producing_subgraph(self, program_doc):
        plan = compile_seo(program_doc, "PROGRAM")
        sourced = [e for e in plan.pending_edges if e.edge_type == "SOURCED_FROM"]
        assert {(e.src.subgraph, e.dst.subgraph) for e in sourced} == {
            ("PROGRAM", "ELISA"),
            ("PROGRAM", "LCMS_PRM"),
        }
        assert {e.dst.id for e in sourced} == {"WF-ELISA-PK-01", "WF-LCMS-PRM-01"}


ELISA_JSON = json.loads((FIXTURES / "elisa.seo.json").read_text(encoding="utf-8"))

confidences = st.sampled_from([0.59, 0.6, 0.7, 0.85, 0.88, 0.92, 1.0, 1.01])
methods = st.sampled_from(["linguistic_approximation", "SHELF_elicited"])
frequency = st.one_of(st.none(), st.sampled_from([-0.1, 0.0, 0.05, 0.2, 0.5, 1.0, 1.2]))
triples = st.one_of(
    st.just((None, None, None)),
    st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]), min_size=3, max_size=3).map(sorted),
    st.tuples(frequency, frequency, frequency),
)
risks = st.sampled_from([None, False, True])
# a change absent from the drawn dict keeps the fixture's value
failure_mode_changes = st.builds(
    lambda changes, triple: dict(
        changes, **dict(zip(("frequency_min", "frequency_best", "frequency_max"), triple))
    ),
    st.fixed_dictionaries(
        {
            "confidence": confidences,
            "confidence_method": methods,
            "silent_failure_risk": risks,
            "is_critical_path": risks,
        },
        optional={"source_phrase": st.none()},
    ),
    triples,
)
decision_point_changes = st.fixed_dictionaries(
    {},
    optional={
        "confidence": st.one_of(st.none(), confidences),
        "confidence_method": st.one_of(st.none(), methods),
        "threshold_value": st.none(),
        "source_phrase": st.none(),
    },
)


# a failure mode (FM-ELISA-002) stated once with a SHELF triple on a silent
# failure, then restated with both risk booleans false and no triple: each
# document validates, but the merged node would keep the first triple and
# the second booleans
SHELF_STATEMENT = {
    "confidence_method": "SHELF_elicited",
    "silent_failure_risk": True,
    "frequency_min": 0.1,
    "frequency_best": 0.2,
    "frequency_max": 0.3,
}
RISK_RETRACTED = {"silent_failure_risk": False, "is_critical_path": False}
MERGED_SHELF_ISSUE = (
    "ShelfEligibilityViolation",
    "ELISA:FailureMode:FM-ELISA-002",
    "frequency estimates need silent_failure_risk or is_critical_path",
)


def elisa_variant(change: dict):
    """The ELISA fixture with its first failure mode (FM-ELISA-002) updated."""
    raw = copy.deepcopy(ELISA_JSON)
    raw["protocol"]["steps"][0]["failure_modes"][0].update(change)
    return parse_seo(json.dumps(raw))


class TestMergedClaimRules:
    """Applying a plan refuses a merged node that breaks a claim rule."""

    def test_restated_claim_is_refused(self, registry):
        graph = apply_plan(Graph(registry), compile_seo(elisa_variant(SHELF_STATEMENT), "ELISA"))
        restated = compile_seo(elisa_variant(RISK_RETRACTED), "ELISA")
        with pytest.raises(Rejected) as err:
            apply_plan(graph, restated)
        assert [tuple(issue) for issue in err.value.report.issues] == [MERGED_SHELF_ISSUE]

    def test_restated_claim_in_the_other_order_merges(self, registry):
        graph = apply_plan(Graph(registry), compile_seo(elisa_variant(RISK_RETRACTED), "ELISA"))
        graph = apply_plan(graph, compile_seo(elisa_variant(SHELF_STATEMENT), "ELISA"))
        assert validate_graph(graph, registry).ok

    def test_apply_refuses_and_leaves_the_store(self, tmp_path, capsys):
        docs = []
        for name, change in (("shelf", SHELF_STATEMENT), ("retracted", RISK_RETRACTED)):
            raw = copy.deepcopy(ELISA_JSON)
            raw["protocol"]["steps"][0]["failure_modes"][0].update(change)
            docs.append(tmp_path / f"{name}.seo.json")
            docs[-1].write_text(json.dumps(raw), encoding="utf-8")
        store = tmp_path / "twin.skg.jsonl"
        assert main(["apply", str(docs[0]), "--graph", str(store)]) == EXIT_OK
        before = store.read_bytes(), digest_path(store).read_bytes()
        capsys.readouterr()
        assert main(["apply", str(docs[1]), "--graph", str(store)]) == EXIT_REJECTED
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "\t".join(MERGED_SHELF_ISSUE) + "\n")
        assert (store.read_bytes(), digest_path(store).read_bytes()) == before


class TestClaimRulesAgree:
    """Documents and graphs are held to one set of claim rules."""

    @example(
        fm={
            "confidence_method": "linguistic_approximation",
            "silent_failure_risk": True,
            "frequency_min": 0.1,
        },
        dp={},
    )
    @given(fm=failure_mode_changes, dp=decision_point_changes)
    @settings(max_examples=300)
    def test_a_valid_document_compiles_to_a_valid_graph(self, registry, fm, dp):
        raw = copy.deepcopy(ELISA_JSON)
        raw["protocol"]["steps"][0]["failure_modes"][0].update(fm)
        raw["decision_model"]["decision_points"][0].update(dp)
        doc = parse_seo(json.dumps(raw))
        if not validate_seo(doc).ok:
            return
        graph = apply_plan(Graph(registry), compile_seo(doc, "ELISA"))
        assert validate_graph(graph, registry).issues == ()

    @example(fm_a=SHELF_STATEMENT, fm_b=RISK_RETRACTED)
    @given(fm_a=failure_mode_changes, fm_b=failure_mode_changes)
    @settings(max_examples=100)
    def test_two_valid_documents_merge_to_a_valid_graph_or_are_refused(
        self, registry, fm_a, fm_b
    ):
        docs = [elisa_variant(change) for change in (fm_a, fm_b)]
        if not all(validate_seo(doc).ok for doc in docs):
            return
        first, second = (compile_seo(doc, "ELISA") for doc in docs)
        graph = apply_plan(Graph(registry), first)
        try:
            graph = apply_plan(graph, second)
        except Rejected as err:
            # refused exactly for what the whole-store check finds on the merge
            unchecked = merge(graph, second.nodes + second.edges + second.pending_edges)
            assert set(err.report.issues) == set(validate_graph(unchecked, registry).issues)
            assert err.report.issues
            return
        assert validate_graph(graph, registry).issues == ()

    @pytest.mark.parametrize(
        ("cls", "label"),
        [
            (FailureModeClaim, "FailureMode"),
            (DecisionPointClaim, "DecisionPoint"),
            (StepRecord, "WorkflowStep"),
            (MethodAlternativeClaim, "MethodAlternative"),
            (ProgramMilestoneClaim, "ProgramMilestone"),
            (EvidentiaryInputClaim, "EvidentiaryInput"),
            (AutomationContextClaim, "AutomationAsset"),
        ],
    )
    def test_claim_properties_are_declared_with_their_kind(self, registry, cls, label):
        # one way only: a label may declare properties no claim states; record_issues
        # accepts undeclared properties, so a field added to a claim class alone
        # would reach the store unchecked without this
        declared = registry.node_types[label].declared_kinds()
        # compile sets flagged_for_review on every claim, stated or not
        kinds = {"flagged_for_review": "boolean"} | {f.name: f.kind for f in _fields(cls).values()}
        for name in [*(name for name, _ in _property_fields(cls)), "flagged_for_review"]:
            assert declared.get(name) == kinds[name], name

    # each claim class's properties in field order, booleans marked
    PROPERTY_FIELDS = {
        DecisionPointClaim: (
            "condition_type threshold_value comparator units pass_action fail_action "
            "escalation_action confidence confidence_method source_scientist "
            "source_phrase name"
        ),
        EvidentiaryInputClaim: "name required_output quality_threshold decision_consequence",
        FailureModeClaim: (
            "name description confidence confidence_method source_scientist "
            "source_phrase silent_failure_risk:boolean is_critical_path:boolean "
            "frequency_min frequency_best frequency_max flagged_for_review:boolean"
        ),
        MethodAlternativeClaim: "name description tradeoff",
        ProgramMilestoneClaim: "name",
        StepRecord: "name step_index description is_critical_path:boolean",
        AutomationContextClaim: "name log_scope",
    }

    @pytest.mark.parametrize("cls", list(PROPERTY_FIELDS), ids=lambda cls: cls.__name__)
    def test_property_fields_are_pinned(self, cls):
        fields = _property_fields(cls)
        got = " ".join(name + (":boolean" if boolean else "") for name, boolean in fields)
        assert got == self.PROPERTY_FIELDS[cls]


FIXTURE_JSON = {
    name: json.loads((FIXTURES / name).read_text(encoding="utf-8")) for name, _ in DOC_SUBGRAPHS
}
# the claim arrays of a document, as (path to the array, JSON name of a nested claim array)
CLAIM_ARRAYS = (
    (("protocol", "steps"), "failure_modes"),
    (("decision_model", "decision_points"), None),
    (("method_alternatives",), None),
    (("strategic", "program_milestones"), "evidentiary_inputs"),
    (("automation_context",), None),
)
UNCLAIMED_NAME = "Reagent Lot Change"  # names no claim of any fixture
# both reproductions of claims that once shared a node: a null id that compiles to
# FM-ELISA-002, and a cascade stub whose id a described failure mode states
NULL_ID = [(("protocol", "steps", 0, "failure_modes", 1, "id"), None)]
STUB_ID = [
    (("protocol", "steps", 0, "failure_modes", 1, "id"), "FM-reagent-lot-change"),
    (("protocol", "steps", 0, "failure_modes", 0, "cascades_to"), [UNCLAIMED_NAME]),
]

# two failure modes whose names alias to one form, one of them a cascade target
# named exactly; validate once passed it and the edge landed on the other
ALIAS_TWIN = [
    (("protocol", "steps", 4, "failure_modes", 1, "name"), "Washer Carry-Over"),
    (("protocol", "steps", 0, "failure_modes", 0, "cascades_to"), ["Washer Carryover"]),
]
# a target naming "High Background / Nonspecific Signal" through an alias, while its
# stub id is a claim's; validate once refused it, compile resolves it to FM-ELISA-005
ALIAS_TARGET = [
    (("protocol", "steps", 0, "failure_modes", 0, "cascades_to"), ["Hi Background"]),
    (("protocol", "steps", 4, "failure_modes", 1, "id"), "FM-hi-background"),
]
# three spellings of one undescribed failure mode as cascade targets, with the
# failure mode they alias to renamed; each spelling once became its own stub
STUB_SPELLINGS = [
    (("protocol", "steps", 1, "failure_modes", 0, "name"), "Something Else"),
    (("protocol", "steps", 0, "failure_modes", 0, "cascades_to"), ["Hi Background"]),
    (
        ("protocol", "steps", 0, "failure_modes", 1, "cascades_to"),
        ["Nonspecific Background Signal"],
    ),
]
# two instruments whose names differ by a bracketed qualifier alone; both once
# keyed to AA-plate-washer, and the second description replaced the first
PLATE_WASHERS = [
    {
        "asset_name": "Plate Washer (Bay 1)",
        "use_case_names": ["Plate Washing"],
        "log_scope": "full residual-volume log",
    },
    {
        "asset_name": "Plate Washer (Bay 2)",
        "use_case_names": ["Plate Washing"],
        "log_scope": "cycle completion only",
    },
]
BAYS = [
    (
        ("automation_context",),
        FIXTURE_JSON["automation.seo.json"]["automation_context"] + PLATE_WASHERS,
    )
]


def _name_field(path: tuple) -> str:
    """The JSON name of the name of the claim at ``path``."""
    return "asset_name" if path[0] == "automation_context" else "name"


def _claim_paths(raw: dict) -> list[tuple]:
    """The JSON path of every claim object in a document."""
    paths = []
    for array_path, nested in CLAIM_ARRAYS:
        array = raw
        for key in array_path:
            array = (array or {}).get(key)
        for i, record in enumerate(array or ()):
            paths.append((*array_path, i))
            for j, _ in enumerate(record.get(nested) or () if nested else ()):
                paths.append((*array_path, i, nested, j))
    return paths


def _at(raw, path: tuple):
    for key in path:
        raw = raw[key]
    return raw


# what a change writes: the pools below, and the ids compile generates in each subgraph
GENERATED_IDS = [
    f"{prefix}-{subgraph}-00{n}"
    for prefix in ("ST", "FM", "DP", "PM", "EI")
    for subgraph in ("ELISA", "LCMS_PRM", "PROGRAM")
    for n in (1, 2, 3)
]
KINDS = [None, True, 0.75, "x", []]
VALUES = [0.55, 0.6, 0.8, 1, 2, 3, True, False, "linguistic_approximation"]
CLAIM_PATHS = {name: _claim_paths(raw) for name, raw in FIXTURE_JSON.items() if _claim_paths(raw)}


@st.composite
def claim_field_changes(draw) -> tuple[str, list]:
    """A fixture document and one or two changes to a claim's id, name, cascade
    targets, or a field's value or value kind, each as (JSON path, new value)."""
    name = draw(st.sampled_from(sorted(CLAIM_PATHS)))
    raw, paths = FIXTURE_JSON[name], CLAIM_PATHS[name]
    failure_modes = [path for path in paths if "failure_modes" in path]
    records = [_at(raw, path) for path in paths]
    ids = sorted({r["id"] for r in records if r.get("id")}) + GENERATED_IDS
    names = [_at(raw, path).get(_name_field(path)) for path in paths]
    names = sorted(set(filter(None, names))) + [UNCLAIMED_NAME]
    changes = []
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(paths))
        op = draw(st.sampled_from(["id", "name", "cascade", "kind", "value"]))
        if op == "id":
            value = draw(st.sampled_from([None, "FM-reagent-lot-change", *ids]))
            changes.append(((*path, "id"), value))
        elif op == "name":
            changes.append(((*path, _name_field(path)), draw(st.sampled_from(names))))
        elif op == "cascade" and failure_modes:
            path = (*draw(st.sampled_from(failure_modes)), "cascades_to")
            changes.append((path, draw(st.lists(st.sampled_from(names), max_size=2))))
        elif op in ("kind", "value"):
            fields = sorted(k for k, v in _at(raw, path).items() if not isinstance(v, list))
            value = draw(st.sampled_from(KINDS if op == "kind" else VALUES))
            changes.append(((*path, draw(st.sampled_from(fields))), value))
    return name, changes


def _changed_document(name: str, changes: list) -> str:
    raw = copy.deepcopy(FIXTURE_JSON[name])
    for path, value in changes:
        _at(raw, path[:-1])[path[-1]] = value
    return json.dumps(raw)


class TestClaimKeys:
    """A document that validates keeps every claim it states, each on its own node."""

    @example(case=("elisa.seo.json", NULL_ID))
    @example(case=("elisa.seo.json", STUB_ID))
    @example(case=("elisa.seo.json", ALIAS_TWIN))
    @example(case=("elisa.seo.json", ALIAS_TARGET))
    @example(case=("elisa.seo.json", STUB_SPELLINGS))
    @example(case=("automation.seo.json", BAYS))
    @given(case=claim_field_changes())
    @settings(max_examples=150)
    def test_a_valid_document_compiles_every_claim_to_its_own_node(self, registry, case):
        name, changes = case
        subgraph = dict(DOC_SUBGRAPHS)[name]
        try:
            doc = parse_seo(_changed_document(name, changes))
        except SeoParseError:
            return
        if not validate_seo(doc, subgraph).ok:
            return
        plan = compile_seo(doc, subgraph)
        graph = apply_plan(Graph(registry), plan)
        assert validate_graph(graph, registry).issues == ()

        def count(label):
            return sum(1 for node in plan.nodes if node.key.label == label)

        milestones = doc.strategic.program_milestones or () if doc.strategic else ()
        decision_points = doc.decision_model.decision_points or () if doc.decision_model else ()
        assert count("DecisionPoint") == len(decision_points)
        assert count("ProgramMilestone") == len(milestones)
        assert count("EvidentiaryInput") == sum(len(pm.evidentiary_inputs) for pm in milestones)
        # one node for each asset entry, beside the stubs of assets a failure mode names
        entries = doc.automation_context or ()
        assets = [node.properties for node in plan.nodes if node.key.label == "AutomationAsset"]
        assets = [props for props in assets if not props["flagged_for_review"].value]
        assert len(assets) == len(entries)
        assert {props["name"].value: props.get("log_scope") for props in assets} == {
            a.name: None if a.log_scope is None else Prop(a.log_scope, IC) for a in entries
        }
        # cascade stubs are failure modes too, named by a target that names no claim
        steps = doc.protocol.steps if doc.protocol else ()
        failure_modes = [fm for step in steps for fm in step.failure_modes]
        names = {
            node.key: node.properties["name"].value
            for node in plan.nodes
            if node.key.label == "FailureMode"
        }
        assert all(list(names.values()).count(fm.name) == 1 for fm in failure_modes)
        # no two, stubs included, share a name under the aliases compile resolves
        # targets through, and each cascade edge lands on a node its source names
        aliases = default_aliases()
        described = {normalize_label(fm.name, aliases) for fm in failure_modes}
        assert len(described) == len(failure_modes)
        assert len({normalize_label(name, aliases) for name in names.values()}) == len(names)
        targets = {
            fm.name: {normalize_label(target, aliases) for target in fm.cascades_to}
            for fm in failure_modes
        }
        for edge in plan.edges:
            if edge.edge_type == "CASCADES_TO":
                assert normalize_label(names[edge.dst], aliases) in targets[names[edge.src]]

    @pytest.mark.parametrize("changes", [NULL_ID, STUB_ID], ids=["null-id", "stub-id"])
    def test_a_shared_key_is_a_located_duplicate_id(self, tmp_path, capsys, changes):
        doc = tmp_path / "elisa.seo.json"
        doc.write_text(_changed_document("elisa.seo.json", changes), encoding="utf-8")
        store = tmp_path / "fresh.skg.jsonl"
        assert main(["validate", str(doc)]) == EXIT_REJECTED
        report = capsys.readouterr().out
        assert main(["apply", str(doc), "--graph", str(store)]) == EXIT_REJECTED
        assert capsys.readouterr().err == report
        later = "protocol.steps[0].failure_modes[1]"
        assert report.startswith("DuplicateId\t") and report.count("\n") == 1
        assert later in report.split("\t")[1] + report.split("\t")[2]
        assert not store.exists()

    def test_assets_whose_names_slug_alike_are_a_located_duplicate_id(self, tmp_path, capsys):
        doc = tmp_path / "automation.seo.json"
        doc.write_text(_changed_document("automation.seo.json", BAYS), encoding="utf-8")
        store = tmp_path / "fresh.skg.jsonl"
        assert main(["validate", str(doc)]) == EXIT_REJECTED
        report = capsys.readouterr().out
        assert report == (
            "DuplicateId\tautomation_context[23]\tid AA-plate-washer already used at "
            "automation_context[22]\n"
        )
        apply = ["apply", str(doc), "--subgraph", "AUTOMATION", "--graph", str(store)]
        assert main(apply) == EXIT_REJECTED
        assert capsys.readouterr().err == report
        assert not store.exists()

    def test_alias_twins_are_a_located_duplicate_id(self, tmp_path, capsys):
        doc = tmp_path / "elisa.seo.json"
        doc.write_text(_changed_document("elisa.seo.json", ALIAS_TWIN), encoding="utf-8")
        store = tmp_path / "fresh.skg.jsonl"
        assert main(["validate", str(doc)]) == EXIT_REJECTED
        report = capsys.readouterr().out
        assert report == (
            "DuplicateId\tprotocol.steps[4].failure_modes[1]\tfailure mode name "
            "'Washer Carry-Over' collides with protocol.steps[4].failure_modes[0] "
            "after normalization\n"
        )
        assert main(["apply", str(doc), "--graph", str(store)]) == EXIT_REJECTED
        assert capsys.readouterr().err == report
        assert not store.exists()

    def test_a_target_named_through_an_alias_lands_on_that_claim(self, tmp_path, capsys):
        doc = tmp_path / "elisa.seo.json"
        doc.write_text(_changed_document("elisa.seo.json", ALIAS_TARGET), encoding="utf-8")
        assert main(["validate", str(doc)]) == EXIT_OK
        assert capsys.readouterr().out == "OK\n"
        assert main(["compile", str(doc), "--subgraph", "ELISA"]) == EXIT_OK
        statements = json.loads(capsys.readouterr().out)["statements"]
        cascades = [
            s["dst"]
            for s in statements
            if s.get("edge_type") == "CASCADES_TO" and s["src"] == "ELISA:FailureMode:FM-ELISA-002"
        ]
        assert cascades == ["ELISA:FailureMode:FM-ELISA-005"]

    def test_spellings_of_one_target_share_one_stub(self, tmp_path, capsys):
        doc = tmp_path / "elisa.seo.json"
        doc.write_text(_changed_document("elisa.seo.json", STUB_SPELLINGS), encoding="utf-8")
        store = tmp_path / "fresh.skg.jsonl"
        assert main(["validate", str(doc)]) == EXIT_OK
        assert main(["apply", str(doc), "--graph", str(store)]) == EXIT_OK
        assert main(["check", "--graph", str(store)]) == EXIT_OK
        assert capsys.readouterr().out.endswith("OK\n")
        graph = load_store(store, builtin_registry())
        stub = NodeKey("ELISA", "FailureMode", "FM-high-background-nonspecific-signal")
        # named by the first spelling in compile order, and every spelling lands on it
        assert graph.node(stub).properties["name"].value == "Hi Background"
        stubs = [n.key for n in graph.nodes("FailureMode") if not n.key.id.startswith("FM-ELISA-")]
        assert stubs == [stub]
        sources = sorted(e.src.id for e in graph.edges("CASCADES_TO") if e.dst == stub)
        assert sources == ["FM-ELISA-001", "FM-ELISA-002", "FM-ELISA-003"]

    def test_the_alias_file_governs_validate_and_apply(self, tmp_path, capsys, monkeypatch):
        # without the packaged aliases the twins' names differ, and the target names one
        table = tmp_path / "aliases.txt"
        table.write_text("# no aliases\n", encoding="utf-8")
        monkeypatch.setenv("SKG_ALIAS_FILE", str(table))
        doc = tmp_path / "elisa.seo.json"
        doc.write_text(_changed_document("elisa.seo.json", ALIAS_TWIN), encoding="utf-8")
        store = tmp_path / "fresh.skg.jsonl"
        assert main(["validate", str(doc)]) == EXIT_OK
        assert main(["apply", str(doc), "--graph", str(store)]) == EXIT_OK
        capsys.readouterr()
        graph = load_store(store, builtin_registry())
        src = NodeKey("ELISA", "FailureMode", "FM-ELISA-002")
        dst = [e.dst.id for e in graph.edges("CASCADES_TO") if e.src == src]
        assert dst == ["FM-ELISA-001"]

    @given(case=claim_field_changes())
    @settings(max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_validate_then_apply_exit_cleanly_and_agree(self, tmp_path, capsys, case):
        name, changes = case
        doc = tmp_path / name
        doc.write_text(_changed_document(name, changes), encoding="utf-8")
        store = tmp_path / "fresh.skg.jsonl"
        for path in (store, store.with_name("fresh.skg.sha256")):
            path.unlink(missing_ok=True)
        validated = main(["validate", str(doc)])  # anything raised fails the test
        out, err = capsys.readouterr()
        assert validated in (EXIT_OK, EXIT_REJECTED)
        if err:  # the document does not parse
            assert validated == EXIT_REJECTED and err.startswith("error: ")
        else:
            assert (out == "OK\n") == (validated == EXIT_OK)
        subgraph = dict(DOC_SUBGRAPHS)[name]
        applied = main(["apply", str(doc), "--graph", str(store), "--subgraph", subgraph])
        err = capsys.readouterr().err
        assert applied in (EXIT_OK, EXIT_REJECTED, EXIT_USAGE, EXIT_IO, EXIT_INVARIANT)
        assert err.startswith("error: ") or ISSUE_REPORT.fullmatch(err) if applied else err == ""
        if json.loads(doc.read_text(encoding="utf-8"))["protocol"] is not None:
            # validate's ids are apply's; without a protocol layer only apply knows the subgraph
            assert (applied == EXIT_OK) == (validated == EXIT_OK)
        if applied == EXIT_OK:
            assert main(["check", "--graph", str(store)]) == EXIT_OK
            assert capsys.readouterr() == ("OK\n", "")


def _name_colon_label(raw: dict) -> None:
    """A node whose label holds ":", and an edge naming it by key text."""
    node = dict(raw["statements"][0], label="Failure:Mode")
    raw["statements"].insert(0, node)
    raw["statements"][-1]["src"] = f"{node['subgraph']}:Failure:Mode:{node['id']}"


class TestPlanSerialization:
    @pytest.mark.parametrize("subgraph", ["ELISA", "AUTOMATION", "PROGRAM"])
    def test_round_trip(self, all_docs, subgraph):
        plan = compile_seo(all_docs[subgraph], subgraph)
        assert load_plan(plan_to_bytes(plan)) == plan

    def test_load_builds_each_key_once(self, elisa_doc):
        plan = load_plan(plan_to_bytes(compile_seo(elisa_doc, "ELISA")))
        keys = {id(node.key) for node in plan.nodes}
        endpoints = [key for edge in plan.edges + plan.pending_edges for key in edge[1:3]]
        assert all(id(key) in keys for key in endpoints)

    def test_applied_edge_endpoints_are_the_keys_of_their_nodes(self, elisa_doc, registry):
        # compile stubs every endpoint it names, so each is a plan node
        graph = apply_plan(Graph(registry), load_plan(plan_to_bytes(compile_seo(elisa_doc, "ELISA"))))
        assert graph.edges()
        for edge in graph.edges():
            assert graph.node(edge.src).key is edge.src
            assert graph.node(edge.dst).key is edge.dst

    def test_statement_layout(self, elisa_doc):
        plan = compile_seo(elisa_doc, "ELISA")
        raw = json.loads(plan_to_bytes(plan))
        assert raw["kind"] == "merge_plan"
        assert raw["version"] == 1
        kinds = [s["kind"] for s in raw["statements"]]
        assert kinds == ["node"] * len(plan.nodes) + ["edge"] * len(plan.edges)
        assert all(p["kind"] == "pending_edge" for p in raw["pending_edges"])
        assert set(raw["provenance"]) == {
            "doc_sha256",
            "source_scientist",
            "session_mode",
            "subgraph",
            "registry_version",
        }

    def test_load_rejects_other_documents(self):
        with pytest.raises(ValueError):
            load_plan(b'{"kind": "grocery_list"}')

    def test_load_rejects_future_versions(self, elisa_doc):
        raw = json.loads(plan_to_bytes(compile_seo(elisa_doc, "ELISA")))
        raw["version"] = 99
        with pytest.raises(ValueError):
            load_plan(json.dumps(raw))

    def test_load_rejects_unknown_statement_kinds(self, elisa_doc):
        raw = json.loads(plan_to_bytes(compile_seo(elisa_doc, "ELISA")))
        raw["statements"].append({"kind": "wish"})
        where = f"statements[{len(raw['statements']) - 1}]"
        message = f"{where}: kind 'wish', not a node or an edge"
        with pytest.raises(RegistryMismatch, match=f"^{re.escape(message)}$"):
            load_plan(json.dumps(raw))

    @pytest.mark.parametrize(
        "change",
        [
            lambda node: node.pop("id"),
            lambda node: node.update(properties={"name": {"value": "x"}}),
            lambda node: node.update(properties={"name": {"provenance": "X", "value": "x"}}),
            lambda node: node.update(id="bad id"),
            lambda node: node.update(
                properties={"name": {"provenance": "SCHEMA_DEFAULT", "value": 10**400}}
            ),
        ],
        ids=[
            "missing-id",
            "missing-provenance",
            "unknown-provenance",
            "id-bad-characters",
            "integer-beyond-float-range",
        ],
    )
    def test_load_rejects_malformed_node_statements(self, elisa_doc, change):
        raw = json.loads(plan_to_bytes(compile_seo(elisa_doc, "ELISA")))
        change(raw["statements"][0])
        with pytest.raises(RegistryMismatch, match=r"^statements\[0\]: "):
            load_plan(json.dumps(raw))

    @pytest.mark.parametrize(
        "change, location",
        [
            (lambda raw: raw["statements"][-1].update(src=5), r"statements\[\d+\]: src: "),
            (
                lambda raw: raw["statements"][-1].update(dst="ELISA:FailureMode"),
                r"statements\[\d+\]: dst: ",
            ),
            (lambda raw: raw["statements"][-1].pop("edge_type"), r"statements\[\d+\]: "),
            (
                lambda raw: raw["statements"][-1].update(src="ELISA:FailureMode:bad id"),
                r"statements\[\d+\]: src: ",
            ),
            (_name_colon_label, r"statements\[\d+\]: src: expected subgraph:Label:id"),
            (lambda raw: raw["statements"].insert(0, "node"), r"statements\[0\]: "),
            (lambda raw: raw.update(statements={}), r"statements: "),
            (lambda raw: raw["pending_edges"][0].update(src=["x"]), r"pending_edges\[0\]: src: "),
            (lambda raw: raw["pending_edges"][0].pop("edge_type"), r"pending_edges\[0\]: "),
            (lambda raw: raw["pending_edges"].insert(0, 3), r"pending_edges\[0\]: "),
            (lambda raw: raw["pending_edges"][0].update(kind="node"), r"pending_edges\[0\]: "),
            (lambda raw: raw["pending_edges"][0].pop("kind"), r"pending_edges\[0\]: "),
            (
                lambda raw: raw["statements"][3].update(kind="mystery"),
                r"statements\[3\]: kind 'mystery', not a node or an edge$",
            ),
            (
                lambda raw: raw["pending_edges"][0].update(kind="mystery"),
                r"pending_edges\[0\]: kind 'mystery', not an edge$",
            ),
            (lambda raw: raw.update(pending_edges=None), r"pending_edges: "),
            (lambda raw: raw.pop("provenance"), r"provenance: "),
            (lambda raw: raw.update(provenance="ELISA"), r"provenance: "),
            (lambda raw: raw["provenance"].pop("subgraph"), r"provenance: .*subgraph"),
            (lambda raw: raw["provenance"].update(doc_sha256=1), r"provenance: .*doc_sha256"),
            (
                lambda raw: raw["statements"].append(
                    dict(raw["pending_edges"].pop(0), kind="edge")
                ),
                r"statements\[\d+\]: MASKED_BY ELISA -> AUTOMATION must be pending$",
            ),
            (
                lambda raw: raw["pending_edges"].append(
                    dict(raw["statements"].pop(), kind="pending_edge")
                ),
                r"pending_edges\[\d+\]: \w+ ELISA -> ELISA must not be pending$",
            ),
            (
                lambda raw: raw["statements"].append(raw["statements"][0]),
                r"statements\[126\]: node statement after an edge statement",
            ),
            (
                lambda raw: raw["statements"][-1].update(properties={}),
                r"statements\[125\]: unknown member 'properties'$",
            ),
            (
                lambda raw: raw["pending_edges"][0].update(weight=1),
                r"pending_edges\[0\]: unknown member 'weight'$",
            ),
            (
                lambda raw: raw["statements"][0].update(bogus=1),
                r"statements\[0\]: unknown member 'bogus'$",
            ),
            (lambda raw: raw.update(extra=1), r"plan: unknown member 'extra'$"),
            (
                lambda raw: raw["provenance"].update(bogus="x"),
                r"provenance: unknown member 'bogus'$",
            ),
            (
                lambda raw: raw["statements"].append(raw["pending_edges"].pop(0)),
                r"statements\[126\]: MASKED_BY ELISA -> AUTOMATION is pending in statements$",
            ),
            (
                lambda raw: raw["pending_edges"].append(raw["statements"].pop()),
                r"pending_edges\[17\]: PRECEDES ELISA -> ELISA is approved in pending_edges$",
            ),
            (
                # the whole file is read before the plan rule is checked
                lambda raw: (
                    raw["statements"].append(raw["pending_edges"].pop(0)),
                    raw["pending_edges"][-1].update(src=5),
                ),
                r"pending_edges\[15\]: src: ",
            ),
        ],
        ids=[
            "edge-src-not-text",
            "edge-dst-not-a-key",
            "edge-without-type",
            "edge-src-id-bad-characters",
            "edge-src-label-with-colon",
            "statement-not-object",
            "statements-not-array",
            "pending-src-not-text",
            "pending-without-type",
            "pending-not-object",
            "pending-kind-node",
            "pending-kind-missing",
            "statement-kind-unknown",
            "pending-kind-unknown",
            "pending-not-array",
            "missing-provenance",
            "provenance-not-object",
            "provenance-member-missing",
            "provenance-member-not-text",
            "cross-subgraph-edge-approved",
            "same-subgraph-edge-pending",
            "node-after-edge",
            "edge-properties-member",
            "pending-edge-unknown-member",
            "node-unknown-member",
            "plan-unknown-member",
            "provenance-unknown-member",
            "pending-edge-in-statements",
            "edge-in-pending-edges",
            "malformed-edge-before-rule-breach",
        ],
    )
    def test_load_rejects_malformed_plans(self, elisa_doc, change, location):
        raw = json.loads(plan_to_bytes(compile_seo(elisa_doc, "ELISA")))
        assert raw["statements"][-1]["kind"] == "edge" and raw["pending_edges"]
        change(raw)
        with pytest.raises(RegistryMismatch, match="^" + location):
            load_plan(json.dumps(raw))

    def test_load_rejects_non_finite_numbers(self):
        with pytest.raises(ValueError):
            load_plan('{"kind": "merge_plan", "version": 1, "x": NaN}')


@lru_cache(maxsize=None)
def compiled_plan(subgraph: str) -> MergePlan:
    name = {sg: name for name, sg in DOC_SUBGRAPHS}[subgraph]
    return compile_seo(parse_seo((FIXTURES / name).read_bytes()), subgraph)


def plan_edge_changes():
    """(subgraph, section, place, change) for ``changed_plan``."""
    return st.tuples(
        st.sampled_from(["ELISA", "LCMS_PRM"]),
        st.sampled_from(["edges", "pending_edges"]),
        st.integers(0, 999),
        st.sampled_from(["move", "flip", "none"]),
    )


def changed_plan(subgraph: str, section: str, place: int, change: str) -> MergePlan:
    """A compiled plan with one edge of ``section`` moved to the other section
    (at the same place, modulo its length), its ``pending`` flipped, or left alone."""
    plan = compiled_plan(subgraph)
    edges = list(getattr(plan, section))
    edge = edges[place % len(edges)]
    if change == "move":
        other = "pending_edges" if section == "edges" else "edges"
        moved = list(getattr(plan, other))
        moved.insert(place % (len(moved) + 1), edge)
        edges.remove(edge)
        return plan._replace(**{section: tuple(edges), other: tuple(moved)})
    if change == "flip":
        edges[place % len(edges)] = edge._replace(pending=not edge.pending)
    return plan._replace(**{section: tuple(edges)})


class TestApplyAndApprove:
    def test_apply_twice_is_idempotent(self, elisa_doc, registry):
        plan = compile_seo(elisa_doc, "ELISA")
        once = apply_plan(Graph(registry), plan)
        twice = apply_plan(once, plan)
        assert canonical_serialize(once) == canonical_serialize(twice)

    def test_registry_version_is_enforced(self, elisa_doc, registry):
        plan = compile_seo(elisa_doc, "ELISA")
        stale = plan._replace(
            provenance=plan.provenance._replace(registry_version="skg-ontology-0")
        )
        with pytest.raises(RegistryMismatch):
            apply_plan(Graph(registry), stale)

    def test_approve_all(self, elisa_doc, registry):
        graph = apply_plan(Graph(registry), compile_seo(elisa_doc, "ELISA"))
        assert graph.pending_edges()
        converged, approved = approve_pending(graph)
        assert converged.pending_edges() == []
        assert len(approved) == len(graph.pending_edges())
        assert list(approved) == sorted(approved)

    def test_approve_selectively(self, elisa_doc, registry):
        graph = apply_plan(Graph(registry), compile_seo(elisa_doc, "ELISA"))
        first = graph.pending_edges()[0].key
        converged, approved = approve_pending(graph, [first])
        assert approved == (first,)
        assert len(converged.pending_edges()) == len(graph.pending_edges()) - 1

    def test_approve_unknown_edge(self, elisa_doc, registry):
        graph = apply_plan(Graph(registry), compile_seo(elisa_doc, "ELISA"))
        ghost = (
            "MASKED_BY",
            NodeKey("ELISA", "FailureMode", "FM-ELISA-001"),
            NodeKey("AUTOMATION", "AutomationAsset", "AA-nonexistent"),
        )
        with pytest.raises(KeyError):
            approve_pending(graph, [ghost])

    def test_approve_twice_is_strict(self, elisa_doc, registry):
        graph = apply_plan(Graph(registry), compile_seo(elisa_doc, "ELISA"))
        first = graph.pending_edges()[0].key
        converged, _ = approve_pending(graph, [first])
        with pytest.raises(KeyError):
            approve_pending(converged, [first])

    def test_repeated_selector_is_strict(self, elisa_doc, registry):
        graph = apply_plan(Graph(registry), compile_seo(elisa_doc, "ELISA"))
        first = graph.pending_edges()[0].key
        selected_twice = "selected twice: MASKED_BY ELISA:FailureMode:FM-ELISA-001"
        with pytest.raises(KeyError, match=selected_twice):
            approve_pending(graph, [first, first])

    @pytest.mark.parametrize("section", ["edges", "pending_edges", "pending_same_subgraph"])
    def test_plan_built_in_code_keeps_the_quarantine(self, elisa_doc, registry, section):
        # the rule load_plan holds a plan file to, with the same message
        plan = compile_seo(elisa_doc, "ELISA")
        masked, *rest = plan.pending_edges
        assert masked.key == (
            "MASKED_BY",
            NodeKey("ELISA", "FailureMode", "FM-ELISA-001"),
            NodeKey(EXECUTION_SUBGRAPH, "AutomationAsset", "AA-el406-plate-washer"),
        )
        approved = Edge(*masked.key)
        message = "MASKED_BY ELISA -> AUTOMATION must be pending"
        if section == "edges":
            plan = plan._replace(edges=(*plan.edges, approved), pending_edges=tuple(rest))
            where = f"statements[{len(plan.nodes) + len(plan.edges) - 1}]"
        elif section == "pending_edges":
            plan = plan._replace(pending_edges=(approved, *rest))
            where = "pending_edges[0]"
        else:  # merge would refuse it as a CrossSubgraphViolation, exit class 4
            *kept, same = plan.edges
            assert same.src.subgraph == same.dst.subgraph == "ELISA"
            quarantined = Edge(*same.key, pending=True)
            plan = plan._replace(edges=tuple(kept), pending_edges=(quarantined, *plan.pending_edges))
            where = "pending_edges[0]"
            message = f"{same.edge_type} ELISA -> ELISA must not be pending"
        graph = apply_plan(Graph(registry), compile_seo(elisa_doc, "ELISA"))
        before = canonical_serialize(graph)
        with pytest.raises(RegistryMismatch, match=rf"^{re.escape(f'{where}: {message}')}$"):
            apply_plan(graph, plan)
        assert canonical_serialize(graph) == before

    @pytest.mark.parametrize(
        "shape, message",
        [
            (
                "pending-in-statements",
                "statements[126]: MASKED_BY ELISA -> AUTOMATION is pending in statements",
            ),
            (
                "approved-in-pending",
                "pending_edges[17]: PRECEDES ELISA -> ELISA is approved in pending_edges",
            ),
        ],
        ids=["pending-in-statements", "approved-in-pending"],
    )
    def test_plan_whose_bytes_would_not_load_is_refused(self, elisa_doc, registry, shape, message):
        # a plan applies only when its bytes load back, so each is refused before it merges
        plan = compile_seo(elisa_doc, "ELISA")
        first, *middle, last = plan.edges
        masked, *rest = plan.pending_edges
        if shape == "pending-in-statements":
            plan = plan._replace(edges=(*plan.edges, masked), pending_edges=tuple(rest))
        else:
            plan = plan._replace(edges=(first, *middle), pending_edges=(*plan.pending_edges, last))
        graph = apply_plan(Graph(registry), compile_seo(elisa_doc, "ELISA"))
        before = canonical_serialize(graph)
        for refused in (partial(apply_plan, graph), plan_to_bytes, emit_cypher):
            with pytest.raises(RegistryMismatch, match=rf"^{re.escape(message)}$"):
                refused(plan)
        assert canonical_serialize(graph) == before

    @settings(max_examples=60)
    @given(change=plan_edge_changes())
    @example(change=("ELISA", "pending_edges", 0, "move"))
    def test_a_plan_applies_exactly_when_its_bytes_load_back(self, change):
        plan = changed_plan(*change)
        outcomes = []
        for act in (plan_to_bytes, partial(apply_plan, Graph(builtin_registry()))):
            try:
                outcomes.append(act(plan))
            except RegistryMismatch as exc:
                outcomes.append(f"refused: {exc}")
        data, applied = outcomes
        if isinstance(data, str) or isinstance(applied, str):
            assert data == applied
            return
        reloaded = load_plan(data)
        assert reloaded == plan
        again = apply_plan(Graph(builtin_registry()), reloaded)
        assert canonical_serialize(again) == canonical_serialize(applied)

    def test_every_apply_order_converges_to_the_pinned_digest(self, all_docs, registry):
        plans = [compile_seo(all_docs[sg], sg) for _, sg in DOC_SUBGRAPHS]
        for order in itertools.permutations(plans):
            graph = Graph(registry)
            for plan in order:
                graph = apply_plan(graph, plan)
            graph, _ = approve_pending(graph)
            assert graph_hash(graph) == (
                "06e844a926fb227a8638fd80ff223d0a83f83c0539aeb234382fe3995a14faae"
            ), [plan.provenance.subgraph for plan in order]

    def test_reapply_never_requarantines(self, elisa_doc, registry):
        plan = compile_seo(elisa_doc, "ELISA")
        graph = apply_plan(Graph(registry), plan)
        converged, _ = approve_pending(graph)
        again = apply_plan(converged, plan)
        assert again.pending_edges() == []
        assert canonical_serialize(again) == canonical_serialize(converged)


class TestEmitCypher:
    def empty_plan(self):
        return MergePlan(
            provenance=PlanProvenance("0" * 64, "", "DESIGN_EXPERT", "X", "skg-ontology-1"),
            nodes=(),
            edges=(),
            pending_edges=(),
        )

    def test_empty_plan_renders_nothing(self):
        assert emit_cypher(self.empty_plan()) == ""

    def test_overall_shape(self, elisa_doc):
        plan = compile_seo(elisa_doc, "ELISA")
        text = emit_cypher(plan)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert len(lines) == len(plan.nodes) + len(plan.edges) + 1 + len(plan.pending_edges)
        assert lines[0].startswith("MERGE (n:")
        marker = lines.index("// PENDING CONVERGENCE")
        assert marker == len(plan.nodes) + len(plan.edges)
        for line in lines[marker + 1 :]:
            assert line.endswith("SET r.pending = true;")

    def test_node_line_format(self):
        doc = json_doc(steps=[{"name": "mix", "step_index": 1}])
        text = emit_cypher(compile_seo(doc, "TESTSG"))
        assert (
            'MERGE (n:WorkflowStep {subgraph:"TESTSG", id:"ST-TESTSG-001"}) '
            "SET n.flagged_for_review = false, n.is_critical_path = false, "
            'n.name = "mix", n.step_index = 1;' in text
        )

    def test_string_escaping(self):
        doc = json_doc(
            steps=[{"name": 'say "when" \\ stop\nnow', "step_index": 1}]
        )
        plan = compile_seo(doc, "TESTSG")
        text = emit_cypher(plan)
        assert 'n.name = "say \\"when\\" \\\\ stop\\nnow"' in text
        # a control character is escaped, so every statement stays on one line
        assert len(text.splitlines()) == len(plan.nodes) + len(plan.edges)

    def test_list_values(self, elisa_doc):
        text = emit_cypher(compile_seo(elisa_doc, "ELISA"))
        assert 'n.methods_used = ["SHELF_elicited", "linguistic_approximation"]' in text
