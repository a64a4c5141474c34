import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skg import (
    ArityError,
    compare_extractions,
    f1,
    label_slug,
    load_aliases,
    match_failure_modes,
    normalize_label,
    parse_seo,
)
from skg.canonical import render_value
from skg.metrics import default_aliases


class TestNormalizeLabel:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("Washer Carryover", "washer carryover"),
            ("  spaced   out  ", "spaced out"),
            ("High Background (nonspecific signal)", "high background"),
            ("mixed [bracketed] note", "mixed note"),
            ("Pipette/Tip Mix-Up", "pipette tip mix up"),
            ("µL drift", "l drift"),  # non-ascii letters fall out; slugs feed ids
        ],
    )
    def test_base_normalization(self, raw, expected):
        assert normalize_label(raw) == expected

    def test_alias_table_applied_when_given(self):
        aliases = {"washer carry over": "washer carryover"}
        assert normalize_label("Washer Carry-Over", aliases) == "washer carryover"
        assert normalize_label("Washer Carry-Over") == "washer carry over"

    def test_empty_alias_table_means_base_only(self):
        assert normalize_label("Anything Goes", {}) == "anything goes"

    def test_default_aliases_fold_known_variants(self):
        aliases = default_aliases()
        assert normalize_label("High Background", aliases) == normalize_label(
            "High Background / Nonspecific Signal", aliases
        )

    @given(st.text(max_size=40))
    def test_idempotent(self, name):
        once = normalize_label(name)
        assert normalize_label(once) == once

    @given(st.text(max_size=40))
    def test_output_charset(self, name):
        out = normalize_label(name)
        assert out == out.strip()
        assert "  " not in out

    def test_slug(self):
        assert label_slug("High Background / Nonspecific Signal") == "high-background-nonspecific-signal"
        assert label_slug("Pipette Mix-Up") == "pipette-mix-up"


class TestLoadAliases:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "aliases.txt"
        path.write_text("# comment\n\nStd Curve = Standard Curve Failure\n")
        assert load_aliases(path) == {"std curve": "standard curve failure"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "aliases.txt"
        path.write_text("no separator here\n")
        with pytest.raises(ValueError):
            load_aliases(path)


class TestMatching:
    def test_exact_one_to_one(self):
        result = match_failure_modes(["A", "B", "C"], ["b", "c", "d"])
        assert result.true_positives == 2
        assert result.false_positives == 1
        assert result.false_negatives == 1
        assert result.matched == (("B", "b"), ("C", "c"))
        assert result.unmatched_reference == ("A",)
        assert result.unmatched_candidate == ("d",)

    def test_duplicates_collapse(self):
        result = match_failure_modes(["A", "a", "A "], ["a"])
        assert result.true_positives == 1
        assert result.false_negatives == 0

    def test_aliases_bridge_variants(self):
        aliases = {"washer carry over": "washer carryover"}
        result = match_failure_modes(["Washer Carryover"], ["Washer Carry-over"], aliases)
        assert result.true_positives == 1

    def test_f1_perfect(self):
        scores = f1(match_failure_modes(list("ABCDEFGHIJKLM"), list("ABCDEFGHIJKLM")))
        assert scores == (1.0, 1.0, 1.0)

    def test_f1_arithmetic(self):
        result = match_failure_modes(
            ["t1", "t2", "t3", "m1", "m2", "m3", "m4", "m5", "m6"],
            ["t1", "t2", "t3", "x1", "x2"],
        )
        assert (result.true_positives, result.false_positives, result.false_negatives) == (3, 2, 6)
        precision, recall, score = f1(result)
        assert precision == 0.6
        assert recall == pytest.approx(0.3333, abs=1e-4)
        assert score == pytest.approx(0.4286, abs=1e-4)

    def test_f1_zero_division(self):
        assert f1(match_failure_modes([], ["x"])) == (0.0, 0.0, 0.0)
        assert f1(match_failure_modes(["x"], [])) == (0.0, 0.0, 0.0)


def doc_with_failures(names, alternatives=()):
    steps = [
        {
            "name": "only step",
            "step_index": 1,
            "id": "s1",
            "failure_modes": [
                {
                    "name": name,
                    "confidence": 0.8,
                    "confidence_method": "linguistic_approximation",
                    "source_scientist": "T. Example",
                }
                for name in names
            ],
        }
    ]
    raw = {
        "session_mode": "DESIGN_EXPERT",
        "protocol": {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": steps,
        },
        "decision_model": None,
        "strategic": None,
        "method_alternatives": [
            {"step_id": "s1", "name": name} for name in alternatives
        ]
        or None,
        "automation_context": None,
        "twin_metadata": {"source_scientist": "T. Example", "session_mode": "DESIGN_EXPERT"},
    }
    return parse_seo(json.dumps(raw))


class TestCompareExtractions:
    def test_within_agent_identical_runs(self):
        doc = doc_with_failures(["A", "B"])
        report = compare_extractions([doc, doc, doc])
        assert report.mode == "within_agent"
        assert report.fm_f1 == 1.0
        assert report.fm_f1_variance == 0.0
        assert len(report.comparisons) == 3
        assert len(set(report.run_digests)) == 1

    def test_cross_agent_against_reference(self):
        reference = doc_with_failures(["A", "B", "C"])
        run = doc_with_failures(["A", "B", "D"])
        report = compare_extractions([run], reference=reference)
        assert report.mode == "cross_agent"
        assert report.comparisons[0].left == "reference"
        assert report.fm_precision == pytest.approx(0.6667, abs=1e-4)
        assert report.fm_recall == pytest.approx(0.6667, abs=1e-4)

    def test_method_alternative_recall(self):
        reference = doc_with_failures(["A"], alternatives=["alt one", "alt two"])
        run = doc_with_failures(["A"], alternatives=["alt one"])
        report = compare_extractions([run], reference=reference)
        assert report.method_alternative_recall == 0.5

    def test_no_alternatives_reports_null(self):
        report = compare_extractions([doc_with_failures(["A"])], reference=doc_with_failures(["A"]))
        assert report.method_alternative_recall is None

    def test_vacuous_agreement_warns(self):
        empty = doc_with_failures([])
        report = compare_extractions([empty, empty])
        assert report.fm_f1 == 1.0
        assert any("both extractions empty" in w for w in report.warnings)

    def test_within_agent_needs_two_runs(self):
        with pytest.raises(ArityError):
            compare_extractions([doc_with_failures(["A"])])

    def test_cross_agent_needs_one_run(self):
        with pytest.raises(ArityError):
            compare_extractions([], reference=doc_with_failures(["A"]))

    def test_graphs_are_not_comparable(self, federated):
        # a graph's failure modes include review stubs that no session described
        with pytest.raises(TypeError):
            compare_extractions([federated, federated])
        with pytest.raises(TypeError):
            compare_extractions([doc_with_failures(["A"])], reference=federated)

    def test_unsupported_run_type(self):
        with pytest.raises(TypeError):
            compare_extractions(["not a document", "also not"])

    def test_each_input_is_normalized_once_and_only_runs_are_digested(self, monkeypatch):
        import skg.metrics
        import skg.seo

        reference = doc_with_failures(["A", "B", "C"], alternatives=["alt one"])
        runs = [doc_with_failures(["A", "B", "D"]), doc_with_failures(["A"], alternatives=["x"])]
        expected = compare_extractions(runs, reference=reference)
        normalized, digested = [], []

        def counted_normalize(name, aliases=None):
            normalized.append(name)
            return normalize_label(name, aliases)

        def counted_serialize(doc):
            digested.append(doc)
            return serialize_seo(doc)

        serialize_seo = skg.seo.serialize_seo
        monkeypatch.setattr(skg.metrics, "normalize_label", counted_normalize)
        monkeypatch.setattr(skg.seo, "serialize_seo", counted_serialize)
        assert compare_extractions(runs, reference=reference) == expected
        assert sorted(normalized) == sorted(["A", "B", "C", "alt one", "A", "B", "D", "A", "x"])
        assert digested == runs

    def test_jsonable_round_trip(self):
        doc = doc_with_failures(["A", "B"])
        raw = compare_extractions([doc, doc]).to_jsonable()
        assert raw["mode"] == "within_agent"
        assert json.loads(render_value(raw)) == json.loads(json.dumps(raw))
