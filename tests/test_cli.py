"""End-to-end command-line flows, run in process through ``main(argv)``."""

import gc
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skg import (
    Graph,
    Node,
    NodeKey,
    Prop,
    builtin_registry,
    compile_seo,
    digest_path,
    load_plan,
    merge,
    parse_seo,
    plan_to_bytes,
    save_store,
)
from skg.validation import Issue, ValidationReport
import skg
from skg import errors, queries
from skg.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    QUERIES,
    build_parser,
    main,
    run,
)

from conftest import (
    DEEP_NESTING,
    FIXTURES,
    ISSUE_REPORT,
    ROOT,
    count_decodes,
    federation,
    third_subgraph_federation,
)

DOCS = [
    ("elisa.seo.json", None),
    ("lcms_prm.seo.json", None),
    ("automation.seo.json", "AUTOMATION"),
    ("program.seo.json", "PROGRAM"),
]

FEDERATED_DIGEST = "06e844a926fb227a8638fd80ff223d0a83f83c0539aeb234382fe3995a14faae"


# stdout of `skg consistency` on the fixture documents, pinned byte for byte:
# (runs, reference, stdout)
CONSISTENCY_STDOUT = [
    (
        ["elisa", "lcms_prm", "program", "automation"],
        None,
        '{"comparisons": [{"f1": 0.0488, "left": "run0", "precision": 0.0435, '
        '"recall": 0.0556, "right": "run1"}, {"f1": 0, "left": "run0", "precision": 0, '
        '"recall": 0, "right": "run2"}, {"f1": 0, "left": "run0", "precision": 0, '
        '"recall": 0, "right": "run3"}, {"f1": 0, "left": "run1", "precision": 0, '
        '"recall": 0, "right": "run2"}, {"f1": 0, "left": "run1", "precision": 0, '
        '"recall": 0, "right": "run3"}, {"f1": 1, "left": "run2", "precision": 1, '
        '"recall": 1, "right": "run3"}], "fm_f1": 0.1748, "fm_f1_variance": 0.136509, '
        '"fm_precision": 0.1739, "fm_recall": 0.1759, "method_alternative_recall": 0, '
        '"mode": "within_agent", '
        '"run_digests": ["196473fa65356cf47530356fc2b86b6d275da78605e4d78bc245e9e97b512f71", '
        '"d9d27035351afdbb726b13ced72f0b6c4785a324ae3264bcf3fea964a5846a20", '
        '"48398e43ef5fbe46793e6c4264247ba66c2eab8d6ff4fc7760f8fc4b4061db2c", '
        '"803bbf7d23f948a968132a214c5986b230752d2a9838489adfa6e0ef095d6bb9"], '
        '"warnings": ["run2/run3: both extractions empty"]}\n',
    ),
    (
        ["lcms_prm", "elisa"],
        "elisa",
        '{"comparisons": [{"f1": 0.0488, "left": "reference", "precision": 0.0435, '
        '"recall": 0.0556, "right": "run0"}, {"f1": 1, "left": "reference", '
        '"precision": 1, "recall": 1, "right": "run1"}], "fm_f1": 0.5244, '
        '"fm_f1_variance": 0.226195, "fm_precision": 0.5218, "fm_recall": 0.5278, '
        '"method_alternative_recall": 0.5, "mode": "cross_agent", '
        '"run_digests": ["d9d27035351afdbb726b13ced72f0b6c4785a324ae3264bcf3fea964a5846a20", '
        '"196473fa65356cf47530356fc2b86b6d275da78605e4d78bc245e9e97b512f71"], '
        '"warnings": []}\n',
    ),
    (
        ["automation", "program"],
        None,
        '{"comparisons": [{"f1": 1, "left": "run0", "precision": 1, "recall": 1, '
        '"right": "run1"}], "fm_f1": 1, "fm_f1_variance": 0, "fm_precision": 1, '
        '"fm_recall": 1, "method_alternative_recall": null, "mode": "within_agent", '
        '"run_digests": ["803bbf7d23f948a968132a214c5986b230752d2a9838489adfa6e0ef095d6bb9", '
        '"48398e43ef5fbe46793e6c4264247ba66c2eab8d6ff4fc7760f8fc4b4061db2c"], '
        '"warnings": ["run0/run1: both extractions empty"]}\n',
    ),
]


def contaminated_operational_json() -> dict:
    """An operational-mode document that smuggles in design-session content."""
    return {
        "session_mode": "OPERATIONAL",
        "protocol": None,
        "decision_model": {"_elicitation_scope": "full"},
        "strategic": None,
        "method_alternatives": None,
        "automation_context": None,
        "twin_metadata": {
            "source_scientist": "T. Example",
            "session_mode": "OPERATIONAL",
            "calibration_status": None,
            "session_date": None,
            "elicitation_agent": None,
        },
    }


def apply_args(path, fixtures_dir, doc, subgraph):
    argv = ["apply", str(fixtures_dir / doc), "--graph", str(path)]
    # assay documents carry their subgraph in the protocol layer
    if subgraph:
        argv += ["--subgraph", subgraph]
    return argv


@pytest.fixture()
def store(tmp_path, fixtures_dir):
    """A converged store built from scratch through the CLI."""
    path = tmp_path / "twin.skg.jsonl"
    for doc, subgraph in DOCS:
        assert main(apply_args(path, fixtures_dir, doc, subgraph)) == EXIT_OK
    assert main(["converge", "--graph", str(path)]) == EXIT_OK
    return path


class TestValidate:
    def test_clean_document(self, fixtures_dir, capsys):
        assert main(["validate", str(fixtures_dir / "elisa.seo.json")]) == EXIT_OK
        assert capsys.readouterr().out == "OK\n"

    def test_metadata_mode_mismatch(self, tmp_path, fixtures_dir, capsys):
        doc = json.loads((fixtures_dir / "elisa.seo.json").read_text())
        doc["twin_metadata"]["session_mode"] = "OPERATIONAL"
        bad = tmp_path / "bad.seo.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == EXIT_REJECTED
        assert "MetadataInconsistent" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "change",
        [{"confidence": 0.8}, {"source_phrase": "The curve comes out ragged."}],
        ids=["confidence-outside-band", "phrase-without-hedge"],
    )
    def test_hedge_band(self, tmp_path, fixtures_dir, capsys, change):
        doc = json.loads((fixtures_dir / "elisa.seo.json").read_text())
        doc["protocol"]["steps"][0]["failure_modes"][0].update(change)
        bad = tmp_path / "bad.seo.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == EXIT_REJECTED
        assert capsys.readouterr().out.startswith("ConfidenceOutsideHedgeBand\t")

    def test_contamination_guard(self, tmp_path, capsys):
        bad = tmp_path / "contaminated.seo.json"
        bad.write_text(json.dumps(contaminated_operational_json()))
        assert main(["validate", str(bad)]) == EXIT_REJECTED
        assert "ContaminationGuardViolation" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.seo.json"
        bad.write_text('{\n  "session_mode": \n}\n')
        for argv in (["validate", str(bad)], ["apply", str(bad), "--graph", str(tmp_path / "x")]):
            assert main(argv) == EXIT_REJECTED
            assert capsys.readouterr().err == "error: Expecting value: line 3 column 1 (char 21)\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "apply"])
    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e999"], ids=["integer", "exponent"])
    def test_number_beyond_float_range(self, tmp_path, fixtures_dir, capsys, command, literal):
        text = (fixtures_dir / "elisa.seo.json").read_text()
        bad = tmp_path / "bad.seo.json"
        bad.write_text(text.replace('"step_index": 1,', f'"step_index": {literal},', 1))
        argv = [command, str(bad)]
        if command == "apply":
            argv += ["--graph", str(tmp_path / "x.skg.jsonl")]
        assert main(argv) == EXIT_REJECTED
        assert capsys.readouterr().err.startswith(
            "error: protocol.steps[0].step_index: expected finite number, got "
        )

    @pytest.mark.parametrize("command", ["validate", "apply"])
    def test_deep_nesting(self, tmp_path, fixtures_dir, capsys, command):
        text = (fixtures_dir / "elisa.seo.json").read_text()
        bad = tmp_path / "bad.seo.json"
        bad.write_text(text.replace('"step_index": 1,', f'"step_index": {DEEP_NESTING},', 1))
        argv = [command, str(bad)]
        if command == "apply":
            argv += ["--graph", str(tmp_path / "x.skg.jsonl")]
        assert main(argv) == EXIT_REJECTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: JSON nested too deeply to decode\n"

    @pytest.mark.parametrize("command", ["validate", "apply"])
    def test_id_outside_the_id_pattern(self, tmp_path, fixtures_dir, capsys, command):
        doc = json.loads((fixtures_dir / "elisa.seo.json").read_text())
        doc["protocol"]["steps"][0]["failure_modes"][0]["id"] = "FM bad"
        bad = tmp_path / "bad.seo.json"
        bad.write_text(json.dumps(doc))
        argv = [command, str(bad)]
        if command == "apply":
            argv += ["--graph", str(tmp_path / "x.skg.jsonl")]
        assert main(argv) == EXIT_REJECTED
        assert capsys.readouterr().err == (
            "error: protocol.steps[0].failure_modes[0].id: "
            "expected text matching [A-Za-z0-9_-]+, got 'FM bad'\n"
        )

    @pytest.mark.parametrize("command", ["validate", "apply"])
    def test_empty_failure_mode_name(self, tmp_path, fixtures_dir, capsys, command):
        doc = json.loads((fixtures_dir / "elisa.seo.json").read_text())
        claim = doc["protocol"]["steps"][6]["failure_modes"][2]
        assert (claim["id"], claim["name"]) == ("FM-ELISA-018", "Standard Curve Failure")
        claim["name"] = ""
        bad = tmp_path / "bad.seo.json"
        bad.write_text(json.dumps(doc))
        argv = [command, str(bad)]
        if command == "apply":
            argv += ["--graph", str(tmp_path / "x.skg.jsonl")]
        assert main(argv) == EXIT_REJECTED
        assert capsys.readouterr().err == (
            "error: protocol.steps[6].failure_modes[2].name: expected non-empty text, got ''\n"
        )
        assert not (tmp_path / "x.skg.jsonl").exists()

    @pytest.mark.parametrize("command", ["validate", "apply"])
    def test_partial_frequency_triple(self, tmp_path, fixtures_dir, capsys, command):
        doc = json.loads((fixtures_dir / "elisa.seo.json").read_text())
        doc["protocol"]["steps"][0]["failure_modes"][0].update(
            silent_failure_risk=True, frequency_min=0.1
        )
        bad = tmp_path / "bad.seo.json"
        bad.write_text(json.dumps(doc))
        argv = [command, str(bad)]
        if command == "apply":
            argv += ["--graph", str(tmp_path / "x.skg.jsonl")]
        assert main(argv) == EXIT_REJECTED
        captured = capsys.readouterr()
        report = captured.out if command == "validate" else captured.err
        assert [line.split("\t")[0] for line in report.splitlines()] == [
            "MissingMandatoryField",
            "MissingMandatoryField",
        ]
        assert not (tmp_path / "x.skg.jsonl").exists()

    @pytest.mark.parametrize("command", ["validate", "apply"])
    @pytest.mark.parametrize("literal", ["NaN", "-Infinity"])
    def test_non_finite_literal_is_located(self, tmp_path, fixtures_dir, capsys, command, literal):
        text = (fixtures_dir / "elisa.seo.json").read_text()
        pos = text.index('"confidence": ') + len('"confidence": ')
        line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        bad = tmp_path / "bad.seo.json"
        bad.write_text(text[:pos] + literal + text[text.index(",", pos) :])
        argv = [command, str(bad)]
        if command == "apply":
            argv += ["--graph", str(tmp_path / "x.skg.jsonl")]
        assert main(argv) == EXIT_REJECTED
        assert capsys.readouterr().err == (
            f"error: non-finite number literal: {literal}: "
            f"line {line} column {column} (char {pos})\n"
        )

    @pytest.mark.parametrize("command", ["validate", "apply"])
    def test_lone_surrogate_escape_is_located(self, tmp_path, fixtures_dir, capsys, command):
        # the escape decodes to a character that UTF-8 cannot encode
        text = (fixtures_dir / "elisa.seo.json").read_text()
        pos = text.index('"source_scientist": "') + len('"source_scientist": "')
        line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        bad = tmp_path / "bad.seo.json"
        bad.write_text(text[:pos] + "\\ud800" + text[pos:])
        store = tmp_path / "x.skg.jsonl"
        argv = [command, str(bad)] + (["--graph", str(store)] if command == "apply" else [])
        assert main(argv) == EXIT_REJECTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: lone surrogate escape \\ud800: line {line} column {column} (char {pos})\n"
        )
        assert not store.exists()


class TestCompile:
    def test_plan_on_stdout(self, fixtures_dir, capsys):
        assert main(["compile", str(fixtures_dir / "elisa.seo.json"), "--subgraph", "ELISA"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "merge_plan"
        assert record["provenance"]["subgraph"] == "ELISA"
        assert record["statements"] and record["pending_edges"]

    def test_deterministic_output(self, tmp_path, fixtures_dir, capsys):
        doc = str(fixtures_dir / "elisa.seo.json")
        assert main(["compile", doc, "--subgraph", "ELISA"]) == EXIT_OK
        first = capsys.readouterr().out
        cypher = tmp_path / "plan.cypher"
        assert main(["compile", doc, "--subgraph", "ELISA", "--emit-cypher", str(cypher)]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert cypher.read_text(encoding="utf-8").startswith("MERGE (n:")

    def test_golden_cypher(self, tmp_path, fixtures_dir, capsys):
        cypher = tmp_path / "elisa.cypher"
        code = main(
            [
                "compile",
                str(fixtures_dir / "elisa.seo.json"),
                "--subgraph",
                "ELISA",
                "--emit-cypher",
                str(cypher),
            ]
        )
        assert code == EXIT_OK
        golden = fixtures_dir / "golden" / "elisa_plan.cypher"
        assert cypher.read_bytes() == golden.read_bytes()
        capsys.readouterr()

    def test_alias_file_variable_resolves_cascade_targets(
        self, tmp_path, fixtures_dir, capsys, monkeypatch
    ):
        doc = json.loads((fixtures_dir / "elisa.seo.json").read_text())
        # a spelling of "Standard Curve Failure" that the default table lacks
        doc["protocol"]["steps"][0]["failure_modes"][0]["cascades_to"] = ["Curve Fit Collapse"]
        path = tmp_path / "elisa.seo.json"
        path.write_text(json.dumps(doc))
        aliases = tmp_path / "aliases.txt"
        aliases.write_text("curve fit collapse = standard curve failure\n")
        argv = ["compile", str(path), "--subgraph", "ELISA"]

        def cascade_targets():
            """Where the edited failure mode, Inconsistent Antigen Coating, cascades to."""
            assert main(argv) == EXIT_OK
            plan = json.loads(capsys.readouterr().out)
            return [
                s["dst"]
                for s in plan["statements"]
                if s.get("edge_type") == "CASCADES_TO"
                and s["src"] == "ELISA:FailureMode:FM-ELISA-002"
            ]

        monkeypatch.delenv("SKG_ALIAS_FILE", raising=False)
        assert cascade_targets() == ["ELISA:FailureMode:FM-curve-fit-collapse"]  # a stub
        monkeypatch.setenv("SKG_ALIAS_FILE", str(aliases))
        assert cascade_targets() == ["ELISA:FailureMode:FM-ELISA-018"]  # the claimed mode

    @pytest.mark.parametrize("command", ["compile", "apply"])
    @pytest.mark.parametrize("subgraph", ["P:Q", "P Q"])
    def test_subgraph_outside_the_id_pattern(self, tmp_path, fixtures_dir, capsys, command, subgraph):
        argv = [command, str(fixtures_dir / "program.seo.json"), "--subgraph", subgraph]
        if command == "apply":
            argv += ["--graph", str(tmp_path / "x.skg.jsonl")]
        assert main(argv) == EXIT_REJECTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: subgraph {subgraph!r} outside [A-Za-z0-9_-]+\n"

    def test_wrong_subgraph_rejected(self, fixtures_dir, capsys):
        code = main(["compile", str(fixtures_dir / "elisa.seo.json"), "--subgraph", "LCMS_PRM"])
        assert code == EXIT_REJECTED
        assert "LCMS_PRM" in capsys.readouterr().err

    def test_contaminated_document_rejected(self, tmp_path, capsys):
        bad = tmp_path / "contaminated.seo.json"
        bad.write_text(json.dumps(contaminated_operational_json()))
        assert main(["compile", str(bad), "--subgraph", "AUTOMATION"]) == EXIT_REJECTED
        assert "ContaminationGuardViolation" in capsys.readouterr().err


def plan_statement(plan: dict, **members) -> dict:
    """The first statement of a plan that states each of ``members``."""
    return next(s for s in plan["statements"] if members.items() <= s.items())


def empty_units(plan: dict) -> None:
    plan_statement(plan, id="DP-ELISA-001")["properties"]["units"]["value"] = ""


def text_confidence(plan: dict) -> None:
    plan_statement(plan, label="FailureMode")["properties"]["confidence"]["value"] = "high"


def unknown_edge_type(plan: dict) -> None:
    plan_statement(plan, edge_type="PRECEDES")["edge_type"] = "FOLLOWS"


def unknown_label(plan: dict) -> None:
    """Relabel an error signature, and every edge naming it, as ``Signal``."""
    node = plan_statement(plan, label="ErrorSignature")
    node["label"] = "Signal"
    old, new = (f"ELISA:{label}:{node['id']}" for label in ("ErrorSignature", "Signal"))
    for statement in plan["statements"] + plan["pending_edges"]:
        for end in ("src", "dst"):
            if statement.get(end) == old:
                statement[end] = new


# (plan edit, report of apply on a fresh store and of check had it applied,
# exit of apply on the fixture store, where a text confidence is a kind conflict)
PLAN_RULE_BREACHES = [
    pytest.param(
        empty_units,
        "MissingRequiredProperty\tELISA:DecisionPoint:DP-ELISA-001\tunits (text) is required\n",
        EXIT_REJECTED,
        id="empty-units",
    ),
    pytest.param(
        text_confidence,
        "ValueKindMismatch\tELISA:FailureMode:FM-ELISA-001\tconfidence: expected number, got text\n",
        EXIT_INVARIANT,
        id="text-confidence",
    ),
    pytest.param(
        unknown_edge_type,
        "UnknownEdgeType\tFOLLOWS[ELISA:WorkflowStep:ST-ELISA-001 -> ELISA:WorkflowStep:ST-ELISA-002]"
        "\tedge type FOLLOWS not in registry\n",
        EXIT_REJECTED,
        id="unknown-edge-type",
    ),
    pytest.param(
        unknown_label,
        "UnknownLabel\tELISA:Signal:ES-dispense-pressure-alarm\tlabel Signal not in registry\n"
        "EndpointLabelViolation\tDETECTED_BY[ELISA:FailureMode:FM-ELISA-013 -> "
        "ELISA:Signal:ES-dispense-pressure-alarm]\tallowed ['FailureMode'] -> ['ErrorSignature']\n",
        EXIT_REJECTED,
        id="unknown-label",
    ),
]


class TestApplyAndConverge:
    def test_full_federation_matches_frozen_digest(self, store, capsys):
        assert main(["hash", "--graph", str(store)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == FEDERATED_DIGEST

    def test_apply_prints_digest_and_writes_sidecar(self, tmp_path, fixtures_dir, capsys):
        path = tmp_path / "one.skg.jsonl"
        doc = str(fixtures_dir / "elisa.seo.json")
        assert main(["apply", doc, "--graph", str(path)]) == EXIT_OK
        digest = capsys.readouterr().out.strip()
        sidecar = tmp_path / "one.skg.sha256"
        assert sidecar.read_text().split()[0] == digest

    def test_apply_accepts_compiled_plan(self, tmp_path, fixtures_dir, capsys):
        doc = str(fixtures_dir / "elisa.seo.json")
        assert main(["compile", doc, "--subgraph", "ELISA"]) == EXIT_OK
        plan_file = tmp_path / "elisa.plan.json"
        plan_file.write_text(capsys.readouterr().out)

        from_plan = tmp_path / "from_plan.skg.jsonl"
        from_doc = tmp_path / "from_doc.skg.jsonl"
        assert main(["apply", str(plan_file), "--graph", str(from_plan)]) == EXIT_OK
        assert main(["apply", doc, "--graph", str(from_doc)]) == EXIT_OK
        digests = capsys.readouterr().out.splitlines()
        assert digests[0] == digests[1]

    def test_apply_plan_subgraph_mismatch(self, tmp_path, fixtures_dir, capsys):
        doc = str(fixtures_dir / "elisa.seo.json")
        assert main(["compile", doc, "--subgraph", "ELISA"]) == EXIT_OK
        plan_file = tmp_path / "elisa.plan.json"
        plan_file.write_text(capsys.readouterr().out)
        code = main(
            ["apply", str(plan_file), "--graph", str(tmp_path / "x.skg.jsonl"), "--subgraph", "LCMS_PRM"]
        )
        assert code == EXIT_REJECTED
        assert "ELISA" in capsys.readouterr().err

    @pytest.mark.parametrize(("edit", "report", "fixture_exit"), PLAN_RULE_BREACHES)
    def test_plan_breaking_a_record_rule_is_refused(
        self, fixtures_dir, tmp_path, capsys, edit, report, fixture_exit
    ):
        # a hand-edited plan that would write a store check rejects is refused
        # whole, with check's report, and no store file is touched or created
        assert main(["compile", str(fixtures_dir / "elisa.seo.json"), "--subgraph", "ELISA"]) == EXIT_OK
        plan = json.loads(capsys.readouterr().out)
        edit(plan)
        plan_file = tmp_path / "elisa.plan.json"
        plan_file.write_text(json.dumps(plan), encoding="utf-8")
        store = copy_fixture_store(fixtures_dir, tmp_path)
        sidecar = store.with_name("federated.skg.sha256")
        before = store.read_bytes(), sidecar.read_bytes()
        fresh = tmp_path / "fresh.skg.jsonl"
        assert main(["apply", str(plan_file), "--graph", str(fresh)]) == EXIT_REJECTED
        assert capsys.readouterr() == ("", report)
        assert not fresh.exists()
        assert not fresh.with_name("fresh.skg.sha256").exists()
        assert main(["apply", str(plan_file), "--graph", str(store)]) == fixture_exit
        captured = capsys.readouterr()
        assert captured.out == ""
        if fixture_exit == EXIT_REJECTED:
            assert captured.err == report
        assert (store.read_bytes(), sidecar.read_bytes()) == before
        # check reports the same on the store the plan writes unchecked
        unchecked = tmp_path / "unchecked.skg.jsonl"
        raw = load_plan(plan_file.read_bytes())
        records = raw.nodes + raw.edges + raw.pending_edges
        save_store(merge(Graph(builtin_registry()), records), unchecked)
        assert main(["check", "--graph", str(unchecked)]) == EXIT_REJECTED
        assert capsys.readouterr() == (report, "")

    def test_apply_without_subgraph_needs_protocol(self, tmp_path, fixtures_dir, capsys):
        doc = str(fixtures_dir / "program.seo.json")
        code = main(["apply", doc, "--graph", str(tmp_path / "p.skg.jsonl")])
        assert code == EXIT_USAGE
        assert "--subgraph" in capsys.readouterr().err

    def test_reapply_is_idempotent(self, store, fixtures_dir, capsys):
        before = (store.parent / "twin.skg.sha256").read_text()
        doc = str(fixtures_dir / "elisa.seo.json")
        assert main(["apply", doc, "--graph", str(store)]) == EXIT_OK
        capsys.readouterr()
        assert (store.parent / "twin.skg.sha256").read_text() == before

    def test_converge_reports_approvals(self, tmp_path, fixtures_dir, capsys):
        path = tmp_path / "twin.skg.jsonl"
        for doc, subgraph in DOCS:
            main(apply_args(path, fixtures_dir, doc, subgraph))
        capsys.readouterr()
        assert main(["converge", "--graph", str(path), "--all"]) == EXIT_OK
        captured = capsys.readouterr()
        approved = [line for line in captured.err.splitlines() if line.startswith("approved ")]
        assert len(approved) == 35
        # second pass finds nothing left to approve
        assert main(["converge", "--graph", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_converge_single_edge(self, tmp_path, fixtures_dir, capsys):
        path = tmp_path / "twin.skg.jsonl"
        for doc, subgraph in DOCS:
            main(apply_args(path, fixtures_dir, doc, subgraph))
        capsys.readouterr()
        code = main(
            [
                "converge",
                "--graph",
                str(path),
                "--edge",
                "MASKED_BY",
                "ELISA:FailureMode:FM-ELISA-001",
                "AUTOMATION:AutomationAsset:AA-el406-plate-washer",
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.count("approved ") == 1
        assert "FM-ELISA-001" in captured.err

    def test_converge_all_conflicts_with_edge(self, store, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "converge",
                    "--graph",
                    str(store),
                    "--all",
                    "--edge",
                    "MASKED_BY",
                    "a:FailureMode:b",
                    "c:AutomationAsset:d",
                ]
            )
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_converge_unknown_edge(self, store, capsys):
        code = main(
            [
                "converge",
                "--graph",
                str(store),
                "--edge",
                "MASKED_BY",
                "ELISA:FailureMode:FM-ELISA-001",
                "AUTOMATION:AutomationAsset:AA-nonesuch",
            ]
        )
        assert code == EXIT_INVARIANT
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("asset", "shown"),
        [("AA-el406-plate-washer", "not pending"), ("AA-nonesuch", "not found: no such edge")],
        ids=["approved", "absent"],
    )
    def test_converge_refusal_states_why_and_writes_nothing(self, store, capsys, asset, shown):
        before = store.read_bytes(), digest_path(store).read_bytes()
        capsys.readouterr()
        edge = ["MASKED_BY", "ELISA:FailureMode:FM-ELISA-001", f"AUTOMATION:AutomationAsset:{asset}"]
        assert main(["converge", "--graph", str(store), "--edge", *edge]) == EXIT_INVARIANT
        assert capsys.readouterr() == (
            "",
            f"error: {shown}: MASKED_BY {edge[1]} -> {edge[2]}\n",
        )
        assert (store.read_bytes(), digest_path(store).read_bytes()) == before

    def test_converge_repeated_edge_writes_nothing(self, tmp_path, fixtures_dir, capsys):
        path = tmp_path / "twin.skg.jsonl"
        for doc, subgraph in DOCS:
            assert main(apply_args(path, fixtures_dir, doc, subgraph)) == EXIT_OK
        before = path.read_bytes(), digest_path(path).read_bytes()
        capsys.readouterr()
        edge = [
            "--edge",
            "MASKED_BY",
            "ELISA:FailureMode:FM-ELISA-001",
            "AUTOMATION:AutomationAsset:AA-el406-plate-washer",
        ]
        assert main(["converge", "--graph", str(path), *edge, *edge]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: selected twice: MASKED_BY ELISA:FailureMode:FM-ELISA-001"
            " -> AUTOMATION:AutomationAsset:AA-el406-plate-washer\n"
        )
        assert (path.read_bytes(), digest_path(path).read_bytes()) == before


class TestCheck:
    def test_converged_store_passes(self, store, capsys):
        assert main(["check", "--graph", str(store)]) == EXIT_OK
        assert capsys.readouterr().out == "OK\n"

    def test_incomplete_node_fails(self, tmp_path, capsys):
        graph = merge(
            Graph(builtin_registry()),
            [Node(NodeKey("SYN", "FailureMode", "FM-SYN-001"), {"name": Prop("bare")})],
        )
        path = tmp_path / "thin.skg.jsonl"
        save_store(graph, path)
        assert main(["check", "--graph", str(path)]) == EXIT_REJECTED
        assert "MissingRequiredProperty" in capsys.readouterr().out

    def test_confirmed_empty_required_text_fails(self, fixtures_dir, tmp_path, capsys):
        # a hand-edited store states a decision point's units as ""; apply
        # refuses a plan that does (TestApplyAndConverge), check the store
        path = copy_fixture_store(fixtures_dir, tmp_path)
        text = path.read_text(encoding="utf-8")
        line = next(x for x in text.splitlines() if '"id": "DP-ELISA-001"' in x)
        units = re.search(r'"units": \{[^}]*\}', line).group()
        edited = line.replace(units, '"units": {"provenance": "INTERVIEW_CONFIRMED", "value": ""}')
        path.write_text(text.replace(line, edited), encoding="utf-8")
        assert main(["check", "--graph", str(path)]) == EXIT_REJECTED
        assert capsys.readouterr().out == (
            "MissingRequiredProperty\tELISA:DecisionPoint:DP-ELISA-001\tunits (text) is required\n"
        )

    @pytest.mark.parametrize(
        ("frequencies", "report"),
        [
            (
                {"frequency_min": 0.1},
                "MissingMandatoryField\tSYN:FailureMode:FM-SYN-001\t"
                "frequency_best is required in a SHELF frequency triple\n"
                "MissingMandatoryField\tSYN:FailureMode:FM-SYN-001\t"
                "frequency_max is required in a SHELF frequency triple\n",
            ),
            (
                {"frequency_min": "low", "frequency_best": 0.2, "frequency_max": 0.3},
                "ValueKindMismatch\tSYN:FailureMode:FM-SYN-001\t"
                "frequency_min: expected number, got text\n",
            ),
        ],
        ids=["partial-triple", "text-frequency"],
    )
    def test_claim_rules_are_checked(self, tmp_path, capsys, frequencies, report):
        props = {
            "name": "bare",
            "confidence": 0.8,
            "confidence_method": "linguistic_approximation",
            "source_scientist": "T. Example",
            "silent_failure_risk": True,
            "is_critical_path": False,
            "flagged_for_review": False,
            **frequencies,
        }
        graph = merge(
            Graph(builtin_registry()),
            [Node(NodeKey("SYN", "FailureMode", "FM-SYN-001"), {k: Prop(v) for k, v in props.items()})],
        )
        path = tmp_path / "claims.skg.jsonl"
        save_store(graph, path)
        assert main(["check", "--graph", str(path)]) == EXIT_REJECTED
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (report, "")


# a value for each text option a query needs; the parser gives these no default
QUERY_TEXT_OPTIONS = {"subgraph": "ELISA", "step": "ST-ELISA-009", "root": "FM-ELISA-002"}
REQUIRED_QUERY_OPTIONS = [
    (name, option)
    for name, (_, options) in QUERIES.items()
    for option in options
    if option in QUERY_TEXT_OPTIONS
]


class TestQuery:
    def test_catalogue_names_real_functions_and_options(self):
        defaults = build_parser().parse_args(["query", "reuse", "--graph", "-"])
        for function, options in QUERIES.values():
            assert callable(getattr(queries, function))
            assert all(hasattr(defaults, option) for option in options)
        # the options without a default are exactly the text ones a query needs
        needed = {option for _, options in QUERIES.values() for option in options}
        assert {o for o in needed if getattr(defaults, o) is None} == set(QUERY_TEXT_OPTIONS)

    @pytest.mark.parametrize("empty", [False, True], ids=["omitted", "empty"])
    @pytest.mark.parametrize("name, option", REQUIRED_QUERY_OPTIONS)
    def test_each_required_option_is_a_usage_error(self, store, capsys, name, option, empty):
        values = {**QUERY_TEXT_OPTIONS, option: ""}
        given = [
            arg
            for other in QUERIES[name][1]
            if other in values and (other != option or empty)
            for arg in (f"--{other}", values[other])
        ]
        assert main(["query", name, "--graph", str(store), *given]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {name} needs --{option}\n")

    def test_stats_with_an_empty_subgraph_is_a_usage_error(self, store, capsys):
        assert main(["stats", "--graph", str(store), "--subgraph", ""]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: stats needs --subgraph\n")

    @pytest.mark.parametrize(
        "command",
        [["query", name] for name, (_, options) in QUERIES.items() if "subgraph" in options]
        + [["stats"]],
        ids=" ".join,
    )
    def test_subgraph_outside_key_parts_is_refused(self, store, capsys, command):
        options = QUERIES[command[1]][1] if command[0] == "query" else ("subgraph",)
        values = {**QUERY_TEXT_OPTIONS, "subgraph": "a b"}
        given = [arg for o in options if o in values for arg in (f"--{o}", values[o])]
        assert main([*command, "--graph", str(store), *given]) == EXIT_INVARIANT
        assert capsys.readouterr() == ("", "error: subgraph 'a b' outside [A-Za-z0-9_-]+\n")

    def test_depth_zero_runs(self, store, capsys):
        argv = ["query", "cascades", "--graph", str(store), "--subgraph", "ELISA"]
        assert main([*argv, "--root", "FM-ELISA-002", "--depth", "0"]) == EXIT_OK
        assert capsys.readouterr() == ("", "")  # no path is shorter than one hop

    def test_silent_tsv(self, store, capsys):
        assert main(["query", "silent", "--graph", str(store), "--subgraph", "ELISA"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("id\tname\tconfidence")
        assert [line.split("\t")[0] for line in lines[1:]] == [
            "FM-ELISA-001",
            "FM-ELISA-005",
            "FM-ELISA-011",
        ]

    def test_tsv_rows_stay_one_line_each(self, tmp_path, fixtures_dir, capsys):
        doc = json.loads((fixtures_dir / "elisa.seo.json").read_text())
        name = "Washer\tCarryover\nsecond line"
        for step in doc["protocol"]["steps"]:
            for mode in step.get("failure_modes", []):
                if mode["name"] == "Washer Carryover":
                    mode["name"] = name
        path = tmp_path / "elisa.seo.json"
        path.write_text(json.dumps(doc))
        graph = tmp_path / "twin.skg.jsonl"
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["apply", str(path), "--graph", str(graph)]) == EXIT_OK
        capsys.readouterr()
        argv = ["query", "ranked", "--graph", str(graph), "--subgraph", "ELISA"]
        assert main(argv) == EXIT_OK
        header, *lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 18
        assert {len(line.split("\t")) for line in lines} == {len(header.split("\t"))}
        cells = [line.split("\t") for line in lines if line.startswith("FM-ELISA-001\t")]
        assert [row[1] for row in cells] == ["Washer\\tCarryover\\nsecond line"]
        # JSON stays exact
        assert main([*argv, "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows if row["id"] == "FM-ELISA-001"] == [name]
        argv = ["query", "cascades", "--graph", str(graph), "--subgraph", "ELISA"]
        assert main([*argv, "--root", "FM-ELISA-001", "--depth", "1"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "Washer\\tCarryover\\nsecond line -> High Background / Nonspecific Signal\n"
        )

    def test_ranked_json(self, store, capsys):
        code = main(
            ["query", "ranked", "--graph", str(store), "--subgraph", "LCMS_PRM", "--format", "json"]
        )
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["id"] == "FM-LCMS-021"
        assert rows[0]["confidence"] == 0.9

    def test_decision_points(self, store, capsys):
        code = main(
            [
                "query",
                "decision-points",
                "--graph",
                str(store),
                "--subgraph",
                "ELISA",
                "--step",
                "ST-ELISA-009",
            ]
        )
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 7

    def test_cascades_text(self, store, capsys):
        code = main(
            ["query", "cascades", "--graph", str(store), "--subgraph", "ELISA", "--root", "FM-ELISA-001"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert (
            "Washer Carryover -> High Background / Nonspecific Signal -> Standard Curve Failure"
            in out
        )

    def test_cascades_json_depth_one(self, store, capsys):
        code = main(
            [
                "query",
                "cascades",
                "--graph",
                str(store),
                "--subgraph",
                "ELISA",
                "--root",
                "FM-ELISA-001",
                "--depth",
                "1",
                "--format",
                "json",
            ]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == [
            ["Washer Carryover", "High Background / Nonspecific Signal"]
        ]

    def test_cascades_upstream(self, store, capsys):
        code = main(
            [
                "query",
                "cascades",
                "--graph",
                str(store),
                "--subgraph",
                "ELISA",
                "--root",
                "FM-ELISA-018",
                "--depth",
                "2",
                "--direction",
                "up",
                "--format",
                "json",
            ]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == [
            ["Standard Curve Failure", "High Background / Nonspecific Signal"],
            ["Standard Curve Failure", "Inconsistent Antigen Coating"],
            ["Standard Curve Failure", "High Background / Nonspecific Signal", "Washer Carryover"],
        ]

    def test_low_confidence_threshold(self, store, capsys):
        code = main(
            [
                "query",
                "low-confidence",
                "--graph",
                str(store),
                "--subgraph",
                "LCMS_PRM",
                "--threshold",
                "0.6",
                "--format",
                "json",
            ]
        )
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["id"] for r in rows] == ["FM-LCMS-007", "FM-LCMS-013", "FM-LCMS-023"]

    def test_reuse_needs_no_subgraph(self, store, capsys):
        assert main(["query", "reuse", "--graph", str(store), "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 22

    def test_masking(self, store, capsys):
        code = main(
            ["query", "masking", "--graph", str(store), "--subgraph", "ELISA", "--format", "json"]
        )
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["failure_mode_id"] for r in rows] == ["FM-ELISA-005", "FM-ELISA-001"]

    def test_gaps(self, store, capsys):
        assert main(["query", "gaps", "--graph", str(store), "--subgraph", "ELISA"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ST-ELISA-003\tSample Dilution Strategy\t3\tELICITATION_GAP\t0" in out

    def test_unknown_subgraph_is_invariant_error(self, store, capsys):
        assert main(["query", "silent", "--graph", str(store), "--subgraph", "NOPE"]) == EXIT_INVARIANT
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "query, missing",
        [
            (["decision-points", "--step", "NOPE"], "ELISA:WorkflowStep:NOPE"),
            (["cascades", "--root", "NOPE"], "ELISA:FailureMode:NOPE"),
        ],
    )
    def test_missing_record_names_its_key(self, store, capsys, query, missing):
        argv = ["query", query[0], "--graph", str(store), "--subgraph", "ELISA", *query[1:]]
        assert main(argv) == EXIT_INVARIANT
        assert capsys.readouterr().err == f"error: not found: {missing}\n"

    def test_bad_threshold_is_invariant_error(self, store, capsys):
        code = main(
            ["query", "low-confidence", "--graph", str(store), "--subgraph", "ELISA", "--threshold", "0.2"]
        )
        assert code == EXIT_INVARIANT
        capsys.readouterr()

    def test_unknown_query_name_exits_usage(self, store, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "everything", "--graph", str(store), "--subgraph", "ELISA"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


class TestStats:
    def test_elisa_profile(self, store, capsys):
        assert main(["stats", "--graph", str(store), "--subgraph", "ELISA"]) == EXIT_OK
        assert capsys.readouterr().out == (
            '{"histogram": [0, 1, 0, 4, 6, 5, 2, 0], "mean_confidence": 0.82, "n_at_floor": 0, '
            '"n_failure_modes": 18, "n_silent": 3, "subgraph": "ELISA"}\n'
        )


class TestScoring:
    def test_f1_table(self, tmp_path, capsys):
        reference = tmp_path / "reference.txt"
        candidate = tmp_path / "candidate.txt"
        matched = [f"shared mode {i}" for i in range(3)]
        reference.write_text("\n".join(matched + [f"missed mode {i}" for i in range(6)]) + "\n")
        candidate.write_text("\n".join(matched + ["phantom a", "phantom b"]) + "\n")
        assert main(["f1", "--reference", str(reference), "--candidate", str(candidate)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "precision\trecall\tf1"
        assert lines[1] == "0.6\t0.3333\t0.4286"

    def test_f1_skips_blank_lines(self, tmp_path, capsys):
        reference = tmp_path / "reference.txt"
        candidate = tmp_path / "candidate.txt"
        reference.write_text("washer carryover\n\n  \n")
        candidate.write_text("Washer Carryover\n")
        assert main(["f1", "--reference", str(reference), "--candidate", str(candidate)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "1\t1\t1"

    def test_f1_help_names_the_alias_variable(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["f1", "--help"])
        assert stop.value.code == EXIT_OK
        assert "--alias ALIAS alias table; overrides SKG_ALIAS_FILE" in " ".join(
            capsys.readouterr().out.split()
        )

    def test_f1_alias_table(self, tmp_path, capsys):
        reference = tmp_path / "reference.txt"
        candidate = tmp_path / "candidate.txt"
        aliases = tmp_path / "aliases.txt"
        reference.write_text("recombinant endogenous mismatch\n")
        candidate.write_text("recomb endog mismatch\n")
        aliases.write_text("recomb endog mismatch = recombinant endogenous mismatch\n")
        argv = ["f1", "--reference", str(reference), "--candidate", str(candidate)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "0\t0\t0"
        assert main(argv + ["--alias", str(aliases)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "1\t1\t1"

    def test_consistency_within_agent(self, fixtures_dir, capsys):
        doc = str(fixtures_dir / "elisa.seo.json")
        assert main(["consistency", "--runs", doc, doc, doc]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "within_agent"
        assert report["fm_f1"] == 1
        assert report["fm_f1_variance"] == 0
        assert len(report["comparisons"]) == 3
        assert len(set(report["run_digests"])) == 1

    def test_consistency_cross_agent(self, fixtures_dir, capsys):
        doc = str(fixtures_dir / "elisa.seo.json")
        assert main(["consistency", "--runs", doc, "--reference", doc]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "cross_agent"
        assert report["fm_f1"] == 1
        assert report["method_alternative_recall"] == 1

    @pytest.mark.parametrize(
        ("runs", "reference", "stdout"), CONSISTENCY_STDOUT, ids=["within", "reference", "empty"]
    )
    def test_consistency_stdout_is_pinned(self, fixtures_dir, capsys, runs, reference, stdout):
        argv = ["consistency", "--runs"] + [str(fixtures_dir / f"{run}.seo.json") for run in runs]
        if reference:
            argv += ["--reference", str(fixtures_dir / f"{reference}.seo.json")]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == stdout

    def test_consistency_needs_two_runs(self, fixtures_dir, capsys):
        doc = str(fixtures_dir / "elisa.seo.json")
        assert main(["consistency", "--runs", doc]) == EXIT_INVARIANT
        assert "error:" in capsys.readouterr().err


def copy_fixture_store(fixtures_dir, tmp_path) -> Path:
    """The checked-in federated store and its sidecar, copied under tmp_path."""
    for name in ("federated.skg.jsonl", "federated.skg.sha256"):
        (tmp_path / name).write_bytes((fixtures_dir / "stores" / name).read_bytes())
    return tmp_path / "federated.skg.jsonl"


def edit_record(change):
    return lambda line: json.dumps(change(json.loads(line)))


def without(name):
    return edit_record(lambda record: {k: v for k, v in record.items() if k != name})


def with_properties(properties):
    return edit_record(lambda record: {**record, "properties": properties})


# (line number, line rewrite); line 2 is the first node, line 122 the first edge
STORE_CORRUPTIONS = [
    pytest.param(
        122,
        edit_record(lambda record: {**record, "src": "ELISA:DecisionPoint:DP-ELISA-001"}),
        id="edge-src-is-text",
    ),
    pytest.param(2, without("id"), id="node-without-id"),
    pytest.param(122, without("edge_type"), id="edge-without-type"),
    pytest.param(2, with_properties([]), id="properties-not-an-object"),
    pytest.param(
        2,
        with_properties({"name": {"provenance": "GUESSED", "value": "x"}}),
        id="unknown-provenance",
    ),
    pytest.param(
        2,
        with_properties({"name": {"provenance": "SCHEMA_DEFAULT", "value": None}}),
        id="null-property-value",
    ),
    pytest.param(2, lambda line: line[: len(line) // 2], id="truncated-line"),
    pytest.param(
        2, edit_record(lambda record: {**record, "id": "bad id"}), id="node-id-bad-characters"
    ),
    pytest.param(
        122,
        edit_record(lambda record: {**record, "dst": {**record["dst"], "id": "bad id"}}),
        id="edge-dst-id-bad-characters",
    ),
    pytest.param(
        2,
        with_properties({"name": {"provenance": "SCHEMA_DEFAULT", "value": float("nan")}}),
        id="non-finite-literal",
    ),
    pytest.param(
        2,
        with_properties({"name": {"provenance": "SCHEMA_DEFAULT", "value": -(10**400)}}),
        id="integer-beyond-float-range",
    ),
    pytest.param(
        2,
        lambda line: with_properties({"name": {"provenance": "SCHEMA_DEFAULT", "value": 0}})(
            line
        ).replace('"value": 0', '"value": 1e999'),
        id="number-beyond-float-range",
    ),
    pytest.param(
        2,
        lambda line: with_properties({"name": {"provenance": "SCHEMA_DEFAULT", "value": 0}})(
            line
        ).replace('"value": 0', '"value": ' + "1" * 5000),
        id="integer-over-the-digit-limit",
    ),
    pytest.param(2, lambda line: DEEP_NESTING, id="deep-nesting"),
    pytest.param(1, edit_record(lambda record: {**record, "version": 2}), id="unsupported-version"),
]


def dangling_dst(lines):
    retarget = edit_record(lambda record: {**record, "dst": {**record["dst"], "id": "NOPE-999"}})
    lines[121] = retarget(lines[121])
    return 122


def name_turned_number(lines):
    number = {"name": {"provenance": "INTERVIEW_CONFIRMED", "value": 405}}
    renumber = edit_record(
        lambda record: {**record, "properties": {**record["properties"], **number}}
    )
    lines.insert(2, renumber(lines[1]))  # a second copy of node line 2
    return 3


def same_subgraph_edge_pending(lines):
    lines.append(edit_record(lambda record: {**record, "kind": "pending_edge"})(lines[121]))
    return len(lines)


def swap(lines, first):
    """Swap store lines ``first`` and ``first + 1`` (1-based); the second is out of order."""
    lines[first - 1], lines[first] = lines[first], lines[first - 1]
    return first + 1


def repeat_first_node(lines):
    lines.insert(2, lines[1])
    return 3


# (edit of the store's lines returning the line number the loader rejects, message)
STORE_ORDER_BREACHES = [
    pytest.param(repeat_first_node, "repeats the record before it", id="duplicated-line"),
    pytest.param(lambda lines: swap(lines, 2), "record out of canonical order", id="swapped-nodes"),
    pytest.param(
        lambda lines: swap(lines, 122), "record out of canonical order", id="swapped-edges"
    ),
    # the last node (line 121) and the first edge trade places
    pytest.param(
        lambda lines: swap(lines, 121), "record out of canonical order", id="node-after-an-edge"
    ),
]


# (edit of the store's lines returning the line number merge rejects, message)
STORE_INVARIANT_BREACHES = [
    pytest.param(
        dangling_dst, "missing dst ELISA:CalibrationRecord:NOPE-999", id="dangling-endpoint"
    ),
    pytest.param(
        name_turned_number,
        "AUTOMATION:AutomationAsset:AA-405-ts-washer.name: kind text cannot merge with number",
        id="kind-conflict",
    ),
    pytest.param(
        same_subgraph_edge_pending,
        "pending is reserved for unapproved cross-subgraph edges (CALIBRATED_BY)",
        id="same-subgraph-edge-pending",
    ),
]


FIXTURE_STORE_LINES = (FIXTURES / "stores" / "federated.skg.jsonl").read_text(encoding="utf-8").split("\n")
# what a character mutation writes: JSON structure, escapes, number parts, letters
MUTATION_CHARS = '{}[]:,"\\ 0-.eaZ\n\x00'


@st.composite
def mutated_fixture_stores(draw) -> str:
    """The fixture store with one record line changed, dropped, repeated or swapped."""
    lines = list(FIXTURE_STORE_LINES)
    i = draw(st.integers(1, len(lines) - 2))  # a record: neither the header nor the final ""
    line = lines[i]
    op = draw(st.sampled_from(["delete", "replace", "insert", "drop", "repeat", "swap"]))
    if op in ("delete", "replace", "insert"):
        at = draw(st.integers(0, len(line) - 1))
        char = "" if op == "delete" else draw(st.sampled_from(MUTATION_CHARS))
        lines[i] = line[:at] + char + line[at + (op != "insert") :]
    elif op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, line)
    else:
        lines[i], lines[i + 1] = lines[i + 1], line
    return "\n".join(lines)


ELISA_PLAN = json.loads(
    plan_to_bytes(compile_seo(parse_seo((FIXTURES / "elisa.seo.json").read_bytes()), "ELISA"))
)
# what a plan mutation writes: registered names, near misses and malformed text
PLAN_LABELS = [*builtin_registry().node_types, "Signal", "", "Error:Signature"]
PLAN_EDGE_TYPES = [*builtin_registry().edge_types, "FOLLOWS", ""]
PLAN_ENDPOINTS = [
    "ELISA:WorkflowStep:ST-ELISA-999",  # in neither the plan nor the fixture store
    "LCMS_PRM:WorkflowStep:ST-LCMS_PRM-001",  # in the fixture store only
    "ELISA:WorkflowStep",
    "ELISA:WorkflowStep:bad id",
]
PLAN_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(-0.5, 1.5),
    st.sampled_from(["", "high", "SHELF_elicited", "linguistic_approximation"]),
    st.lists(st.sampled_from(["a", ""]), max_size=2),
)
PLAN_PROVENANCES = ["INTERVIEW_CONFIRMED", "SCHEMA_DEFAULT", "GUESSED", ""]


@st.composite
def mutated_elisa_plans(draw) -> str:
    """The compiled ELISA plan with one statement's label, edge type, endpoint,
    property value or kind, or provenance text changed."""
    plan = json.loads(json.dumps(ELISA_PLAN))
    statements = plan["statements"] + plan["pending_edges"]
    nodes = [s for s in statements if s["kind"] == "node"]
    edges = [s for s in statements if s["kind"] != "node"]
    op = draw(st.sampled_from(["label", "edge_type", "endpoint", "value", "provenance"]))
    if op == "label":
        node = draw(st.sampled_from(nodes))
        old = f"{node['subgraph']}:{node['label']}:{node['id']}"
        node["label"] = draw(st.sampled_from(PLAN_LABELS))
        if draw(st.booleans()):  # the edges follow the node, or dangle
            for edge in edges:
                for end in ("src", "dst"):
                    if edge[end] == old:
                        edge[end] = f"{node['subgraph']}:{node['label']}:{node['id']}"
    elif op == "edge_type":
        draw(st.sampled_from(edges))["edge_type"] = draw(st.sampled_from(PLAN_EDGE_TYPES))
    elif op == "endpoint":
        texts = [f"{n['subgraph']}:{n['label']}:{n['id']}" for n in nodes] + PLAN_ENDPOINTS
        edge = draw(st.sampled_from(edges))
        edge[draw(st.sampled_from(["src", "dst"]))] = draw(st.sampled_from(texts))
    else:
        properties = draw(st.sampled_from(nodes))["properties"]
        prop = properties[draw(st.sampled_from(sorted(properties)))]
        if op == "value":
            prop["value"] = draw(PLAN_VALUES)
        else:
            prop["provenance"] = draw(st.sampled_from(PLAN_PROVENANCES))
    return json.dumps(plan)


class TestCorruptStore:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_fixture_stores())
    def test_mutated_line_exits_cleanly_and_is_located(self, tmp_path, capsys, text):
        path = tmp_path / "federated.skg.jsonl"
        path.write_text(text, encoding="utf-8")
        located = re.compile(rf"error: {re.escape(str(path))}:(\d+): ")
        for command in (["hash"], ["check"], ["query", "silent", "--subgraph", "ELISA"]):
            code = main(command + ["--graph", str(path)])  # anything raised fails the test
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_REJECTED, EXIT_INVARIANT)
            if err:  # a rejection, not a report: check writes its issues to stdout
                assert code != EXIT_OK
                match = located.match(err)
                assert match, err
                assert 2 <= int(match.group(1)) <= text.count("\n") + 1

    @pytest.mark.parametrize(("line_no", "rewrite"), STORE_CORRUPTIONS)
    def test_malformed_record_is_rejected_with_its_location(
        self, fixtures_dir, tmp_path, capsys, line_no, rewrite
    ):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[line_no - 1] = rewrite(lines[line_no - 1].rstrip("\n")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["hash", "--graph", str(path)]) == EXIT_REJECTED
        assert capsys.readouterr().err.startswith(f"error: {path}:{line_no}: ")

    @pytest.mark.parametrize(
        "rewrite",
        [
            without("properties"),
            with_properties([]),
            with_properties({"weight": {"provenance": "INTERVIEW_CONFIRMED", "value": 0.5}}),
        ],
        ids=["absent", "array", "weight"],
    )
    @pytest.mark.parametrize(
        "command",
        [["check"], ["hash", "--verify"], ["query", "ranked", "--subgraph", "ELISA"]],
        ids=" ".join,
    )
    def test_edge_properties_other_than_empty_are_refused(
        self, fixtures_dir, tmp_path, capsys, rewrite, command
    ):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[121] = rewrite(lines[121].rstrip("\n")) + "\n"  # line 122, the first edge
        path.write_text("".join(lines), encoding="utf-8")
        assert main(command + ["--graph", str(path)]) == EXIT_REJECTED
        assert capsys.readouterr() == ("", f"error: {path}:122: edge properties must be {{}}\n")

    @pytest.mark.parametrize(("breach", "message"), STORE_INVARIANT_BREACHES)
    def test_invariant_breach_is_reported_with_its_location(
        self, fixtures_dir, tmp_path, capsys, breach, message
    ):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        line_no = breach(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["hash", "--graph", str(path)]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:{line_no}: {message}\n"

    @pytest.mark.parametrize(("breach", "message"), STORE_ORDER_BREACHES)
    def test_record_out_of_order_is_rejected_with_its_location(
        self, fixtures_dir, tmp_path, capsys, breach, message
    ):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        line_no = breach(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["hash", "--graph", str(path)]) == EXIT_REJECTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:{line_no}: {message}\n"

    @pytest.mark.parametrize("line_no", [1, 2, 200])
    def test_invalid_utf8_is_rejected_with_its_location(
        self, fixtures_dir, tmp_path, capsys, line_no
    ):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_bytes().split(b"\n")
        at = lines[line_no - 1].index(b'"kind"') + 2  # 1-based, after the quote
        lines[line_no - 1] = lines[line_no - 1].replace(b'"kind"', b'"\xc3kind"')
        path.write_bytes(b"\n".join(lines))
        for command in (["hash"], ["check"], ["query", "silent", "--subgraph", "ELISA"]):
            assert main(command + ["--graph", str(path)]) == EXIT_REJECTED
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path}:{line_no}: invalid UTF-8 (invalid continuation byte) at byte {at}\n"
            )

    def test_lone_surrogate_escape_is_rejected_with_its_location(
        self, fixtures_dir, tmp_path, capsys
    ):
        # check once passed it, and hash failed encoding it, with no location
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = lines[1].index('"value": "') + len('"value": "')
        lines[1] = lines[1][:at] + "\\ud800" + lines[1][at:]
        path.write_text("".join(lines), encoding="utf-8")
        for command in (["hash"], ["check"], ["query", "silent", "--subgraph", "ELISA"]):
            assert main(command + ["--graph", str(path)]) == EXIT_REJECTED
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path}:2: lone surrogate escape \\ud800 at column {at + 1}\n"
            )

    def test_verify_rejects_non_canonical_bytes(self, fixtures_dir, tmp_path, capsys):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:2] + lines[1:]), encoding="utf-8")
        # a repeated record breaks the canonical order, so a plain hash refuses it too
        assert main(["hash", "--graph", str(path)]) == EXIT_REJECTED
        assert capsys.readouterr().err == f"error: {path}:3: repeats the record before it\n"
        # insignificant whitespace decodes to the same record, so only --verify sees it
        padded = lines[:1] + [lines[1].rstrip("\n") + " \n"] + lines[2:]
        path.write_text("".join(padded), encoding="utf-8")
        assert main(["hash", "--graph", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == FEDERATED_DIGEST
        assert main(["hash", "--graph", str(path), "--verify"]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: store is not canonical: file sha256 ")

    @pytest.mark.parametrize("line_no", [1, 2, 122], ids=["header", "node", "edge"])
    def test_member_its_writer_never_writes_is_refused(
        self, fixtures_dir, tmp_path, capsys, line_no
    ):
        # a load that dropped the member would read the graph as if it were not there
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[line_no - 1] = lines[line_no - 1].replace("{", '{"bogus": 1, ', 1)
        path.write_text("".join(lines), encoding="utf-8")
        for command in (["check"], ["query", "ranked", "--subgraph", "ELISA"], ["hash"]):
            assert main(command + ["--graph", str(path)]) == EXIT_REJECTED
            assert capsys.readouterr() == ("", f"error: {path}:{line_no}: unknown member 'bogus'\n")

    @pytest.mark.parametrize("endpoint", ["src", "dst"])
    def test_endpoint_member_its_writer_never_writes_is_refused(
        self, fixtures_dir, tmp_path, capsys, endpoint
    ):
        # key_from_record reads only an endpoint's id, label and subgraph
        path = copy_fixture_store(fixtures_dir, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[121] = lines[121].replace(f'"{endpoint}": {{', f'"{endpoint}": {{"bogus": 1, ', 1)
        path.write_text("".join(lines), encoding="utf-8")
        shown = f"error: {path}:122: {endpoint}: unknown member 'bogus'\n"
        for command in (["check"], ["query", "ranked", "--subgraph", "ELISA"], ["hash"]):
            assert main(command + ["--graph", str(path)]) == EXIT_REJECTED
            assert capsys.readouterr() == ("", shown)

    @pytest.mark.parametrize(
        "sidecar", ["", "\n", "not-a-digest\n", "\xff\n", pytest.param(None, id="missing")]
    )
    def test_verify_reports_a_bad_sidecar_as_a_mismatch(
        self, fixtures_dir, tmp_path, capsys, sidecar
    ):
        # a crash between a new store's first rename and its first sidecar
        # write leaves a store with no sidecar
        path = copy_fixture_store(fixtures_dir, tmp_path)
        if sidecar is None:
            (tmp_path / "federated.skg.sha256").unlink()
        else:
            (tmp_path / "federated.skg.sha256").write_bytes(sidecar.encode("latin-1"))
        assert main(["hash", "--graph", str(path), "--verify"]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: digest mismatch: sidecar ")
        if sidecar is None:
            assert captured.err == (
                f"error: digest mismatch: sidecar is missing, computed {FEDERATED_DIGEST}\n"
            )

    def test_verify_of_a_missing_store_is_an_io_error(self, tmp_path, capsys):
        path = tmp_path / "absent.skg.jsonl"
        assert main(["hash", "--graph", str(path), "--verify"]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory: ")


# a text value that the plan test replaces with DEEP_NESTING once the plan is JSON
DEEP_MARK = "deeply nested arrays"


class TestMalformedPlan:
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_elisa_plans())
    def test_mutated_statement_exits_cleanly_and_applies_only_what_checks(
        self, tmp_path, capsys, text
    ):
        plan_file = tmp_path / "elisa.plan.json"
        plan_file.write_text(text, encoding="utf-8")
        fresh = tmp_path / "fresh.skg.jsonl"
        for path in (fresh, fresh.with_name("fresh.skg.sha256")):
            path.unlink(missing_ok=True)
        for store in (fresh, copy_fixture_store(FIXTURES, tmp_path)):
            pair = (store, digest_path(store))
            before = [path.read_bytes() if path.exists() else None for path in pair]
            code = main(["apply", str(plan_file), "--graph", str(store)])  # nothing may escape
            captured = capsys.readouterr()
            assert code in (EXIT_OK, EXIT_REJECTED, EXIT_USAGE, EXIT_IO, EXIT_INVARIANT)
            assert not store.with_name(store.name + ".tmp").exists()
            if code != EXIT_OK:
                assert captured.err.startswith("error: ") or ISSUE_REPORT.fullmatch(captured.err)
                # a refused apply writes nothing: a fresh store stays absent, with no sidecar
                assert [path.read_bytes() if path.exists() else None for path in pair] == before
                continue
            assert captured.err == ""
            # a store that apply writes passes check
            assert main(["check", "--graph", str(store)]) == EXIT_OK
            assert capsys.readouterr() == ("OK\n", "")

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda raw: raw["statements"][-1].update(src=5), "error: statements["),
            (lambda raw: raw.pop("provenance"), "error: provenance: "),
            (lambda raw: raw.update(pending_edges={}), "error: pending_edges: "),
            (
                lambda raw: raw["statements"][-1].update(src="ELISA:FailureMode:bad id"),
                "error: statements[",
            ),
            (
                lambda raw: raw["statements"].append(
                    dict(raw["pending_edges"].pop(0), kind="edge")
                ),
                "error: statements[",
            ),
            (
                lambda raw: raw["pending_edges"].append(
                    dict(raw["statements"].pop(), kind="pending_edge")
                ),
                "error: pending_edges[",
            ),
            (
                lambda raw: raw["statements"][0]["properties"]["name"].update(value=10**400),
                "error: statements[0]: ",
            ),
            (
                lambda raw: raw["statements"][0]["properties"]["name"].update(value=float("nan")),
                "error: non-finite number literal: NaN: line 1 column ",
            ),
            (
                lambda raw: raw["statements"][0]["properties"]["name"].update(value="x\ud800"),
                "error: lone surrogate escape \\ud800: line 1 column ",
            ),
            (lambda raw: raw.update(version=True), "error: unsupported plan version True"),
            (lambda raw: raw.update(version=1.0), "error: unsupported plan version 1.0"),
            (
                lambda raw: raw["statements"][0]["properties"]["name"].update(value=DEEP_MARK),
                "error: JSON nested too deeply to decode\n",
            ),
        ],
        ids=[
            "edge-src-not-text",
            "missing-provenance",
            "pending-not-array",
            "edge-src-id-bad-characters",
            "cross-subgraph-edge-approved",
            "same-subgraph-edge-pending",
            "integer-beyond-float-range",
            "non-finite-literal",
            "lone-surrogate-escape",
            "version-true",
            "version-float",
            "deep-nesting",
        ],
    )
    def test_apply_rejects_with_its_location(
        self, tmp_path, fixtures_dir, capsys, change, message
    ):
        assert main(["compile", str(fixtures_dir / "elisa.seo.json"), "--subgraph", "ELISA"]) == EXIT_OK
        raw = json.loads(capsys.readouterr().out)
        change(raw)
        plan_file = tmp_path / "elisa.plan.json"
        plan_file.write_text(json.dumps(raw).replace(json.dumps(DEEP_MARK), DEEP_NESTING))
        assert main(["apply", str(plan_file), "--graph", str(tmp_path / "x.skg.jsonl")]) == EXIT_REJECTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)


    @pytest.mark.parametrize(
        "change, fresh, message",
        [
            (
                lambda raw: raw["pending_edges"][0].update(edge_type="FOLLOWS"),
                True,
                "pending_edges[0]: FOLLOWS may not span ELISA -> AUTOMATION",
            ),
            (
                lambda raw: raw["statements"][-1].update(dst="ELISA:WorkflowStep:ST-ELISA-999"),
                True,
                "statements[{last}]: missing dst ELISA:WorkflowStep:ST-ELISA-999",
            ),
            (
                lambda raw: raw["statements"][0]["properties"]["name"].update(value=5),
                False,
                "statements[0]: AUTOMATION:AutomationAsset:AA-el406-plate-washer.name: kind text",
            ),
        ],
        ids=["edge-may-not-span", "missing-endpoint", "value-kind-change"],
    )
    def test_apply_locates_a_record_merge_refuses(
        self, tmp_path, fixtures_dir, capsys, change, fresh, message
    ):
        elisa = str(fixtures_dir / "elisa.seo.json")
        assert main(["compile", elisa, "--subgraph", "ELISA"]) == EXIT_OK
        raw = json.loads(capsys.readouterr().out)
        change(raw)
        plan_file = tmp_path / "elisa.plan.json"
        plan_file.write_text(json.dumps(raw), encoding="utf-8")
        store = tmp_path / "x.skg.jsonl" if fresh else copy_fixture_store(fixtures_dir, tmp_path)
        before = store.read_bytes() if store.exists() else None
        assert main(["apply", str(plan_file), "--graph", str(store)]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(last=len(raw["statements"]) - 1))
        assert (store.read_bytes() if store.exists() else None) == before

class TestSchemaAndHash:
    def test_schema_lists_registry(self, capsys):
        assert main(["schema"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "skg-ontology-1" in out
        assert "FailureMode" in out
        assert "MASKED_BY" in out

    def test_hash_verify_ok(self, store, capsys):
        assert main(["hash", "--graph", str(store), "--verify"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == FEDERATED_DIGEST

    def test_hash_verify_detects_tamper(self, store, capsys):
        sidecar = store.parent / "twin.skg.sha256"
        sidecar.write_text("0" * 64 + "  skg-ontology-1\n")
        assert main(["hash", "--graph", str(store), "--verify"]) == EXIT_INVARIANT
        assert "digest mismatch" in capsys.readouterr().err

    def test_fixture_store_verifies(self, fixtures_dir, tmp_path, capsys):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        assert main(["hash", "--graph", str(path), "--verify"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == FEDERATED_DIGEST


def scoped_reads(graph: Graph) -> list[list[str]]:
    """Every query and stats, on each subgraph of ``graph`` and on one it lacks."""
    commands = [["query", "reuse", "--format", "json"]]
    for subgraph in sorted({node.key.subgraph for node in graph.nodes()}) + ["NOPE"]:
        # a step with decision points and a root with cascades, where the subgraph has them
        steps = [e.src.id for e in graph.edges("HAS_DECISION_POINT") if e.src.subgraph == subgraph]
        roots = [e.src.id for e in graph.edges("CASCADES_TO") if e.src.subgraph == subgraph]
        given = {
            "step": steps[0] if steps else "ST-NOPE-001",
            "root": roots[0] if roots else "FM-NOPE-001",
        }
        commands.append(["stats", "--subgraph", subgraph])
        for name, (_, options) in QUERIES.items():
            # reuse takes no subgraph, and reads every one even when given --subgraph
            command = ["query", name, "--format", "json", "--subgraph", subgraph]
            for option in ("step", "root"):
                if option in options:
                    command += [f"--{option}", given[option]]
            commands.append(command)
            if name == "cascades":
                commands.append(command + ["--direction", "up"])
    return commands


class TestScopedRead:
    """A --subgraph read of a trusted store loads only what it can reach; nothing else may show it."""

    @staticmethod
    def results(path: Path, commands: list[list[str]], capsys) -> list[tuple]:
        out = []
        for command in commands:
            code = main(command + ["--graph", str(path)])
            captured = capsys.readouterr()
            out.append((command, code, captured.out, captured.err))
        return out

    @pytest.mark.parametrize(
        "build",
        [None, lambda base: federation(base, 4), third_subgraph_federation],
        ids=["fixture", "federation-4", "third-subgraph"],
    )
    def test_trusted_store_reads_like_the_same_bytes_without_sidecar(
        self, federated, fixtures_dir, tmp_path, capsys, monkeypatch, build
    ):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        graph = federated
        if build is not None:
            graph = build(federated)
            save_store(graph, path)
        commands = scoped_reads(graph)
        decoded = count_decodes(monkeypatch)
        trusted = self.results(path, commands, capsys)
        scoped = decoded[0]
        digest_path(path).unlink()
        assert self.results(path, commands, capsys) == trusted
        assert scoped < decoded[0] - scoped  # the trusted reads skipped lines
        if build is third_subgraph_federation:  # the masking loop through AUTOMATION_2 shows
            masking = ["query", "masking", "--format", "json", "--subgraph", "ELISA"]
            out = next(result[2] for result in trusted if result[0] == masking)
            assert '"asset_id": "AA-remote-reader"' in out and '"loop": true' in out

    def test_hash_of_a_trusted_store_reads_only_its_header(
        self, fixtures_dir, tmp_path, capsys, monkeypatch
    ):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        decoded = count_decodes(monkeypatch)
        assert main(["hash", "--graph", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == FEDERATED_DIGEST + "\n"
        assert decoded[0] == 1
        assert main(["hash", "--verify", "--graph", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == FEDERATED_DIGEST + "\n"
        assert decoded[0] > 100  # --verify reads every line of a trusted store too
        digest_path(path).unlink()
        assert main(["hash", "--graph", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == FEDERATED_DIGEST + "\n"
        assert decoded[0] > 200


# every error type's exit code, pinned, so that a type moved to another
# exit class, or a new type, shows here
EXIT_CLASSES = {
    "SkgError": EXIT_REJECTED,
    "InvariantError": EXIT_INVARIANT,
    "MalformedKey": EXIT_INVARIANT,
    "TypeConflict": EXIT_INVARIANT,
    "DanglingEdge": EXIT_INVARIANT,
    "CrossSubgraphViolation": EXIT_INVARIANT,
    "SelectorRefused": EXIT_INVARIANT,
    "RangeError": EXIT_INVARIANT,
    "ArityError": EXIT_INVARIANT,
    "RegistryMismatch": EXIT_REJECTED,
    "SeoParseError": EXIT_REJECTED,
    "UnknownField": EXIT_REJECTED,
    "ValueKindMismatch": EXIT_REJECTED,
    "SubgraphMismatch": EXIT_REJECTED,
    "Rejected": EXIT_REJECTED,
}


def error_types(cls=errors.SkgError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_types(sub)


class TestExitClasses:
    def test_every_error_type_has_a_pinned_exit_code(self):
        assert {cls.__name__ for cls in error_types()} == set(EXIT_CLASSES)

    @pytest.mark.parametrize("cls", list(error_types()), ids=lambda cls: cls.__name__)
    def test_main_exits_with_the_class_of_the_error(self, monkeypatch, capsys, cls):
        if cls is errors.Rejected:
            exc = cls(ValidationReport([Issue("Code", "a:B:c", "detail")]))
            shown = "Code\ta:B:c\tdetail\n"
        else:
            exc = cls(*{errors.ValueKindMismatch: ("a.b", "text", "number")}.get(cls, ("refused",)))
            shown = f"error: {exc}\n"

        def refuse(args):
            raise exc

        monkeypatch.setattr("skg.cli.cmd_schema", refuse)
        assert main(["schema"]) == cls.exit_code == EXIT_CLASSES[cls.__name__]
        assert capsys.readouterr() == ("", shown)

    def test_a_refused_selector_is_a_key_error_printed_unquoted(self):
        exc = errors.SelectorRefused("not pending: x")
        assert isinstance(exc, KeyError) and str(exc) == "not pending: x"


# the environment of a child interpreter that imports skg from this checkout
SRC_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
)


class TestProcessEntry:
    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skg.cli", "schema"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK
        assert "skg-ontology-1" in proc.stdout

    def test_main_never_freezes_the_caller(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["schema"]) == EXIT_OK
        assert gc.get_freeze_count() == frozen
        capsys.readouterr()

    def test_run_exits_with_the_code_of_main(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["skg", "query", "silent", "--graph", "x"])
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))  # this process stays unfrozen
        with pytest.raises(SystemExit) as exit_:
            run()
        assert exit_.value.code == EXIT_USAGE
        assert frozen == [True]
        assert capsys.readouterr().err == "error: silent needs --subgraph\n"

    @staticmethod
    def run_main_in_fresh_process(argv: list[str]) -> tuple[str, dict]:
        """stdout of ``main(argv)`` in a new interpreter, and the modules it imported."""
        script = (
            "import json, sys\n"
            "import skg\n"
            "bare = [m for m in sys.modules if m.startswith('skg.')]\n"
            "import skg.cli\n"
            f"code = skg.cli.main({argv!r})\n"
            "sys.stderr.write(json.dumps({'bare': bare, 'code': code, 'loaded': list(sys.modules)}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stderr)
        assert seen["bare"] == []
        assert seen["code"] == EXIT_OK
        return proc.stdout, seen

    @pytest.mark.parametrize(
        ("command", "shown", "unused"),
        [
            (
                ["query", "silent", "--subgraph", "ELISA"],
                "FM-ELISA-001",
                # no read process builds SubgraphStats, the one dataclass
                {"dataclasses", "inspect", "skg.validation"},
            ),
            (
                ["stats", "--subgraph", "ELISA"],
                '"subgraph": "ELISA"',
                {"dataclasses", "inspect", "skg.validation"},
            ),
            (["check"], "OK", set()),
        ],
        ids=["query", "stats", "check"],
    )
    def test_query_process_imports_only_what_it_runs(
        self, fixtures_dir, tmp_path, command, shown, unused
    ):
        path = copy_fixture_store(fixtures_dir, tmp_path)
        out, seen = self.run_main_in_fresh_process(command + ["--graph", str(path)])
        assert shown in out
        assert {"skg.seo", "skg.annotator", "skg.metrics", *unused}.isdisjoint(seen["loaded"])

    @pytest.mark.parametrize(
        ("command", "shown"),
        [
            (["apply", "{elisa}", "--graph", "{store}"], FEDERATED_DIGEST),
            (["apply", "{plan}", "--graph", "{store}"], FEDERATED_DIGEST),
            (["converge", "--graph", "{store}"], FEDERATED_DIGEST),
            (["hash", "--verify", "--graph", "{store}"], FEDERATED_DIGEST),
            (["check", "--graph", "{store}"], "OK"),
            (["validate", "{elisa}"], "OK"),
            (["compile", "{elisa}", "--subgraph", "ELISA"], '"kind": "merge_plan"'),
        ],
        ids=["apply-document", "apply-plan", "converge", "hash-verify", "check", "validate", "compile"],
    )
    def test_write_process_builds_no_dataclasses(self, fixtures_dir, tmp_path, command, shown):
        # records are NamedTuples; dataclasses is the only importer of inspect here
        elisa = fixtures_dir / "elisa.seo.json"
        plan = tmp_path / "elisa.plan.json"
        plan.write_bytes(plan_to_bytes(compile_seo(parse_seo(elisa.read_bytes()), "ELISA")))
        names = {"elisa": elisa, "plan": plan, "store": copy_fixture_store(fixtures_dir, tmp_path)}
        out, seen = self.run_main_in_fresh_process([arg.format(**names) for arg in command])
        assert shown in out
        # nor the read queries: skg.cli imports them for query and stats alone
        assert {"dataclasses", "inspect", "skg.queries"}.isdisjoint(seen["loaded"])

    def test_concurrent_applies_are_serialized(self, fixtures_dir, tmp_path, capsys):
        # four processes race to create and grow one store; the store lock
        # serializes them, so every document lands whatever the order
        store = tmp_path / "twin.skg.jsonl"
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "skg.cli", *apply_args(store, fixtures_dir, doc, subgraph)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=SRC_ENV,
            )
            for doc, subgraph in DOCS
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (EXIT_OK, b"")
        assert main(["converge", "--graph", str(store)]) == EXIT_OK
        assert capsys.readouterr().out == FEDERATED_DIGEST + "\n"
        assert (tmp_path / "twin.skg.sha256").read_text().split()[0] == FEDERATED_DIGEST

    def test_fixture_checker_passes(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "check_fixtures.py"
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


def unprivileged_python() -> list[str] | None:
    """A command that runs Python as a user bound by file permissions, or None.

    Root overrides file permissions, so as root the command drops to uid
    and gid 65534 through ``setpriv``, with the first interpreter of this
    one and the system's ``python3`` that such a user can run.
    """
    if os.geteuid() != 0:
        return [sys.executable]
    setpriv = shutil.which("setpriv")
    if setpriv is None:
        return None
    drop = [setpriv, "--reuid=65534", "--regid=65534", "--clear-groups"]
    for python in filter(None, (sys.executable, shutil.which("python3", path=os.defpath))):
        probe = drop + [python, "-c", "import sys; sys.exit(sys.version_info < (3, 10))"]
        if subprocess.run(probe, capture_output=True, timeout=60).returncode == 0:
            return drop + [python]
    return None


READS = [
    ["hash"],
    ["hash", "--verify"],
    ["check"],
    ["stats", "--subgraph", "ELISA"],
    ["query", "silent", "--subgraph", "ELISA"],
]


class TestReadAccess:
    """A read takes the shared lock on ``<store>.lock`` when it can, and needs no write access."""

    @pytest.mark.parametrize("command", READS, ids=" ".join)
    def test_read_of_a_missing_store_creates_no_file(self, tmp_path, capsys, command):
        assert main(command + ["--graph", str(tmp_path / "typo.skg.jsonl")]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory: ")
        assert list(tmp_path.iterdir()) == []

    def test_converge_of_a_missing_store_creates_no_file(self, tmp_path, capsys):
        missing = tmp_path / "typo.skg.jsonl"
        assert main(["converge", "--graph", str(missing)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", READS + [["converge"], ["apply"]], ids=" ".join)
    def test_a_store_path_naming_a_directory_creates_no_file(
        self, fixtures_dir, tmp_path, capsys, command
    ):
        store = tmp_path / "d.skg.jsonl"
        store.mkdir()
        if command == ["apply"]:
            argv = apply_args(store, fixtures_dir, *DOCS[0])
        else:
            argv = command + ["--graph", str(store)]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{store}'\n"
        assert list(tmp_path.iterdir()) == [store]

    def test_writes_and_reads_of_a_store_create_its_lock(self, fixtures_dir, tmp_path, capsys):
        store = tmp_path / "twin.skg.jsonl"
        assert main(apply_args(store, fixtures_dir, *DOCS[0])) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "twin.skg.jsonl.lock").is_file()
        path = copy_fixture_store(fixtures_dir, tmp_path)
        assert main(["hash", "--graph", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == FEDERATED_DIGEST + "\n"
        assert (tmp_path / "federated.skg.jsonl.lock").is_file()

    @pytest.mark.parametrize("lock_file", [False, True], ids=["no-lock-file", "read-only-lock-file"])
    def test_reads_need_no_write_access(self, fixtures_dir, lock_file):
        python = unprivileged_python()
        if python is None:
            pytest.skip("running as root without setpriv, so file permissions do not bind")
        with tempfile.TemporaryDirectory() as top:
            # the package is copied where the unprivileged user can read it
            top = Path(top)
            top.chmod(0o755)
            package = Path(skg.__file__).parent
            shutil.copytree(package, top / "src" / "skg", ignore=shutil.ignore_patterns("__pycache__"))
            shelf = top / "store"
            shelf.mkdir()
            store = copy_fixture_store(fixtures_dir, shelf)
            if lock_file:
                Path(f"{store}.lock").touch()
            for path in shelf.iterdir():
                path.chmod(0o444)
            shelf.chmod(0o555)
            before = sorted(shelf.iterdir())
            env = dict(os.environ, PYTHONPATH=str(top / "src"), PYTHONDONTWRITEBYTECODE="1")
            try:
                for command in READS:
                    proc = subprocess.run(
                        python + ["-m", "skg.cli", *command, "--graph", str(store)],
                        capture_output=True,
                        text=True,
                        env=env,
                        timeout=60,
                    )
                    assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), command
                    if command[0] == "hash":
                        assert proc.stdout == FEDERATED_DIGEST + "\n"
                    assert sorted(shelf.iterdir()) == before
            finally:
                shelf.chmod(0o755)
