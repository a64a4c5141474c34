#!/usr/bin/env python3
"""Verify the checked-in fixtures against their frozen expectations.

Independent of the test suite so fixture drift can be caught from a
shell. Checks document arithmetic (counts and confidence sums on an
integer grid), that seo.schema.json is what seo.json_schema() renders
and that the documents conform to it, the merge-plan bytes of each
document, the federated store contents, the rendered rows of every
read query on that store, the golden export, and the digest sidecar.
Prints one line per check group; exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import jsonschema

from skg import (
    builtin_registry,
    compile_seo,
    emit_cypher,
    graph_hash,
    json_schema,
    load_store,
    parse_seo,
    plan_to_bytes,
    validate_graph,
    validate_seo,
)
from skg import queries
from skg.canonical import render_value

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# SHA-256 of plan_to_bytes(compile_seo(doc, subgraph)) per fixture document
PLAN_DIGESTS = {
    ("elisa", "ELISA"): "a5b121cbd77c7cab4fad289aca03f76f99bd802509a6d1926398a9ecc018a962",
    ("lcms_prm", "LCMS_PRM"): "0ae6b5448dbf6bd3b2729cfa388a63f9aecb3ff65d807c6a96f8b80af3e265f4",
    ("automation", "AUTOMATION"): "d4f4220ff2151e5a2ed7cd826a10d147b93c9c9e059968a01d04603f417267fe",
    ("program", "PROGRAM"): "b7065e2c0de30e39f8b9d2fe2b4ee1b64959be94d35f087ab0fd972beaf142e9",
}

# SHA-256 of the rendered rows of every read query on the federated store
QUERY_ROWS_DIGEST = "8b50e958743f6488a3a02171ff7bf6828a858ed0eef218e3f472e82bd71173ff"


def fail(message: str) -> None:
    sys.stderr.write(f"FAIL: {message}\n")
    raise SystemExit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def centi_sum(values) -> int:
    return sum(round(v * 100) for v in values)


def load(fixtures: Path, name: str):
    doc = parse_seo((fixtures / name).read_bytes())
    report = validate_seo(doc)
    check(report.ok, f"{name} failed validation:\n{report.to_text()}")
    return doc


def check_schema(fixtures: Path) -> None:
    text = (fixtures / "seo.schema.json").read_text(encoding="utf-8")
    check(text == json_schema(), "schema: seo.schema.json differs from seo.json_schema()")
    schema = json.loads(text)
    validator = jsonschema.Draft202012Validator(schema)
    for name in ("elisa", "lcms_prm", "automation", "program"):
        raw = json.loads((fixtures / f"{name}.seo.json").read_text(encoding="utf-8"))
        errors = list(validator.iter_errors(raw))
        check(not errors, f"{name}: schema errors: {[e.message for e in errors[:3]]}")
    print("schema: generated bytes hold, 4 documents conform")


def check_documents(fixtures: Path) -> None:
    elisa = load(fixtures, "elisa.seo.json")
    fms = [fm for step in elisa.protocol.steps for fm in step.failure_modes]
    check(len(elisa.protocol.steps) == 9, "elisa: expected 9 steps")
    check(len(fms) == 18, f"elisa: expected 18 failure modes, got {len(fms)}")
    check(
        centi_sum(fm.confidence for fm in fms) == 1476,
        "elisa: confidence sum must be exactly 14.76",
    )
    check(
        sum(len(s.required_use_cases) for s in elisa.protocol.steps) == 15,
        "elisa: expected 15 use-case requirements",
    )
    check(len(elisa.decision_model.decision_points) == 6, "elisa: expected 6 decision points")

    lcms = load(fixtures, "lcms_prm.seo.json")
    fms = [fm for step in lcms.protocol.steps for fm in step.failure_modes]
    check(len(lcms.protocol.steps) == 10, "lcms: expected 10 steps")
    check(len(fms) == 23, f"lcms: expected 23 failure modes, got {len(fms)}")
    check(
        centi_sum(fm.confidence for fm in fms) == 1633,
        "lcms: confidence sum must be exactly 16.33",
    )
    check(
        sum(len(s.required_use_cases) for s in lcms.protocol.steps) == 16,
        "lcms: expected 16 use-case requirements",
    )
    check(
        sum(1 for fm in fms if round(fm.confidence * 100) == 60) == 3,
        "lcms: expected exactly 3 range-floor claims",
    )

    automation = load(fixtures, "automation.seo.json")
    check(len(automation.automation_context) == 22, "automation: expected 22 assets")
    use_cases = {uc for c in automation.automation_context for uc in c.use_case_names}
    check(len(use_cases) == 15, f"automation: expected 15 distinct use cases, got {len(use_cases)}")

    program = load(fixtures, "program.seo.json")
    milestones = program.strategic.program_milestones
    check(len(milestones) == 1 and len(milestones[0].evidentiary_inputs) == 2,
          "program: expected 1 milestone with 2 evidentiary inputs")
    print("documents: counts and confidence sums hold")


def check_plans(fixtures: Path) -> None:
    for (name, subgraph), expected in PLAN_DIGESTS.items():
        doc = parse_seo((fixtures / f"{name}.seo.json").read_bytes())
        digest = hashlib.sha256(plan_to_bytes(compile_seo(doc, subgraph))).hexdigest()
        check(digest == expected, f"plans: {name} plan bytes drifted, digest {digest[:12]}...")
    print(f"plans: {len(PLAN_DIGESTS)} plan digests hold")


def check_store(fixtures: Path) -> None:
    store = fixtures / "stores" / "federated.skg.jsonl"
    graph = load_store(store, builtin_registry())
    check(validate_graph(graph, builtin_registry()).ok, "store: registry validation failed")
    check(not graph.pending_edges(), "store: must be fully converged")
    check(len(graph.nodes("AutomationAsset")) == 22, "store: expected 22 assets")
    check(len(graph.nodes("UseCase")) == 15, "store: expected 15 use cases")
    ra = graph.edges("REQUIRES_AUTOMATION")  # none pend, as checked above
    check(len(ra) == 31, f"store: expected 31 automation requirements, got {len(ra)}")
    check(
        len(graph.nodes("FailureMode", "ELISA")) == 18
        and len(graph.nodes("FailureMode", "LCMS_PRM")) == 23,
        "store: failure-mode counts drifted",
    )
    digest = hashlib.sha256(store.read_bytes()).hexdigest()
    sidecar = (fixtures / "stores" / "federated.skg.sha256").read_text(encoding="utf-8")
    check(sidecar.split()[0] == digest, "store: digest sidecar does not match file bytes")
    check(graph_hash(graph) == digest, "store: content hash does not match file digest")
    print(f"store: converged, counts hold, digest {digest[:12]}...")


def query_rows(graph) -> list[str]:
    """Every read query on ``graph``, rendered as the CLI renders its JSON."""
    subgraphs = sorted({node.key.subgraph for node in graph.nodes()})
    out = []
    for sg in subgraphs:
        for query in (
            queries.ranked_failures,
            queries.ranked_silent_failures,
            queries.elicitation_gaps,
            queries.masking_exposures,
        ):
            out.append(queries.rows_to_json(query(graph, sg)))
        out.append(queries.rows_to_json(queries.low_confidence_claims(graph, sg, 0.7)))
        out.append(render_value(queries.subgraph_stats_record(graph, sg)))
    for step in graph.nodes("WorkflowStep"):
        k = step.key
        out.append(queries.rows_to_json(queries.step_decision_points(graph, k.subgraph, k.id)))
    for mode in graph.nodes("FailureMode"):
        k = mode.key
        for direction in ("down", "up"):
            paths = queries.cascade_paths(graph, k.subgraph, k.id, 3, direction)
            out.append(render_value([list(p) for p in paths]))
    out.append(queries.rows_to_json(queries.automation_reuse(graph)))
    return out


def check_query_rows(fixtures: Path) -> None:
    graph = load_store(fixtures / "stores" / "federated.skg.jsonl", builtin_registry())
    rendered = query_rows(graph)
    digest = hashlib.sha256("\n".join(rendered).encode("utf-8")).hexdigest()
    check(digest == QUERY_ROWS_DIGEST, f"queries: rendered rows drifted, digest {digest[:12]}...")
    print(f"queries: {len(rendered)} query results hold")


def check_golden(fixtures: Path) -> None:
    doc = parse_seo((fixtures / "elisa.seo.json").read_bytes())
    rendered = emit_cypher(compile_seo(doc, "ELISA"))
    golden = (fixtures / "golden" / "elisa_plan.cypher").read_text(encoding="utf-8")
    check(rendered == golden, "golden: elisa_plan.cypher no longer matches compilation output")
    print("golden: export matches byte for byte")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", type=Path, default=FIXTURES)
    args = parser.parse_args(argv)
    check_schema(args.fixtures)
    check_documents(args.fixtures)
    check_plans(args.fixtures)
    check_store(args.fixtures)
    check_query_rows(args.fixtures)
    check_golden(args.fixtures)
    print("all fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
