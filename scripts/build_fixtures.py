#!/usr/bin/env python3
"""Rebuild the derived fixtures from the extraction documents.

Writes fixtures/stores/federated.skg.jsonl (plus digest sidecar) by
compiling and applying all four documents and approving every pending
cross-subgraph edge, fixtures/golden/elisa_plan.cypher from the ELISA
plan, and fixtures/seo.schema.json from the document record classes.
Run after any intentional change to the documents, the document format
or plan compilation, then commit the results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from skg import (
    Graph,
    apply_plan,
    approve_pending,
    builtin_registry,
    compile_seo,
    emit_cypher,
    json_schema,
    parse_seo,
    save_store,
    validate_graph,
)

DOCUMENTS = (
    ("elisa.seo.json", "ELISA"),
    ("lcms_prm.seo.json", "LCMS_PRM"),
    ("automation.seo.json", "AUTOMATION"),
    ("program.seo.json", "PROGRAM"),
)


def build(fixtures: Path) -> str:
    (fixtures / "seo.schema.json").write_text(json_schema(), encoding="utf-8")
    registry = builtin_registry()
    graph = Graph(registry)
    for filename, subgraph in DOCUMENTS:
        doc = parse_seo((fixtures / filename).read_bytes())
        plan = compile_seo(doc, subgraph)
        graph = apply_plan(graph, plan)
        if filename == "elisa.seo.json":
            golden = fixtures / "golden" / "elisa_plan.cypher"
            golden.parent.mkdir(parents=True, exist_ok=True)
            golden.write_text(emit_cypher(plan), encoding="utf-8")
    graph, approved = approve_pending(graph)
    report = validate_graph(graph, registry)
    if not report.ok:
        sys.stderr.write(report.to_text())
        raise SystemExit(1)
    stores = fixtures / "stores"
    stores.mkdir(parents=True, exist_ok=True)
    digest = save_store(graph, stores / "federated.skg.jsonl")
    print(f"approved {len(approved)} pending edge(s)")
    print(f"nodes {graph.node_count} edges {graph.edge_count}")
    print(digest)
    return digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fixtures",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "fixtures",
        help="fixtures directory (default: repository fixtures/)",
    )
    args = parser.parse_args(argv)
    build(args.fixtures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
