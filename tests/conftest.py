"""Shared fixtures: parsed sample documents and the federated store."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from skg import (
    Edge,
    Graph,
    Node,
    NodeKey,
    Prop,
    apply_plan,
    approve_pending,
    builtin_registry,
    compile_seo,
    load_store,
    merge,
    neighbors,
    parse_seo,
)
from skg import graph_core

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Arrays nested deeper than the recursion limit of any supported Python
# (3.10 to 3.13), so the JSON decoder gives up on them.
DEEP_NESTING = "[" * 100_000 + "]" * 100_000

# what a rejected document or plan prints: one code, subject and detail line per issue
ISSUE_REPORT = re.compile(r"(?:[A-Za-z]+\t[^\t\n]+\t[^\t\n]+\n)+")

# Compile order for the federated corpus.  Later documents resolve stubs
# introduced by earlier ones, but any order must converge to the same graph.
DOC_SUBGRAPHS = (
    ("elisa.seo.json", "ELISA"),
    ("lcms_prm.seo.json", "LCMS_PRM"),
    ("automation.seo.json", "AUTOMATION"),
    ("program.seo.json", "PROGRAM"),
)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


@pytest.fixture(scope="session")
def elisa_doc():
    return parse_seo((FIXTURES / "elisa.seo.json").read_bytes())


@pytest.fixture(scope="session")
def lcms_doc():
    return parse_seo((FIXTURES / "lcms_prm.seo.json").read_bytes())


@pytest.fixture(scope="session")
def automation_doc():
    return parse_seo((FIXTURES / "automation.seo.json").read_bytes())


@pytest.fixture(scope="session")
def program_doc():
    return parse_seo((FIXTURES / "program.seo.json").read_bytes())


@pytest.fixture(scope="session")
def all_docs(elisa_doc, lcms_doc, automation_doc, program_doc):
    return {
        "ELISA": elisa_doc,
        "LCMS_PRM": lcms_doc,
        "AUTOMATION": automation_doc,
        "PROGRAM": program_doc,
    }


@pytest.fixture(scope="session")
def federated(registry) -> Graph:
    """The checked-in converged store, loaded once per session."""
    return load_store(FIXTURES / "stores" / "federated.skg.jsonl", registry)


def build_federated(docs: dict, registry, *, approve: bool = True) -> Graph:
    """Compile and apply the whole corpus into a fresh graph."""
    graph = Graph(registry)
    for name, subgraph in DOC_SUBGRAPHS:
        del name
        plan = compile_seo(docs[subgraph], subgraph)
        graph = apply_plan(graph, plan)
    if approve:
        graph, _ = approve_pending(graph)
    return graph


@pytest.fixture(scope="session")
def fresh_federated(all_docs, registry) -> Graph:
    return build_federated(all_docs, registry)


@pytest.fixture(scope="session")
def unconverged_federated(all_docs, registry) -> Graph:
    return build_federated(all_docs, registry, approve=False)


def federation(base: Graph, copies: int) -> Graph:
    """``copies`` renamed copies of ``base``, copy 1 under the original subgraph names."""
    records: list[Node | Edge] = []
    for copy in range(1, copies + 1):
        suffix = "" if copy == 1 else f"_{copy}"

        def rename(k: NodeKey) -> NodeKey:
            return NodeKey(k.subgraph + suffix, k.label, k.id)

        records += [Node(rename(n.key), n.properties) for n in base.nodes()]
        records += [
            Edge(e.edge_type, rename(e.src), rename(e.dst), e.properties, e.pending)
            for e in base.edges()
        ]
    return merge(Graph(builtin_registry()), records)


def third_subgraph_federation(base: Graph) -> Graph:
    """``base`` plus records that reach past its subgraphs from ELISA.

    * ELISA's first failure mode is masked by an asset in AUTOMATION_2,
      and the step that causes it requires a use case there that the
      asset is suitable for: a masking loop through a third subgraph;
    * its second failure mode has a pending MASKED_BY to an asset in
      AUTOMATION_3;
    * a NOTES failure mode's name holds the text ``"subgraph": "ELISA"``.
    """
    first, second = base.nodes("FailureMode", "ELISA")[:2]
    step = neighbors(base, first.key, "CAUSES_IF_INCOMPLETE", "in")[0]
    asset = Node(
        NodeKey("AUTOMATION_2", "AutomationAsset", "AA-remote-reader"), {"name": Prop("Remote Reader")}
    )
    use_case = Node(
        NodeKey("AUTOMATION_2", "UseCase", "UC-remote-reading"), {"name": Prop("Remote Reading")}
    )
    unapproved = Node(
        NodeKey("AUTOMATION_3", "AutomationAsset", "AA-spare-reader"), {"name": Prop("Spare Reader")}
    )
    note = Node(
        NodeKey("NOTES", "FailureMode", "FM-NOTES-001"),
        {"name": Prop('copied from "subgraph": "ELISA"'), "confidence": Prop(0.5)},
    )
    return merge(
        base,
        [
            asset,
            use_case,
            unapproved,
            note,
            Edge("MASKED_BY", first.key, asset.key),
            Edge("REQUIRES_AUTOMATION", step.key, use_case.key),
            Edge("SUITABLE_FOR", use_case.key, asset.key),
            Edge("MASKED_BY", second.key, unapproved.key, pending=True),
        ],
    )


def count_decodes(monkeypatch) -> list[int]:
    """Count the store lines ``load_store`` decodes from now on, the header included."""
    count = [0]
    decode = graph_core._decode_line

    def counting(line, where):
        count[0] += 1
        return decode(line, where)

    monkeypatch.setattr(graph_core, "_decode_line", counting)
    return count
