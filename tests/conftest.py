"""Shared fixtures: parsed sample documents and the federated store."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from skg import (
    Graph,
    apply_plan,
    approve_pending,
    builtin_registry,
    compile_seo,
    load_store,
    parse_seo,
)

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
