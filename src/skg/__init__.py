"""Semantic knowledge-graph engine for laboratory workflow twins.

Elicitation sessions produce structured extraction documents; the
annotator compiles them into deterministic merge plans; plans fold into
a federated, provenance-tagged property graph with canonical bytes and
a content hash; queries read the approved knowledge back out.

The names in ``__all__`` load their submodule on first use (PEP 562), so
``import skg`` loads no submodule and a process pays only for the
modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "annotator": (
        "EXECUTION_SUBGRAPH",
        "MergePlan",
        "apply_plan",
        "approve_pending",
        "compile_seo",
        "emit_cypher",
        "load_plan",
        "plan_to_bytes",
    ),
    "errors": (
        "ArityError",
        "CrossSubgraphViolation",
        "DanglingEdge",
        "MalformedKey",
        "NoHedgeDetected",
        "RangeError",
        "RegistryMismatch",
        "Rejected",
        "SeoParseError",
        "SkgError",
        "SubgraphMismatch",
        "TypeConflict",
        "UnknownField",
        "ValueKindMismatch",
    ),
    "graph_core": (
        "Edge",
        "Graph",
        "Node",
        "NodeKey",
        "Prop",
        "Provenance",
        "canonical_serialize",
        "digest_path",
        "graph_hash",
        "load_store",
        "merge",
        "neighbors",
        "parse_node_key",
        "save_store",
        "value_kind",
    ),
    "metrics": (
        "compare_extractions",
        "f1",
        "label_slug",
        "load_aliases",
        "match_failure_modes",
        "normalize_label",
    ),
    "ontology": (
        "REGISTRY_VERSION",
        "SchemaRegistry",
        "Tier",
        "builtin_registry",
        "validate_graph",
    ),
    "queries": (
        "SubgraphStats",
        "automation_reuse",
        "cascade_paths",
        "elicitation_gaps",
        "low_confidence_claims",
        "masking_exposures",
        "ranked_failures",
        "ranked_silent_failures",
        "step_decision_points",
        "subgraph_stats",
    ),
    "seo": (
        "SeoDocument",
        "SessionMode",
        "json_schema",
        "parse_seo",
        "score_linguistic",
        "serialize_seo",
        "validate_seo",
    ),
    "validation": ("Issue", "ValidationReport"),
}

# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
