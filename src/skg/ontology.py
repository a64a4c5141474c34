"""Three-tier schema registry and graph-level validation.

Tier 1 holds program-level planning context, tier 2 the protocol
knowledge elicited from scientists, tier 3 the physical execution
layer (instruments, their use cases, and log signatures). Only node
labels name a tier: an edge type crosses tiers when its endpoint labels
do. The edge vocabulary splits into the core failure-mode relations and
the structural plumbing needed to make the graph navigable; the
registry records which is which.

``record_issues`` is the one statement of what a stored record must
satisfy: ``validate_graph`` runs it over a whole graph, and
``annotator.apply_plan`` over the merged records a plan touches. It
applies ``claim_issues``, the one statement of the claim rules
(confidence range, SHELF frequency triples), which ``seo.validate_seo``
applies too, so a valid document compiles to a valid graph.

Registry objects are immutable; validation never mutates the graph and
reports a deterministically ordered issue list.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple

from .graph_core import Edge, Graph, Node, Provenance

if TYPE_CHECKING:
    from .validation import ValidationReport

REGISTRY_VERSION = "skg-ontology-1"

CONFIDENCE_FLOOR = 0.60
CONFIDENCE_CEILING = 1.00

COMPARATORS = ("<", "<=", ">", ">=", "==", "within_range")

CONFIDENCE_METHODS = ("linguistic_approximation", "SHELF_elicited")


class Tier(Enum):
    TIER1_PROGRAM = 1
    TIER2_PROTOCOL = 2
    TIER3_EXECUTION = 3


# Registry entries are immutable tuples, built the way ``graph_core``'s
# records are: ``SchemaRegistry.__new__`` copies its maps and checks that
# every edge type names registered labels. Its ``_replace`` and ``_make``
# skip that, so nothing may call them.


class NodeTypeDef(NamedTuple):
    label: str
    tier: Tier
    required: tuple[tuple[str, str], ...] = ()
    optional: tuple[tuple[str, str], ...] = ()

    def declared_kinds(self) -> dict[str, str]:
        return dict(self.required) | dict(self.optional)


# An edge type names no tier: it crosses tiers when its labels span more than one.
class EdgeTypeDef(NamedTuple):
    name: str
    src_labels: frozenset[str]
    dst_labels: frozenset[str]
    cross_subgraph_allowed: bool = False
    core: bool = False  # core failure-mode vocabulary vs structural plumbing


class _RegistryFields(NamedTuple):
    version: str
    node_types: Mapping[str, NodeTypeDef]
    edge_types: Mapping[str, EdgeTypeDef]


class SchemaRegistry(_RegistryFields):
    __slots__ = ()

    def __new__(
        cls,
        version: str,
        node_types: Mapping[str, NodeTypeDef],
        edge_types: Mapping[str, EdgeTypeDef],
    ):
        node_types, edge_types = dict(node_types), dict(edge_types)
        for edef in edge_types.values():
            unknown = (edef.src_labels | edef.dst_labels) - set(node_types)
            if unknown:
                raise ValueError(f"{edef.name} references unknown labels {sorted(unknown)}")
        return tuple.__new__(cls, (version, node_types, edge_types))

    def tier_of(self, label: str) -> Tier:
        return self.node_types[label].tier

    def cross_subgraph_edge_types(self) -> frozenset[str]:
        return frozenset(
            name for name, edef in self.edge_types.items() if edef.cross_subgraph_allowed
        )


_MANDATORY_TRIO = (
    ("confidence", "number"),
    ("confidence_method", "text"),
    ("source_scientist", "text"),
)


@lru_cache(maxsize=1)
def builtin_registry() -> SchemaRegistry:
    """The built-in lab-workflow registry (11 node labels, 13 edge types)."""
    t1, t2, t3 = Tier.TIER1_PROGRAM, Tier.TIER2_PROTOCOL, Tier.TIER3_EXECUTION
    node_types = [
        NodeTypeDef(
            "ProgramMilestone",
            t1,
            required=(("name", "text"),),
            optional=(("description", "text"), ("flagged_for_review", "boolean")),
        ),
        NodeTypeDef(
            "EvidentiaryInput",
            t1,
            required=(
                ("name", "text"),
                ("required_output", "text"),
                ("quality_threshold", "text"),
                ("decision_consequence", "text"),
            ),
            optional=(("flagged_for_review", "boolean"),),
        ),
        NodeTypeDef(
            "AssayWorkflow",
            t2,
            required=(("name", "text"),),
            optional=(("description", "text"), ("flagged_for_review", "boolean")),
        ),
        NodeTypeDef(
            "WorkflowStep",
            t2,
            required=(("name", "text"), ("step_index", "number")),
            optional=(
                ("description", "text"),
                ("is_critical_path", "boolean"),
                ("flagged_for_review", "boolean"),
            ),
        ),
        NodeTypeDef(
            "DecisionPoint",
            t2,
            required=_MANDATORY_TRIO
            + (
                ("condition_type", "text"),
                ("threshold_value", "number"),
                ("comparator", "text"),
                ("units", "text"),
                ("pass_action", "text"),
                ("fail_action", "text"),
                ("escalation_action", "text"),
            ),
            optional=(
                ("name", "text"),
                ("source_phrase", "text"),
                ("flagged_for_review", "boolean"),
            ),
        ),
        NodeTypeDef(
            "FailureMode",
            t2,
            required=_MANDATORY_TRIO
            + (
                ("name", "text"),
                ("silent_failure_risk", "boolean"),
                ("is_critical_path", "boolean"),
                ("flagged_for_review", "boolean"),
            ),
            optional=(
                ("description", "text"),
                ("source_phrase", "text"),
                ("frequency_min", "number"),
                ("frequency_best", "number"),
                ("frequency_max", "number"),
            ),
        ),
        NodeTypeDef(
            "MethodAlternative",
            t2,
            required=(("name", "text"),),
            optional=(
                ("description", "text"),
                ("tradeoff", "text"),
                ("flagged_for_review", "boolean"),
            ),
        ),
        NodeTypeDef(
            "CalibrationRecord",
            t2,
            required=(("methods_used", "text_list"),),
            optional=(
                ("n_claims", "number"),
                ("n_linguistic", "number"),
                ("n_shelf", "number"),
                ("source_scientist", "text"),
                ("session_date", "text"),
                ("calibration_status", "text"),
                ("session_mode", "text"),
                ("flagged_for_review", "boolean"),
            ),
        ),
        NodeTypeDef(
            "AutomationAsset",
            t3,
            required=(("name", "text"),),
            optional=(("log_scope", "text"), ("flagged_for_review", "boolean")),
        ),
        NodeTypeDef(
            "UseCase",
            t3,
            required=(("name", "text"),),
            optional=(("description", "text"), ("flagged_for_review", "boolean")),
        ),
        NodeTypeDef(
            "ErrorSignature",
            t3,
            required=(("name", "text"),),
            optional=(("description", "text"), ("flagged_for_review", "boolean")),
        ),
    ]
    f = frozenset
    edge_types = [
        # core vocabulary
        EdgeTypeDef(
            "SOURCED_FROM",
            f({"EvidentiaryInput"}),
            f({"AssayWorkflow"}),
            cross_subgraph_allowed=True,
            core=True,
        ),
        EdgeTypeDef(
            "CAUSES_IF_INCOMPLETE",
            f({"WorkflowStep"}),
            f({"FailureMode"}),
            core=True,
        ),
        EdgeTypeDef(
            "MASKED_BY",
            f({"FailureMode"}),
            f({"AutomationAsset"}),
            cross_subgraph_allowed=True,
            core=True,
        ),
        EdgeTypeDef(
            "REQUIRES_AUTOMATION",
            f({"WorkflowStep"}),
            f({"UseCase"}),
            cross_subgraph_allowed=True,
            core=True,
        ),
        EdgeTypeDef(
            "SUITABLE_FOR",
            f({"UseCase"}),
            f({"AutomationAsset"}),
            core=True,
        ),
        # structural plumbing
        EdgeTypeDef("REQUIRES_EVIDENCE", f({"ProgramMilestone"}), f({"EvidentiaryInput"})),
        EdgeTypeDef("HAS_STEP", f({"AssayWorkflow"}), f({"WorkflowStep"})),
        EdgeTypeDef("PRECEDES", f({"WorkflowStep"}), f({"WorkflowStep"})),
        EdgeTypeDef("HAS_DECISION_POINT", f({"WorkflowStep"}), f({"DecisionPoint"})),
        EdgeTypeDef("CASCADES_TO", f({"FailureMode"}), f({"FailureMode"})),
        EdgeTypeDef("DETECTED_BY", f({"FailureMode"}), f({"ErrorSignature"})),
        EdgeTypeDef("HAS_ALTERNATIVE", f({"WorkflowStep"}), f({"MethodAlternative"})),
        EdgeTypeDef(
            "CALIBRATED_BY", f({"FailureMode", "DecisionPoint"}), f({"CalibrationRecord"})
        ),
    ]
    return SchemaRegistry(
        REGISTRY_VERSION,
        {n.label: n for n in node_types},
        {e.name: e for e in edge_types},
    )


_FREQUENCIES = ("frequency_min", "frequency_best", "frequency_max")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def claim_issues(label: str, get: Callable[[str], object]) -> Iterator[tuple[str, str]]:
    """(code, detail) of each claim rule that a ``label`` node or document claim breaks.

    ``get(name)`` is the value stated for ``name``, or None. Only numbers
    are compared; a value of another kind is left to the caller's kind check.
    """
    confidence = get("confidence")
    if _is_number(confidence) and not CONFIDENCE_FLOOR <= confidence <= CONFIDENCE_CEILING:
        bounds = f"[{CONFIDENCE_FLOOR}, {CONFIDENCE_CEILING}]"
        yield "ConfidenceOutOfRange", f"confidence {confidence} outside {bounds}"
    if label != "FailureMode":
        return
    triple = [get(name) for name in _FREQUENCIES]
    estimated = triple != [None, None, None]
    if estimated or get("confidence_method") == "SHELF_elicited":
        for name, value in zip(_FREQUENCIES, triple):
            if value is None:
                yield "MissingMandatoryField", f"{name} is required in a SHELF frequency triple"
    if not estimated:
        return
    if get("silent_failure_risk") is not True and get("is_critical_path") is not True:
        detail = "frequency estimates need silent_failure_risk or is_critical_path"
        yield "ShelfEligibilityViolation", detail
    for name, value in zip(_FREQUENCIES, triple):
        if _is_number(value) and not 0.0 <= value <= 1.0:
            yield "FrequencyOutOfRange", f"{name} {value} outside [0, 1]"
    fmin, fbest, fmax = triple
    if all(_is_number(v) and 0.0 <= v <= 1.0 for v in triple) and not fmin <= fbest <= fmax:
        yield "ShelfOrderViolation", f"{fmin} <= {fbest} <= {fmax} fails"


def _node_issues(
    node: Node, ndef: NodeTypeDef | None, kinds: tuple[tuple[str, str], ...]
) -> Iterator[tuple[str, str]]:
    """(code, detail) of each rule a node breaks; ``kinds`` is its label's, sorted by name.

    A required property is missing when it is absent, or when it is an
    empty text confirmed by interview, as in ``seo.validate_seo``; the
    empty SCHEMA_DEFAULT text of a stub is its label's default.
    Undeclared domain properties may coexist with declared ones.
    """
    if ndef is None:
        yield "UnknownLabel", f"label {node.key.label} not in registry"
        return
    properties = node.properties
    for name, kind in ndef.required:
        prop = properties.get(name)
        if prop is None or (prop.value == "" and prop.provenance is Provenance.INTERVIEW_CONFIRMED):
            yield "MissingRequiredProperty", f"{name} ({kind}) is required"
    for name, expected in kinds:
        prop = properties.get(name)
        if prop is not None and prop.kind != expected:
            yield "ValueKindMismatch", f"{name}: expected {expected}, got {prop.kind}"
    yield from claim_issues(node.key.label, node.get)


def _edge_issues(edge: Edge, registry: SchemaRegistry) -> Iterator[tuple[str, str]]:
    """(code, detail) of each rule an edge breaks: unknown type, endpoint
    labels, cross-subgraph. Tiers need no rule of their own, since an edge's
    tiers are those of its endpoint labels."""
    edef = registry.edge_types.get(edge.edge_type)
    if edef is None:
        yield "UnknownEdgeType", f"edge type {edge.edge_type} not in registry"
        return
    if edge.src.label not in edef.src_labels or edge.dst.label not in edef.dst_labels:
        detail = f"allowed {sorted(edef.src_labels)} -> {sorted(edef.dst_labels)}"
        yield "EndpointLabelViolation", detail
    if edge.src.subgraph != edge.dst.subgraph and not edef.cross_subgraph_allowed:
        detail = f"{edge.src.subgraph} -> {edge.dst.subgraph} not allowed for this type"
        yield "CrossSubgraphViolation", detail


def record_issues(
    registry: SchemaRegistry, nodes: Iterable[Node], edges: Iterable[Edge]
) -> ValidationReport:
    """Check each node, then each edge, in the order given, against the registry.

    A node has a registered label, states what its label requires, holds
    each declared property at its kind and obeys ``claim_issues``; an
    edge has a registered type and endpoint labels, and crosses subgraphs
    only where its type may.

    Issue codes: UnknownLabel, UnknownEdgeType, EndpointLabelViolation,
    MissingRequiredProperty, ValueKindMismatch, ConfidenceOutOfRange,
    MissingMandatoryField, ShelfEligibilityViolation, FrequencyOutOfRange,
    ShelfOrderViolation, CrossSubgraphViolation.
    """
    # here: a process that only queries never validates
    from .validation import Issue, ValidationReport

    node_types = registry.node_types
    kinds = {label: tuple(sorted(d.declared_kinds().items())) for label, d in node_types.items()}
    issues: list[Issue] = []
    for node in nodes:
        label = node.key.label
        found = list(_node_issues(node, node_types.get(label), kinds.get(label, ())))
        if found:  # the subject is rendered only for a record that has an issue
            where = node.key.to_text()
            issues += [Issue(code, where, detail) for code, detail in found]
    for edge in edges:
        found = list(_edge_issues(edge, registry))
        if found:
            where = f"{edge.edge_type}[{edge.src.to_text()} -> {edge.dst.to_text()}]"
            issues += [Issue(code, where, detail) for code, detail in found]
    return ValidationReport(issues)


def validate_graph(graph: Graph, registry: SchemaRegistry) -> ValidationReport:
    """``record_issues`` over every node and edge, each by key; graph is untouched."""
    return record_issues(registry, graph.nodes(), graph.edges())


def schema_listing(registry: SchemaRegistry) -> str:
    """Human-readable registry dump for the CLI ``schema`` subcommand."""
    lines = [f"registry {registry.version}", "", "node types:"]
    by_tier: dict[Tier, list[NodeTypeDef]] = {}
    for ndef in registry.node_types.values():
        by_tier.setdefault(ndef.tier, []).append(ndef)
    for tier in Tier:
        lines.append(f"  {tier.name}:")
        for ndef in sorted(by_tier.get(tier, []), key=lambda d: d.label):
            req = ", ".join(f"{n}:{k}" for n, k in ndef.required) or "-"
            opt = ", ".join(f"{n}:{k}" for n, k in ndef.optional) or "-"
            lines.append(f"    {ndef.label}")
            lines.append(f"      required: {req}")
            lines.append(f"      optional: {opt}")
    lines.append("")
    lines.append("edge types:")
    for name in sorted(registry.edge_types):
        edef = registry.edge_types[name]
        tiers = {registry.tier_of(label) for label in edef.src_labels | edef.dst_labels}
        flags = [
            "cross-tier" if len(tiers) > 1 else "within-tier",
            "cross-subgraph" if edef.cross_subgraph_allowed else "within-subgraph",
            "core" if edef.core else "plumbing",
        ]
        lines.append(
            f"  {name}: {'|'.join(sorted(edef.src_labels))} -> "
            f"{'|'.join(sorted(edef.dst_labels))} [{', '.join(flags)}]"
        )
    return "\n".join(lines) + "\n"
