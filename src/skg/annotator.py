"""Compiling extraction documents into deterministic graph merge plans.

A merge plan is the reviewable middle step between an elicitation
session and federation state: compile never touches a graph, apply
never looks at a document. Plans are canonical JSON, so the same
document always compiles to the same bytes and a plan can be diffed,
stored, or shipped to another site before being applied.

A claim node's properties are the claim's own text, number and boolean
fields, read off the document's field table, so the document record
classes stay the one description of what a claim carries. Its id is the
one ``seo.walk_claims`` gives it, the walk ``validate_seo`` checks under
the same target subgraph and alias table, so two claims never share a
node and a cascade target lands on the claim validation read it as. An
automation asset is a claim too, keyed in the shared execution subgraph
by ``seo.named_id``, the id rule for anything named rather than stated.
Referenced-but-unowned records (instruments named as masking assets,
cascade targets nobody described, workflows cited by program inputs)
become stubs holding every property the registry requires of their
label, at the schema default, with ``flagged_for_review`` set, so a
later session can confirm them without ever demoting confirmed
knowledge. A plan and its provenance are ``NamedTuple`` records.

Cross-subgraph edges always enter the plan pending; they stay
quarantined until an operator approves the convergence. One check holds
every plan, read, written, exported or applied, to that (``_check_plan``):
an edge carries no properties, is pending exactly when it spans
subgraphs, and sits in ``pending_edges`` exactly when it is pending, so a
plan applies exactly when its bytes load back. Applying a plan holds
each record it touches, once merged, to ``ontology.record_issues``, the
rules ``validate_graph`` applies to a whole store, so two documents that
each validate cannot merge into a node that breaks them, and no
hand-edited plan writes a store that ``skg check`` rejects.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Mapping, NamedTuple

from .canonical import render_record, render_text, render_value, strict_loads
from .errors import (
    InvariantError,
    MalformedKey,
    RegistryMismatch,
    Rejected,
    SelectorRefused,
    SubgraphMismatch,
)
from .graph_core import (
    KEY_PART_RE,
    Edge,
    Graph,
    Node,
    NodeKey,
    Prop,
    Provenance,
    check_members,
    merge,
    node_from_record,
    node_line,
    parse_node_key,
)
from .metrics import default_aliases, normalize_label
from .ontology import CONFIDENCE_FLOOR, REGISTRY_VERSION, builtin_registry, record_issues
from .seo import SeoDocument, _fields, cascade_stub_id, named_id, serialize_seo, validate_seo
from .seo import walk_claims

PLAN_KIND = "merge_plan"
PLAN_VERSION = 1

# instruments and their use cases live in one shared execution subgraph,
# whatever document first mentions them
EXECUTION_SUBGRAPH = "AUTOMATION"

_SD = Provenance.SCHEMA_DEFAULT
_IC = Provenance.INTERVIEW_CONFIRMED


class PlanProvenance(NamedTuple):
    doc_sha256: str
    source_scientist: str
    session_mode: str
    subgraph: str
    registry_version: str


class MergePlan(NamedTuple):
    provenance: PlanProvenance
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    pending_edges: tuple[Edge, ...]


def _tag(pre_extracted: bool) -> Provenance:
    return _SD if pre_extracted else _IC


# fields that name a claim's record or pick its tag; they are not properties
_NAMING_FIELDS = frozenset({"id", "step_id", "pre_extracted"})


@lru_cache(maxsize=None)
def _property_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    """(name, is boolean) of each text, number or boolean field of a claim class."""
    return tuple(
        (f.name, f.kind == "boolean")
        for f in _fields(cls).values()
        if f.kind in ("text", "number", "boolean") and f.name not in _NAMING_FIELDS
    )


def _claim_props(claim, tag: Provenance, flag_tag: Provenance | None = None) -> dict[str, Prop]:
    """A claim's stated text, number and boolean fields as properties tagged ``tag``.

    An unstated boolean is false, tagged as the schema default. A claim
    class with no ``flagged_for_review`` field of its own gets it false,
    tagged ``flag_tag`` (``tag`` when omitted).
    """
    props = {"flagged_for_review": Prop(False, tag if flag_tag is None else flag_tag)}
    for name, boolean in _property_fields(type(claim)):
        value = getattr(claim, name)
        if value is not None:
            props[name] = Prop(value, tag)
        elif boolean:
            props[name] = Prop(False, _SD)
    return props


_STUB_VALUES = {"text": "", "number": 0, "boolean": False}


@lru_cache(maxsize=None)
def _stub_defaults(label: str) -> tuple[tuple[str, object], ...]:
    """Every required property of a label at its default, flagged for review."""
    required = builtin_registry().node_types[label].required
    defaults = {name: _STUB_VALUES[kind] for name, kind in required}
    if "confidence" in defaults:
        defaults["confidence"] = CONFIDENCE_FLOOR
    defaults["flagged_for_review"] = True
    return tuple(defaults.items())


class _Builder:
    """Accumulates plan records; stubs never displace described nodes."""

    def __init__(self):
        self.props: dict[NodeKey, dict[str, Prop]] = {}
        self.edges: dict[tuple[str, NodeKey, NodeKey], Edge] = {}

    def node(self, key: NodeKey, props: dict[str, Prop]) -> NodeKey:
        """A described record: it replaces a stub or another asset's use-case description."""
        self.props[key] = props
        return key

    def stub(self, key: NodeKey, name: str) -> NodeKey:
        """A record named here but not described: its label's schema defaults."""
        if key not in self.props:
            defaults = {prop: Prop(value, _SD) for prop, value in _stub_defaults(key.label)}
            self.props[key] = defaults | {"name": Prop(name, _SD)}
        return key

    def named(self, subgraph: str, label: str, name: str) -> NodeKey:
        """The stub of an asset, use case or error signature, keyed by ``seo.named_id``."""
        return self.stub(NodeKey(subgraph, label, named_id(label, name)), name)

    def edge(self, edge_type: str, src: NodeKey, dst: NodeKey) -> None:
        edge = Edge(edge_type, src, dst, pending=src.subgraph != dst.subgraph)
        self.edges[edge.key] = edge


def compile_seo(
    doc: SeoDocument, subgraph: str, *, aliases: Mapping[str, str] | None = None
) -> MergePlan:
    """Translate an accepted document into a sorted, deterministic plan.

    Stubs take their properties from the built-in registry's required
    lists, the registry ``validate_seo`` checks claims against.

    Args:
        doc: a parsed extraction document.
        subgraph: namespace the document's claims belong to.
        aliases: label alias table for resolving cascade targets named
            informally, passed on to ``validate_seo``; the packaged
            defaults when omitted.

    Raises:
        Rejected: ``validate_seo`` under ``subgraph`` found issues; the
            report rides along.
        SubgraphMismatch: ``subgraph`` is not a key part, or the protocol
            layer declares a different subgraph.
    """
    if not KEY_PART_RE.fullmatch(subgraph):
        raise SubgraphMismatch(f"subgraph {subgraph!r} outside {KEY_PART_RE.pattern}")
    aliases = default_aliases() if aliases is None else aliases
    report = validate_seo(doc, subgraph, aliases=aliases)
    if not report.ok:
        raise Rejected(report)
    if doc.protocol is not None and doc.protocol.subgraph != subgraph:
        raise SubgraphMismatch(
            f"document claims subgraph {doc.protocol.subgraph!r}, compiling into {subgraph!r}"
        )

    b = _Builder()
    meta = doc.twin_metadata
    proto = doc.protocol
    claims = list(walk_claims(doc, subgraph))
    # cascade targets may be claimed later in the document
    fm_by_norm = {
        normalize_label(record.name, aliases): NodeKey(subgraph, label, claim_id)
        for _, label, record, claim_id in claims
        if label == "FailureMode"
    }
    calibrated: list[tuple[NodeKey, str]] = []  # failure modes and decision points
    step = None
    if proto is not None:
        tag = _tag(proto.pre_extracted)
        props = {"name": Prop(proto.workflow_name, tag), "flagged_for_review": Prop(False, tag)}
        workflow = b.node(NodeKey(subgraph, "AssayWorkflow", proto.workflow_id), props)
    for _, label, record, claim_id in claims:
        where = EXECUTION_SUBGRAPH if label == "AutomationAsset" else subgraph
        key = NodeKey(where, label, claim_id)
        if label == "WorkflowStep":
            pre = proto.pre_extracted or record.pre_extracted
            b.node(key, _claim_props(record, _tag(pre)))
            b.edge("HAS_STEP", workflow, key)
            if step is not None:
                b.edge("PRECEDES", step, key)
            step = key
            for name in record.required_use_cases:
                b.edge("REQUIRES_AUTOMATION", key, b.named(EXECUTION_SUBGRAPH, "UseCase", name))
        elif label == "FailureMode":
            b.node(key, _claim_props(record, _tag(pre or record.pre_extracted)))
            b.edge("CAUSES_IF_INCOMPLETE", step, key)
            calibrated.append((key, record.confidence_method))
            for target in record.cascades_to:
                dst = fm_by_norm.get(normalize_label(target, aliases))
                if dst is None:  # validate_seo refused a stub id that is a claim's
                    dst = b.stub(NodeKey(subgraph, label, cascade_stub_id(target, aliases)), target)
                b.edge("CASCADES_TO", key, dst)
            for name in record.masked_by_assets:
                b.edge("MASKED_BY", key, b.named(EXECUTION_SUBGRAPH, "AutomationAsset", name))
            for name in record.detected_by:
                b.edge("DETECTED_BY", key, b.named(subgraph, "ErrorSignature", name))
        elif label == "ProgramMilestone":
            milestone = b.node(key, _claim_props(record, _IC))
        elif label == "EvidentiaryInput":
            b.node(key, _claim_props(record, _IC))
            b.edge("REQUIRES_EVIDENCE", milestone, key)
            source = record.sourced_from
            if source is not None:
                wf = NodeKey(source.subgraph, "AssayWorkflow", source.workflow_id)
                b.edge("SOURCED_FROM", key, b.stub(wf, source.workflow_id))
        elif label == "AutomationAsset":
            b.node(key, _claim_props(record, _IC))
            for name in record.use_case_names:
                use_case = NodeKey(EXECUTION_SUBGRAPH, "UseCase", named_id("UseCase", name))
                described = {"name": Prop(name, _IC), "flagged_for_review": Prop(False, _IC)}
                b.edge("SUITABLE_FOR", b.node(use_case, described), key)
        else:  # a decision point or method alternative, on the step it names
            decision = label == "DecisionPoint"
            b.node(key, _claim_props(record, _IC, flag_tag=_SD if decision else None))
            named = b.stub(NodeKey(subgraph, "WorkflowStep", record.step_id), record.step_id)
            b.edge("HAS_DECISION_POINT" if decision else "HAS_ALTERNATIVE", named, key)
            if decision:
                calibrated.append((key, record.confidence_method))

    doc_sha = hashlib.sha256(serialize_seo(doc)).hexdigest()

    if calibrated:
        methods = [method for _, method in calibrated]
        cal_props = {
            "methods_used": Prop(tuple(sorted(set(methods))), _IC),
            "n_claims": Prop(len(calibrated), _IC),
            "n_linguistic": Prop(methods.count("linguistic_approximation"), _IC),
            "n_shelf": Prop(methods.count("SHELF_elicited"), _IC),
            "source_scientist": Prop(meta.source_scientist, _IC),
            "session_mode": Prop(doc.session_mode.value, _IC),
        }
        if meta.session_date is not None:
            cal_props["session_date"] = Prop(meta.session_date, _IC)
        if meta.calibration_status is not None:
            cal_props["calibration_status"] = Prop(meta.calibration_status, _IC)
        cal_key = b.node(
            NodeKey(subgraph, "CalibrationRecord", f"CAL-{subgraph}-{doc_sha[:8]}"), cal_props
        )
        for key, _ in calibrated:
            b.edge("CALIBRATED_BY", key, cal_key)

    edges = sorted(b.edges.values())  # edge keys are unique, so this sorts by key
    return MergePlan(
        provenance=PlanProvenance(
            doc_sha256=doc_sha,
            source_scientist=(meta.source_scientist if meta else "") or "",
            session_mode=doc.session_mode.value,
            subgraph=subgraph,
            registry_version=REGISTRY_VERSION,
        ),
        nodes=tuple(Node(key, b.props[key]) for key in sorted(b.props)),
        edges=tuple(e for e in edges if not e.pending),
        pending_edges=tuple(e for e in edges if e.pending),
    )


# -- plan serialization -------------------------------------------------


def _key_from_text(value: object, where: str, known: dict[tuple, NodeKey]) -> NodeKey:
    """The key a plan names by its text, found by its parts in ``known`` or added there.

    ``known`` is the cache ``node_from_record`` fills: each key mapped to
    itself, so the parts of its text find it.
    """
    if not isinstance(value, str):
        raise RegistryMismatch(f"{where}: malformed node key")
    key = known.get(tuple(value.split(":")))
    if key is None:
        try:
            key = parse_node_key(value)
        except MalformedKey as exc:
            raise RegistryMismatch(f"{where}: {exc}") from None
        known[key] = key
    return key


def _plan_edge_line(edge: Edge) -> str:
    """An edge as a plan states it, endpoints as key text, members in sorted order."""
    return (
        f'{{"dst": {render_text(edge.dst.to_text())}, "edge_type": {render_text(edge.edge_type)}, '
        f'"kind": "{"pending_edge" if edge.pending else "edge"}", '
        f'"src": {render_text(edge.src.to_text())}}}'
    )


_PLAN_EDGE_MEMBERS = frozenset({"dst", "edge_type", "kind", "src"})
_PLAN_MEMBERS = frozenset({"kind", "pending_edges", "provenance", "statements", "version"})
_PROVENANCE_MEMBERS = frozenset(PlanProvenance._fields)


def _edge_from_record(record: dict, where: str, known: dict[tuple, NodeKey]) -> Edge:
    """Inverse of ``_plan_edge_line``; the caller has checked ``kind``.

    ``known`` is passed on to ``_key_from_text``.
    """
    edge_type = record.get("edge_type")
    if not isinstance(edge_type, str):
        raise RegistryMismatch(f"{where}: malformed edge_type")
    edge = Edge(
        edge_type,
        _key_from_text(record.get("src"), f"{where}: src", known),
        _key_from_text(record.get("dst"), f"{where}: dst", known),
        pending=record["kind"] == "pending_edge",
    )
    check_members(record, _PLAN_EDGE_MEMBERS, where)
    return edge


def _check_plan(plan: MergePlan) -> None:
    """The plan rule: each edge carries no properties, is pending exactly when it spans
    subgraphs, and sits in ``pending_edges`` exactly when it is pending. A breach raises
    ``RegistryMismatch``, located where ``plan_to_bytes`` writes the edge."""
    sections = ("statements", len(plan.nodes), plan.edges), ("pending_edges", 0, plan.pending_edges)
    for pending, (name, first, edges) in zip((False, True), sections):
        for i, edge in enumerate(edges, first):
            src, dst = edge.src.subgraph, edge.dst.subgraph
            if edge.properties:  # an edge statement has no member for them
                breach = "carries properties, which no plan statement holds"
            elif edge.pending != (src != dst):
                breach = "must not be pending" if edge.pending else "must be pending"
            elif edge.pending != pending:
                breach = f"is {'pending' if edge.pending else 'approved'} in {name}"
            else:
                continue
            raise RegistryMismatch(f"{name}[{i}]: {edge.edge_type} {src} -> {dst} {breach}")


def plan_to_bytes(plan: MergePlan) -> bytes:
    """The plan as one canonical JSON object and a newline, members in sorted order.

    Raises:
        RegistryMismatch: an edge breaks the plan rule (``_check_plan``).
    """
    _check_plan(plan)
    statements = [node_line(node) for node in plan.nodes]
    statements += [_plan_edge_line(edge) for edge in plan.edges]
    pending = [_plan_edge_line(edge) for edge in plan.pending_edges]
    text = (
        f'{{"kind": {render_text(PLAN_KIND)}, "pending_edges": [{", ".join(pending)}], '
        f'"provenance": {render_record(plan.provenance._asdict(), plain=True)}, '
        f'"statements": [{", ".join(statements)}], "version": {PLAN_VERSION}}}\n'
    )
    return text.encode("utf-8")


def _objects(raw: dict, name: str) -> list[tuple[str, dict]]:
    """The ``name`` array of a plan as (location, object) pairs."""
    items = raw.get(name)
    if not isinstance(items, list):
        raise RegistryMismatch(f"{name}: not an array")
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise RegistryMismatch(f"{name}[{i}]: not an object")
        out.append((f"{name}[{i}]", item))
    return out


def load_plan(data: bytes | str) -> MergePlan:
    """Rebuild a plan from its canonical JSON; inverse of plan_to_bytes.

    Raises:
        ValueError: not a merge plan of this version, or an unknown
            statement kind.
        RegistryMismatch: the plan, its provenance, a statement array
            or a statement in it is malformed or holds a member that
            ``plan_to_bytes`` never writes, a node statement follows an
            edge statement, or, once all is read, an edge breaks the plan
            rule (``_check_plan``); the message starts with its location,
            such as ``statements[3]: ``.
    """
    return plan_from_json(strict_loads(data if isinstance(data, str) else data.decode("utf-8")))


def plan_from_json(raw: object) -> MergePlan:
    """A plan from its JSON value, decoded already; ``load_plan`` after the decode.

    Raises:
        ValueError, RegistryMismatch: as ``load_plan``.
    """
    if not isinstance(raw, dict) or raw.get("kind") != PLAN_KIND:
        raise ValueError("not a merge plan document")
    version = raw.get("version")
    if version.__class__ is not int or version != PLAN_VERSION:
        raise ValueError(f"unsupported plan version {version!r}")
    prov = raw.get("provenance")
    if not isinstance(prov, dict):
        raise RegistryMismatch("provenance: not an object")
    names = PlanProvenance._fields
    for name in names:
        if not isinstance(prov.get(name), str):
            raise RegistryMismatch(f"provenance: missing or non-text {name}")
    nodes: list[Node] = []
    edges: list[Edge] = []
    # key_from_record's cache: each key read so far, mapped to itself, so
    # an edge endpoint naming a node reuses its key
    known: dict[tuple, NodeKey] = {}
    for where, record in _objects(raw, "statements"):
        if record.get("kind") == "node":
            if edges:  # apply merges nodes first, and locates a refusal by this layout
                raise RegistryMismatch(f"{where}: node statement after an edge statement")
            nodes.append(node_from_record(record, where, known))
        elif record.get("kind") in ("edge", "pending_edge"):
            edges.append(_edge_from_record(record, where, known))
        else:
            raise ValueError(f"unknown statement kind {record.get('kind')!r}")
    pending = []
    for where, record in _objects(raw, "pending_edges"):
        if record.get("kind") not in ("edge", "pending_edge"):
            raise RegistryMismatch(f"{where}: kind {record.get('kind')!r}, not an edge")
        pending.append(_edge_from_record(record, where, known))
    check_members(prov, _PROVENANCE_MEMBERS, "provenance")
    check_members(raw, _PLAN_MEMBERS, "plan")
    plan = MergePlan(
        provenance=PlanProvenance._make(prov[name] for name in names),
        nodes=tuple(nodes),
        edges=tuple(edges),
        pending_edges=tuple(pending),
    )
    _check_plan(plan)  # either edge kind reads in either section; the rule judges placement
    return plan


# -- applying and approving ---------------------------------------------


def apply_plan(graph: Graph, plan: MergePlan) -> Graph:
    """Merge a plan into a graph snapshot; returns the merged snapshot.

    Applying the same plan twice is a no-op the second time, and an
    approved cross-subgraph edge is never re-quarantined by re-applying
    the plan that introduced it.

    Raises:
        RegistryMismatch: the plan was compiled under another registry,
            or an edge breaks the plan rule (``_check_plan``) before
            anything merges.
        Rejected: a record the plan touches, once merged, breaks a rule
            of ``ontology.record_issues``, the rules ``validate_graph``
            applies; the report names each such record and issue, nodes
            by key, then edges by key, as ``validate_graph`` does.
        TypeConflict, DanglingEdge, CrossSubgraphViolation: as ``merge``;
            the message starts with the refused record's location, such
            as ``statements[3]: ``, as ``plan_to_bytes`` would write the
            plan and ``load_plan`` reads it: nodes, then edges.
    """
    if plan.provenance.registry_version != graph.registry_version:
        raise RegistryMismatch(
            f"plan compiled under {plan.provenance.registry_version!r}, "
            f"graph runs {graph.registry_version!r}"
        )
    _check_plan(plan)
    statements = plan.nodes + plan.edges
    at = [0]

    def counted():
        for at[0], record in enumerate(statements + plan.pending_edges):
            yield record

    try:
        merged = merge(graph, counted())
    except InvariantError as exc:
        # merge fails on the record it was given last
        i, n = at[0], len(statements)
        where = f"statements[{i}]" if i < n else f"pending_edges[{i - n}]"
        raise type(exc)(f"{where}: {exc}") from None
    # merge takes properties one by one, so rules that tie several of a
    # record's properties together hold only once it is merged; each key
    # once, in plan order, which a compiled plan already sorts
    node_keys = sorted(dict.fromkeys(node.key for node in plan.nodes))
    edge_keys = sorted(dict.fromkeys(edge.key for edge in plan.edges + plan.pending_edges))
    report = record_issues(
        builtin_registry(), map(merged.node, node_keys), map(merged.edge, edge_keys)
    )
    if not report.ok:
        raise Rejected(report)
    return merged


def approve_pending(
    graph: Graph,
    selectors: list[tuple[str, NodeKey, NodeKey]] | None = None,
) -> tuple[Graph, tuple[tuple[str, NodeKey, NodeKey], ...]]:
    """Approve pending cross-subgraph edges; None means approve them all.

    Returns the converged graph and the keys that were approved, sorted.

    Raises:
        KeyError: a selector names no edge; ``SelectorRefused``, one that is
            approved or was selected before (strict, to keep scripts honest).
    """
    if selectors is None:
        keys = [e.key for e in graph.pending_edges()]
    else:
        keys = []
        for key in selectors:
            edge = f"{key[0]} {key[1].to_text()} -> {key[2].to_text()}"
            if not graph.has_edge(key):
                raise KeyError(f"no such edge: {edge}")
            if not graph.edge(key).pending:
                raise SelectorRefused(f"not pending: {edge}")
            if key in keys:
                raise SelectorRefused(f"selected twice: {edge}")
            keys.append(key)
    # an approved copy merged over a pending edge approves it
    graph = merge(graph, [Edge(*key) for key in keys])
    return graph, tuple(sorted(keys))


# -- graph-database export ----------------------------------------------


def _cypher_anchor(var: str, key: NodeKey) -> str:
    return (
        f"({var}:{key.label} {{subgraph:{render_text(key.subgraph)}, "
        f"id:{render_text(key.id)}}})"
    )


def _edge_line(edge: Edge) -> str:
    line = (
        f"MATCH {_cypher_anchor('a', edge.src)}, {_cypher_anchor('b', edge.dst)} "
        f"MERGE (a)-[r:{edge.edge_type}]->(b)"
    )
    if edge.pending:
        line += " SET r.pending = true"
    return line + ";"


def emit_cypher(plan: MergePlan) -> str:
    """Render a plan as idempotent graph-database statements.

    Literals are rendered as canonical JSON, which Cypher reads; text
    escapes its control characters, so each statement is one line.
    Property provenance tags do not survive the export; the plan file
    stays the system of record.

    Raises:
        RegistryMismatch: as ``plan_to_bytes``.
    """
    _check_plan(plan)
    lines: list[str] = []
    for node in plan.nodes:
        sets = ", ".join(
            f"n.{name} = {render_value(node.properties[name].value)}"
            for name in sorted(node.properties)
        )
        anchor = f"MERGE {_cypher_anchor('n', node.key)}"
        lines.append(f"{anchor} SET {sets};" if sets else f"{anchor};")
    for edge in plan.edges:
        lines.append(_edge_line(edge))
    if plan.pending_edges:
        lines.append("// PENDING CONVERGENCE")
        for edge in plan.pending_edges:
            lines.append(_edge_line(edge))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
