"""Embedded typed property graph with canonical serialization and hashing.

Graphs are immutable snapshots: ``merge`` copies the node and edge dicts
once per batch of records and returns a new ``Graph``, never touching its
input, so callers can hold multiple versions of federation state at once.
The records in them (``NodeKey``, ``Prop``, ``Node``, ``Edge``) are
immutable tuples that check their fields on construction, so keys hash,
compare and sort in C; nodes and edges sort by their keys.
Canonical serialization emits newline-delimited JSON in a fixed order
(header, nodes, approved edges, pending edges), which makes byte equality
the definition of graph equality and gives a stable SHA-256 content hash.
Each line is assembled from its record's fields with members in sorted
order; property maps go through ``canonical.render_record``, whose one
C encoder serves every map with plain numbers.
``load_store`` accepts records only in that order, each section strictly
ascending by key.

Store I/O runs in memory bounded by the graph plus a fixed number of
lines. ``canonical_serialize``, ``graph_hash`` and ``save_store`` share
one renderer that yields the bytes in chunks of ``_CHUNK_LINES`` lines;
``save_store`` writes them to ``<store>.tmp`` beside the store and
renames that over it (no fsync yet), then writes the digest sidecar;
the rename replaces a symlinked store path with a regular file.
``load_store`` reads the file line by line and decodes each line from
UTF-8 on its own, so a bad byte is reported as ``<file>:<line>``.
A store is *trusted* when its sidecar holds the SHA-256 of its bytes
and the registry version, a pair only ``save_store`` writes; a load
scoped to one subgraph then decodes only the lines that subgraph's reads
can reach, and ``skg hash`` prints its digest without loading it.
Keys are read through ``key_from_record``, whose cache maps each key
built to itself, so the parts of a key find it; plans share that shape.

Each ``Graph`` is its own lazy read index, so no reader scans the whole
graph per call. A snapshot pays one O(E) pass grouping its edges by type
on the first typed read, then, on the first request for an edge type,
one sort and one adjacency dict per direction (``out`` and ``in``,
keyed by the near node's key), and one pass over its nodes in key
order on the first filtered node read, which fills every label and
subgraph bucket already sorted. After that each ``neighbors`` hop costs
three dict lookups and a copy of its O(degree) list, ``has_subgraph``
O(1), and ``nodes(label, subgraph)`` and ``edges(edge_type)`` a copy of
a kept list. ``merge`` returns a snapshot with nothing indexed yet, so a
kept part can never go stale.

A traversal crosses approved edges only: a pending edge is not knowledge
yet, so ``neighbors`` never returns the node at its far end. Listings
show every edge; ``edges`` includes pending ones and ``pending_edges``
is the review queue.

Provenance-aware merge policy, applied per property on re-upsert:

* an INTERVIEW_CONFIRMED value always overwrites;
* a SCHEMA_DEFAULT value applies only if the property is absent or
  currently SCHEMA_DEFAULT;
* a confirmed-vs-confirmed collision with a different value is
  last-write-wins plus an appended entry in the record-level
  ``conflict_log`` list property.

Pending edges model cross-subgraph references that have not been
approved yet: re-upserting an approved edge never re-quarantines it.
"""

from __future__ import annotations

import gc
import json
import os
import re
from enum import Enum
from functools import partial
from itertools import chain, islice
from pathlib import Path
from sys import intern
from types import MappingProxyType
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Protocol

from .canonical import (
    normalize_number,
    plain_number,
    render_number,
    render_record,
    render_text,
    strict_loads,
)
from .errors import (
    CrossSubgraphViolation,
    DanglingEdge,
    InvariantError,
    MalformedKey,
    RegistryMismatch,
    TypeConflict,
)

FORMAT_NAME = "skg.jsonl"
FORMAT_VERSION = 1
CONFLICT_LOG = "conflict_log"

# what a key's subgraph and id may hold, matched whole (fullmatch)
KEY_PART_RE = re.compile(r"[A-Za-z0-9_-]+")
# a key's subgraph member in a canonical line; rendering escapes every
# quote inside a text value, so nothing else on a line can match
_SUBGRAPH_MEMBER = re.compile(b'"subgraph": "(' + KEY_PART_RE.pattern.encode() + b')"')


class Provenance(str, Enum):
    SCHEMA_DEFAULT = "SCHEMA_DEFAULT"
    INTERVIEW_CONFIRMED = "INTERVIEW_CONFIRMED"


# looking a member up here costs a tenth of calling the Enum
_PROVENANCE_OF = {member.value: member for member in Provenance}


class RegistryInfo(Protocol):
    """What the graph needs to know about its schema registry."""

    @property
    def version(self) -> str: ...

    def cross_subgraph_edge_types(self) -> frozenset[str]: ...


def value_kind(value: object) -> str:
    """Classify a property value; raises TypeError for unsupported kinds."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "text"
    if isinstance(value, (tuple, list)):
        return "text_list"
    raise TypeError(f"unsupported property value: {type(value).__name__}")


# Graph records are immutable tuples. A ``NamedTuple`` base names the
# fields and a subclass with empty ``__slots__`` checks and normalizes
# them in ``__new__``, so keys hash, compare and sort in C, and a record
# equals the plain tuple of its fields. A node's or an edge's key leads
# its tuple and a snapshot holds each key once, so sorting records never
# compares past their keys. ``copy`` and ``pickle`` (protocol 2 and up)
# construct through ``__new__``; ``_replace`` and ``_make`` skip it, so
# nothing may call them.

_NO_PROPERTIES: Mapping[str, Prop] = MappingProxyType({})
# builds a record from fields that are already checked, skipping its __new__;
# the store reader uses it for the dicts and texts it has just decoded
_new_tuple = tuple.__new__


class _NodeKeyFields(NamedTuple):
    subgraph: str
    label: str
    id: str


class NodeKey(_NodeKeyFields):
    """Namespaced node identity: (subgraph, label, id)."""

    __slots__ = ()

    def __new__(cls, subgraph: str, label: str, id: str):
        if not subgraph or not label or not id:
            raise MalformedKey(
                f"empty key part in NodeKey(subgraph={subgraph!r}, label={label!r}, id={id!r})"
            )
        if not KEY_PART_RE.fullmatch(id):
            raise MalformedKey(f"id {id!r} outside {KEY_PART_RE.pattern}")
        if not KEY_PART_RE.fullmatch(subgraph):
            raise MalformedKey(f"subgraph {subgraph!r} outside {KEY_PART_RE.pattern}")
        return tuple.__new__(cls, (subgraph, label, id))

    def to_text(self) -> str:
        return f"{self.subgraph}:{self.label}:{self.id}"


def parse_node_key(text: str) -> NodeKey:
    parts = text.split(":")
    if len(parts) != 3:
        raise MalformedKey(f"expected subgraph:Label:id, got {text!r}")
    return NodeKey(*parts)


class _PropFields(NamedTuple):
    value: object
    provenance: Provenance


class Prop(_PropFields):
    """A single property value with its provenance tag.

    Numbers are quantized to the canonical decimal at construction so
    that float equality and canonical-byte equality coincide.
    """

    __slots__ = ()

    def __new__(cls, value: object, provenance: Provenance | str = Provenance.INTERVIEW_CONFIRMED):
        if value.__class__ is not str:  # text, the most common kind, needs no work
            if isinstance(value, list):
                value = tuple(value)
            kind = value_kind(value)
            if kind == "number":
                value = normalize_number(value)
            elif kind == "text_list" and not all(isinstance(item, str) for item in value):
                raise TypeError("text_list items must be text")
        if provenance.__class__ is not Provenance:
            provenance = Provenance(provenance)
        return tuple.__new__(cls, (value, provenance))

    @property
    def kind(self) -> str:
        return value_kind(self.value)


class _NodeFields(NamedTuple):
    key: NodeKey
    properties: Mapping[str, Prop]


class Node(_NodeFields):
    __slots__ = ()

    def __new__(cls, key: NodeKey, properties: Mapping[str, Prop] = _NO_PROPERTIES):
        return tuple.__new__(cls, (key, dict(properties)))

    def get(self, name: str, default: object = None) -> object:
        prop = self.properties.get(name)
        return default if prop is None else prop.value


class _EdgeFields(NamedTuple):
    edge_type: str
    src: NodeKey
    dst: NodeKey
    properties: Mapping[str, Prop]
    pending: bool


class Edge(_EdgeFields):
    __slots__ = ()

    def __new__(
        cls,
        edge_type: str,
        src: NodeKey,
        dst: NodeKey,
        properties: Mapping[str, Prop] = _NO_PROPERTIES,
        pending: bool = False,
    ):
        return tuple.__new__(cls, (edge_type, src, dst, dict(properties), pending))

    @property
    def key(self) -> tuple[str, NodeKey, NodeKey]:
        return (self.edge_type, self.src, self.dst)


class Graph:
    """Immutable graph snapshot bound to one schema registry version.

    The snapshot is its own read index. Each part is built on its first
    use and kept; snapshots never change, so nothing is ever invalidated:

    * ``_by_type``: edges grouped by type, in one pass over all edges;
    * ``_typed``: per edge type, on the first request for it, the group
      sorted by ``Edge.key`` and one adjacency dict per direction,
      ``out`` and ``in``, each keyed by the near ``NodeKey`` and holding
      the far ``Node`` of each approved edge in that order;
    * ``_buckets``: nodes per ``(label, subgraph)``, ``(label, None)``
      and ``(None, subgraph)``, filled in one pass over the nodes in key
      order, so each bucket comes out sorted.
    """

    __slots__ = (
        "registry_version", "_registry", "_nodes", "_edges", "_by_type", "_typed", "_buckets"
    )

    def __init__(self, registry: RegistryInfo):
        self.registry_version = registry.version
        self._registry = registry
        self._nodes: dict[NodeKey, Node] = {}
        self._edges: dict[tuple, Edge] = {}
        self._by_type: dict[str, list[Edge]] | None = None
        self._typed: dict[str, tuple[list[Edge], dict, dict]] = {}
        self._buckets: dict[tuple, list[Node]] | None = None

    def _typed_edges(self, edge_type: str) -> tuple[list[Edge], dict, dict]:
        """Edges of one type sorted by key, and their ``out`` and ``in`` adjacency dicts."""
        entry = self._typed.get(edge_type)
        if entry is not None:
            return entry
        if self._by_type is None:
            self._by_type = {}
            for edge in self._edges.values():
                self._by_type.setdefault(edge.edge_type, []).append(edge)
        group = sorted(self._by_type.get(edge_type, ()))
        nodes = self._nodes
        out: dict[NodeKey, list[Node]] = {}
        in_: dict[NodeKey, list[Node]] = {}
        for edge in group:  # in key order, so every list comes out sorted
            if not edge.pending:
                src, dst = edge.src, edge.dst
                out.setdefault(src, []).append(nodes[dst])
                in_.setdefault(dst, []).append(nodes[src])
        entry = self._typed[edge_type] = (group, out, in_)
        return entry

    def _node_buckets(self) -> dict[tuple, list[Node]]:
        if self._buckets is None:
            buckets = self._buckets = {}
            nodes = self._nodes
            for key in sorted(nodes):
                node = nodes[key]
                for bucket in ((key.label, key.subgraph), (key.label, None), (None, key.subgraph)):
                    buckets.setdefault(bucket, []).append(node)
        return self._buckets

    # -- read access ---------------------------------------------------

    def node(self, key: NodeKey) -> Node:
        try:
            return self._nodes[key]
        except KeyError:
            raise KeyError(key.to_text()) from None

    def has_node(self, key: NodeKey) -> bool:
        return key in self._nodes

    def has_subgraph(self, subgraph: str) -> bool:
        return (None, subgraph) in self._node_buckets()

    def nodes(self, label: str | None = None, subgraph: str | None = None) -> list[Node]:
        if label is None and subgraph is None:
            return sorted(self._nodes.values())
        return list(self._node_buckets().get((label, subgraph), ()))

    def edges(self, edge_type: str | None = None) -> list[Edge]:
        """Every edge, or every edge of one type, pending ones included."""
        if edge_type is None:
            return sorted(self._edges.values())
        return list(self._typed_edges(edge_type)[0])

    def pending_edges(self) -> list[Edge]:
        return sorted(e for e in self._edges.values() if e.pending)

    def edge(self, key: tuple[str, NodeKey, NodeKey]) -> Edge:
        return self._edges[key]

    def has_edge(self, key: tuple[str, NodeKey, NodeKey]) -> bool:
        return key in self._edges

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.registry_version == other.registry_version
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self):  # graphs are not hashable values; use graph_hash()
        raise TypeError("use graph_hash() for content identity")


def _merge_properties(
    existing: Mapping[str, Prop], incoming: Mapping[str, Prop], subject: str
) -> dict[str, Prop]:
    """Apply the provenance merge policy; returns a fresh property dict.

    Raises:
        TypeConflict: incoming value kind differs from the stored kind,
            regardless of whether the policy would keep the new value.
    """
    merged = dict(existing)
    conflicts: list[str] = []
    for name in sorted(incoming):
        new = incoming[name]
        old = merged.get(name)
        if old is None:
            merged[name] = new
            continue
        if old.kind != new.kind:
            raise TypeConflict(
                f"{subject}.{name}: kind {old.kind} cannot merge with {new.kind}"
            )
        if new.provenance is Provenance.SCHEMA_DEFAULT:
            if old.provenance is Provenance.SCHEMA_DEFAULT:
                merged[name] = new
            continue  # a default never displaces confirmed knowledge
        if old.provenance is Provenance.INTERVIEW_CONFIRMED and old.value != new.value:
            conflicts.append(f"{name}: {_render_simple(old.value)} -> {_render_simple(new.value)}")
        merged[name] = new
    if conflicts:
        log = merged.get(CONFLICT_LOG)
        entries = tuple(log.value) if log is not None else ()
        merged[CONFLICT_LOG] = Prop(entries + tuple(conflicts), Provenance.INTERVIEW_CONFIRMED)
    return merged


def _render_simple(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return render_number(value)
    if isinstance(value, tuple):
        return "[" + ", ".join(value) + "]"
    return str(value)


def merge(graph: Graph, records: Iterable[Node | Edge]) -> Graph:
    """Upsert nodes and edges, in the order given, into one new snapshot.

    Parallel edges collapse and merge their properties like nodes do; an
    edge stays pending only while both stored and incoming copies are.

    Raises:
        TypeConflict: an incoming property changes a stored value kind.
        DanglingEdge: an endpoint is missing from the graph and the batch so far.
        CrossSubgraphViolation: endpoints span subgraphs and the edge
            type is not marked cross-subgraph, or a same-subgraph edge
            claims pending status.
    """
    merged = Graph(graph._registry)
    nodes = merged._nodes = dict(graph._nodes)
    edges = merged._edges = dict(graph._edges)
    cross_types = graph._registry.cross_subgraph_edge_types()
    for record in records:
        if isinstance(record, Node):
            old = nodes.get(record.key)
            if old is not None:
                props = _merge_properties(
                    old.properties, record.properties, record.key.to_text()
                )
                record = Node(record.key, props)
            nodes[record.key] = record
            continue
        edge = record
        if edge.src not in nodes:
            raise DanglingEdge(f"missing src {edge.src.to_text()}")
        if edge.dst not in nodes:
            raise DanglingEdge(f"missing dst {edge.dst.to_text()}")
        crosses = edge.src.subgraph != edge.dst.subgraph
        if crosses and edge.edge_type not in cross_types:
            raise CrossSubgraphViolation(
                f"{edge.edge_type} may not span {edge.src.subgraph} -> {edge.dst.subgraph}"
            )
        if edge.pending and not crosses:
            raise CrossSubgraphViolation(
                f"pending is reserved for unapproved cross-subgraph edges ({edge.edge_type})"
            )
        old = edges.get(edge.key)
        if old is not None:
            props = _merge_properties(
                old.properties,
                edge.properties,
                f"{edge.edge_type}[{edge.src.to_text()} -> {edge.dst.to_text()}]",
            )
            edge = Edge(*edge.key, props, pending=old.pending and edge.pending)
        edges[edge.key] = edge
    return merged


def neighbors(graph: Graph, key: NodeKey, edge_type: str, direction: str = "out") -> list[Node]:
    """The nodes one approved ``edge_type`` edge away, in edge-key order.

    Pending edges are never crossed. Costs O(degree) once the snapshot
    has indexed ``edge_type``.

    Raises:
        KeyError: ``key`` is not in the graph.
        ValueError: ``direction`` is not ``out`` or ``in``.
    """
    if key not in graph._nodes:
        raise KeyError(key.to_text())
    if direction == "out":
        side = 1
    elif direction == "in":
        side = 2
    else:
        raise ValueError(f"direction must be out|in, not {direction!r}")
    entry = graph._typed.get(edge_type) or graph._typed_edges(edge_type)
    return list(entry[side].get(key, ()))


# -- canonical serialization ------------------------------------------


def key_from_record(record: object, where: str, known: dict[tuple, NodeKey]) -> NodeKey:
    """Inverse of ``key_object``; other members of ``record`` are ignored.

    ``known`` holds the keys already built, each mapped to itself; a key
    equals the tuple of its parts, so the parts find it. A caller reading
    many records then builds and checks each distinct key once. A key's
    subgraph and label are interned, so the keys of one load share them.

    Raises:
        RegistryMismatch: not an object with text subgraph, label and id,
            or a part that ``NodeKey`` refuses.
    """
    if isinstance(record, dict):
        subgraph, label, id_ = record.get("subgraph"), record.get("label"), record.get("id")
        if isinstance(subgraph, str) and isinstance(label, str) and isinstance(id_, str):
            key = known.get((subgraph, label, id_))
            if key is None:
                try:
                    key = NodeKey(intern(subgraph), intern(label), id_)
                except MalformedKey as exc:
                    raise RegistryMismatch(f"{where}: {exc}") from None
                known[key] = key  # not the parts: the decoded texts are freed
            return key
    raise RegistryMismatch(f"{where}: malformed node key")


def props_record(properties: Mapping[str, Prop]) -> tuple[dict, bool]:
    """Property map as ``{name: {"provenance", "value"}}``, and whether it is plain.

    Numbers take their plain form (``plain_number``) where they have one;
    a text list stays a tuple, which renders as a JSON array. The map is
    plain when every number has one, and may then be rendered with ``plain=True``.
    """
    record = {}
    plain = True
    for name, (value, provenance) in properties.items():
        if value.__class__ is float:  # Prop makes every number a float
            number = plain_number(value)
            if number is None:
                plain = False
            else:
                value = number
        # a Provenance is a str, and JSON renders it as its value
        record[name] = {"provenance": provenance, "value": value}
    return record, plain


def props_from_record(record: object, where: str) -> dict[str, Prop]:
    """Inverse of ``props_record``.

    Raises:
        RegistryMismatch: not an object, or a property record in it has
            the wrong members, an unknown provenance or an unsupported value.
    """
    if not isinstance(record, dict):
        raise RegistryMismatch(f"{where}: malformed properties")
    props = {}
    for name, prop in record.items():
        name = intern(name)  # every record repeats the same few names
        if not (
            isinstance(prop, dict) and len(prop) == 2 and "provenance" in prop and "value" in prop
        ):
            raise RegistryMismatch(f"{where}: malformed property record for {name}")
        value, text = prop["value"], prop["provenance"]
        provenance = _PROVENANCE_OF.get(text) if isinstance(text, str) else None
        if provenance is not None and (value.__class__ is str or value.__class__ is bool):
            props[name] = _new_tuple(Prop, (value, provenance))  # nothing to check or quantize
            continue
        try:
            # an unknown provenance raises the Enum's own ValueError
            props[name] = Prop(value, provenance or Provenance(text))
        except (TypeError, ValueError) as exc:
            raise RegistryMismatch(
                f"{where}: malformed property record for {name}: {exc}"
            ) from None
    return props


def _props_object(properties: Mapping[str, Prop]) -> str:
    if not properties:  # most edges carry none
        return "{}"
    record, plain = props_record(properties)
    return render_record(record, plain)


def check_members(record: dict, members: frozenset[str], where: str) -> None:
    """Refuse, as a ``RegistryMismatch``, a record holding a member its writer never writes.

    The caller has read each of ``members``, so a record of another size holds one more.
    """
    if len(record) != len(members):
        raise RegistryMismatch(f"{where}: unknown member {min(record.keys() - members)!r}")


_HEADER_MEMBERS = frozenset({"format", "kind", "registry_version", "version"})
_NODE_MEMBERS = frozenset({"id", "kind", "label", "properties", "subgraph"})
_EDGE_MEMBERS = frozenset({"dst", "edge_type", "kind", "properties", "src"})
_KEY_MEMBERS = frozenset({"id", "label", "subgraph"})  # an edge line's src and dst


def node_line(node: Node) -> str:
    """A node as stores and merge plans both write it, members in sorted order."""
    key = node.key
    return (
        f'{{"id": {render_text(key.id)}, "kind": "node", "label": {render_text(key.label)}, '
        f'"properties": {_props_object(node.properties)}, '
        f'"subgraph": {render_text(key.subgraph)}}}'
    )


def node_from_record(record: dict, where: str, known: dict[tuple, NodeKey]) -> Node:
    """Inverse of ``node_line``; its ``kind`` member is left to the caller.

    A member ``node_line`` never writes is refused (``check_members``).
    ``known`` is passed on to ``key_from_record``.
    """
    properties = props_from_record(record.get("properties"), where)
    key = key_from_record(record, where, known)
    check_members(record, _NODE_MEMBERS, where)
    return _new_tuple(Node, (key, properties))


def key_object(key: NodeKey) -> str:
    """A node key as the object a store's edge line holds for an endpoint."""
    return (
        f'{{"id": {render_text(key.id)}, "label": {render_text(key.label)}, '
        f'"subgraph": {render_text(key.subgraph)}}}'
    )


def edge_line(edge: Edge, key_objects: Mapping[NodeKey, str]) -> str:
    """An edge as a store writes it; ``key_objects`` holds each endpoint's ``key_object``."""
    kind = "pending_edge" if edge.pending else "edge"
    return (
        f'{{"dst": {key_objects[edge.dst]}, "edge_type": {render_text(edge.edge_type)}, '
        f'"kind": "{kind}", "properties": {_props_object(edge.properties)}, '
        f'"src": {key_objects[edge.src]}}}'
    )


# lines per chunk of canonical bytes: a save, a hash or a serialization
# holds one chunk at a time, never the whole store
_CHUNK_LINES = 128


def _canonical_chunks(graph: Graph) -> Iterator[bytes]:
    """The canonical serialization as UTF-8 chunks of ``_CHUNK_LINES`` lines.

    Order: header record, nodes sorted by (subgraph, label, id), approved
    edges sorted by (type, src, dst), then the pending section with the
    same edge ordering. Every line ends in ``"\n"``. Each node key's
    endpoint object is rendered once per call.
    """
    header = {
        "format": FORMAT_NAME,
        "kind": "header",
        "registry_version": graph.registry_version,
        "version": FORMAT_VERSION,
    }
    nodes = graph.nodes()
    key_objects = {node.key: key_object(node.key) for node in nodes}
    edges = graph.edges()
    lines = chain(
        (render_record(header, plain=True),),
        map(node_line, nodes),
        (edge_line(edge, key_objects) for edge in edges if not edge.pending),
        (edge_line(edge, key_objects) for edge in edges if edge.pending),
    )
    while batch := list(islice(lines, _CHUNK_LINES)):
        batch.append("")  # so the join ends the batch's last line too
        yield "\n".join(batch).encode("utf-8")


def canonical_serialize(graph: Graph) -> bytes:
    """Canonical newline-delimited JSON bytes for the whole graph.

    The order is ``_canonical_chunks``'s. Two graphs serialize
    identically iff they are equal.
    """
    return b"".join(_canonical_chunks(graph))


def sha256_hex(chunks: Iterable[bytes]) -> str:
    """SHA-256 hex digest of the chunks, hashed one at a time.

    It hashes canonical chunks for ``graph_hash`` and, as they are
    written, for ``save_store``, a store file's blocks for
    ``file_digest``, and its lines for a scoped ``load_store``.
    """
    import hashlib  # here, not at the top: most reads of a store never hash

    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def graph_hash(graph: Graph) -> str:
    """SHA-256 hex digest of the canonical serialization, hashed chunk by chunk."""
    return sha256_hex(_canonical_chunks(graph))


# -- store files -------------------------------------------------------


def digest_path(store_path: Path | str) -> Path:
    path = Path(store_path)
    name = path.name
    if name.endswith(".skg.jsonl"):
        return path.with_name(name[: -len(".jsonl")] + ".sha256")
    return path.with_name(name + ".skg.sha256")


def read_sidecar(store_path: Path | str) -> list[str] | None:
    """The words of a store's digest sidecar, its digest first; None when it is missing.

    Raises:
        OSError: the sidecar exists but cannot be read.
    """
    try:
        return digest_path(store_path).read_text(encoding="utf-8", errors="replace").split()
    except FileNotFoundError:  # a crash before a new store's first sidecar write
        return None


def is_trusted(path: Path | str, digest: str, registry: RegistryInfo) -> bool:
    """Whether the store at ``path``, whose bytes hash to ``digest``, is trusted.

    A store is trusted when its sidecar reads exactly as ``save_store``
    writes it: that digest, then ``registry``'s version. Only
    ``save_store`` writes such a pair, and the bytes it writes are the
    canonical serialization of a graph that ``merge`` accepted. A
    missing, empty, unreadable or stale sidecar leaves the store
    untrusted, and so does one that ``sha256sum`` wrote, which names the
    file where ``save_store`` names the registry.
    """
    try:
        recorded = read_sidecar(path)
    except OSError:
        return False
    return recorded == [digest, registry.version]


def save_store(graph: Graph, path: Path | str) -> str:
    """Rewrite the store file whole and refresh its digest sidecar; returns the digest.

    The canonical bytes go chunk by chunk to ``<store>.tmp`` in the same
    directory, which then replaces the store in one rename, so an error
    while rendering or writing leaves the old store whole and removes
    the temporary file. The rename replaces a symlinked store path with
    a regular file. The sidecar is written last; nothing is fsynced.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")

    def written(handle: BinaryIO) -> Iterator[bytes]:
        for chunk in _canonical_chunks(graph):
            handle.write(chunk)
            yield chunk

    try:
        with open(tmp, "wb") as handle:
            digest = sha256_hex(written(handle))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    digest_path(path).write_text(f"{digest}  {graph.registry_version}\n", encoding="utf-8")
    return digest


def _line_text(line: bytes, path: Path, line_no: int) -> str:
    """One store line as text, without its ``"\n"``.

    Raises:
        RegistryMismatch: the line is not valid UTF-8.
    """
    try:
        return line.rstrip(b"\n").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RegistryMismatch(
            f"{path}:{line_no}: invalid UTF-8 ({exc.reason}) at byte {exc.start + 1}"
        ) from None


def _decode_line(line: str, where: str) -> object:
    try:
        return strict_loads(line)
    except json.JSONDecodeError as exc:
        raise RegistryMismatch(f"{where}: {exc.msg} at column {exc.colno}") from None
    except ValueError as exc:  # an over-long integer, or nesting too deep
        raise RegistryMismatch(f"{where}: {exc}") from None


def _store_records(
    lines: Iterable[tuple[int, bytes]], path: Path, at: list[int]
) -> Iterator[Node | Edge]:
    """Decode the records on numbered lines after the header line, checking their order.

    ``at[0]`` holds the line number of the record yielded last. Node keys
    and edge endpoints go through one ``key_from_record`` cache, so each
    distinct key is built once per load and an edge holds the key object
    of its node, and a record's property dict is its own.
    Edge types, property names and the subgraph and label of each key
    are interned: the graph holds one copy of each, not one per record.

    Raises:
        RegistryMismatch: a line is not valid UTF-8 or not a well-formed
            record, holds a member that ``save_store`` never writes (in
            the record, or in an edge's ``src`` or ``dst`` object), or
            does not sort strictly after the record before it.
    """
    known: dict[tuple, NodeKey] = {}
    last = None
    prefix = f"{path}:"
    for line_no, raw in lines:
        line = _line_text(raw, path, line_no)
        if not line.strip():
            continue
        where = f"{prefix}{line_no}"
        record = _decode_line(line, where)
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == "node":
            built = node_from_record(record, where, known)
            place = (0, built.key)
        elif kind == "edge" or kind == "pending_edge":
            edge_type = record.get("edge_type")
            if not isinstance(edge_type, str):
                raise RegistryMismatch(f"{where}: malformed edge_type")
            edge_type = intern(edge_type)
            at_src, at_dst = f"{where}: src", f"{where}: dst"
            src = key_from_record(record.get("src"), at_src, known)
            dst = key_from_record(record.get("dst"), at_dst, known)
            props = props_from_record(record.get("properties"), where)
            check_members(record, _EDGE_MEMBERS, where)
            check_members(record["src"], _KEY_MEMBERS, at_src)
            check_members(record["dst"], _KEY_MEMBERS, at_dst)
            pending = kind == "pending_edge"
            built = _new_tuple(Edge, (edge_type, src, dst, props, pending))
            place = (2 if pending else 1, (edge_type, src, dst))
        else:
            raise RegistryMismatch(f"{where}: unknown record kind {kind!r}")
        if last is not None and place < last:
            raise RegistryMismatch(f"{where}: record out of canonical order")
        at[0] = line_no
        yield built
        # merge sees a repeated record first, so a conflict in it is reported as one
        if place == last:
            raise RegistryMismatch(f"{where}: repeats the record before it")
        last = place


def _read_header(handle: BinaryIO, path: Path, registry: RegistryInfo) -> bytes:
    """Read and check a store's header line; returns its bytes.

    Raises:
        RegistryMismatch: see ``load_store``.
    """
    first = handle.readline()
    if not first:
        raise RegistryMismatch(f"{path}: empty store file")
    header = _decode_line(_line_text(first, path, 1), f"{path}:1")
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind != "header" or header.get("format") != FORMAT_NAME:
        raise RegistryMismatch(f"{path}: missing store header")
    version = header.get("version")
    if version.__class__ is not int or version != FORMAT_VERSION:
        raise RegistryMismatch(f"{path}:1: unsupported store version {version!r}")
    if header.get("registry_version") != registry.version:
        raise RegistryMismatch(
            f"{path}: written under {header.get('registry_version')!r}, "
            f"loaded with {registry.version!r}"
        )
    check_members(header, _HEADER_MEMBERS, f"{path}:1")
    return first


def file_digest(path: Path | str, registry: RegistryInfo) -> str:
    """SHA-256 hex digest of a store file's bytes, read in 64 KiB blocks.

    The header line is checked first, as ``load_store`` checks it, so a
    store of another format or registry is refused before it is hashed.
    For a trusted store (``is_trusted``) this is the ``graph_hash`` of
    the graph the store holds.

    Raises:
        RegistryMismatch: the header line, as ``load_store`` reports it.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        first = _read_header(handle, path, registry)
        return sha256_hex(chain((first,), iter(partial(handle.read, 1 << 16), b"")))


def _lines_in_scope(
    handle: BinaryIO, path: Path, registry: RegistryInfo, first: bytes, subgraph: str
) -> Iterator[tuple[int, bytes]]:
    """The numbered lines after the header that a read of ``subgraph`` can reach.

    The first pass hashes every line and collects ``scope``: ``subgraph``
    and every subgraph named on a line that also names it. On a trusted
    store, the second pass keeps the lines whose every subgraph member
    is in ``scope``: the nodes of those subgraphs and the edges between
    them. On any other store it keeps every line. Either way a line
    keeps its number in the file.
    """
    start = handle.tell()
    needle = b'"subgraph": "' + subgraph.encode() + b'"'
    scope = {subgraph.encode()}

    def scanned() -> Iterator[bytes]:
        for raw in handle:
            if needle in raw:
                scope.update(_SUBGRAPH_MEMBER.findall(raw))
            yield raw

    trusted = is_trusted(path, sha256_hex(chain((first,), scanned())), registry)
    handle.seek(start)
    lines = enumerate(handle, start=2)
    if not trusted:
        return lines
    names = b"|".join(re.escape(name) for name in sorted(scope))
    outside = re.compile(rb'"subgraph": "(?!(?:' + names + rb')")').search
    return ((line_no, raw) for line_no, raw in lines if outside(raw) is None)


def load_store(path: Path | str, registry: RegistryInfo, subgraph: str | None = None) -> Graph:
    """Load a store file, re-enforcing referential integrity through one merge.

    Records must come in canonical order: nodes, then approved edges,
    then pending edges, each section strictly ascending by key. Every
    line that is read is decoded and checked.

    With ``subgraph`` (a key part), a trusted store (``is_trusted``),
    one whose sidecar holds its file SHA-256, is loaded only as far as a
    read of that subgraph can reach: the nodes of ``subgraph`` and of
    every subgraph named on a line that also names it, and the edges
    between them (see ``skg.queries``). Only ``save_store`` writes such
    a pair, and it writes canonical bytes, so a byte-level filter of
    its lines is sound. Checking the trust costs a first pass over the
    file, to hash it. Any other store, one whose sidecar is missing,
    empty, unreadable or stale, is read whole. Without ``subgraph`` the
    sidecar is not read and every line is loaded, as ``apply``,
    ``converge``, ``check`` and ``hash --verify`` always do.

    The file is read one line at a time, and each line is decoded from
    UTF-8 on its own, so a load holds the graph it builds and one line,
    never the whole file; a byte that is not UTF-8 is reported with its
    line. The records are built in one pass, with the cycle
    collector paused: they hold no reference cycles, so its passes over
    the growing graph would find nothing to free. The collector is left
    as it was found, whether the load succeeds or fails.

    Raises:
        RegistryMismatch: the header's format version is not ``FORMAT_VERSION``
            or its registry_version differs from ``registry``, a line is
            not valid UTF-8 or not a well-formed record, holds a member
            that ``save_store`` never writes, or a record does not sort
            strictly after the one before it.
        DanglingEdge, TypeConflict, CrossSubgraphViolation: ``merge``
            rejects a record; the message starts with its ``<file>:<line>``.
    """
    path = Path(path)
    # records end at b"\n" only: text values may hold U+0085 or U+2028,
    # which canonical rendering leaves unescaped and str.splitlines() breaks on
    with open(path, "rb") as handle:
        first = _read_header(handle, path, registry)
        if subgraph is not None and KEY_PART_RE.fullmatch(subgraph):
            lines = _lines_in_scope(handle, path, registry, first, subgraph)
        else:
            lines = enumerate(handle, start=2)
        at = [1]
        collecting = gc.isenabled()
        gc.disable()
        try:
            return merge(Graph(registry), _store_records(lines, path, at))
        except InvariantError as exc:
            # merge fails on the record it was given last
            raise type(exc)(f"{path}:{at[0]}: {exc}") from None
        finally:
            if collecting:
                gc.enable()
