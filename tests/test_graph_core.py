import copy
import gc
import hashlib
import itertools
import pickle
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from skg import (
    CrossSubgraphViolation,
    DanglingEdge,
    Edge,
    Graph,
    MalformedKey,
    Node,
    NodeKey,
    Prop,
    Provenance,
    RegistryMismatch,
    TypeConflict,
    approve_pending,
    builtin_registry,
    canonical_serialize,
    digest_path,
    graph_hash,
    load_store,
    merge,
    neighbors,
    parse_node_key,
    save_store,
    value_kind,
)
from skg import graph_core, queries
from skg.graph_core import _CHUNK_LINES, CONFLICT_LOG

from conftest import count_decodes, federation, third_subgraph_federation

SD = Provenance.SCHEMA_DEFAULT
IC = Provenance.INTERVIEW_CONFIRMED


def make_graph():
    return Graph(builtin_registry())


def key(id_: str, subgraph: str = "SGA", label: str = "FailureMode") -> NodeKey:
    return NodeKey(subgraph, label, id_)


def named(k: NodeKey, **props) -> Node:
    out = {"name": Prop(k.id)}
    out.update({name: p if isinstance(p, Prop) else Prop(p) for name, p in props.items()})
    return Node(k, out)


class TestNodeKey:
    def test_round_trip(self):
        k = NodeKey("ELISA", "FailureMode", "FM-ELISA-001")
        assert parse_node_key(k.to_text()) == k

    @pytest.mark.parametrize(
        "parts",
        [("", "FailureMode", "x"), ("SG", "", "x"), ("SG", "FailureMode", "")],
    )
    def test_empty_parts_rejected(self, parts):
        with pytest.raises(MalformedKey):
            NodeKey(*parts)

    @pytest.mark.parametrize("bad_id", ["a b", "a:b", "µ", "x/y", "a.b", "a\n"])
    def test_id_charset(self, bad_id):
        with pytest.raises(MalformedKey, match="^id "):
            NodeKey("SG", "FailureMode", bad_id)
        # a subgraph is held to the same pattern
        with pytest.raises(MalformedKey, match="^subgraph "):
            NodeKey(bad_id, "FailureMode", "x")

    @pytest.mark.parametrize("text", ["a:b", "a:b:c:d", "plain"])
    def test_parse_arity(self, text):
        with pytest.raises(MalformedKey):
            parse_node_key(text)

    def test_ordering_is_tuple_like(self):
        a = NodeKey("A", "L", "1")
        b = NodeKey("A", "L", "2")
        c = NodeKey("B", "A", "0")
        assert sorted([c, b, a]) == [a, b, c]

    @given(st.lists(st.tuples(*[st.sampled_from(["A", "B", "a", "A_2", "B-1"])] * 3)))
    def test_sorts_by_subgraph_then_label_then_id(self, parts):
        keys = [NodeKey(*p) for p in parts]
        assert sorted(keys) == sorted(keys, key=lambda k: (k.subgraph, k.label, k.id))

    def test_equals_and_hashes_as_the_tuple_of_its_fields(self):
        k = NodeKey("A", "L", "1")
        assert k == ("A", "L", "1") and hash(k) == hash(("A", "L", "1"))
        assert {("A", "L", "1"): "found"}[k] == "found"

    def test_repr_names_the_fields(self):
        assert repr(NodeKey("A", "L", "1")) == "NodeKey(subgraph='A', label='L', id='1')"

    @pytest.mark.parametrize(
        "parts", [("", "FailureMode", "x"), ("SG", "FailureMode", "a b")], ids=["empty", "bad-id"]
    )
    def test_malformed_key_is_rejected_by_pickle_and_copy(self, parts):
        bad = tuple.__new__(NodeKey, parts)  # skips the checks that pickle and copy must run
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):  # 0 and 1 bypass __new__
            data = pickle.dumps(bad, protocol)
            with pytest.raises(MalformedKey):
                pickle.loads(data)
        for clone in (copy.copy, copy.deepcopy):
            with pytest.raises(MalformedKey):
                clone(bad)


class TestProp:
    def test_numbers_quantized_at_construction(self):
        assert Prop(0.1 + 0.2).value == 0.3
        assert Prop(2 / 3).value == 0.666667

    def test_list_becomes_tuple(self):
        p = Prop(["a", "b"])
        assert p.value == ("a", "b")
        assert p.kind == "text_list"

    def test_text_list_items_must_be_text(self):
        with pytest.raises(TypeError):
            Prop(["a", 1])

    def test_provenance_coerced_from_text(self):
        assert Prop("x", "SCHEMA_DEFAULT").provenance is SD

    def test_default_provenance_is_confirmed(self):
        assert Prop("x").provenance is IC

    @pytest.mark.parametrize(
        ("value", "kind"),
        [(True, "boolean"), (1, "number"), (1.5, "number"), ("t", "text"), ((), "text_list")],
    )
    def test_kinds(self, value, kind):
        assert Prop(value).kind == kind
        assert value_kind(value) == kind

    @pytest.mark.parametrize("bad", [None, {"a": 1}, object()])
    def test_unsupported_values(self, bad):
        with pytest.raises(TypeError):
            Prop(bad)

    def test_pickle_and_copy_quantize_and_coerce(self):
        raw = tuple.__new__(Prop, (2 / 3, "SCHEMA_DEFAULT"))  # skips the normalization
        for clone in (lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy):
            prop = clone(raw)
            assert type(prop) is Prop
            assert prop.value == 0.666667 and prop.provenance is SD


class TestRecords:
    def records(self):
        a, b = key("a"), key("b", "SGB")
        props = {"name": Prop("x"), "tags": Prop(["t"]), "confidence": Prop(0.5, SD)}
        return [a, Prop(1.5, SD), Node(a, props), Edge("MASKED_BY", a, b, props, pending=True)]

    def test_pickle_and_deepcopy_round_trip(self):
        for record in self.records():
            for clone in (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy):
                copied = clone(record)
                assert type(copied) is type(record)
                assert copied == record

    def test_a_record_equals_the_tuple_of_its_fields(self):
        a = key("a")
        assert Node(a, {"name": Prop("x")}) == (a, {"name": ("x", IC)})
        assert Edge("CASCADES_TO", a, a).key == ("CASCADES_TO", ("SGA", "FailureMode", "a"), a)

    def test_property_maps_are_copied(self):
        props = {"name": Prop("x")}
        node = Node(key("a"), props)
        props["name"] = Prop("y")
        assert node.get("name") == "x"

    def test_records_are_immutable(self):
        node = Node(key("a"))
        with pytest.raises(AttributeError):
            node.key = key("b")
        with pytest.raises(AttributeError):
            node.extra = 1

    def test_graph_equality_compares_contents(self, federated, tmp_path):
        path = tmp_path / "g.skg.jsonl"
        save_store(federated, path)
        loaded = load_store(path, builtin_registry())
        assert loaded == federated
        changed = merge(loaded, [Node(federated.nodes()[0].key, {"note": Prop("new")})])
        assert changed != federated
        records = [*federated.nodes(), *federated.edges()]
        assert merge(make_graph(), copy.deepcopy(records)) == federated


class TestMergePolicy:
    def test_insert_then_read(self):
        g = merge(make_graph(), [named(key("n1"), confidence=0.8)])
        assert g.node(key("n1")).get("confidence") == 0.8

    def test_upsert_does_not_mutate_input(self):
        g0 = make_graph()
        g1 = merge(g0, [named(key("n1"))])
        assert g0.node_count == 0 and g1.node_count == 1

    def test_default_never_displaces_confirmed(self):
        g = merge(make_graph(), [Node(key("n1"), {"name": Prop("real", IC)})])
        g = merge(g, [Node(key("n1"), {"name": Prop("stub", SD)})])
        node = g.node(key("n1"))
        assert node.get("name") == "real"
        assert node.properties["name"].provenance is IC
        assert CONFLICT_LOG not in node.properties

    def test_confirmed_displaces_default_silently(self):
        g = merge(make_graph(), [Node(key("n1"), {"name": Prop("stub", SD)})])
        g = merge(g, [Node(key("n1"), {"name": Prop("real", IC)})])
        node = g.node(key("n1"))
        assert node.get("name") == "real"
        assert node.properties["name"].provenance is IC
        assert CONFLICT_LOG not in node.properties

    def test_default_replaces_default(self):
        g = merge(make_graph(), [Node(key("n1"), {"name": Prop("one", SD)})])
        g = merge(g, [Node(key("n1"), {"name": Prop("two", SD)})])
        node = g.node(key("n1"))
        assert node.get("name") == "two"
        assert node.properties["name"].provenance is SD

    def test_confirmed_collision_logs_and_takes_latest(self):
        g = merge(make_graph(), [Node(key("n1"), {"confidence": Prop(0.8, IC)})])
        g = merge(g, [Node(key("n1"), {"confidence": Prop(0.9, IC)})])
        node = g.node(key("n1"))
        assert node.get("confidence") == 0.9
        assert node.get(CONFLICT_LOG) == ("confidence: 0.8 -> 0.9",)

    def test_equal_confirmed_value_is_a_no_op(self):
        g = merge(make_graph(), [Node(key("n1"), {"confidence": Prop(0.8, IC)})])
        g = merge(g, [Node(key("n1"), {"confidence": Prop(0.8, IC)})])
        assert CONFLICT_LOG not in g.node(key("n1")).properties

    def test_conflict_log_accumulates(self):
        g = make_graph()
        for value in (0.7, 0.8, 0.9):
            g = merge(g, [Node(key("n1"), {"confidence": Prop(value, IC)})])
        assert g.node(key("n1")).get(CONFLICT_LOG) == (
            "confidence: 0.7 -> 0.8",
            "confidence: 0.8 -> 0.9",
        )

    def test_conflict_log_renders_booleans_and_lists(self):
        g = merge(
            make_graph(),
            [Node(key("n1"), {"flag": Prop(True, IC), "tags": Prop(("a", "b"), IC)})],
        )
        g = merge(
            g, [Node(key("n1"), {"flag": Prop(False, IC), "tags": Prop(("a",), IC)})]
        )
        assert g.node(key("n1")).get(CONFLICT_LOG) == (
            "flag: true -> false",
            "tags: [a, b] -> [a]",
        )

    def test_kind_change_raises_even_for_discarded_default(self):
        g = merge(make_graph(), [Node(key("n1"), {"name": Prop("text", IC)})])
        with pytest.raises(TypeConflict):
            merge(g, [Node(key("n1"), {"name": Prop(1.0, SD)})])

    def test_kind_change_raises_for_confirmed(self):
        g = merge(make_graph(), [Node(key("n1"), {"name": Prop("text", IC)})])
        with pytest.raises(TypeConflict):
            merge(g, [Node(key("n1"), {"name": Prop(True, IC)})])


class TestEdges:
    def graph_with_nodes(self):
        g = make_graph()
        g = merge(g, [named(key("a"))])
        g = merge(g, [named(key("b"))])
        g = merge(g, [named(key("c", subgraph="SGB", label="AutomationAsset"))])
        return g

    def test_dangling_endpoints(self):
        g = self.graph_with_nodes()
        with pytest.raises(DanglingEdge):
            merge(g, [Edge("CASCADES_TO", key("a"), key("missing"))])
        with pytest.raises(DanglingEdge):
            merge(g, [Edge("CASCADES_TO", key("missing"), key("a"))])

    def test_same_subgraph_edge(self):
        g = merge(self.graph_with_nodes(), [Edge("CASCADES_TO", key("a"), key("b"))])
        assert g.has_edge(("CASCADES_TO", key("a"), key("b")))

    def test_cross_subgraph_requires_allowed_type(self):
        g = self.graph_with_nodes()
        with pytest.raises(CrossSubgraphViolation):
            merge(g, [Edge("CASCADES_TO", key("a"), key("c", "SGB", "AutomationAsset"))])

    def test_cross_subgraph_allowed_type_pends_or_not(self):
        g = self.graph_with_nodes()
        dst = key("c", "SGB", "AutomationAsset")
        pending = merge(g, [Edge("MASKED_BY", key("a"), dst, pending=True)])
        assert pending.edge(("MASKED_BY", key("a"), dst)).pending
        approved = merge(g, [Edge("MASKED_BY", key("a"), dst, pending=False)])
        assert not approved.edge(("MASKED_BY", key("a"), dst)).pending

    def test_same_subgraph_pending_rejected(self):
        g = self.graph_with_nodes()
        with pytest.raises(CrossSubgraphViolation):
            merge(g, [Edge("CASCADES_TO", key("a"), key("b"), pending=True)])

    def test_approval_is_sticky(self):
        g = self.graph_with_nodes()
        dst = key("c", "SGB", "AutomationAsset")
        ekey = ("MASKED_BY", key("a"), dst)
        g = merge(g, [Edge("MASKED_BY", key("a"), dst, pending=True)])
        g, _ = approve_pending(g, [ekey])
        g = merge(g, [Edge("MASKED_BY", key("a"), dst, pending=True)])
        assert not g.edge(ekey).pending

    def test_pending_stays_pending_until_approved(self):
        g = self.graph_with_nodes()
        dst = key("c", "SGB", "AutomationAsset")
        ekey = ("MASKED_BY", key("a"), dst)
        g = merge(g, [Edge("MASKED_BY", key("a"), dst, pending=True)])
        g = merge(g, [Edge("MASKED_BY", key("a"), dst, pending=True)])
        assert g.edge(ekey).pending
        g = merge(g, [Edge("MASKED_BY", key("a"), dst, pending=False)])
        assert not g.edge(ekey).pending

    def test_parallel_edges_collapse_and_merge_properties(self):
        g = self.graph_with_nodes()
        g = merge(g, [Edge("CASCADES_TO", key("a"), key("b"), {"weight": Prop(1.0, IC)})])
        g = merge(g, [Edge("CASCADES_TO", key("a"), key("b"), {"note": Prop("x", IC)})])
        edge = g.edge(("CASCADES_TO", key("a"), key("b")))
        assert g.edge_count == 1
        assert edge.properties["weight"].value == 1.0
        assert edge.properties["note"].value == "x"

    def test_approve_unknown_edge(self):
        with pytest.raises(KeyError):
            approve_pending(self.graph_with_nodes(), [("CASCADES_TO", key("a"), key("b"))])


class TestNeighbors:
    def build(self):
        g = make_graph()
        for id_ in ("a", "b", "d"):
            g = merge(g, [named(key(id_))])
        g = merge(g, [named(key("c", "SGB", "AutomationAsset"))])
        g = merge(g, [Edge("CASCADES_TO", key("a"), key("b"))])
        g = merge(g, [Edge("CASCADES_TO", key("a"), key("d"))])
        g = merge(g, [Edge("MASKED_BY", key("a"), key("c", "SGB", "AutomationAsset"), pending=True)])
        return g

    def test_out_sorted(self):
        g = self.build()
        found = [n.key.id for n in neighbors(g, key("a"), "CASCADES_TO")]
        assert found == ["b", "d"]

    def test_in_direction(self):
        g = self.build()
        found = [n.key.id for n in neighbors(g, key("b"), "CASCADES_TO", direction="in")]
        assert found == ["a"]

    def test_pending_edge_is_listed_but_not_crossed(self):
        g = self.build()
        pending = g.edge(("MASKED_BY", key("a"), key("c", "SGB", "AutomationAsset")))
        assert neighbors(g, key("a"), "MASKED_BY") == []
        assert neighbors(g, key("c", "SGB", "AutomationAsset"), "MASKED_BY", "in") == []
        assert g.edges("MASKED_BY") == [pending]
        assert g.pending_edges() == [pending]

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            neighbors(self.build(), key("zz"), "CASCADES_TO")

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            neighbors(self.build(), key("a"), "CASCADES_TO", direction="sideways")


class TestSerialization:
    def test_header_first(self):
        data = canonical_serialize(make_graph()).decode()
        first = data.splitlines()[0]
        assert '"kind": "header"' in first
        assert '"format": "skg.jsonl"' in first

    def test_insertion_order_does_not_matter(self):
        a, b = named(key("a")), named(key("b"))
        g1 = merge(merge(make_graph(), [a]), [b])
        g2 = merge(merge(make_graph(), [b]), [a])
        assert g1 == g2
        assert canonical_serialize(g1) == canonical_serialize(g2)
        assert graph_hash(g1) == graph_hash(g2)

    def test_pending_section_comes_last(self):
        g = make_graph()
        g = merge(g, [named(key("a"))])
        g = merge(g, [named(key("b"))])
        g = merge(g, [named(key("c", "SGB", "AutomationAsset"))])
        g = merge(g, [Edge("CASCADES_TO", key("a"), key("b"))])
        g = merge(g, [Edge("MASKED_BY", key("a"), key("c", "SGB", "AutomationAsset"), pending=True)])
        kinds = [line.split('"kind": "')[1].split('"')[0] for line in canonical_serialize(g).decode().splitlines()]
        assert kinds == ["header", "node", "node", "node", "edge", "pending_edge"]

    def test_hash_is_sha256_hex(self):
        h = graph_hash(make_graph())
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")

    def test_graphs_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(make_graph())


# an edge from SGA:FailureMode:a to SGA:FailureMode:b, neither of them stored
DANGLING_EDGE_LINE = (
    '{"dst": {"id": "b", "label": "FailureMode", "subgraph": "SGA"}, "edge_type": "CASCADES_TO", '
    '"kind": "edge", "properties": {}, "src": {"id": "a", "label": "FailureMode", "subgraph": "SGA"}}\n'
)


class TestStoreFiles:
    def test_digest_path_naming(self):
        assert digest_path("x/federated.skg.jsonl").name == "federated.skg.sha256"
        assert digest_path("x/other.db").name == "other.db.skg.sha256"

    def test_save_load_round_trip(self, tmp_path):
        g = make_graph()
        g = merge(g, [named(key("a"), confidence=0.82, flagged=False)])
        g = merge(g, [named(key("c", "SGB", "AutomationAsset"))])
        g = merge(g, [Edge("MASKED_BY", key("a"), key("c", "SGB", "AutomationAsset"), pending=True)])
        path = tmp_path / "t.skg.jsonl"
        digest = save_store(g, path)
        loaded = load_store(path, builtin_registry())
        assert loaded == g
        assert graph_hash(loaded) == digest
        assert digest_path(path).read_text() == f"{digest}  skg-ontology-1\n"

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_unicode_line_separators_in_text_round_trip(self, tmp_path, separator):
        g = merge(make_graph(), [named(key("a"), note=f"before{separator}after")])
        path = tmp_path / "t.skg.jsonl"
        save_store(g, path)
        assert load_store(path, builtin_registry()) == g

    def test_version_mismatch(self, tmp_path):
        class OtherRegistry:
            version = "other-schema-9"

            def cross_subgraph_edge_types(self):
                return frozenset()

        path = tmp_path / "t.skg.jsonl"
        save_store(make_graph(), path)
        with pytest.raises(RegistryMismatch):
            load_store(path, OtherRegistry())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.skg.jsonl"
        path.write_text("")
        with pytest.raises(RegistryMismatch):
            load_store(path, builtin_registry())

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.skg.jsonl"
        path.write_text('{"kind": "node"}\n')
        with pytest.raises(RegistryMismatch):
            load_store(path, builtin_registry())

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "t.skg.jsonl"
        good = canonical_serialize(make_graph()).decode()
        path.write_text(good + '{"kind": "mystery"}\n')
        with pytest.raises(RegistryMismatch):
            load_store(path, builtin_registry())

    def test_malformed_property_record(self, tmp_path):
        path = tmp_path / "t.skg.jsonl"
        good = canonical_serialize(make_graph()).decode()
        node = '{"id": "x", "kind": "node", "label": "FailureMode", "properties": {"name": {"value": "x"}}, "subgraph": "SGA"}\n'
        path.write_text(good + node)
        with pytest.raises(RegistryMismatch):
            load_store(path, builtin_registry())

    @pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize(
        ("tail", "error"),
        [
            ("", None),
            ('{"kind": "mystery"}\n', RegistryMismatch),
            (DANGLING_EDGE_LINE, DanglingEdge),
        ],
        ids=["loads", "bad-line", "dangling-edge"],
    )
    def test_load_leaves_the_collector_as_it_found_it(self, tmp_path, collecting, tail, error):
        path = tmp_path / "t.skg.jsonl"
        save_store(merge(make_graph(), [named(key("a"))]), path)
        path.write_text(path.read_text() + tail)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if error is None:
                load_store(path, builtin_registry())
            else:
                with pytest.raises(error):
                    load_store(path, builtin_registry())
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_edge_endpoints_are_the_keys_of_their_nodes(self, federated):
        # one key cache per load: the graph holds one copy of each key
        edges = federated.edges()
        assert edges
        for edge in edges:
            assert federated.node(edge.src).key is edge.src
            assert federated.node(edge.dst).key is edge.dst

    def test_load_reenforces_referential_integrity(self, tmp_path):
        path = tmp_path / "t.skg.jsonl"
        header = canonical_serialize(make_graph()).decode()
        path.write_text(header + DANGLING_EDGE_LINE)
        with pytest.raises(DanglingEdge):
            load_store(path, builtin_registry())


def chain_graph(n: int) -> Graph:
    """``n`` failure modes, each cascading to the next: 2n canonical lines."""
    keys = [key(f"fm-{i:05d}") for i in range(n)]
    nodes = [named(k, note=f"note {k.id} " * 4, confidence=0.5) for k in keys]
    return merge(make_graph(), nodes + [Edge("CASCADES_TO", a, b) for a, b in zip(keys, keys[1:])])


def traced_memory(run) -> tuple[int, int]:
    """Bytes ``tracemalloc`` saw allocated after ``run()``, and at its peak while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestStreamingStoreIO:
    @pytest.fixture(scope="class")
    def graph(self):
        graph = chain_graph(1500)
        assert canonical_serialize(graph).count(b"\n") > 10 * _CHUNK_LINES
        return graph

    def test_chunks_join_to_the_serialization(self, graph, tmp_path):
        chunks = list(graph_core._canonical_chunks(graph))
        data = canonical_serialize(graph)
        assert b"".join(chunks) == data
        assert [chunk.count(b"\n") for chunk in chunks[:-1]] == [_CHUNK_LINES] * (len(chunks) - 1)
        assert 1 <= chunks[-1].count(b"\n") <= _CHUNK_LINES
        assert graph_hash(graph) == hashlib.sha256(data).hexdigest()
        path = tmp_path / "t.skg.jsonl"
        assert save_store(graph, path) == graph_hash(graph)
        assert path.read_bytes() == data

    @pytest.mark.parametrize("operation", ["save_store", "graph_hash"])
    def test_save_and_hash_hold_less_than_the_store(self, graph, tmp_path, operation):
        path = tmp_path / "t.skg.jsonl"
        size = len(canonical_serialize(graph))
        run = {"save_store": lambda: save_store(graph, path), "graph_hash": lambda: graph_hash(graph)}
        _, peak = traced_memory(run[operation])
        assert peak < size

    def test_load_holds_little_beyond_the_graph(self, graph, tmp_path):
        path = tmp_path / "t.skg.jsonl"
        save_store(graph, path)
        loaded = []
        kept, peak = traced_memory(lambda: loaded.append(load_store(path, builtin_registry())))
        assert loaded == [graph]
        # the file's bytes and text are never held whole
        assert peak - kept < path.stat().st_size / 4

    def test_failed_save_leaves_the_old_store_whole(self, graph, tmp_path, monkeypatch):
        path = tmp_path / "t.skg.jsonl"
        save_store(merge(make_graph(), [named(key("a"))]), path)
        before = path.read_bytes(), digest_path(path).read_bytes()
        calls = itertools.count()
        render = graph_core.node_line

        def fail_in_third_chunk(node):
            if next(calls) == 2 * _CHUNK_LINES:
                raise RuntimeError("render failed")
            return render(node)

        monkeypatch.setattr(graph_core, "node_line", fail_in_third_chunk)
        with pytest.raises(RuntimeError, match="render failed"):
            save_store(graph, path)
        assert (path.read_bytes(), digest_path(path).read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.skg.jsonl", "t.skg.sha256"]

    def test_save_replaces_a_symlink_with_a_file(self, tmp_path):
        target = tmp_path / "target.skg.jsonl"
        save_store(make_graph(), target)
        link = tmp_path / "link.skg.jsonl"
        link.symlink_to(target)
        graph = merge(make_graph(), [named(key("a"))])
        save_store(graph, link)
        assert not link.is_symlink()
        assert link.read_bytes() == canonical_serialize(graph)
        assert target.read_bytes() == canonical_serialize(make_graph())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data[:-1],
            lambda data: data.replace(b"\n", b"\n\n", 3),
            lambda data: data.replace(b"\n", b"\n \t\r\n" + "\u2028".encode() + b"\n", 2),
            lambda data: data + b"\n\n",
        ],
        ids=["no-final-newline", "empty-lines", "whitespace-lines", "trailing-empty-lines"],
    )
    def test_blank_lines_and_a_missing_final_newline_load(self, tmp_path, edit):
        graph = chain_graph(3)
        path = tmp_path / "t.skg.jsonl"
        path.write_bytes(edit(canonical_serialize(graph)))
        assert load_store(path, builtin_registry()) == graph

    def test_lines_are_counted_across_blank_lines(self, tmp_path):
        lines = canonical_serialize(chain_graph(3)).split(b"\n")
        lines[3] = b'{"kind": "mystery"}'
        path = tmp_path / "t.skg.jsonl"
        path.write_bytes(b"\n".join(lines[:2] + [b"", b"  "] + lines[2:]))
        with pytest.raises(RegistryMismatch, match=rf"^{re.escape(str(path))}:6: unknown record kind"):
            load_store(path, builtin_registry())

    @pytest.mark.parametrize("line_no", [1, 2, 5])
    def test_invalid_utf8_is_located(self, tmp_path, line_no):
        lines = canonical_serialize(chain_graph(3)).split(b"\n")
        lines[line_no - 1] = lines[line_no - 1].replace(b'"kind"', b'"k\xffind"')
        path = tmp_path / "t.skg.jsonl"
        path.write_bytes(b"\n".join(lines))
        message = rf"^{re.escape(str(path))}:{line_no}: invalid UTF-8 \(invalid start byte\) at byte "
        with pytest.raises(RegistryMismatch, match=message):
            load_store(path, builtin_registry())


# hypothesis strategies for small well-formed graphs

prop_values = st.one_of(
    st.booleans(),
    st.floats(min_value=-1e6, max_value=1e6),
    st.text(max_size=12),
    st.lists(st.text(max_size=6), max_size=3),
)
prop_names = st.sampled_from(["name", "confidence", "note", "tags", "flag"])
provenances = st.sampled_from([SD, IC])
node_ids = st.from_regex(r"[a-z][a-z0-9_-]{0,6}", fullmatch=True)


@st.composite
def node_strategy(draw):
    k = key(draw(node_ids))
    n_props = draw(st.integers(min_value=0, max_value=3))
    props = {}
    for _ in range(n_props):
        name = draw(prop_names)
        props[name] = Prop(draw(prop_values), draw(provenances))
    return Node(k, props)


class TestMergeProperties:
    @given(node_strategy())
    def test_upsert_twice_equals_once(self, node):
        g1 = merge(make_graph(), [node])
        g2 = merge(g1, [node])
        assert canonical_serialize(g1) == canonical_serialize(g2)

    @given(st.lists(node_strategy(), min_size=1, max_size=5))
    def test_distinct_nodes_commute(self, nodes):
        unique = {n.key: n for n in nodes}
        nodes = list(unique.values())
        g_fwd = make_graph()
        for n in nodes:
            g_fwd = merge(g_fwd, [n])
        g_rev = make_graph()
        for n in reversed(nodes):
            g_rev = merge(g_rev, [n])
        assert canonical_serialize(g_fwd) == canonical_serialize(g_rev)

    @given(prop_values, prop_values)
    def test_confirmed_value_survives_any_default(self, confirmed, stub):
        g = merge(make_graph(), [Node(key("n"), {"p": Prop(confirmed, IC)})])
        kept = g.node(key("n")).properties["p"].value
        try:
            g = merge(g, [Node(key("n"), {"p": Prop(stub, SD)})])
        except TypeConflict:
            return  # kind changes are rejected, which also preserves the value
        after = g.node(key("n")).properties["p"]
        assert after.value == kept
        assert after.provenance is IC

    @settings(max_examples=30)
    @given(nodes=st.lists(node_strategy(), min_size=1, max_size=4))
    def test_store_round_trip(self, nodes, tmp_path_factory):
        g = make_graph()
        for n in nodes:
            try:
                g = merge(g, [n])
            except TypeConflict:
                return  # same key twice with clashing kinds; nothing to round-trip
        path = tmp_path_factory.mktemp("store") / "t.skg.jsonl"
        save_store(g, path)
        assert load_store(path, builtin_registry()) == g


# -- a model of the store's life: merges, approvals and round trips ------------

MODEL_KEYS = [key(id_, sg) for sg in ("SGA", "SGB") for id_ in "ab"]
MODEL_PROPS = st.dictionaries(
    st.sampled_from(["name", "note"]),
    st.builds(Prop, st.sampled_from(["x", "y", 1.0]), provenances),  # text or number: kinds clash
    max_size=2,
)
REFUSALS = (TypeConflict, DanglingEdge, CrossSubgraphViolation)


@st.composite
def model_batches(draw, present=(), new_ends=True):
    """A merge batch over ``MODEL_KEYS``, each node and edge key in it at most once.

    Its edges join nodes in ``present``, and with ``new_ends`` nodes of
    the batch too. Some batches are refused: a kind change, an edge
    before its endpoint, a CASCADES_TO edge that spans subgraphs, or a
    pending edge that does not.
    """
    nodes = draw(st.lists(st.sampled_from(MODEL_KEYS), unique=True, max_size=3))
    batch = [Node(k, draw(MODEL_PROPS)) for k in nodes]
    ends = sorted(set(present) | set(nodes if new_ends else ()))
    pair = st.tuples(st.sampled_from(ends), st.sampled_from(ends))
    for src, dst in draw(st.lists(pair, unique=True, max_size=3)) if ends else ():
        broken = draw(st.integers(0, 9)) == 0  # one edge in ten breaks a rule of merge's
        if src.subgraph != dst.subgraph:  # MASKED_BY may span subgraphs, pending or not
            edge_type, pending = "CASCADES_TO" if broken else "MASKED_BY", draw(st.booleans())
        else:  # pending is for edges across subgraphs
            edge_type, pending = draw(st.sampled_from(["CASCADES_TO", "MASKED_BY"])), broken
        batch.append(Edge(edge_type, src, dst, pending=pending))
    return draw(st.permutations(batch))


def merged_or_refused(graph: Graph, batch: list):
    """``merge(graph, batch)``, or the refusal's type and message.

    A refusal leaves ``graph``'s bytes as they were.
    """
    before = canonical_serialize(graph)
    try:
        return merge(graph, batch)
    except REFUSALS as exc:
        assert canonical_serialize(graph) == before
        return type(exc), str(exc)


def merged_in_turn(graph: Graph, first: list, then: list):
    """``first`` merged into ``graph``, then ``then``, or the first refusal."""
    result = merged_or_refused(graph, first)
    return merged_or_refused(result, then) if isinstance(result, Graph) else result


class StoreModel(RuleBasedStateMachine):
    """One store's life against the promises merge, approval and the store file make."""

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.graph = make_graph()
        self.snapshots = [(self.graph, canonical_serialize(self.graph))]

    def teardown(self):
        self.tmp.cleanup()

    def advance(self, result) -> None:
        if isinstance(result, Graph):
            self.graph = result
            self.snapshots.append((result, canonical_serialize(result)))

    def present(self) -> tuple[NodeKey, ...]:
        return tuple(node.key for node in self.graph.nodes())

    @rule(data=st.data())
    def merge_a_batch(self, data):
        batch = data.draw(model_batches(self.present()))
        result = merged_or_refused(self.graph, batch)
        if isinstance(result, Graph):  # merging it again changes no byte
            assert canonical_serialize(merge(result, batch)) == canonical_serialize(result)
        self.advance(result)

    @rule(data=st.data())
    def merge_in_two_parts(self, data):
        a = data.draw(model_batches(self.present()))
        merged_by_a = tuple(record.key for record in a if isinstance(record, Node))
        b = data.draw(model_batches(self.present() + merged_by_a))
        whole, parts = merged_or_refused(self.graph, a + b), merged_in_turn(self.graph, a, b)
        assert whole == parts  # the same graph, or the same refusal of the same record
        if isinstance(whole, Graph):
            assert canonical_serialize(whole) == canonical_serialize(parts)
        self.advance(whole)

    @rule(data=st.data())
    def merge_disjoint_batches_in_either_order(self, data):
        batch = data.draw(model_batches(self.present(), new_ends=False))
        mask = data.draw(st.lists(st.booleans(), min_size=len(batch), max_size=len(batch)))
        a = [record for record, first in zip(batch, mask) if first]
        b = [record for record, first in zip(batch, mask) if not first]
        ab, ba = (merged_in_turn(self.graph, first, then) for first, then in ((a, b), (b, a)))
        assert isinstance(ab, Graph) == isinstance(ba, Graph)  # a refusal may name either
        if isinstance(ab, Graph):
            assert ab == ba
            assert canonical_serialize(ab) == canonical_serialize(ba)
        self.advance(ab)

    @precondition(lambda self: self.graph.pending_edges())
    @rule(data=st.data())
    def approve(self, data):
        pending = [edge.key for edge in self.graph.pending_edges()]
        selectors = data.draw(st.none() | st.lists(st.sampled_from(pending), unique=True))
        graph, approved = approve_pending(self.graph, selectors)
        assert approved == tuple(sorted(pending if selectors is None else selectors))
        assert not any(graph.edge(k).pending for k in approved)
        self.advance(graph)

    @rule()
    def save_then_load(self):
        path = Path(self.tmp.name) / "model.skg.jsonl"
        assert save_store(self.graph, path) == graph_hash(self.graph)
        assert path.read_bytes() == canonical_serialize(self.graph)
        loaded = load_store(path, builtin_registry())
        assert loaded == self.graph
        self.advance(loaded)

    @invariant()
    def snapshots_keep_their_bytes_and_bytes_are_identity(self):
        for graph, data in self.snapshots:
            assert canonical_serialize(graph) == data
        for (g1, d1), (g2, d2) in itertools.combinations(self.snapshots, 2):
            assert (d1 == d2) == (g1 == g2)


TestStoreModel = StoreModel.TestCase
TestStoreModel.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)


# -- the lazy read index -------------------------------------------------------

INDEX_SUBGRAPHS = ("SGA", "SGB", "SGC")
INDEX_LABELS = ("FailureMode", "AutomationAsset")
SAME_SUBGRAPH_TYPE = "CASCADES_TO"
CROSS_TYPE = "MASKED_BY"  # cross-subgraph edges of this type may pend
INDEX_KEYS = [
    NodeKey(sg, label, id_) for sg in INDEX_SUBGRAPHS for label in INDEX_LABELS for id_ in "ab"
]


@st.composite
def index_batches(draw):
    """Valid merge batches over a small key pool; keys recur within and across batches.

    Cross-subgraph edges may pend, and a later record may approve one.
    """
    present: set[NodeKey] = set()
    pending: list[tuple] = []
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        batch = []
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            if not present or draw(st.booleans()):
                k = draw(st.sampled_from(INDEX_KEYS))
                present.add(k)
                batch.append(Node(k, {"name": Prop(draw(st.sampled_from(["x", "y"])))}))
                continue
            if pending and draw(st.booleans()):
                batch.append(Edge(*draw(st.sampled_from(pending)), pending=False))
                continue
            src = draw(st.sampled_from(sorted(present)))
            dst = draw(st.sampled_from(sorted(present)))
            crosses = src.subgraph != dst.subgraph
            edge_type = CROSS_TYPE
            if not crosses:
                edge_type = draw(st.sampled_from([SAME_SUBGRAPH_TYPE, CROSS_TYPE]))
            edge = Edge(edge_type, src, dst, pending=crosses and draw(st.booleans()))
            if edge.pending:
                pending.append(edge.key)
            batch.append(edge)
        batches.append(batch)
    return batches


def index_answers(g: Graph) -> dict:
    """What the indexed readers return for every query over the key pool."""
    out = {}
    for k in INDEX_KEYS:
        if not g.has_node(k):
            continue
        for edge_type in (SAME_SUBGRAPH_TYPE, CROSS_TYPE, "PRECEDES"):
            for direction in ("out", "in"):
                out["neighbors", k, edge_type, direction] = neighbors(g, k, edge_type, direction)
    for label in (*INDEX_LABELS, "WorkflowStep", None):
        for sg in (*INDEX_SUBGRAPHS, "NOPE", None):
            out["nodes", label, sg] = g.nodes(label, sg)
    for sg in (*INDEX_SUBGRAPHS, "NOPE"):
        out["has_subgraph", sg] = g.has_subgraph(sg)
    for edge_type in (SAME_SUBGRAPH_TYPE, CROSS_TYPE, "PRECEDES", None):
        out["edges", edge_type] = g.edges(edge_type)
    out["pending_edges"] = g.pending_edges()
    return out


def scanned_answers(g: Graph) -> dict:
    """The same answers by a full scan of the snapshot's dicts."""
    nodes = list(g._nodes.values())
    edges = sorted(g._edges.values(), key=lambda e: e.key)
    out = {}
    for k in INDEX_KEYS:
        if k not in g._nodes:
            continue
        for edge_type in (SAME_SUBGRAPH_TYPE, CROSS_TYPE, "PRECEDES"):
            for direction in ("out", "in"):
                out["neighbors", k, edge_type, direction] = [
                    g._nodes[e.dst if direction == "out" else e.src]
                    for e in edges
                    if e.edge_type == edge_type
                    and (e.src if direction == "out" else e.dst) == k
                    and not e.pending
                ]
    for label in (*INDEX_LABELS, "WorkflowStep", None):
        for sg in (*INDEX_SUBGRAPHS, "NOPE", None):
            out["nodes", label, sg] = sorted(
                (
                    n
                    for n in nodes
                    if label in (None, n.key.label) and sg in (None, n.key.subgraph)
                ),
                key=lambda n: n.key,
            )
    for sg in (*INDEX_SUBGRAPHS, "NOPE"):
        out["has_subgraph", sg] = any(n.key.subgraph == sg for n in nodes)
    for edge_type in (SAME_SUBGRAPH_TYPE, CROSS_TYPE, "PRECEDES", None):
        out["edges", edge_type] = [e for e in edges if edge_type in (None, e.edge_type)]
    out["pending_edges"] = [e for e in edges if e.pending]
    return out


class TestReadIndex:
    @settings(max_examples=60)
    @given(index_batches())
    def test_indexed_reads_match_a_full_scan(self, batches):
        g = make_graph()
        for batch in batches:
            before = index_answers(g)  # builds the index of the older snapshot
            g_next = merge(g, batch)
            assert index_answers(g) == before  # the older snapshot is untouched
            assert index_answers(g_next) == scanned_answers(g_next)
            g = g_next

    def test_results_are_copies(self):
        a, b = key("a"), key("b")
        g = merge(make_graph(), [named(a), named(b), Edge("CASCADES_TO", a, b)])
        neighbors(g, a, "CASCADES_TO").clear()
        g.nodes("FailureMode", "SGA").clear()
        g.edges("CASCADES_TO").clear()
        assert len(neighbors(g, a, "CASCADES_TO")) == 1
        assert len(g.nodes("FailureMode", "SGA")) == 2
        assert len(g.edges("CASCADES_TO")) == 1

    def test_missing_node_names_its_key(self):
        with pytest.raises(KeyError) as exc:
            make_graph().node(key("zz"))
        assert exc.value.args == ("SGA:FailureMode:zz",)


def scanned_masking_rows(g: Graph, subgraph: str) -> list[queries.MaskingRow]:
    """``masking_exposures`` by a scan of every ``MASKED_BY`` edge, skipping pending ones."""

    def name(k: NodeKey) -> str:
        return str(g.node(k).get("name", k.id))

    def far(edge_type: str, k: NodeKey, direction: str) -> list[NodeKey]:
        near, other = ("src", "dst") if direction == "out" else ("dst", "src")
        return [
            getattr(e, other) for e in g.edges(edge_type) if getattr(e, near) == k and not e.pending
        ]

    if not g.has_subgraph(subgraph):
        raise KeyError(subgraph)
    rows = []
    for e in g.edges("MASKED_BY"):
        if e.pending or e.src.subgraph != subgraph:
            continue
        loop = next(
            (
                (name(step), name(use_case), name(e.dst), name(e.src))
                for step in far("CAUSES_IF_INCOMPLETE", e.src, "in")
                for use_case in far("REQUIRES_AUTOMATION", step, "out")
                if e.dst in far("SUITABLE_FOR", use_case, "out")
            ),
            (),
        )
        row = (e.dst.id, name(e.dst), e.src.id, name(e.src), bool(loop), loop)
        rows.append(queries.MaskingRow(*row))
    rows.sort(key=lambda r: (r.asset_name, r.failure_mode_name))
    return rows


# every name is "x": a pending edge, an asset as a source, and ties on both sort columns
_FM1, _FM2, _SRC = key("fm1"), key("fm2"), key("src", label="AutomationAsset")
_M1, _M2 = key("m1", "SGB", "AutomationAsset"), key("m2", "SGC", "AutomationAsset")
MASKING_EXAMPLE = [
    [Node(k, {"name": Prop("x")}) for k in (_FM1, _FM2, _SRC, _M1, _M2)]
    + [
        Edge(CROSS_TYPE, _FM2, _M1),
        Edge(CROSS_TYPE, _FM1, _M2),
        Edge(CROSS_TYPE, _FM1, _M1, pending=True),
        Edge(CROSS_TYPE, _SRC, _M2),
        Edge(CROSS_TYPE, _FM1, _SRC),
    ]
]


class TestMaskingExposuresScan:
    @settings(max_examples=60)
    @given(index_batches())
    @example(MASKING_EXAMPLE)
    def test_rows_match_a_scan_of_masking_edges(self, batches):
        g = make_graph()
        for batch in batches:
            g = merge(g, batch)
            for sg in (*INDEX_SUBGRAPHS, "NOPE"):
                try:
                    expected = scanned_masking_rows(g, sg)
                except KeyError:
                    with pytest.raises(KeyError):
                        queries.masking_exposures(g, sg)
                    continue
                assert queries.masking_exposures(g, sg) == expected

    def test_federation_loops_match_a_scan(self, federated):
        rows = queries.masking_exposures(federated, "ELISA")
        assert any(row.loop for row in rows)
        assert rows == scanned_masking_rows(federated, "ELISA")
        for sg in ("LCMS_PRM", "AUTOMATION", "PROGRAM"):
            assert queries.masking_exposures(federated, sg) == scanned_masking_rows(federated, sg)

    def test_ties_keep_source_then_asset_key_order(self):
        g = merge(make_graph(), MASKING_EXAMPLE[0])
        rows = queries.masking_exposures(g, "SGA")
        assert [(r.failure_mode_id, r.asset_id) for r in rows] == [
            ("src", "m2"),  # an AutomationAsset key sorts before a FailureMode key
            ("fm1", "src"),
            ("fm1", "m2"),  # the pending fm1 -> m1 edge is skipped
            ("fm2", "m1"),
        ]


class CountingDict(dict):
    """A dict that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def keys(self):
        self.passes += 1
        return super().keys()

    def values(self):
        self.passes += 1
        return super().values()

    def items(self):
        self.passes += 1
        return super().items()


class TestNeighborsComplexity:
    @pytest.mark.parametrize("copies", [1, 4])
    def test_one_pass_over_edges_per_snapshot(self, federated, copies):
        g = federation(federated, copies)
        assert g.edge_count == copies * federated.edge_count
        g._edges = counting = CountingDict(g._edges)
        keys = [n.key for n in g.nodes("FailureMode")] + [n.key for n in g.nodes("UseCase")]
        hops = [
            ("MASKED_BY", "out"),
            ("CASCADES_TO", "in"),
            ("SUITABLE_FOR", "in"),
            ("DETECTED_BY", "out"),
        ]
        found = 0
        for i in range(100):
            edge_type, direction = hops[i % len(hops)]
            found += len(neighbors(g, keys[i * 7 % len(keys)], edge_type, direction))
        assert found > 0
        assert counting.passes <= 1


def edit_an_lcms_name(path: Path) -> None:
    """Prefix the first name on an LCMS_PRM node line with ``Edited``, leaving the sidecar."""
    lines = path.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines) if line.endswith(b'"subgraph": "LCMS_PRM"}'))
    lines[at] = lines[at].replace(b'"value": "', b'"value": "Edited ', 1)
    path.write_bytes(b"\n".join(lines))


def restricted(graph: Graph, subgraph: str) -> Graph:
    """``graph`` cut down to ``subgraph`` and every subgraph one of its edges reaches."""
    scope = {subgraph}
    for edge in graph.edges():
        if subgraph in (edge.src.subgraph, edge.dst.subgraph):
            scope |= {edge.src.subgraph, edge.dst.subgraph}
    return merge(
        make_graph(),
        [node for node in graph.nodes() if node.key.subgraph in scope]
        + [e for e in graph.edges() if e.src.subgraph in scope and e.dst.subgraph in scope],
    )


class TestTrustedLoad:
    @pytest.fixture(scope="class")
    def stores(self, federated):
        return {
            "federation-4": federation(federated, 4),
            "third-subgraph": third_subgraph_federation(federated),
        }

    @pytest.mark.parametrize(
        ("store", "subgraph"),
        [
            ("federation-4", "ELISA"),
            ("federation-4", "AUTOMATION_3"),
            ("third-subgraph", "ELISA"),
            ("third-subgraph", "NOTES"),
            ("third-subgraph", "AUTOMATION"),
            ("third-subgraph", "NOPE"),
        ],
    )
    def test_scoped_load_is_the_graph_restricted_to_its_scope(
        self, stores, tmp_path, store, subgraph
    ):
        path = tmp_path / "t.skg.jsonl"
        save_store(stores[store], path)
        assert load_store(path, builtin_registry(), subgraph) == restricted(stores[store], subgraph)

    def test_quoted_subgraph_text_stays_out_of_scope(self, stores, tmp_path):
        path = tmp_path / "t.skg.jsonl"
        save_store(stores["third-subgraph"], path)
        loaded = load_store(path, builtin_registry(), "ELISA")
        assert not loaded.has_subgraph("NOTES")
        assert loaded.has_subgraph("AUTOMATION_2") and loaded.has_subgraph("AUTOMATION_3")

    def test_scoped_load_decodes_only_lines_in_scope(self, stores, tmp_path, monkeypatch):
        graph = stores["federation-4"]
        path = tmp_path / "t.skg.jsonl"
        save_store(graph, path)
        in_scope = restricted(graph, "ELISA")
        expected = 1 + in_scope.node_count + in_scope.edge_count  # the header, then each record
        assert expected < (1 + graph.node_count + graph.edge_count) / 3
        decoded = count_decodes(monkeypatch)
        load_store(path, builtin_registry(), "ELISA")
        assert decoded[0] == expected

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(
                lambda path: digest_path(path).write_text("0" * 64 + "  skg-ontology-1\n"), id="stale"
            ),
            pytest.param(lambda path: digest_path(path).unlink(), id="missing"),
            pytest.param(lambda path: digest_path(path).write_text(""), id="empty"),
            pytest.param(lambda path: digest_path(path).write_text("not-a-digest\n"), id="non-hex"),
            pytest.param(
                # what `sha256sum t.skg.jsonl > t.skg.sha256` writes
                lambda path: digest_path(path).write_text(
                    f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                ),
                id="sha256sum",
            ),
            pytest.param(
                lambda path: digest_path(path).unlink() or digest_path(path).mkdir(), id="unreadable"
            ),
            pytest.param(edit_an_lcms_name, id="edited-after-save"),
        ],
    )
    def test_untrusted_store_is_read_whole(self, stores, tmp_path, monkeypatch, spoil):
        graph = stores["federation-4"]
        path = tmp_path / "t.skg.jsonl"
        save_store(graph, path)
        spoil(path)
        full = load_store(path, builtin_registry())
        decoded = count_decodes(monkeypatch)
        assert load_store(path, builtin_registry(), "ELISA") == full
        assert decoded[0] == 1 + graph.node_count + graph.edge_count
        if spoil is edit_an_lcms_name:  # the edit is out of ELISA's scope, yet it is read
            assert any(str(n.get("name")).startswith("Edited ") for n in full.nodes(None, "LCMS_PRM"))

    def test_file_digest_of_a_trusted_store_reads_only_the_header(
        self, stores, tmp_path, monkeypatch
    ):
        path = tmp_path / "t.skg.jsonl"
        digest = save_store(stores["federation-4"], path)
        decoded = count_decodes(monkeypatch)
        assert graph_core.file_digest(path, builtin_registry()) == digest
        assert decoded[0] == 1
        assert graph_core.is_trusted(path, digest, builtin_registry())
        digest_path(path).write_text(f"{digest}\n")
        assert not graph_core.is_trusted(path, digest, builtin_registry())

    def test_file_digest_checks_the_registry(self, stores, tmp_path):
        path = tmp_path / "t.skg.jsonl"
        save_store(stores["federation-4"], path)
        other = SimpleNamespace(version="skg-ontology-0")
        with pytest.raises(RegistryMismatch, match="written under 'skg-ontology-1'"):
            graph_core.file_digest(path, other)

    def test_scoped_load_reports_the_line_number_in_the_file(self, fixtures_dir, tmp_path):
        # an edited store whose sidecar was forged to match: a scoped load
        # skips lines, yet names the line of the file, as a full load does
        path = tmp_path / "t.skg.jsonl"
        lines = (fixtures_dir / "stores" / "federated.skg.jsonl").read_bytes().split(b"\n")
        lines[121] = lines[121].replace(b'"id": "', b'"id": "NOPE-', 1)  # line 122's dst
        path.write_bytes(b"\n".join(lines))
        forged = hashlib.sha256(path.read_bytes()).hexdigest()
        digest_path(path).write_text(f"{forged}  skg-ontology-1\n")
        messages = []
        for subgraph in ("ELISA", None):
            with pytest.raises(DanglingEdge) as error:
                load_store(path, builtin_registry(), subgraph)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{path}:122: missing dst ELISA:")
