import hashlib
import importlib.util
import json
import json.encoder
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skg import annotator, canonical, graph_core, queries, seo
from skg.annotator import MergePlan, PlanProvenance, compile_seo, plan_to_bytes
from skg.graph_core import (
    Edge,
    Graph,
    Node,
    NodeKey,
    Prop,
    Provenance,
    canonical_serialize,
    edge_line,
    key_object,
    load_store,
    merge,
    node_line,
)
from skg.canonical import (
    normalize_number,
    reject_non_finite,
    render_number,
    render_text,
    render_value,
    strict_loads,
)
from skg.ontology import builtin_registry

from conftest import DEEP_NESTING, ROOT


class TestRenderNumber:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (0, "0"),
            (0.0, "0"),
            (-0.0, "0"),
            (1.0, "1"),
            (0.6, "0.6"),
            (0.885, "0.885"),
            (2 / 3, "0.666667"),
            (1e-7, "0"),
            (-1e-7, "0"),
            (-3.140000, "-3.14"),
            (1234567.0, "1234567"),
            (0.1 + 0.2, "0.3"),
        ],
    )
    def test_examples(self, value, expected):
        assert render_number(value) == expected

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            render_number(True)

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_shape(self, x):
        s = render_number(x)
        assert "e" not in s and "E" not in s
        if "." in s:
            frac = s.split(".", 1)[1]
            assert 1 <= len(frac) <= 6
            assert not frac.endswith("0")
        assert s == "0" or not s.lstrip("-").startswith("0.") or s.lstrip("-")[0] == "0"

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_normalize_is_idempotent(self, x):
        once = normalize_number(x)
        assert normalize_number(once) == once
        assert render_number(once) == render_number(x)

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_round_trip_through_text(self, x):
        assert float(render_number(x)) == normalize_number(x)


class TestRenderText:
    def test_escapes(self):
        assert render_text('a"b\\c') == '"a\\"b\\\\c"'
        assert render_text("line\nbreak\ttab") == '"line\\nbreak\\ttab"'
        assert render_text("\x01") == '"\\u0001"'
        short = {"\b": "b", "\t": "t", "\n": "n", "\f": "f", "\r": "r"}
        for code in range(0x20):
            escaped = short.get(chr(code)) or f"u{code:04x}"
            assert render_text(chr(code)) == f'"\\{escaped}"'
        for passthrough in ("\x7f", "\x85", "\u2028"):
            assert render_text(passthrough) == f'"{passthrough}"'

    def test_non_ascii_passthrough(self):
        assert render_text("µL émission") == '"µL émission"'

    @given(st.text(max_size=80))
    def test_json_parseable(self, s):
        assert json.loads(render_text(s)) == s


def jsonable(max_leaves: int = 12):
    leaf = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-10**6, max_value=10**6),
        st.floats(min_value=-1e6, max_value=1e6).map(normalize_number),
        st.text(max_size=20),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=8), inner, max_size=4),
        ),
        max_leaves=max_leaves,
    )


class TestRenderValue:
    @given(jsonable())
    def test_valid_json_round_trip(self, value):
        rendered = render_value(value)
        assert json.loads(rendered) == value

    @pytest.mark.parametrize(
        "value, rendered",
        [
            (True, "true"),  # a json.loads round trip cannot tell true from 1
            (False, "false"),
            (None, "null"),
            (-0.0, "0"),
            (3.0, "3"),
            (5e-05, "0.00005"),
            (1e16, "10000000000000000"),
            (Provenance.SCHEMA_DEFAULT, '"SCHEMA_DEFAULT"'),  # a text subclass
            (("a|b", "c"), '["a|b", "c"]'),
            (["x"], '["x"]'),
            ({"b": 1, "a": [True, None]}, '{"a": [true, null], "b": 1}'),
        ],
    )
    def test_literal_bytes(self, value, rendered):
        assert render_value(value) == rendered

    def test_keys_sorted(self):
        assert render_value({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_deterministic_across_insertion_order(self):
        a = {"x": 1, "y": [True, None]}
        b = {"y": [True, None], "x": 1}
        assert render_value(a) == render_value(b)

    def test_rejects_non_text_keys(self):
        with pytest.raises(TypeError):
            render_value({1: "x"})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_value({"x": object()})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            render_number(bad)

    def test_six_digit_rounding(self):
        assert render_number(math.pi) == "3.141593"


class TestStrictLoads:
    @pytest.mark.parametrize(
        "text",
        ['{"a": [1, 2.5, "x"]}', "\ufeff{}", "[1,", "1" * 5000, ""],
        ids=["object", "byte-order-mark", "truncated", "long-integer", "empty"],
    )
    def test_matches_json_loads_with_the_hook(self, text):
        def outcome(load):
            try:
                return load(text)
            except ValueError as exc:  # JSONDecodeError included
                return type(exc), str(exc)

        assert outcome(strict_loads) == outcome(
            lambda t: json.loads(t, parse_constant=reject_non_finite)
        )

    @pytest.mark.parametrize(
        ("text", "literal", "line", "column"),
        [
            ('{"a": NaN}', "NaN", 1, 7),
            ("-Infinity", "-Infinity", 1, 1),
            ('{"NaN": "x \\" NaN -Infinity", "b": [1,\n  Infinity]}', "Infinity", 2, 3),
            ('["\\\\", NaN, Infinity]', "NaN", 1, 8),
        ],
        ids=["nan", "infinity", "after-strings-naming-constants", "after-escaped-backslash"],
    )
    def test_non_finite_literal_is_located(self, text, literal, line, column):
        with pytest.raises(json.JSONDecodeError) as err:
            strict_loads(text)
        assert err.value.msg == f"non-finite number literal: {literal}"
        assert (err.value.lineno, err.value.colno) == (line, column)
        assert text[err.value.pos :].startswith(literal)

    @pytest.mark.parametrize(
        ("text", "escape", "line", "column"),
        [
            ('{"a": "x\\ud800"}', "\\ud800", 1, 9),
            ('["ok",\n "\\udc00\\ud800"]', "\\udc00", 2, 3),
            ('{"\\uD83D": 1}', "\\uD83D", 1, 3),
            ('["\\ud83d\\ude00", "\\ud83d\\u0041"]', "\\ud83d", 1, 19),
        ],
        ids=["high", "low-before-high", "uppercase-key", "after-valid-pair"],
    )
    def test_lone_surrogate_escape_is_located(self, text, escape, line, column):
        with pytest.raises(json.JSONDecodeError) as err:
            strict_loads(text)
        assert err.value.msg == f"lone surrogate escape {escape}"
        assert (err.value.lineno, err.value.colno) == (line, column)
        assert text[err.value.pos :].startswith(escape)

    @pytest.mark.parametrize(
        ("text", "value"),
        [
            ('["\\\\ud800"]', ["\\ud800"]),
            ('"\\ud83d\\ude00"', "\U0001f600"),
            ('"\\uD83D\\uDE00 \\ud7ff"', "\U0001f600 \ud7ff"),
        ],
        ids=["escaped-backslash", "pair", "uppercase-pair"],
    )
    def test_surrogate_pairs_and_escaped_backslashes_decode(self, text, value):
        assert strict_loads(text) == value

    @pytest.mark.parametrize(
        "text",
        [DEEP_NESTING, '{"a": ' * 100_000 + "0" + "}" * 100_000],
        ids=["arrays", "objects"],
    )
    def test_deep_nesting_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="^JSON nested too deeply to decode$"):
            strict_loads(text)


# -- the one-call decode path -----------------------------------------------
#
# strict_loads is one call of the decoder's decode, whose C scanner reads
# the value in a single call, plus located refusals. The oracle below states
# those refusals on their own terms, the surrogate rule by code-unit values:
# both must give the same value, or the same error at the same position.

_ORACLE_DECODER = json.JSONDecoder(parse_constant=reject_non_finite)


def lone_surrogate_escape(text: str) -> int | None:
    """Where the first escape of half a surrogate pair without its other half starts."""
    high = None  # a high half's escape, waiting for its low half right after it
    for m in re.finditer(r"\\(?:u([0-9a-fA-F]{4})|.)", text):
        unit = int(m.group(1), 16) if m.group(1) else None
        if high is not None:
            if unit is not None and 0xDC00 <= unit <= 0xDFFF and m.start() == high.end():
                high = None
                continue
            return high.start()
        if unit is not None and 0xD800 <= unit <= 0xDBFF:
            high = m
        elif unit is not None and 0xDC00 <= unit <= 0xDFFF:
            return m.start()
    return None if high is None else high.start()


def decode_in_full(text: str):
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        value = _ORACLE_DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None
    except canonical._NonFiniteLiteral as exc:
        strings_or_constants = re.finditer(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)', text)
        pos = next(m.start() for m in strings_or_constants if m.group(1))
        raise json.JSONDecodeError(str(exc), text, pos) from None
    pos = lone_surrogate_escape(text)
    if pos is not None:
        raise json.JSONDecodeError(f"lone surrogate escape {text[pos:pos + 6]}", text, pos)
    return value


def decode_outcome(load, text: str):
    try:
        value = load(text)
    except json.JSONDecodeError as exc:
        return type(exc), exc.msg, exc.pos
    except ValueError as exc:
        return type(exc), str(exc)
    return "value", repr(value)  # repr tells 1 from 1.0 and 0.0 from -0.0


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
json_fragments = st.sampled_from(
    ["NaN", "-Infinity", "Infinity", '"NaN"', "[", "]", "{", "}", ",", ":", '"', '\\"', "\\",
     "\\ud83d", "\\uDE00",
     "1e999", "-", "01", "1.", "tru", "null", "\ufeff", "\x00", "\n", "1" * 5000, DEEP_NESTING]
)
paddings = st.text(st.sampled_from(" \t\n\r\x0b\ufeff"), max_size=2)


@st.composite
def decoder_inputs(draw) -> str:
    """JSON text, maybe with fragments spliced in, between optional padding."""
    text = json.dumps(draw(json_values), ensure_ascii=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(json_fragments) + text[at:]
    return draw(paddings) + text + draw(paddings)


class TestStrictLoadsAgainstFullDecode:
    @settings(max_examples=300)
    @given(decoder_inputs())
    @example(" 1")
    @example("[1] x")
    @example("\ufeff[]")
    @example('{"a": [0, NaN]}')
    @example("1" * 5000)
    @example(DEEP_NESTING)
    @example("")
    @example('{"\\u001f\\ud800NaN\\udc00": null}')
    @example('["\\udbff\\udfff", "\\\\ud800", "\\ud800\\\\udc00"]')
    def test_same_value_or_same_error(self, text):
        assert decode_outcome(strict_loads, text) == decode_outcome(decode_in_full, text)

    @pytest.mark.parametrize("pad", [" ", "\t", "\n", "\r\n"], ids=["space", "tab", "lf", "crlf"])
    @pytest.mark.parametrize(
        "text",
        ['{"a": [1, 2.5, "x"]}', "0", '"s"', "[1] x", "{", '{"a": NaN}', ""],
        ids=["object", "number", "text", "extra-data", "truncated", "nan", "empty"],
    )
    def test_padded_input(self, pad, text):
        for padded in (pad + text, text + pad, pad + text + pad):
            assert decode_outcome(strict_loads, padded) == decode_outcome(decode_in_full, padded)

    def test_padded_value_decodes_in_one_scan(self, monkeypatch):
        # plans and documents end in a newline; they must not be decoded twice
        scans = []
        scan_once = canonical._STRICT_DECODER.scan_once

        def counted(text, idx):
            scans.append(idx)
            return scan_once(text, idx)

        monkeypatch.setattr(canonical._STRICT_DECODER, "scan_once", counted)
        assert strict_loads(' \t{"a": [1]}\r\n') == {"a": [1]}
        assert scans == [2]


# -- lines rendered from their fields ---------------------------------------
#
# Store lines and plan bytes are rendered straight from their records'
# fields; these tests hold them to the bytes render_value gives for the
# record as a dict of plain data.

EDGE_NUMBERS = [0.00005, 5e-05, 1e-7, 5.0, -0.0, 1e20, 2**40 + 0.5, 123456789.123456,
                999999999999999.9, 1e300, -2.5, 0.885]

numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.integers(min_value=-(10**18), max_value=10**18),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-3, max_value=1e-3),
)
texts = st.text(
    st.one_of(
        st.characters(blacklist_categories=("Cs",)),  # UTF-8 has no lone surrogates
        st.sampled_from(['"', "\\", "\u2028", "\u2029", "\x85", "\x00", "\x1f", "\x7f", "µ"]),
    ),
    max_size=12,
)
prop_values = st.one_of(st.booleans(), numbers, texts, st.lists(texts, max_size=3))
provenances = st.sampled_from(list(Provenance))
keys = st.builds(
    NodeKey,
    # a subgraph is a key part, like an id; a label is not checked
    st.sampled_from(["ELISA", "SG_2", "sg-3"]),
    st.sampled_from(["FailureMode", "Étape"]),
    st.from_regex(r"[A-Za-z0-9_-]{1,8}", fullmatch=True),
)
properties = st.dictionaries(texts, st.builds(Prop, prop_values, provenances), max_size=5)


def legacy_props(props):
    """A node's property map as plain data: ``{name: {"provenance", "value"}}``."""
    return {
        name: {
            "provenance": prop.provenance.value,
            "value": list(prop.value) if isinstance(prop.value, tuple) else prop.value,
        }
        for name, prop in props.items()
    }


def legacy_key(key):
    return {"subgraph": key.subgraph, "label": key.label, "id": key.id}


def legacy_edge(edge):
    return {"kind": "pending_edge" if edge.pending else "edge", "edge_type": edge.edge_type,
            "src": legacy_key(edge.src), "dst": legacy_key(edge.dst), "properties": {}}


def rendered_edge(edge):
    return edge_line(edge, {key: key_object(key) for key in (edge.src, edge.dst)})


def merged_node(*property_batches):
    """A graph of one node upserted with each batch in turn, and that node."""
    key = NodeKey("ELISA", "FailureMode", "FM-1")
    graph = merge(Graph(builtin_registry()), [Node(key, props) for props in property_batches])
    return graph, graph.node(key)


class TestPlainRendering:
    @given(keys, properties)
    def test_store_node_line(self, key, props):
        legacy = {"kind": "node", **legacy_key(key), "properties": legacy_props(props)}
        assert node_line(Node(key, props)) == render_value(legacy)

    @given(keys, keys, st.booleans())
    def test_store_edge_line(self, src, dst, pending):
        edge = Edge("CASCADES_TO", src, dst, pending)
        assert rendered_edge(edge) == render_value(legacy_edge(edge))

    @pytest.mark.parametrize(
        "graph_and_node",
        [
            merged_node({"weight": Prop(0.5)}, {"weight": Prop(0.75)}, {"weight": Prop(2.0)}),
            merged_node({"weight": Prop(5e-05), "note": Prop("µ\u2028\"")}),
            merged_node({"weight": Prop(1)}, {"weight": Prop(5e-05)}),
        ],
        ids=["conflict-log", "non-plain-number", "conflict-log-non-plain"],
    )
    def test_store_node_line_with_properties(self, graph_and_node):
        graph, node = graph_and_node
        legacy = render_value(
            {"kind": "node", **legacy_key(node.key), "properties": legacy_props(node.properties)}
        )
        assert node_line(node) == legacy
        assert canonical_serialize(graph).decode("utf-8").split("\n")[-2] == legacy

    def test_merged_node_carries_its_conflict_log(self):
        _, node = merged_node({"weight": Prop(0.5)}, {"weight": Prop(5e-05)})
        assert node.get("conflict_log") == ("weight: 0.5 -> 0.00005",)
        assert '"weight": {"provenance": "INTERVIEW_CONFIRMED", "value": 0.00005}' in (
            node_line(node)
        )

    @given(st.lists(st.tuples(keys, properties), max_size=4), texts)
    def test_plan_bytes(self, nodes, scientist):
        nodes = {key: props for key, props in nodes}  # a plan holds each key once
        plan = MergePlan(
            provenance=PlanProvenance("0" * 64, scientist, "DESIGN_EXPERT", "ELISA", "skg-ontology-1"),
            nodes=tuple(Node(key, props) for key, props in sorted(nodes.items())),
            edges=tuple(Edge("CASCADES_TO", key, key) for key in sorted(nodes)[:1]),
            pending_edges=(),
        )
        legacy = {
            "kind": "merge_plan",
            "version": 1,
            "provenance": {"doc_sha256": "0" * 64, "registry_version": "skg-ontology-1",
                           "session_mode": "DESIGN_EXPERT", "source_scientist": scientist,
                           "subgraph": "ELISA"},
            "statements": [
                {"kind": "node", **legacy_key(node.key), "properties": legacy_props(node.properties)}
                for node in plan.nodes
            ] + [
                {"kind": "edge", "edge_type": e.edge_type, "src": e.src.to_text(), "dst": e.dst.to_text()}
                for e in plan.edges
            ],
            "pending_edges": [],
        }
        assert plan_to_bytes(plan) == (render_value(legacy) + "\n").encode("utf-8")


def test_python_string_escaper_keeps_the_pinned_bytes(monkeypatch, fixtures_dir, registry, all_docs):
    # an interpreter without the json C accelerator escapes strings with the
    # json module's Python escaper; the store and plan digests must not move
    spec = importlib.util.spec_from_file_location(
        "check_fixtures", ROOT / "scripts" / "check_fixtures.py"
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    escaped = []

    def escaper(text):
        escaped.append(text)
        return json.encoder.py_encode_basestring(text)

    for module in (canonical, graph_core, annotator, queries, seo):
        monkeypatch.setattr(module, "render_text", escaper)
    store = load_store(fixtures_dir / "stores" / "federated.skg.jsonl", registry)
    assert hashlib.sha256(canonical_serialize(store)).hexdigest() == (
        "06e844a926fb227a8638fd80ff223d0a83f83c0539aeb234382fe3995a14faae"
    )
    for (_, subgraph), digest in checker.PLAN_DIGESTS.items():
        plan = plan_to_bytes(compile_seo(all_docs[subgraph], subgraph))
        assert hashlib.sha256(plan).hexdigest() == digest, subgraph
    assert escaped
