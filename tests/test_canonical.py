import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skg.canonical import (
    normalize_number,
    reject_non_finite,
    render_number,
    render_record,
    render_text,
    render_value,
    strict_loads,
)


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

    def test_keys_sorted(self):
        assert render_record({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_deterministic_across_insertion_order(self):
        a = {"x": 1, "y": [True, None]}
        b = {"y": [True, None], "x": 1}
        assert render_record(a) == render_record(b)

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
        ['{"a": [1, 2.5, "x"]}', "\ufeff{}", '{"a": NaN}', "-Infinity", "[1,", "1" * 5000, ""],
        ids=["object", "byte-order-mark", "nan", "infinity", "truncated", "long-integer", "empty"],
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
