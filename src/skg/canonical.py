"""Canonical JSON rendering.

Store files, merge plans, and content hashes all depend on byte-stable
output. Rules: object keys sorted, no insignificant whitespace beyond
single spaces after ``:`` and ``,``, UTF-8 passthrough for non-ASCII,
and numbers in fixed-point with at most six fractional digits, trailing
zeros trimmed, never in exponent notation.

``render_value`` renders any value by these rules. Store lines, plan
bytes and documents are rendered straight from their records' fields,
members in sorted order: each text through ``render_text``, the json
module's string escaper, and every other scalar through
``render_value``. Query rows render the same way, cell by cell
(``queries.rows_to_json``), as ``skg stats`` and ``skg query cascades
--format json`` render their whole results.

Reading goes the other way through ``strict_loads``: one call of one
json module decoder, built once, decodes a store line, plan or
document; NaN and Infinity are refused at their position, as is an
escape naming half a surrogate pair without the other half, which no
UTF-8 text can hold, and so are a byte-order mark, over-long integers
and nesting too deep to decode.
"""

from __future__ import annotations

import math
import re
from json import JSONDecodeError, JSONDecoder
from json.encoder import encode_basestring
from typing import Any

# the json module's own string escaper: quotes, backslash and C0 controls
# escaped (the short forms where JSON has them), everything else passed through
render_text = encode_basestring


def render_number(value: int | float) -> str:
    """Render a number in canonical fixed-point form.

    Raises:
        ValueError: the number is infinite, NaN, or an int too large for a float.
    """
    if isinstance(value, bool):  # bool is an int subclass; reject here
        raise TypeError("boolean is not a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError("integer beyond the float range") from None
    if not finite:
        raise ValueError(f"non-finite number: {value!r}")
    s = f"{value:.6f}"
    s = s.rstrip("0").rstrip(".")
    if s in ("", "-", "-0"):
        s = "0"
    return s


def normalize_number(value: int | float) -> float:
    """Quantize a number to its canonical decimal so equal renderings imply equal floats."""
    return float(render_number(value))


class _NonFiniteLiteral(ValueError):
    pass


def reject_non_finite(literal: str):
    """JSON decoder parse_constant hook: NaN and Infinity have no canonical rendering."""
    raise _NonFiniteLiteral(f"non-finite number literal: {literal}")


# built once: json.loads builds a new decoder on every call given a hook
_STRICT_DECODER = JSONDecoder(parse_constant=reject_non_finite)
# one escape in a JSON string: a valid surrogate pair, a lone half (group 1),
# or any other; backslashes occur only in strings, so a scan from the start
# of decoded text meets every escape at its backslash
_ESCAPE = (
    r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)"
)


def strict_loads(text: str) -> Any:
    """``json.loads(text, parse_constant=reject_non_finite)``, with located refusals.

    Raises:
        json.JSONDecodeError: malformed JSON, a leading byte-order mark,
            a non-finite literal, or an escape of a lone surrogate, each
            at its position.
        ValueError: an over-long integer, or arrays and objects nested
            deeper than the interpreter's recursion limit.
    """
    if text.startswith("\ufeff"):
        raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        value = _STRICT_DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None
    except _NonFiniteLiteral as exc:
        # everything before the literal decoded, so it is the first constant
        # outside a string; the pattern matches a whole string or a constant
        strings_or_constants = re.finditer(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)', text)
        pos = next(m.start() for m in strings_or_constants if m.group(1))
        raise JSONDecodeError(str(exc), text, pos) from None
    if "\\" in text:  # rare in canonical text; a one-character test is the cheapest
        lone = next((m for m in re.finditer(_ESCAPE, text) if m.group(1)), None)
        if lone is not None:
            raise JSONDecodeError(f"lone surrogate escape \\{lone.group(1)}", text, lone.start())
    return value


def render_value(value: Any) -> str:
    if isinstance(value, str):  # the most common value, so tested first
        return render_text(value)
    if isinstance(value, bool):  # before numbers: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return render_number(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"non-text object key: {key!r}")
            parts.append(f"{render_text(key)}: {render_value(value[key])}")
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"unserializable value: {type(value).__name__}")


def render_record(record: dict) -> str:
    """``render_value(record)``: one canonical JSON object, no trailing newline.

    Only ``skgbench/run.py`` still calls it; once that calls
    ``render_value``, this goes.
    """
    return render_value(record)
