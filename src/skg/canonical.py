"""Canonical JSON rendering.

Store files, merge plans, and content hashes all depend on byte-stable
output. Rules: object keys sorted, no insignificant whitespace beyond
single spaces after ``:`` and ``,``, UTF-8 passthrough for non-ASCII,
and numbers in fixed-point with at most six fractional digits, trailing
zeros trimmed, never in exponent notation.

``render_record`` renders any record by these rules in Python, or, when
its caller says every number in the record is plain (an int, or a float
that ``plain_number`` returned), through one json module C encoder,
built once and reused for every such record, which gives the same bytes.
Store lines and plan bytes are assembled from their records' fields in
sorted member order, with ``render_text`` for strings and
``render_record`` for property maps; documents are rendered whole by
``render_record``. Numbers are made plain wherever they can be.

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
from json import JSONDecodeError, JSONDecoder, JSONEncoder
from json.encoder import c_make_encoder, encode_basestring
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


def plain_number(value: float) -> int | float | None:
    """``value`` in a form that ``repr`` renders as ``render_number(value)``, or None.

    That is an int for an integral value and the float itself when its
    ``repr`` is already canonical. Other floats, such as ``5e-05``, or a
    value whose ``repr`` holds more than six fractional digits, have none.
    """
    if value.is_integer():
        return int(value)
    return value if repr(value) == render_number(value) else None


# sort_keys and the separators give render_record's layout; ensure_ascii
# off makes strings go through render_text's C escaper
_ENCODER = JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(", ", ": "), check_circular=False
)
# JSONEncoder.encode builds a new C encoder on every call; build one with
# _ENCODER's settings, the way encode does, and keep it
if c_make_encoder is None:  # an interpreter without the json C accelerator
    _encode = _ENCODER.encode
else:
    _iterencode = c_make_encoder(
        None, _ENCODER.default, encode_basestring, None, _ENCODER.key_separator,
        _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
    )

    def _encode(record: dict) -> str:
        return "".join(_iterencode(record, 0))


def render_value(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return render_number(value)
    if isinstance(value, str):
        return render_text(value)
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


def render_record(record: dict, plain: bool = False) -> str:
    """One canonical JSON object, no trailing newline.

    ``plain`` promises that every number in ``record`` is plain: an int
    that a float holds exactly, or a float from ``plain_number``. The
    record then goes through the json module's C encoder, which renders
    any other float by its ``repr``, not canonically.
    """
    return _encode(record) if plain else render_value(record)
