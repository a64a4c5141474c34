"""Structured extraction documents: parsing, validation, confidence scoring.

A structured extraction object (SEO) is the typed output of one
elicitation session. Parsing is strict (unknown fields are rejected,
value kinds are enforced, and a required text or a text-list item must
be non-empty) but deliberately does not judge content; ``validate_seo``
does that and reports issues instead of raising, so a whole document's
problems surface at once.

The record classes below, each a ``NamedTuple``, are the one description
of the document format: parsing, serialization and the JSON Schema
(``json_schema``, checked in as ``fixtures/seo.schema.json``) all walk a
field table derived from their type hints, so the JSON shape, the record
shape and the schema cannot drift. The schema states the parse contract
and nothing more; content rules live in ``validate_seo`` alone.

One walk, ``walk_claims``, gives every claim its node id: the id it
states, one generated from its label, the target subgraph and its
ordinal, or an automation asset's ``named_id``. These ids and cascade
stub ids share the document's one id namespace: ``validate_seo`` refuses
an id held twice, unless by two stubs. It matches names through the
alias table ``compile_seo`` resolves cascade targets through, so both
read a target as the same claim.

The session mode gates which layers may carry content. OPERATIONAL
sessions capture protocol knowledge only: their decision-model layer is
pinned to the ``operational_only`` scope stub with every knowledge
field null, and any non-null decision content is an epistemic
contamination guard violation, never silently dropped.

Every claim carries the scalar confidence the expert gave it. For a
``linguistic_approximation`` claim with a source phrase, validation
checks that confidence against the band of the phrase's longest hedge
term in the packaged hedge lexicon (a data file, so it can be retuned
without code changes). Three-point SHELF frequency estimates ride
alongside and never replace the scalar.
"""

# hints stay evaluated (no ``from __future__ import annotations``):
# NamedTuple would compile each string hint, and _fields evaluate it again
import json
from enum import Enum
from functools import lru_cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, Iterator, Mapping, NamedTuple, Union, get_args, get_origin, get_type_hints
import datetime
import re

from .canonical import normalize_number, render_text, render_value, strict_loads
from .errors import RangeError, SeoParseError, UnknownField, ValueKindMismatch
from .graph_core import KEY_PART_RE
from .metrics import default_aliases, label_slug, normalize_label
from .ontology import (
    COMPARATORS,
    CONFIDENCE_CEILING,
    CONFIDENCE_FLOOR,
    CONFIDENCE_METHODS,
    builtin_registry,
    claim_issues,
)
from .validation import Issue, ValidationReport

OPERATIONAL_SCOPE = "operational_only"
FULL_SCOPE = "full"


class SessionMode(str, Enum):
    OPERATIONAL = "OPERATIONAL"
    DESIGN_EXPERT = "DESIGN_EXPERT"
    DIRECTOR = "DIRECTOR"


# -- document model ----------------------------------------------------
#
# Each record class is a ``NamedTuple``, so a record equals the plain
# tuple of its fields. Each field's JSON kind comes from its type hint.
# A field with no default must be present; ``X | None`` or a default
# admits null, which reads as the default. An ``Annotated`` hint's
# metadata says only what a type cannot: "choices" (an enumerated text),
# "json" (a JSON name that differs from the attribute), "required"
# (present even though it has a default) and "iso_date".


def _choice(values) -> dict:
    return {"choices": tuple(values)}


class FailureModeClaim(NamedTuple):
    name: str
    id: str | None = None
    description: str | None = None
    confidence: float | None = None
    confidence_method: Annotated[str | None, _choice(CONFIDENCE_METHODS)] = None
    source_scientist: str | None = None
    source_phrase: str | None = None
    silent_failure_risk: bool | None = None
    is_critical_path: bool | None = None
    frequency_min: float | None = None
    frequency_best: float | None = None
    frequency_max: float | None = None
    cascades_to: tuple[str, ...] = ()
    masked_by_assets: tuple[str, ...] = ()
    detected_by: tuple[str, ...] = ()
    flagged_for_review: bool | None = None
    pre_extracted: bool = False


class StepRecord(NamedTuple):
    name: str
    step_index: int | float
    id: str | None = None
    description: str | None = None
    is_critical_path: bool | None = None
    pre_extracted: bool = False
    required_use_cases: tuple[str, ...] = ()
    failure_modes: tuple[FailureModeClaim, ...] = ()


class ProtocolLayer(NamedTuple):
    workflow_id: str
    workflow_name: str
    subgraph: str
    pre_extracted: bool = False
    steps: Annotated[tuple[StepRecord, ...], {"required": True}] = ()


class DecisionPointClaim(NamedTuple):
    step_id: str
    condition_type: str | None = None
    threshold_value: float | None = None
    comparator: Annotated[str | None, _choice(COMPARATORS)] = None
    units: str | None = None
    pass_action: str | None = None
    fail_action: str | None = None
    escalation_action: str | None = None
    confidence: float | None = None
    confidence_method: Annotated[str | None, _choice(CONFIDENCE_METHODS)] = None
    source_scientist: str | None = None
    source_phrase: str | None = None
    id: str | None = None
    name: str | None = None


class DecisionModelLayer(NamedTuple):
    elicitation_scope: Annotated[
        str, {"json": "_elicitation_scope", "choices": (FULL_SCOPE, OPERATIONAL_SCOPE)}
    ]
    decision_points: tuple[DecisionPointClaim, ...] | None = None
    design_rationale: str | None = None


OPERATIONAL_STUB = DecisionModelLayer(
    elicitation_scope=OPERATIONAL_SCOPE, decision_points=None, design_rationale=None
)


class WorkflowRef(NamedTuple):
    """A workflow, possibly in another subgraph, that an input is sourced from."""

    subgraph: str
    workflow_id: str


class EvidentiaryInputClaim(NamedTuple):
    name: str
    id: str | None = None
    required_output: str | None = None
    quality_threshold: str | None = None
    decision_consequence: str | None = None
    sourced_from: WorkflowRef | None = None


class ProgramMilestoneClaim(NamedTuple):
    name: str
    id: str | None = None
    evidentiary_inputs: tuple[EvidentiaryInputClaim, ...] = ()


class StrategicLayer(NamedTuple):
    cross_domain_knowledge: tuple[str, ...] = ()
    capability_gaps: tuple[str, ...] = ()
    future_design_questions: tuple[str, ...] = ()
    program_milestones: tuple[ProgramMilestoneClaim, ...] | None = None


class MethodAlternativeClaim(NamedTuple):
    step_id: str
    name: str
    description: str | None = None
    tradeoff: str | None = None


class AutomationContextClaim(NamedTuple):
    name: Annotated[str, {"json": "asset_name"}]
    use_case_names: tuple[str, ...] = ()
    log_scope: str | None = None


class TwinMetadata(NamedTuple):
    source_scientist: str | None = None
    session_mode: Annotated[str | None, _choice(m.value for m in SessionMode)] = None
    calibration_status: str | None = None
    session_date: Annotated[str | None, {"iso_date": True}] = None
    elicitation_agent: str | None = None


class SeoDocument(NamedTuple):
    session_mode: SessionMode
    protocol: ProtocolLayer | None
    decision_model: DecisionModelLayer | None
    strategic: StrategicLayer | None
    method_alternatives: tuple[MethodAlternativeClaim, ...] | None
    automation_context: tuple[AutomationContextClaim, ...] | None
    twin_metadata: TwinMetadata | None


# -- field table -------------------------------------------------------


class _Field(NamedTuple):
    name: str  # attribute name
    json: str  # JSON member name
    kind: str  # text | number | boolean | text list | object | array
    required: bool  # absent is an error
    nullable: bool  # null reads as ``default``
    default: object
    cls: type | None  # record class for object/array, Enum class for text
    choices: tuple[str, ...]
    iso_date: bool
    key_part: bool  # text that becomes a node key's subgraph or id


def _kind(types: tuple) -> tuple[str, type | None]:
    """JSON kind, and record or Enum class, of a field's non-null types."""
    if set(types) <= {int, float}:
        return "number", None
    (tp,) = types
    if tp is str:
        return "text", None
    if tp is bool:
        return "boolean", None
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        return ("text list", None) if item is str else ("array", item)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return "text", tp
    if isinstance(tp, type) and hasattr(tp, "_fields"):  # a record class
        return "object", tp
    raise TypeError(f"no JSON kind for {tp!r}")


# fields, wherever they occur, that name a node key's subgraph or id
_KEY_PART_FIELDS = frozenset({"id", "step_id", "workflow_id", "subgraph"})


@lru_cache(maxsize=None)
def _fields(cls: type) -> dict[str, _Field]:
    """JSON name -> field description for one record class, in field order."""
    hints = get_type_hints(cls, include_extras=True)
    defaults = cls._field_defaults
    table = {}
    for attr in cls._fields:
        tp, meta = hints[attr], {}
        if get_origin(tp) is Annotated:
            tp, meta = get_args(tp)
        members = get_args(tp) if get_origin(tp) in (Union, UnionType) else (tp,)
        kind, sub = _kind(tuple(m for m in members if m is not NoneType))
        has_default = attr in defaults
        choices = meta.get("choices", ())
        if sub is not None and issubclass(sub, Enum):
            choices = tuple(m.value for m in sub)
        name = meta.get("json", attr)
        table[name] = _Field(
            name=attr,
            json=name,
            kind=kind,
            required=not has_default or meta.get("required", False),
            nullable=has_default or NoneType in members,
            default=defaults.get(attr),
            cls=sub,
            choices=choices,
            iso_date=meta.get("iso_date", False),
            key_part=attr in _KEY_PART_FIELDS,
        )
    return table


# -- strict parsing ----------------------------------------------------


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _read_record(cls: type, obj: object, path: str):
    if not isinstance(obj, dict):
        raise ValueKindMismatch(path or "$", "object", type(obj).__name__)
    table = _fields(cls)
    for key in obj:  # unknown members first, then each field in order
        if key not in table:
            raise UnknownField(_join(path, key))
    return cls(*[_read_field(f, obj, path) for f in table.values()])


# the date pattern json_schema states: from Python 3.11 on, fromisoformat
# alone also takes forms such as "20260714" and "2026-W29-2"; no pattern
# rejects a date the calendar lacks, such as "2026-02-30", but the parser does
_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _is_iso_date(text: str) -> bool:
    if not _ISO_DATE_RE.fullmatch(text):
        return False
    try:
        datetime.date.fromisoformat(text)
    except ValueError:
        return False
    return True


def _read_field(f: _Field, obj: dict, path: str):
    where = _join(path, f.json)
    if f.json not in obj:
        if f.required:  # spelled out, as null when the session did not elicit it
            raise ValueKindMismatch(where, f"{f.kind} or null" if f.nullable else f.kind, "absent")
        return f.default
    value = obj[f.json]
    if value is None:
        if not f.nullable:
            raise ValueKindMismatch(where, f.kind, "null")
        return f.default
    kind = f.kind
    if kind == "object":
        return _read_record(f.cls, value, where)
    if kind == "array":
        if not isinstance(value, list):
            raise ValueKindMismatch(where, kind, type(value).__name__)
        return tuple(_read_record(f.cls, item, f"{where}[{i}]") for i, item in enumerate(value))
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueKindMismatch(where, kind, type(value).__name__)
        try:
            return normalize_number(value)
        except ValueError:  # 1e999 decodes as inf, and a long integer overflows a float
            got = repr(value) if isinstance(value, float) else "integer beyond the float range"
            raise ValueKindMismatch(where, "finite number", got) from None
    if kind == "boolean":
        if not isinstance(value, bool):
            raise ValueKindMismatch(where, kind, type(value).__name__)
        return value
    if kind == "text list":
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueKindMismatch(where, kind, type(value).__name__)
        if "" in value:  # an empty name would link to nothing, or to a new stub
            raise ValueKindMismatch(f"{where}[{value.index('')}]", "non-empty text", "''")
        return tuple(value)
    if not isinstance(value, str):
        raise ValueKindMismatch(where, kind, type(value).__name__)
    if f.choices and value not in f.choices:
        raise ValueKindMismatch(where, f"one of {sorted(f.choices)}", repr(value))
    if f.iso_date and not _is_iso_date(value):
        raise ValueKindMismatch(where, "ISO-8601 date", repr(value))
    if f.key_part and not KEY_PART_RE.fullmatch(value):
        raise ValueKindMismatch(where, f"text matching {KEY_PART_RE.pattern}", repr(value))
    if f.required and not value:
        raise ValueKindMismatch(where, "non-empty text", "''")
    return value if f.cls is None else f.cls(value)


def parse_seo(data: bytes | str) -> SeoDocument:
    """Parse a structured extraction document, strictly.

    Raises:
        SeoParseError: not UTF-8, not JSON, or empty input (with line
            and column when the decoder reports them).
        UnknownField: any field name outside the schema.
        ValueKindMismatch: wrong value kind, bad enum value, an empty
            required text or text-list item, a root that is not an
            object (at ``$``), or a required field that is absent
            (``expected <kind> or null`` when it may be null).
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SeoParseError(f"not UTF-8: {exc}") from exc
    else:
        text = data
    if not text.strip():
        raise SeoParseError("empty document")
    try:
        raw = strict_loads(text)
    except json.JSONDecodeError as exc:  # the message names the line and column
        raise SeoParseError(str(exc), exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an over-long integer, or nesting too deep
        raise SeoParseError(str(exc)) from None
    return document_from_json(raw)


def document_from_json(raw: object) -> SeoDocument:
    """A document from its JSON value, decoded already; ``parse_seo`` after the decode.

    The field table checks every member, the document's layers as any
    record's; this adds only the OPERATIONAL scope stub.

    Raises:
        UnknownField, ValueKindMismatch: as ``parse_seo``.
    """
    doc = _read_record(SeoDocument, raw, "")
    if doc.session_mode is SessionMode.OPERATIONAL and doc.decision_model is None:
        # bookkeeping stub, not elicited knowledge: the scope marker must
        # exist on every OPERATIONAL document so downstream consumers can
        # tell "not asked" from "absent by accident"
        doc = doc._replace(decision_model=OPERATIONAL_STUB)
    return doc


# -- JSON Schema -------------------------------------------------------

_JSON_TYPES = {
    "text": "string",
    "number": "number",
    "boolean": "boolean",
    "text list": "array",
    "array": "array",
}


def _pattern(regex: re.Pattern) -> str:
    # anchored; (?!\n) because Python's $ also matches before a final newline
    return f"^{regex.pattern}(?!\\n)$"


def _field_schema(f: _Field) -> dict:
    """The JSON Schema of one field's value, as ``_read_field`` reads it."""
    if f.kind == "object":
        ref = {"$ref": f"#/$defs/{f.cls.__name__}"}
        return {"anyOf": [ref, {"type": "null"}]} if f.nullable else ref
    if f.choices:
        return {"enum": [*f.choices, None] if f.nullable else list(f.choices)}
    json_type = _JSON_TYPES[f.kind]
    node: dict = {"type": [json_type, "null"] if f.nullable else json_type}
    if f.kind == "array":
        node["items"] = {"$ref": f"#/$defs/{f.cls.__name__}"}
    elif f.kind == "text list":
        node["items"] = {"type": "string", "minLength": 1}
    elif f.iso_date:
        node["pattern"] = _pattern(_ISO_DATE_RE)
    elif f.key_part:
        node["pattern"] = _pattern(KEY_PART_RE)
    elif f.kind == "text" and f.required:
        node["minLength"] = 1
    return node


def json_schema() -> str:
    """The JSON Schema text of the documents ``parse_seo`` accepts.

    One ``$defs`` entry per record class, read from ``_fields``. A
    document conforms exactly when it parses, but for two things only
    the parser rejects: a date the calendar lacks (``2026-02-30``), and
    a number beyond the double range (``1e999``), which JSON Schema
    cannot tell from any other number. Content rules (confidence and
    frequency ranges, the members a claim must state, step order) are
    ``validate_seo``'s alone.
    """
    defs: dict[str, dict] = {}
    todo = [SeoDocument]
    while todo:
        cls = todo.pop(0)
        if cls.__name__ in defs:
            continue
        table = _fields(cls)
        defs[cls.__name__] = {
            "type": "object",
            "additionalProperties": False,
            "required": [name for name, f in table.items() if f.required],
            "properties": {name: _field_schema(f) for name, f in table.items()},
        }
        todo += [f.cls for f in table.values() if f.kind in ("object", "array")]
    schema = {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$comment": "generated from skg.seo's record classes by scripts/build_fixtures.py",
        "title": "Structured extraction document",
        "$ref": "#/$defs/SeoDocument",
        "$defs": defs,
    }
    return json.dumps(schema, indent=2) + "\n"


# -- serialization -----------------------------------------------------


def to_jsonable(record) -> dict:
    """Plain-data form of a document, or of any record in it.

    Every field is explicit, null included; ``render_value`` renders it
    as ``serialize_seo`` renders the record.
    """
    out = {}
    for f, value in zip(_fields(type(record)).values(), record):
        if value is None:
            pass
        elif f.kind == "object":
            value = to_jsonable(value)
        elif f.kind == "array":
            value = [to_jsonable(item) for item in value]
        elif f.kind == "text list":
            value = list(value)
        elif isinstance(value, Enum):
            value = value.value
        out[f.json] = value
    return out


@lru_cache(maxsize=None)
def _layout(cls: type) -> tuple[tuple[str, int, str], ...]:
    """One (rendered member name, field index, kind) per field of ``cls``, in
    sorted JSON name order; an Enum field's kind is "enum"."""
    table = _fields(cls)
    index = {name: i for i, name in enumerate(table)}
    return tuple(
        (f"{render_text(name)}: ", index[name], "enum" if f.kind == "text" and f.cls else f.kind)
        for name, f in sorted(table.items())
    )


def _record_json(record) -> str:
    """``render_value(to_jsonable(record))``, rendered from ``record``'s layout."""
    parts = []
    for member, i, kind in _layout(record.__class__):
        value = record[i]
        if value is None:
            parts.append(member + "null")
        elif kind == "object":
            parts.append(member + _record_json(value))
        elif kind == "array":
            parts.append(member + "[" + ", ".join(map(_record_json, value)) + "]")
        elif kind == "enum":
            parts.append(member + render_text(value.value))
        else:  # a text list renders as an array
            parts.append(member + render_value(value))
    return "{" + ", ".join(parts) + "}"


def serialize_seo(doc: SeoDocument) -> bytes:
    """Canonical bytes for a document; parse(serialize(doc)) == doc.

    Each record renders from its class's layout, built once: members in
    sorted order, objects and arrays of records recursively, and every
    other value through ``canonical.render_value``.
    """
    return (_record_json(doc) + "\n").encode("utf-8")


# -- validation --------------------------------------------------------


def _validate_claim(out: list[Issue], path: str, label: str, claim) -> None:
    """Check a claim that compiles to a ``label`` node: stated fields, claim rules, hedge band."""

    def get(name: str):
        return getattr(claim, name, None)

    for name, kind in builtin_registry().node_types[label].required:
        # compile records an unstated boolean as false; an empty text states nothing
        if kind != "boolean" and get(name) in (None, ""):
            detail = f"{name} is required on every {label}"
            out.append(Issue("MissingMandatoryField", path, detail))
    for code, detail in claim_issues(label, get):
        out.append(Issue(code, path, detail))
    confidence, phrase = get("confidence"), get("source_phrase")
    if get("confidence_method") == "linguistic_approximation" and phrase:
        band = match_hedge(phrase)
        if band is None:
            detail = f"source_phrase {phrase!r} has no hedge term"
            out.append(Issue("ConfidenceOutsideHedgeBand", path, detail))
        elif confidence is not None and not band.low <= confidence <= band.high:
            detail = f"confidence {confidence} outside {band.name} [{band.low}, {band.high}]"
            out.append(Issue("ConfidenceOutsideHedgeBand", path, detail))


def _stub_violations(dm: DecisionModelLayer) -> list[str]:
    problems = []
    if dm.elicitation_scope != OPERATIONAL_SCOPE:
        problems.append(f"_elicitation_scope is {dm.elicitation_scope!r}")
    if dm.decision_points is not None:
        problems.append(f"decision_points holds {len(dm.decision_points)} record(s)")
    if dm.design_rationale is not None:
        problems.append("design_rationale is non-null")
    return problems


_OPERATIONAL_ONLY = "OPERATIONAL sessions cannot populate it"
_DESIGN_ONLY = "reserved for DESIGN_EXPERT sessions"

# session mode -> layer it must leave null -> issue detail; the
# OPERATIONAL decision-model stub has its own contamination guard
_MODE_GATES = {
    SessionMode.OPERATIONAL: {
        "strategic": _OPERATIONAL_ONLY,
        "method_alternatives": _OPERATIONAL_ONLY,
        "automation_context": _OPERATIONAL_ONLY,
    },
    SessionMode.DESIGN_EXPERT: {"strategic": "reserved for DIRECTOR sessions"},
    SessionMode.DIRECTOR: {
        "protocol": "DIRECTOR sessions carry no protocol layer",
        "method_alternatives": _DESIGN_ONLY,
        "automation_context": _DESIGN_ONLY,
    },
}


# -- claim keys --------------------------------------------------------


def walk_claims(doc: SeoDocument, subgraph: str) -> Iterator[tuple[str, str, tuple, str]]:
    """(path, node label, record, id) of each claim of a document, in compile order.

    The order is steps by ``step_index``, each followed by its failure
    modes; then decision points, method alternatives, milestones, each
    followed by its evidentiary inputs, and assets. An asset's id is its
    ``named_id``; any other claim that states no id gets
    ``<prefix>-<subgraph>-<ordinal>``, its ordinal counted per label in
    this order (a step's is its ``step_index`` in a valid document). This
    is the only rule for claim ids: ``validate_seo`` requires them
    distinct, and ``compile_seo`` keys each claim's node by its id.
    """
    ordinals: dict[str, int] = {}

    def claim(path: str, label: str, prefix: str, record) -> tuple[str, str, tuple, str]:
        ordinals[prefix] = n = ordinals.get(prefix, 0) + 1
        return path, label, record, getattr(record, "id", None) or f"{prefix}-{subgraph}-{n:03d}"

    if doc.protocol is not None:
        steps = sorted(enumerate(doc.protocol.steps), key=lambda pair: pair[1].step_index)
        for i, step in steps:
            path = f"protocol.steps[{i}]"
            yield claim(path, "WorkflowStep", "ST", step)
            for j, fm in enumerate(step.failure_modes):
                yield claim(f"{path}.failure_modes[{j}]", "FailureMode", "FM", fm)
    if doc.decision_model is not None:
        for i, dp in enumerate(doc.decision_model.decision_points or ()):
            yield claim(f"decision_model.decision_points[{i}]", "DecisionPoint", "DP", dp)
    for i, ma in enumerate(doc.method_alternatives or ()):
        yield claim(f"method_alternatives[{i}]", "MethodAlternative", "MA", ma)
    if doc.strategic is not None:
        for i, pm in enumerate(doc.strategic.program_milestones or ()):
            path = f"strategic.program_milestones[{i}]"
            yield claim(path, "ProgramMilestone", "PM", pm)
            for j, ei in enumerate(pm.evidentiary_inputs):
                yield claim(f"{path}.evidentiary_inputs[{j}]", "EvidentiaryInput", "EI", ei)
    for i, asset in enumerate(doc.automation_context or ()):
        path = f"automation_context[{i}]"
        yield path, "AutomationAsset", asset, named_id("AutomationAsset", asset.name)


def named_id(label: str, name: str) -> str:
    """The id of an asset, use case or error signature: its prefix and ``label_slug(name)``."""
    prefix = {"AutomationAsset": "AA", "UseCase": "UC", "ErrorSignature": "ES"}[label]
    return f"{prefix}-{label_slug(name)}"


def cascade_stub_id(target: str, aliases: Mapping[str, str]) -> str:
    """The id of the review stub for a cascade target that names no failure mode.

    It is the target's name under ``aliases``, so every spelling of one
    undescribed failure mode cascades to one stub.
    """
    return "FM-" + normalize_label(target, aliases).replace(" ", "-")


def validate_seo(
    doc: SeoDocument, subgraph: str | None = None, *, aliases: Mapping[str, str] | None = None
) -> ValidationReport:
    """Content validation: mode gates, contamination guard, claim ids, claims.

    The ids checked are those ``walk_claims`` gives under ``subgraph``,
    so the ids compile generates share the document's one id namespace
    with the ids it states; a ``DuplicateId`` names the later claim, as
    for two automation assets whose names slug alike. So does one for a
    failure-mode name another already has, and one for a cascade
    target that names no failure mode when its stub id,
    ``cascade_stub_id``, is a claim's. Names and targets are compared
    under ``aliases`` (the packaged table when omitted), the table
    ``compile_seo`` resolves targets through and passes on here.
    ``subgraph`` defaults to the protocol layer's; without one,
    generated ids are placeholders no stated id equals, and
    ``compile_seo`` checks again under its target subgraph.

    Each claim must state every non-boolean property the registry
    requires of its label (an empty text states nothing), and obeys the
    claim rules ``validate_graph`` also applies (``ontology.claim_issues``).
    A linguistic claim's confidence must also lie in its phrase's hedge
    band. A claim's issues come in that order, claims in walk order.

    Issue codes: MetadataMissing, MetadataInconsistent,
    ContaminationGuardViolation, ModeGateViolation, StepIndexViolation,
    DuplicateId, MissingMandatoryField, ConfidenceOutOfRange,
    ShelfEligibilityViolation, FrequencyOutOfRange, ShelfOrderViolation,
    ConfidenceOutsideHedgeBand.
    """
    out: list[Issue] = []
    mode = doc.session_mode

    if doc.twin_metadata is None:
        out.append(Issue("MetadataMissing", "twin_metadata", "twin_metadata layer is required"))
    else:
        meta = doc.twin_metadata
        if not meta.source_scientist:
            subject = "twin_metadata.source_scientist"
            out.append(Issue("MetadataMissing", subject, "must be non-empty"))
        if meta.session_mode is None:
            out.append(Issue("MetadataMissing", "twin_metadata.session_mode", "must be present"))
        elif meta.session_mode != mode.value:
            detail = f"{meta.session_mode} disagrees with document mode {mode.value}"
            out.append(Issue("MetadataInconsistent", "twin_metadata.session_mode", detail))

    if mode is SessionMode.OPERATIONAL and doc.decision_model is not None:
        problems = _stub_violations(doc.decision_model)
        if problems:
            detail = "OPERATIONAL sessions must not carry decision-model content: "
            detail += "; ".join(problems)
            out.append(Issue("ContaminationGuardViolation", "decision_model", detail))
    for layer, detail in _MODE_GATES[mode].items():
        if getattr(doc, layer) is not None:
            out.append(Issue("ModeGateViolation", layer, detail))

    if doc.protocol is not None:
        indexes = [step.step_index for step in doc.protocol.steps]
        if sorted(indexes) != list(range(1, len(indexes) + 1)):
            detail = f"step_index must be unique and contiguous from 1, got {indexes}"
            out.append(Issue("StepIndexViolation", "protocol.steps", detail))
    if subgraph is None:
        # "*" is no key part, so no stated id equals an id generated under it
        subgraph = doc.protocol.subgraph if doc.protocol is not None else "*"

    aliases = default_aliases() if aliases is None else aliases
    claims = list(walk_claims(doc, subgraph))
    ids: dict[str, str] = {}  # claim id -> path of the first claim that has it
    fm_names: dict[str, str] = {}  # normalized failure mode name -> path
    for path, label, record, claim_id in claims:
        earlier = ids.setdefault(claim_id, path)
        if earlier != path:
            out.append(Issue("DuplicateId", path, f"id {claim_id} already used at {earlier}"))
        if label == "FailureMode":
            earlier = fm_names.setdefault(normalize_label(record.name, aliases), path)
            if earlier != path:
                detail = f"failure mode name {record.name!r} collides with {earlier}"
                out.append(Issue("DuplicateId", path, f"{detail} after normalization"))
        _validate_claim(out, path, label, record)
    for path, label, record, _ in claims:
        for k, target in enumerate(record.cascades_to if label == "FailureMode" else ()):
            stub = cascade_stub_id(target, aliases)
            if normalize_label(target, aliases) not in fm_names and stub in ids:
                detail = f"target {target!r} names no failure mode; stub id {stub} is used"
                detail += f" at {ids[stub]}"
                out.append(Issue("DuplicateId", f"{path}.cascades_to[{k}]", detail))
    return ValidationReport(out)


# -- linguistic confidence --------------------------------------------


class HedgeBand(NamedTuple):
    name: str
    low: float
    high: float
    terms: tuple[str, ...]


def load_lexicon(path: Path | str) -> tuple[HedgeBand, ...]:
    """The bands of a hedge lexicon file, in file order.

    Raises:
        RangeError: a band reaches outside the confidence range.
    """
    raw = strict_loads(Path(path).read_text(encoding="utf-8"))
    bands = []
    for band in raw["bands"]:
        low, high = float(band["low"]), float(band["high"])
        if not (CONFIDENCE_FLOOR <= low <= high <= CONFIDENCE_CEILING):
            raise RangeError(f"band {band['name']}: [{low}, {high}] outside confidence range")
        bands.append(
            HedgeBand(band["name"], low, high, tuple(t.casefold() for t in band["terms"]))
        )
    return tuple(bands)


@lru_cache(maxsize=1)
def default_lexicon() -> tuple[HedgeBand, ...]:
    # read beside the module: importlib.resources costs a cold process its
    # zipfile and tempfile imports, and inspect from Python 3.12 on
    return load_lexicon(Path(__file__).with_name("data") / "hedge_lexicon.json")


@lru_cache(maxsize=1)
def _matchers() -> tuple[tuple[str, str, HedgeBand], ...]:
    """(term, word-boundary regex, band), longest term first, then band order."""
    pairs = [(term, band) for band in default_lexicon() for term in band.terms]
    pairs.sort(key=lambda pair: -len(pair[0]))  # stable: ties keep band order
    return tuple(
        (term, rf"(?<![0-9a-z]){re.escape(term)}(?![0-9a-z])", band) for term, band in pairs
    )


def match_hedge(phrase: str) -> HedgeBand | None:
    """The band of the longest hedge term in a phrase, or None.

    Matching is case-insensitive on word boundaries; lexicon band order
    breaks ties between terms of equal length.
    """
    haystack = phrase.casefold()
    for term, pattern, band in _matchers():
        # the substring test skips the regex (compiled once, in re's cache) for most terms
        if term in haystack and re.search(pattern, haystack):
            return band
    return None
