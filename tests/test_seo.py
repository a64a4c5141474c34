import copy
import json
import re

import jsonschema
import pytest

from skg import (
    RangeError,
    SeoParseError,
    SessionMode,
    UnknownField,
    ValueKindMismatch,
    parse_seo,
    serialize_seo,
    validate_seo,
)
from skg.canonical import render_value
from skg.seo import (
    OPERATIONAL_STUB,
    AutomationContextClaim,
    DecisionModelLayer,
    DecisionPointClaim,
    EvidentiaryInputClaim,
    FailureModeClaim,
    MethodAlternativeClaim,
    ProgramMilestoneClaim,
    ProtocolLayer,
    SeoDocument,
    StepRecord,
    StrategicLayer,
    TwinMetadata,
    WorkflowRef,
    _fields,
    default_lexicon,
    json_schema,
    load_lexicon,
    match_hedge,
    to_jsonable,
)

from conftest import FIXTURES


def minimal_json(mode: str = "OPERATIONAL") -> dict:
    return {
        "session_mode": mode,
        "protocol": None,
        "decision_model": None,
        "strategic": None,
        "method_alternatives": None,
        "automation_context": None,
        "twin_metadata": {
            "source_scientist": "T. Example",
            "session_mode": mode,
            "calibration_status": None,
            "session_date": None,
            "elicitation_agent": None,
        },
    }


def minimal_without(member: str) -> dict:
    return {k: v for k, v in minimal_json().items() if k != member}


def parse(obj: dict) -> SeoDocument:
    return parse_seo(json.dumps(obj))


def meta(mode: str = "DESIGN_EXPERT") -> TwinMetadata:
    return TwinMetadata(source_scientist="T. Example", session_mode=mode)


def fm(name: str, **overrides) -> FailureModeClaim:
    fields = dict(
        confidence=0.8,
        confidence_method="linguistic_approximation",
        source_scientist="T. Example",
    )
    fields.update(overrides)
    return FailureModeClaim(name=name, **fields)


def design_doc(steps, decision_points=None, **overrides) -> SeoDocument:
    fields = dict(
        session_mode=SessionMode.DESIGN_EXPERT,
        protocol=ProtocolLayer("WF-T-01", "Test Workflow", "TESTSG", steps=tuple(steps)),
        decision_model=DecisionModelLayer(
            "full",
            None if decision_points is None else tuple(decision_points),
            "rationale",
        ),
        strategic=None,
        method_alternatives=None,
        automation_context=None,
        twin_metadata=meta(),
    )
    fields.update(overrides)
    return SeoDocument(**fields)


class TestStrictParse:
    def test_minimal_document(self):
        doc = parse(minimal_json())
        assert doc.session_mode is SessionMode.OPERATIONAL
        assert doc.protocol is None
        assert doc.strategic is None

    def test_operational_null_decision_model_becomes_scope_stub(self):
        doc = parse(minimal_json())
        assert doc.decision_model == OPERATIONAL_STUB
        assert doc.decision_model.elicitation_scope == "operational_only"

    def test_non_operational_null_decision_model_stays_null(self):
        doc = parse(minimal_json("DESIGN_EXPERT"))
        assert doc.decision_model is None

    def test_missing_top_level_key(self):
        obj = minimal_json()
        del obj["strategic"]
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert err.value.path == "strategic"
        assert err.value.got == "absent"

    def test_unknown_top_level_key(self):
        obj = minimal_json()
        obj["bogus"] = 1
        with pytest.raises(UnknownField) as err:
            parse(obj)
        assert err.value.path == "bogus"

    @pytest.mark.parametrize(
        ("value", "message"),
        [
            (minimal_without("session_mode"), "session_mode: expected text, got absent"),
            (
                minimal_without("method_alternatives"),
                "method_alternatives: expected array or null, got absent",
            ),
            (minimal_without("protocol"), "protocol: expected object or null, got absent"),
            ([minimal_json()], "$: expected object, got list"),
            ({"bogus": 1} | minimal_without("protocol"), "unknown field: bogus"),
        ],
        ids=["required-text", "nullable-array", "nullable-object", "root-list", "unknown-first"],
    )
    def test_top_level_message_names_the_member_kind(self, value, message):
        # layers are read as any record's members; unknown members are reported first
        with pytest.raises(SeoParseError) as err:
            parse_seo(json.dumps(value))
        assert str(err.value) == message

    def test_unknown_nested_key(self):
        obj = minimal_json("DESIGN_EXPERT")
        obj["protocol"] = {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": [{"name": "s", "step_index": 1, "surprise": True}],
        }
        with pytest.raises(UnknownField) as err:
            parse(obj)
        assert err.value.path == "protocol.steps[0].surprise"

    def test_bad_json_reports_position(self):
        with pytest.raises(SeoParseError) as err:
            parse_seo('{"session_mode": }')
        assert (err.value.line, err.value.column) == (1, 18)
        assert str(err.value) == "Expecting value: line 1 column 18 (char 17)"

    @pytest.mark.parametrize("blank", ["", "   \n", b""])
    def test_empty_document(self, blank):
        with pytest.raises(SeoParseError):
            parse_seo(blank)

    def test_non_utf8_bytes(self):
        with pytest.raises(SeoParseError):
            parse_seo(b"\xff\xfe{}")

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueKindMismatch) as err:
            parse_seo("[1, 2]")
        assert err.value.path == "$"

    def test_bad_session_mode(self):
        obj = minimal_json()
        obj["session_mode"] = "CASUAL"
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert "one of" in err.value.expected

    def test_wrong_kind_for_confidence(self):
        obj = minimal_json("DESIGN_EXPERT")
        obj["protocol"] = {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": [
                {"name": "s", "step_index": 1, "failure_modes": [{"name": "f", "confidence": "high"}]}
            ],
        }
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert err.value.path.endswith(".confidence")

    def test_boolean_is_not_a_number(self):
        obj = minimal_json("DESIGN_EXPERT")
        obj["protocol"] = {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": [{"name": "s", "step_index": True}],
        }
        with pytest.raises(ValueKindMismatch):
            parse(obj)

    def test_array_elements_must_be_objects(self):
        obj = minimal_json("DESIGN_EXPERT")
        obj["protocol"] = {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": ["just a name"],
        }
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert err.value.path == "protocol.steps[0]"

    def test_bad_comparator(self):
        obj = minimal_json("DESIGN_EXPERT")
        obj["decision_model"] = {
            "_elicitation_scope": "full",
            "decision_points": [{"step_id": "s1", "comparator": "approximately"}],
            "design_rationale": None,
        }
        with pytest.raises(ValueKindMismatch):
            parse(obj)

    def test_bad_elicitation_scope(self):
        obj = minimal_json("DESIGN_EXPERT")
        obj["decision_model"] = {"_elicitation_scope": "partial"}
        with pytest.raises(ValueKindMismatch):
            parse(obj)

    def test_bad_session_date(self):
        obj = minimal_json()
        obj["twin_metadata"]["session_date"] = "July 14th"
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert err.value.path == "twin_metadata.session_date"

    # fromisoformat takes the first two from Python 3.11 on, but the schema's
    # pattern does not; the third fits the pattern but is no date
    @pytest.mark.parametrize("date", ["20260714", "2026-W29-2", "2026-02-30"])
    def test_session_date_outside_the_schema_pattern(self, date):
        obj = minimal_json()
        obj["twin_metadata"]["session_date"] = date
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert err.value.path == "twin_metadata.session_date"

    @pytest.mark.parametrize(
        ("literal", "got"),
        [
            ("1" + "0" * 400, "integer beyond the float range"),
            ("-1" + "0" * 400, "integer beyond the float range"),
            ("1e999", "inf"),
            ("-1e999", "-inf"),
        ],
        ids=["integer", "negative-integer", "exponent", "negative-exponent"],
    )
    def test_number_beyond_float_range(self, literal, got):
        obj = minimal_json("DESIGN_EXPERT")
        obj["protocol"] = {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": [{"name": "s", "step_index": 0}],
        }
        text = json.dumps(obj).replace('"step_index": 0', f'"step_index": {literal}')
        with pytest.raises(ValueKindMismatch) as err:
            parse_seo(text)
        assert (err.value.path, err.value.expected, err.value.got) == (
            "protocol.steps[0].step_index",
            "finite number",
            got,
        )

    def test_integer_over_the_digit_limit(self):
        # from Python 3.11 on the decoder refuses it; before, it overflows a float
        obj = minimal_json("DESIGN_EXPERT")
        obj["protocol"] = {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": [{"name": "s", "step_index": 0}],
        }
        text = json.dumps(obj).replace('"step_index": 0', '"step_index": ' + "1" * 5000)
        with pytest.raises(SeoParseError):
            parse_seo(text)

    @pytest.mark.parametrize(
        ("change", "path", "expected", "got"),
        [
            (
                lambda protocol: protocol["steps"][0].update(failure_modes=[{"name": None}]),
                "protocol.steps[0].failure_modes[0].name",
                "text",
                "null",
            ),
            (
                lambda protocol: protocol["steps"][0].update(pre_extracted="yes"),
                "protocol.steps[0].pre_extracted",
                "boolean",
                "str",
            ),
            (
                lambda protocol: protocol["steps"][0].update(required_use_cases=["a", 1]),
                "protocol.steps[0].required_use_cases",
                "text list",
                "list",
            ),
            (lambda protocol: protocol.update(steps={}), "protocol.steps", "array", "dict"),
            (
                lambda protocol: protocol.update(workflow_name=""),
                "protocol.workflow_name",
                "non-empty text",
                "''",
            ),
            (
                lambda protocol: protocol["steps"][0].update(failure_modes=[{"name": ""}]),
                "protocol.steps[0].failure_modes[0].name",
                "non-empty text",
                "''",
            ),
            (
                lambda protocol: protocol["steps"][0].update(required_use_cases=["a", ""]),
                "protocol.steps[0].required_use_cases[1]",
                "non-empty text",
                "''",
            ),
            (
                lambda protocol: protocol["steps"][0].update(
                    failure_modes=[{"name": "f", "cascades_to": [""]}]
                ),
                "protocol.steps[0].failure_modes[0].cascades_to[0]",
                "non-empty text",
                "''",
            ),
        ],
        ids=[
            "null-name",
            "boolean-as-text",
            "text-list-with-a-number",
            "steps-not-an-array",
            "empty-workflow-name",
            "empty-failure-mode-name",
            "empty-use-case",
            "empty-cascade-target",
        ],
    )
    def test_value_of_the_wrong_kind(self, change, path, expected, got):
        obj = minimal_json("DESIGN_EXPERT")
        obj["protocol"] = {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": [{"name": "s", "step_index": 1}],
        }
        change(obj["protocol"])
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert (err.value.path, err.value.expected, err.value.got) == (path, expected, got)

    @pytest.mark.parametrize(
        ("document", "path"),
        [
            ("elisa", "protocol.workflow_id"),
            ("elisa", "protocol.subgraph"),
            ("elisa", "protocol.steps[0].id"),
            ("elisa", "protocol.steps[0].failure_modes[0].id"),
            ("elisa", "decision_model.decision_points[0].step_id"),
            ("elisa", "decision_model.decision_points[0].id"),
            ("elisa", "method_alternatives[0].step_id"),
            ("program", "strategic.program_milestones[0].id"),
            ("program", "strategic.program_milestones[0].evidentiary_inputs[0].id"),
            ("program", "strategic.program_milestones[0].evidentiary_inputs[0].sourced_from.subgraph"),
        ],
    )
    @pytest.mark.parametrize("value", ["FM bad", "", "ELISA\n"])
    def test_key_part_outside_the_id_pattern(self, fixtures_dir, document, path, value):
        obj = json.loads((fixtures_dir / f"{document}.seo.json").read_text(encoding="utf-8"))
        *parents, name = re.split(r"\.|\[(\d+)\]\.?", path)
        record = obj
        for part in filter(None, parents):
            record = record[int(part) if part.isdigit() else part]
        record[name] = value
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert (err.value.path, err.value.expected, err.value.got) == (
            path,
            "text matching [A-Za-z0-9_-]+",
            repr(value),
        )

    def test_session_date_in_the_schema_pattern(self):
        obj = minimal_json()
        obj["twin_metadata"]["session_date"] = "2026-07-14"
        assert parse(obj).twin_metadata.session_date == "2026-07-14"

    @pytest.mark.parametrize(
        ("layer", "path"),
        [("protocol", "protocol.workflow_id"), ("decision_model", "decision_model._elicitation_scope")],
    )
    def test_empty_layer_object_is_not_absent(self, layer, path):
        obj = minimal_json("DESIGN_EXPERT")
        obj[layer] = {}
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert (err.value.path, err.value.expected, err.value.got) == (path, "text", "absent")

    def test_empty_optional_layers_parse_as_records(self):
        obj = minimal_json("DIRECTOR")
        obj["strategic"] = {}
        obj["twin_metadata"] = {}
        doc = parse(obj)
        assert doc.strategic == StrategicLayer()
        assert doc.twin_metadata == TwinMetadata()

    def test_top_level_kind_error_path_has_no_leading_dot(self):
        obj = minimal_json()
        obj["session_mode"] = 5
        with pytest.raises(ValueKindMismatch) as err:
            parse(obj)
        assert (err.value.path, err.value.expected, err.value.got) == ("session_mode", "text", "int")

    def test_non_finite_literals_rejected(self):
        obj = minimal_json()
        text = json.dumps(obj, indent=1).replace("null,", "NaN,", 1)
        pos = text.index("NaN")
        line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        with pytest.raises(SeoParseError) as err:
            parse_seo(text)
        assert line > 1
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).startswith(f"non-finite number literal: NaN: line {line} column {column}")

    def test_numbers_are_normalized_at_parse(self):
        obj = minimal_json("DESIGN_EXPERT")
        obj["protocol"] = {
            "workflow_id": "WF-T-01",
            "workflow_name": "T",
            "subgraph": "T",
            "steps": [
                {
                    "name": "s",
                    "step_index": 1,
                    "failure_modes": [{"name": "f", "confidence": 0.80000000001}],
                }
            ],
        }
        doc = parse(obj)
        assert doc.protocol.steps[0].failure_modes[0].confidence == 0.8


class TestSerializeRoundTrip:
    FIXTURES = ["elisa.seo.json", "lcms_prm.seo.json", "automation.seo.json", "program.seo.json"]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_parse_serialize_parse_is_identity(self, fixtures_dir, name):
        doc = parse_seo((fixtures_dir / name).read_bytes())
        data = serialize_seo(doc)
        assert parse_seo(data) == doc
        assert serialize_seo(parse_seo(data)) == data

    @pytest.mark.parametrize(
        ("doc", "rendered"),
        [
            (design_doc([StepRecord("mix", 3, failure_modes=(fm("f", confidence=0.00005),))]),
             b'"confidence": 0.00005, '),
            (design_doc([StepRecord("mix", 3.0, failure_modes=(fm("f", confidence=2 / 3),))]),
             b'"confidence": 0.666667, '),
            (design_doc([StepRecord("mix", 10**17 + 1)]), b'"step_index": 100000000000000000}'),
            (design_doc([StepRecord("mix", 3.0)]), b'"step_index": 3}'),
        ],
        ids=["non-plain-confidence", "long-fraction", "int-beyond-float-precision", "integral"],
    )
    def test_hash_bytes_match_python_rendering(self, doc, rendered):
        data = serialize_seo(doc)
        assert data == (render_value(to_jsonable(doc)) + "\n").encode("utf-8")
        assert rendered in data
        assert serialize_seo(parse_seo(data)) == data

    def test_serialized_form_is_canonical(self):
        data = serialize_seo(parse(minimal_json()))
        assert data.endswith(b"\n")
        text = data.decode()
        assert '"strategic": null' in text
        assert text.index('"decision_model"') < text.index('"session_mode"')

    def test_to_jsonable_keeps_scope_stub_explicit(self):
        raw = to_jsonable(parse(minimal_json()))
        assert raw["decision_model"] == {
            "_elicitation_scope": "operational_only",
            "decision_points": None,
            "design_rationale": None,
        }


class TestFieldTable:
    """The field table each record class's hints give, attribute by attribute."""

    FIELD_TABLE = {
        SeoDocument: (
            "session_mode: text required cls=SessionMode choices=OPERATIONAL|DESIGN_EXPERT|DIRECTOR",
            "protocol: object required nullable cls=ProtocolLayer",
            "decision_model: object required nullable cls=DecisionModelLayer",
            "strategic: object required nullable cls=StrategicLayer",
            "method_alternatives: array required nullable cls=MethodAlternativeClaim",
            "automation_context: array required nullable cls=AutomationContextClaim",
            "twin_metadata: object required nullable cls=TwinMetadata",
        ),
        ProtocolLayer: (
            "workflow_id: text required key_part",
            "workflow_name: text required",
            "subgraph: text required key_part",
            "pre_extracted: boolean nullable default=False",
            "steps: array required nullable default=() cls=StepRecord",
        ),
        StepRecord: (
            "name: text required",
            "step_index: number required",
            "id: text nullable key_part",
            "description: text nullable",
            "is_critical_path: boolean nullable",
            "pre_extracted: boolean nullable default=False",
            "required_use_cases: text list nullable default=()",
            "failure_modes: array nullable default=() cls=FailureModeClaim",
        ),
        FailureModeClaim: (
            "name: text required",
            "id: text nullable key_part",
            "description: text nullable",
            "confidence: number nullable",
            "confidence_method: text nullable choices=linguistic_approximation|SHELF_elicited",
            "source_scientist: text nullable",
            "source_phrase: text nullable",
            "silent_failure_risk: boolean nullable",
            "is_critical_path: boolean nullable",
            "frequency_min: number nullable",
            "frequency_best: number nullable",
            "frequency_max: number nullable",
            "cascades_to: text list nullable default=()",
            "masked_by_assets: text list nullable default=()",
            "detected_by: text list nullable default=()",
            "flagged_for_review: boolean nullable",
            "pre_extracted: boolean nullable default=False",
        ),
        DecisionModelLayer: (
            "elicitation_scope: text json=_elicitation_scope required choices=full|operational_only",
            "decision_points: array nullable cls=DecisionPointClaim",
            "design_rationale: text nullable",
        ),
        DecisionPointClaim: (
            "step_id: text required key_part",
            "condition_type: text nullable",
            "threshold_value: number nullable",
            "comparator: text nullable choices=<|<=|>|>=|==|within_range",
            "units: text nullable",
            "pass_action: text nullable",
            "fail_action: text nullable",
            "escalation_action: text nullable",
            "confidence: number nullable",
            "confidence_method: text nullable choices=linguistic_approximation|SHELF_elicited",
            "source_scientist: text nullable",
            "source_phrase: text nullable",
            "id: text nullable key_part",
            "name: text nullable",
        ),
        StrategicLayer: (
            "cross_domain_knowledge: text list nullable default=()",
            "capability_gaps: text list nullable default=()",
            "future_design_questions: text list nullable default=()",
            "program_milestones: array nullable cls=ProgramMilestoneClaim",
        ),
        ProgramMilestoneClaim: (
            "name: text required",
            "id: text nullable key_part",
            "evidentiary_inputs: array nullable default=() cls=EvidentiaryInputClaim",
        ),
        EvidentiaryInputClaim: (
            "name: text required",
            "id: text nullable key_part",
            "required_output: text nullable",
            "quality_threshold: text nullable",
            "decision_consequence: text nullable",
            "sourced_from: object nullable cls=WorkflowRef",
        ),
        WorkflowRef: (
            "subgraph: text required key_part",
            "workflow_id: text required key_part",
        ),
        MethodAlternativeClaim: (
            "step_id: text required key_part",
            "name: text required",
            "description: text nullable",
            "tradeoff: text nullable",
        ),
        AutomationContextClaim: (
            "name: text json=asset_name required",
            "use_case_names: text list nullable default=()",
            "log_scope: text nullable",
        ),
        TwinMetadata: (
            "source_scientist: text nullable",
            "session_mode: text nullable choices=OPERATIONAL|DESIGN_EXPERT|DIRECTOR",
            "calibration_status: text nullable",
            "session_date: text nullable iso_date",
            "elicitation_agent: text nullable",
        ),
    }

    @staticmethod
    def describe(f) -> str:
        """Every attribute of a field: flags when true, values when set."""
        parts = [f"{f.name}:", f.kind]
        if f.json != f.name:
            parts.append(f"json={f.json}")
        flags = ("required", "nullable", "iso_date", "key_part")
        parts += [flag for flag in flags if getattr(f, flag)]
        if f.default is not None:
            parts.append(f"default={f.default!r}")
        if f.cls is not None:
            parts.append(f"cls={f.cls.__name__}")
        if f.choices:
            parts.append(f"choices={'|'.join(f.choices)}")
        return " ".join(parts)

    @pytest.mark.parametrize("cls", list(FIELD_TABLE), ids=lambda cls: cls.__name__)
    def test_hints_give_the_pinned_table(self, cls):
        table = _fields(cls)
        assert list(table) == [f.json for f in table.values()]
        assert tuple(self.describe(f) for f in table.values()) == self.FIELD_TABLE[cls]

    def test_every_record_class_is_pinned(self):
        seen, todo = set(), [SeoDocument]
        while todo:
            cls = todo.pop()
            seen.add(cls)
            todo += [f.cls for f in _fields(cls).values() if f.kind in ("object", "array")]
        assert seen == set(self.FIELD_TABLE)


def _pruned(value):
    """A fixture's JSON with every array of records cut to its first record."""
    if isinstance(value, dict):
        return {key: _pruned(item) for key, item in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [_pruned(value[0])]
    return value


def _records(cls: type, obj: dict, path: tuple = ()):
    """(record class, path) of every record in a document's JSON, walking the field table."""
    yield cls, path
    for name, f in _fields(cls).items():
        value = obj.get(name)
        if value is None:
            continue
        if f.kind == "object":
            yield from _records(f.cls, value, path + (name,))
        elif f.kind == "array":
            for i, item in enumerate(value):
                yield from _records(f.cls, item, path + (name, i))


def _carriers() -> dict[type, tuple[dict, tuple]]:
    """Record class -> the first pruned fixture document holding it, and its path there."""
    found: dict[type, tuple[dict, tuple]] = {}
    for name in ("elisa", "lcms_prm", "automation", "program"):
        doc = _pruned(json.loads((FIXTURES / f"{name}.seo.json").read_text(encoding="utf-8")))
        for cls, path in _records(SeoDocument, doc):
            found.setdefault(cls, (doc, path))
    return found


_ABSENT = object()
_WRONG_KIND = {"text": 1, "number": "1", "boolean": "true", "text list": "x", "array": {}, "object": []}


def _mutations(f) -> dict[str, object]:
    """Label -> value of each single-field mutation that fits the field."""
    values = {"null": None, "absent": _ABSENT, "empty text": "", "wrong kind": _WRONG_KIND[f.kind]}
    if f.choices:
        values["bad enum"] = "NOT_A_CHOICE"
    if f.key_part:
        values |= {"bad key part": "bad id", "key part with newline": "ELISA\n"}
    if f.iso_date:
        values |= {
            "bad date": "2026-7-14",
            "date with newline": "2026-07-14\n",
            "calendar-invalid date": "2026-02-30",
        }
    if f.kind in ("text list", "array"):
        values["empty item"] = [""]
    return values


class TestSchemaAgreement:
    """fixtures/seo.schema.json is generated, and conforming is parsing."""

    # the one listed disagreement: no pattern rejects a date the calendar lacks
    PARSER_ONLY = {(TwinMetadata, "session_date", "calendar-invalid date")}

    @pytest.fixture(scope="class")
    def validator(self):
        return jsonschema.Draft202012Validator(json.loads(json_schema()))

    def test_checked_in_schema_is_generated(self, fixtures_dir):
        assert (fixtures_dir / "seo.schema.json").read_text(encoding="utf-8") == json_schema()

    def test_one_definition_per_record_class(self):
        defs = json.loads(json_schema())["$defs"]
        assert set(defs) == {cls.__name__ for cls in TestFieldTable.FIELD_TABLE}

    @pytest.mark.parametrize(
        "cls", list(TestFieldTable.FIELD_TABLE), ids=lambda cls: cls.__name__
    )
    def test_schema_and_parser_agree(self, validator, cls):
        doc, path = _carriers()[cls]
        assert validator.is_valid(doc)
        parse_seo(json.dumps(doc))
        cases = [("no_such_member", "unknown member", 1)] + [
            (name, label, value)
            for name, f in _fields(cls).items()
            for label, value in _mutations(f).items()
        ]
        disagreements = set()
        for name, label, value in cases:
            mutated = copy.deepcopy(doc)
            record = mutated
            for part in path:
                record = record[part]
            if value is _ABSENT:
                record.pop(name, None)
            else:
                record[name] = value
            try:
                parse_seo(json.dumps(mutated))
                parses = True
            except SeoParseError:
                parses = False
            if validator.is_valid(mutated) != parses:
                disagreements.add((cls, name, label))
        assert disagreements == {case for case in self.PARSER_ONLY if case[0] is cls}

    def test_every_record_class_has_a_carrier(self):
        assert set(_carriers()) == set(TestFieldTable.FIELD_TABLE)


class TestValidateSeo:
    def test_valid_design_document(self):
        doc = design_doc(
            [StepRecord("mix", 1, id="s1", failure_modes=(fm("clumping"),))],
            decision_points=[
                DecisionPointClaim(
                    step_id="s1",
                    condition_type="threshold",
                    threshold_value=2.0,
                    comparator="<=",
                    units="cv_percent",
                    pass_action="continue",
                    fail_action="repeat",
                    escalation_action="call the lead",
                    confidence=0.81,
                    confidence_method="linguistic_approximation",
                    source_scientist="T. Example",
                )
            ],
        )
        assert validate_seo(doc).ok

    def test_operational_stub_is_clean(self):
        doc = parse(minimal_json())
        assert validate_seo(doc).ok

    @pytest.mark.parametrize(
        "model",
        [
            DecisionModelLayer("full", None, None),
            DecisionModelLayer("operational_only", (), None),
            DecisionModelLayer("operational_only", None, "because"),
        ],
    )
    def test_contamination_guard(self, model):
        doc = SeoDocument(
            session_mode=SessionMode.OPERATIONAL,
            protocol=None,
            decision_model=model,
            strategic=None,
            method_alternatives=None,
            automation_context=None,
            twin_metadata=meta("OPERATIONAL"),
        )
        report = validate_seo(doc)
        assert report.has("ContaminationGuardViolation")

    def test_operational_layer_gates(self):
        doc = SeoDocument(
            session_mode=SessionMode.OPERATIONAL,
            protocol=None,
            decision_model=DecisionModelLayer("full", None, None),
            strategic=StrategicLayer(),
            method_alternatives=(MethodAlternativeClaim("s1", "alt"),),
            automation_context=(AutomationContextClaim("robot"),),
            twin_metadata=meta("OPERATIONAL"),
        )
        report = validate_seo(doc)
        detail = "OPERATIONAL sessions cannot populate it"
        assert [(i.code, i.subject, i.detail) for i in report.issues] == [
            (
                "ContaminationGuardViolation",
                "decision_model",
                "OPERATIONAL sessions must not carry decision-model content: "
                "_elicitation_scope is 'full'",
            ),
            ("ModeGateViolation", "strategic", detail),
            ("ModeGateViolation", "method_alternatives", detail),
            ("ModeGateViolation", "automation_context", detail),
        ]

    def test_design_expert_cannot_carry_strategy(self):
        doc = design_doc([], strategic=StrategicLayer(capability_gaps=("x",)))
        assert [(i.code, i.subject, i.detail) for i in validate_seo(doc).issues] == [
            ("ModeGateViolation", "strategic", "reserved for DIRECTOR sessions")
        ]

    def test_director_gates(self):
        doc = SeoDocument(
            session_mode=SessionMode.DIRECTOR,
            protocol=ProtocolLayer("WF-T-01", "T", "T"),
            decision_model=None,
            strategic=StrategicLayer(),
            method_alternatives=(),
            automation_context=(),
            twin_metadata=meta("DIRECTOR"),
        )
        report = validate_seo(doc)
        detail = "reserved for DESIGN_EXPERT sessions"
        assert [(i.code, i.subject, i.detail) for i in report.issues] == [
            ("ModeGateViolation", "protocol", "DIRECTOR sessions carry no protocol layer"),
            ("ModeGateViolation", "method_alternatives", detail),
            ("ModeGateViolation", "automation_context", detail),
        ]

    def test_metadata_missing(self):
        doc = design_doc([], twin_metadata=None)
        assert validate_seo(doc).has("MetadataMissing")

    def test_metadata_session_mode_must_be_present(self):
        doc = design_doc([], twin_metadata=TwinMetadata(source_scientist="T. Example"))
        assert [issue[:2] for issue in validate_seo(doc).issues] == [
            ("MetadataMissing", "twin_metadata.session_mode")
        ]

    def test_metadata_scientist_must_be_non_empty(self):
        doc = design_doc([], twin_metadata=TwinMetadata(source_scientist="", session_mode="DESIGN_EXPERT"))
        assert validate_seo(doc).has("MetadataMissing")

    def test_metadata_mode_must_agree(self):
        doc = design_doc([], twin_metadata=meta("OPERATIONAL"))
        assert validate_seo(doc).has("MetadataInconsistent")

    @pytest.mark.parametrize("indexes", [(1, 1), (2, 3), (0, 1), (1, 3)])
    def test_step_index_violations(self, indexes):
        steps = [StepRecord(f"s{i}", ix, id=f"s{i}") for i, ix in enumerate(indexes)]
        assert validate_seo(design_doc(steps)).has("StepIndexViolation")

    def test_step_indexes_may_arrive_out_of_order(self):
        steps = [StepRecord("b", 2, id="b"), StepRecord("a", 1, id="a")]
        assert not validate_seo(design_doc(steps)).has("StepIndexViolation")

    def test_duplicate_explicit_ids(self):
        steps = [
            StepRecord("a", 1, id="same"),
            StepRecord("b", 2, id="same"),
        ]
        assert validate_seo(design_doc(steps)).has("DuplicateId")

    def test_duplicate_ids_across_layers(self):
        doc = design_doc(
            [StepRecord("a", 1, id="s1", failure_modes=(fm("f", id="X-1"),))],
            decision_points=[
                DecisionPointClaim(
                    step_id="s1",
                    id="X-1",
                    condition_type="threshold",
                    threshold_value=1.0,
                    comparator="<",
                    units="au",
                    pass_action="go",
                    fail_action="stop",
                    escalation_action="ask",
                    confidence=0.81,
                    confidence_method="linguistic_approximation",
                    source_scientist="T. Example",
                )
            ],
        )
        assert validate_seo(doc).has("DuplicateId")

    def test_colliding_normalized_failure_names(self):
        steps = [
            StepRecord(
                "a",
                1,
                id="s1",
                failure_modes=(fm("High Background (nonspecific)"), fm("high background")),
            )
        ]
        assert validate_seo(design_doc(steps)).has("DuplicateId")

    def test_a_generated_id_shares_the_namespace_of_stated_ids(self):
        # the unnamed failure mode compiles to FM-TESTSG-002, which the first states
        steps = [StepRecord("a", 1, id="s1", failure_modes=(fm("f", id="FM-TESTSG-002"), fm("g")))]
        report = validate_seo(design_doc(steps))
        assert [(i.code, i.subject, i.detail) for i in report.issues] == [
            (
                "DuplicateId",
                "protocol.steps[0].failure_modes[1]",
                "id FM-TESTSG-002 already used at protocol.steps[0].failure_modes[0]",
            )
        ]

    def test_a_cascade_stub_may_not_take_a_claims_id(self):
        steps = [
            StepRecord(
                "a",
                1,
                id="s1",
                failure_modes=(fm("f", cascades_to=("Lot Change",)), fm("g", id="FM-lot-change")),
            )
        ]
        report = validate_seo(design_doc(steps))
        assert [(i.code, i.subject) for i in report.issues] == [
            ("DuplicateId", "protocol.steps[0].failure_modes[0].cascades_to[0]")
        ]
        assert report.issues[0].detail.endswith("used at protocol.steps[0].failure_modes[1]")
        # a target that names a failure mode links to it, and takes no stub id
        named = fm("f", cascades_to=("G",)), fm("g", id="FM-g")
        assert validate_seo(design_doc([StepRecord("a", 1, id="s1", failure_modes=named)])).ok

    def test_claims_are_checked_in_step_index_order(self):
        steps = [
            StepRecord("b", 2, id="b", failure_modes=(fm("late", confidence=0.5),)),
            StepRecord("a", 1, id="a", failure_modes=(fm("early", confidence=0.5),)),
        ]
        subjects = [i.subject for i in validate_seo(design_doc(steps)).issues]
        assert subjects == [
            "protocol.steps[1].failure_modes[0]",
            "protocol.steps[0].failure_modes[0]",
        ]

    def test_generated_ids_without_a_protocol_layer_depend_on_the_target(self):
        raw = json.loads((FIXTURES / "program.seo.json").read_text(encoding="utf-8"))
        milestone = raw["strategic"]["program_milestones"][0]
        milestone["id"] = None  # compiles to PM-PROGRAM-001 under PROGRAM
        milestone["evidentiary_inputs"][0]["id"] = "PM-PROGRAM-001"
        doc = parse(raw)
        assert validate_seo(doc).ok
        assert validate_seo(doc, "PROGRAM").codes() == ["DuplicateId"]

    def test_failure_mode_trio_is_mandatory(self):
        claim = FailureModeClaim(name="bare")
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(claim,))]))
        missing = [i for i in report.issues if i.code == "MissingMandatoryField"]
        assert len(missing) == 3

    def test_decision_point_mandatory_fields(self):
        dp = DecisionPointClaim(step_id="s1")
        report = validate_seo(design_doc([StepRecord("a", 1, id="s1")], decision_points=[dp]))
        missing = [i for i in report.issues if i.code == "MissingMandatoryField"]
        assert len(missing) == 10  # trio plus the seven decision fields
        assert missing[0].detail == "confidence is required on every DecisionPoint"

    def test_confidence_range_on_claims(self):
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(fm("f", confidence=0.5),))]))
        assert report.has("ConfidenceOutOfRange")

    def test_shelf_method_requires_triple(self):
        claim = fm("f", confidence_method="SHELF_elicited", silent_failure_risk=True)
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(claim,))]))
        missing = [i for i in report.issues if i.code == "MissingMandatoryField"]
        assert len(missing) == 3

    @pytest.mark.parametrize("method", ["linguistic_approximation", "SHELF_elicited"])
    @pytest.mark.parametrize("stated", ["frequency_min", "frequency_best", "frequency_max"])
    def test_a_stated_frequency_needs_the_whole_triple(self, method, stated):
        claim = fm("f", confidence_method=method, silent_failure_risk=True, **{stated: 0.1})
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(claim,))]))
        assert report.codes() == ["MissingMandatoryField"] * 2
        assert [i.detail for i in report.issues] == [
            f"{name} is required in a SHELF frequency triple"
            for name in ("frequency_min", "frequency_best", "frequency_max")
            if name != stated
        ]

    def test_shelf_triple_needs_eligibility(self):
        claim = fm("f", frequency_min=0.1, frequency_best=0.2, frequency_max=0.3)
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(claim,))]))
        assert report.has("ShelfEligibilityViolation")

    def test_shelf_triple_order(self):
        claim = fm(
            "f",
            silent_failure_risk=True,
            frequency_min=0.3,
            frequency_best=0.2,
            frequency_max=0.4,
        )
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(claim,))]))
        assert report.has("ShelfOrderViolation")

    def test_frequency_out_of_range(self):
        for low, best, high in [(0.1, 0.2, 1.5), (-0.1, 0.2, 0.3)]:
            claim = fm(
                "f",
                is_critical_path=True,
                frequency_min=low,
                frequency_best=best,
                frequency_max=high,
            )
            report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(claim,))]))
            assert report.has("FrequencyOutOfRange")
            assert not report.has("ShelfOrderViolation")

    def test_evidentiary_input_fields(self):
        from skg.seo import EvidentiaryInputClaim, ProgramMilestoneClaim

        doc = SeoDocument(
            session_mode=SessionMode.DIRECTOR,
            protocol=None,
            decision_model=None,
            strategic=StrategicLayer(
                program_milestones=(
                    ProgramMilestoneClaim("m", evidentiary_inputs=(EvidentiaryInputClaim("ei"),)),
                )
            ),
            method_alternatives=None,
            automation_context=None,
            twin_metadata=meta("DIRECTOR"),
        )
        report = validate_seo(doc)
        missing = [i for i in report.issues if i.code == "MissingMandatoryField"]
        assert len(missing) == 3

    @pytest.mark.parametrize(
        ("document", "path", "name", "label"),
        [
            (
                "program",
                "strategic.program_milestones[0].evidentiary_inputs[0]",
                "required_output",
                "EvidentiaryInput",
            ),
            ("elisa", "decision_model.decision_points[0]", "units", "DecisionPoint"),
            ("elisa", "protocol.steps[0].failure_modes[0]", "source_scientist", "FailureMode"),
        ],
    )
    def test_empty_required_text_is_unstated(self, fixtures_dir, document, path, name, label):
        obj = json.loads((fixtures_dir / f"{document}.seo.json").read_text(encoding="utf-8"))
        record = obj
        for part in filter(None, re.split(r"\.|\[(\d+)\]\.?", path)):
            record = record[int(part) if part.isdigit() else part]
        record[name] = ""
        report = validate_seo(parse(obj))
        assert [tuple(issue) for issue in report.issues] == [
            ("MissingMandatoryField", path, f"{name} is required on every {label}")
        ]

    @pytest.mark.parametrize("name", TestSerializeRoundTrip.FIXTURES)
    def test_sample_documents_validate_clean(self, fixtures_dir, name):
        assert validate_seo(parse_seo((fixtures_dir / name).read_bytes())).ok


class TestValidateShelf:
    """The order check on an in-range SHELF triple, min <= best <= max."""

    @staticmethod
    def order_issues(low, best, high):
        claim = fm(
            "f",
            silent_failure_risk=True,
            frequency_min=low,
            frequency_best=best,
            frequency_max=high,
        )
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(claim,))]))
        return [i for i in report.issues if i.code == "ShelfOrderViolation"]

    def test_ordered_triple_passes(self):
        assert self.order_issues(0.1, 0.2, 0.3) == []
        assert self.order_issues(0.2, 0.2, 0.2) == []

    def test_unordered_triple_is_an_issue(self):
        (issue,) = self.order_issues(0.1, 0.4, 0.3)
        assert issue.detail == "0.1 <= 0.4 <= 0.3 fails"


class TestHedgeBand:
    """A linguistic claim's confidence must lie in the band of its phrase's hedge."""

    @staticmethod
    def elisa_with_first_phrased_claim(fixtures_dir, **changes) -> SeoDocument:
        # FM-ELISA-002, "... the curve always comes out ragged." at 0.88 (DECLARATIVE)
        raw = json.loads((fixtures_dir / "elisa.seo.json").read_text(encoding="utf-8"))
        raw["protocol"]["steps"][0]["failure_modes"][0].update(changes)
        return parse(raw)

    def test_confidence_outside_its_band(self, fixtures_dir):
        doc = self.elisa_with_first_phrased_claim(fixtures_dir, confidence=0.8)
        report = validate_seo(doc)
        assert report.codes() == ["ConfidenceOutsideHedgeBand"]
        assert report.issues[0].subject == "protocol.steps[0].failure_modes[0]"
        assert report.issues[0].detail == "confidence 0.8 outside DECLARATIVE [0.85, 0.92]"

    def test_phrase_without_a_hedge_term(self, fixtures_dir):
        doc = self.elisa_with_first_phrased_claim(
            fixtures_dir, source_phrase="The curve comes out ragged."
        )
        report = validate_seo(doc)
        assert report.codes() == ["ConfidenceOutsideHedgeBand"]
        assert "no hedge term" in report.issues[0].detail

    @pytest.mark.parametrize(
        ("confidence", "bad"), [(0.6, True), (0.61, False), (0.69, False), (0.7, True)]
    )
    def test_band_edges_are_inclusive(self, confidence, bad):
        claim = fm("f", confidence=confidence, source_phrase="it might clog")
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=(claim,))]))
        assert report.has("ConfidenceOutsideHedgeBand") is bad

    def test_decision_points_are_checked(self):
        point = DecisionPointClaim(
            step_id="s1",
            condition_type="threshold",
            threshold_value=2.0,
            comparator="<=",
            units="cv_percent",
            pass_action="continue",
            fail_action="repeat",
            escalation_action="call lead",
            confidence=0.95,
            confidence_method="linguistic_approximation",
            source_scientist="T. Example",
            source_phrase="we usually repeat it",
        )
        doc = design_doc([StepRecord("mix", 1, id="s1")], decision_points=[point])
        report = validate_seo(doc)
        assert report.codes() == ["ConfidenceOutsideHedgeBand"]
        assert report.issues[0].subject == "decision_model.decision_points[0]"

    def test_only_linguistic_claims_with_a_phrase_are_checked(self):
        claims = (
            fm("a", confidence=0.95),
            fm("b", confidence_method="SHELF_elicited", source_phrase="no hedge here"),
        )
        report = validate_seo(design_doc([StepRecord("a", 1, failure_modes=claims)]))
        assert not report.has("ConfidenceOutsideHedgeBand")


class TestMatchHedge:
    @pytest.mark.parametrize(
        ("phrase", "score", "band"),
        [
            ("it fails every time we rush", 0.885, "DECLARATIVE"),
            ("usually the plate is fine", 0.81, "TYPICAL"),
            ("sometimes the washer drifts", 0.735, "HEDGED"),
            ("might be the buffer", 0.65, "SPECULATIVE"),
            ("that is outside my experience", 0.6, "OUT_OF_SCOPE"),
        ],
    )
    def test_band_midpoints(self, phrase, score, band):
        matched = match_hedge(phrase)
        assert (matched.score, matched.name) == (score, band)

    def test_case_insensitive(self):
        assert match_hedge("ALWAYS happens").name == "DECLARATIVE"

    def test_longest_match_wins(self):
        # "i think" (7 chars) must beat "always" (6 chars)
        assert match_hedge("i think it always happens").name == "HEDGED"

    def test_length_ties_break_by_band_order(self):
        # "usually" and "i think" are both 7 chars; TYPICAL is listed first
        assert match_hedge("usually i think so").name == "TYPICAL"

    def test_word_boundaries(self):
        assert match_hedge("mights and smight are not hedges") is None

    def test_punctuation_counts_as_a_boundary(self):
        assert match_hedge("might-clog the line").name == "SPECULATIVE"

    def test_no_hedge(self):
        assert match_hedge("the supernatant is discarded") is None

    def test_empty_phrase(self):
        assert match_hedge("") is None

    def test_every_lexicon_term_scores_its_own_band(self):
        lexicon = default_lexicon()
        for band in lexicon:
            for term in band.terms:
                matched = match_hedge(f"zzz {term} qqq")
                score, name = matched.score, matched.name
                assert score == band.score
                assert round((band.low + band.high) / 2, 3) == score
                if name != band.name:
                    # a longer term from another band may legitimately contain this one
                    assert len(term) < max(len(t) for b in lexicon for t in b.terms)

    def test_scores_stay_inside_confidence_range(self):
        for band in default_lexicon():
            assert 0.6 <= band.low <= band.high <= 1.0

    def test_lexicon_bands_must_fit_confidence_range(self, tmp_path):
        path = tmp_path / "lex.json"
        path.write_text(
            json.dumps({"bands": [{"name": "LOW", "low": 0.5, "high": 0.8, "terms": ["x"]}]})
        )
        with pytest.raises(RangeError):
            load_lexicon(path)
