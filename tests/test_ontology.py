import pytest

from skg import (
    Edge,
    Graph,
    Node,
    NodeKey,
    Prop,
    Provenance,
    Tier,
    builtin_registry,
    merge,
    validate_graph,
)
from skg.ontology import (
    COMPARATORS,
    CONFIDENCE_CEILING,
    CONFIDENCE_FLOOR,
    CONFIDENCE_METHODS,
    EdgeTypeDef,
    NodeTypeDef,
    SchemaRegistry,
    schema_listing,
)

BUILTIN_LISTING = """\
registry skg-ontology-1

node types:
  TIER1_PROGRAM:
    EvidentiaryInput
      required: name:text, required_output:text, quality_threshold:text, decision_consequence:text
      optional: flagged_for_review:boolean
    ProgramMilestone
      required: name:text
      optional: description:text, flagged_for_review:boolean
  TIER2_PROTOCOL:
    AssayWorkflow
      required: name:text
      optional: description:text, flagged_for_review:boolean
    CalibrationRecord
      required: methods_used:text_list
      optional: n_claims:number, n_linguistic:number, n_shelf:number, source_scientist:text, session_date:text, calibration_status:text, session_mode:text, flagged_for_review:boolean
    DecisionPoint
      required: confidence:number, confidence_method:text, source_scientist:text, condition_type:text, threshold_value:number, comparator:text, units:text, pass_action:text, fail_action:text, escalation_action:text
      optional: name:text, source_phrase:text, flagged_for_review:boolean
    FailureMode
      required: confidence:number, confidence_method:text, source_scientist:text, name:text, silent_failure_risk:boolean, is_critical_path:boolean, flagged_for_review:boolean
      optional: description:text, source_phrase:text, frequency_min:number, frequency_best:number, frequency_max:number
    MethodAlternative
      required: name:text
      optional: description:text, tradeoff:text, flagged_for_review:boolean
    WorkflowStep
      required: name:text, step_index:number
      optional: description:text, is_critical_path:boolean, flagged_for_review:boolean
  TIER3_EXECUTION:
    AutomationAsset
      required: name:text
      optional: log_scope:text, flagged_for_review:boolean
    ErrorSignature
      required: name:text
      optional: description:text, flagged_for_review:boolean
    UseCase
      required: name:text
      optional: description:text, flagged_for_review:boolean

edge types:
  CALIBRATED_BY: DecisionPoint|FailureMode -> CalibrationRecord [within-tier, within-subgraph, plumbing]
  CASCADES_TO: FailureMode -> FailureMode [within-tier, within-subgraph, plumbing]
  CAUSES_IF_INCOMPLETE: WorkflowStep -> FailureMode [within-tier, within-subgraph, core]
  DETECTED_BY: FailureMode -> ErrorSignature [cross-tier, within-subgraph, plumbing]
  HAS_ALTERNATIVE: WorkflowStep -> MethodAlternative [within-tier, within-subgraph, plumbing]
  HAS_DECISION_POINT: WorkflowStep -> DecisionPoint [within-tier, within-subgraph, plumbing]
  HAS_STEP: AssayWorkflow -> WorkflowStep [within-tier, within-subgraph, plumbing]
  MASKED_BY: FailureMode -> AutomationAsset [cross-tier, cross-subgraph, core]
  PRECEDES: WorkflowStep -> WorkflowStep [within-tier, within-subgraph, plumbing]
  REQUIRES_AUTOMATION: WorkflowStep -> UseCase [cross-tier, cross-subgraph, core]
  REQUIRES_EVIDENCE: ProgramMilestone -> EvidentiaryInput [within-tier, within-subgraph, plumbing]
  SOURCED_FROM: EvidentiaryInput -> AssayWorkflow [cross-tier, cross-subgraph, core]
  SUITABLE_FOR: UseCase -> AutomationAsset [within-tier, within-subgraph, core]
"""

LABELS = {
    "ProgramMilestone",
    "EvidentiaryInput",
    "AssayWorkflow",
    "WorkflowStep",
    "DecisionPoint",
    "FailureMode",
    "MethodAlternative",
    "CalibrationRecord",
    "AutomationAsset",
    "UseCase",
    "ErrorSignature",
}

EDGE_TYPES = {
    "HAS_STEP",
    "PRECEDES",
    "HAS_DECISION_POINT",
    "HAS_ALTERNATIVE",
    "CAUSES_IF_INCOMPLETE",
    "CASCADES_TO",
    "MASKED_BY",
    "DETECTED_BY",
    "CALIBRATED_BY",
    "REQUIRES_AUTOMATION",
    "SUITABLE_FOR",
    "REQUIRES_EVIDENCE",
    "SOURCED_FROM",
}


class TestBuiltinRegistry:
    def test_label_inventory(self, registry):
        assert set(registry.node_types) == LABELS
        assert len(registry.node_types) == 11

    def test_edge_inventory(self, registry):
        assert set(registry.edge_types) == EDGE_TYPES
        assert len(registry.edge_types) == 13

    def test_core_edge_vocabulary(self, registry):
        core = {name for name, edef in registry.edge_types.items() if edef.core}
        assert core == {
            "SOURCED_FROM", "CAUSES_IF_INCOMPLETE", "MASKED_BY", "REQUIRES_AUTOMATION", "SUITABLE_FOR"
        }

    def test_cross_subgraph_edge_types(self, registry):
        assert registry.cross_subgraph_edge_types() == frozenset(
            {"SOURCED_FROM", "MASKED_BY", "REQUIRES_AUTOMATION"}
        )

    def test_tier_assignment(self, registry):
        assert registry.tier_of("ProgramMilestone") is Tier.TIER1_PROGRAM
        assert registry.tier_of("EvidentiaryInput") is Tier.TIER1_PROGRAM
        assert registry.tier_of("FailureMode") is Tier.TIER2_PROTOCOL
        assert registry.tier_of("CalibrationRecord") is Tier.TIER2_PROTOCOL
        assert registry.tier_of("AutomationAsset") is Tier.TIER3_EXECUTION
        assert registry.tier_of("ErrorSignature") is Tier.TIER3_EXECUTION

    def test_suitability_direction(self, registry):
        edef = registry.edge_types["SUITABLE_FOR"]
        assert edef.src_labels == frozenset({"UseCase"})
        assert edef.dst_labels == frozenset({"AutomationAsset"})

    def test_failure_cause_direction(self, registry):
        edef = registry.edge_types["CAUSES_IF_INCOMPLETE"]
        assert edef.src_labels == frozenset({"WorkflowStep"})
        assert edef.dst_labels == frozenset({"FailureMode"})

    def test_detection_crosses_tiers(self, registry):
        edef = registry.edge_types["DETECTED_BY"]
        assert edef.dst_labels == frozenset({"ErrorSignature"})
        assert "  DETECTED_BY: FailureMode -> ErrorSignature [cross-tier," in (
            schema_listing(registry)
        )

    def test_cascade_stays_within_tier(self, registry):
        edef = registry.edge_types["CASCADES_TO"]
        assert edef.src_labels == edef.dst_labels == frozenset({"FailureMode"})
        assert "  CASCADES_TO: FailureMode -> FailureMode [within-tier," in (
            schema_listing(registry)
        )

    def test_constants(self):
        assert CONFIDENCE_FLOOR == 0.6
        assert CONFIDENCE_CEILING == 1.0
        assert "within_range" in COMPARATORS
        assert set(CONFIDENCE_METHODS) == {"linguistic_approximation", "SHELF_elicited"}

    def test_registry_rejects_unknown_endpoint_labels(self):
        with pytest.raises(ValueError):
            SchemaRegistry(
                "x-1",
                {"A": NodeTypeDef("A", Tier.TIER1_PROGRAM)},
                {"E": EdgeTypeDef("E", frozenset({"A"}), frozenset({"Ghost"}))},
            )


def fm_node(id_: str, subgraph: str = "SG", **overrides) -> Node:
    props = {
        "name": f"failure {id_}",
        "confidence": 0.8,
        "confidence_method": "linguistic_approximation",
        "source_scientist": "T. Example",
        "silent_failure_risk": False,
        "is_critical_path": False,
        "flagged_for_review": False,
    }
    props.update(overrides)
    return Node(
        NodeKey(subgraph, "FailureMode", id_),
        {name: Prop(value) for name, value in props.items() if value is not None},
    )


def simple_node(label: str, id_: str, subgraph: str = "SG", **extra) -> Node:
    props = {"name": Prop(f"{label} {id_}")}
    props.update({k: Prop(v) for k, v in extra.items()})
    return Node(NodeKey(subgraph, label, id_), props)


class TestValidateGraph:
    def test_valid_graph_is_ok(self, registry):
        g = Graph(registry)
        g = merge(g, [fm_node("f1")])
        g = merge(g, [simple_node("WorkflowStep", "s1", step_index=1)])
        g = merge(g, [Edge("CAUSES_IF_INCOMPLETE", NodeKey("SG", "WorkflowStep", "s1"), NodeKey("SG", "FailureMode", "f1"))])
        report = validate_graph(g, registry)
        assert report.ok
        assert report.to_text() == "OK\n"

    def test_unknown_label(self, registry):
        g = merge(Graph(registry), [simple_node("Mystery", "m1")])
        assert validate_graph(g, registry).has("UnknownLabel")

    def test_unknown_edge_type(self, registry):
        g = Graph(registry)
        g = merge(g, [fm_node("f1")])
        g = merge(g, [fm_node("f2")])
        g = merge(g, [Edge("TELEPORTS", NodeKey("SG", "FailureMode", "f1"), NodeKey("SG", "FailureMode", "f2"))])
        assert validate_graph(g, registry).has("UnknownEdgeType")

    def test_missing_required_properties_enumerated(self, registry):
        g = merge(
            Graph(registry),
            [Node(NodeKey("SG", "FailureMode", "f1"), {"name": Prop("bare")})],
        )
        report = validate_graph(g, registry)
        missing = [i for i in report.issues if i.code == "MissingRequiredProperty"]
        assert len(missing) == 6  # trio, both risk booleans, review flag

    def test_confirmed_empty_required_text_is_missing(self, registry):
        g = merge(Graph(registry), [fm_node("f1", source_scientist="")])
        report = validate_graph(g, registry)
        assert report.codes() == ["MissingRequiredProperty"]
        assert report.issues[0].detail == "source_scientist (text) is required"

    def test_schema_default_empty_text_is_a_stub_default(self, registry):
        # a stub states its label's defaults, flagged for review; "" is the text one
        node = fm_node("f1")
        props = dict(node.properties, source_scientist=Prop("", Provenance.SCHEMA_DEFAULT))
        g = merge(Graph(registry), [Node(node.key, props)])
        assert validate_graph(g, registry).ok

    def test_declared_kind_enforced(self, registry):
        g = merge(
            Graph(registry), [simple_node("WorkflowStep", "s1", step_index="first")]
        )
        assert validate_graph(g, registry).has("ValueKindMismatch")

    def test_undeclared_properties_are_tolerated(self, registry):
        g = merge(Graph(registry), [fm_node("f1", conflict_log=("a -> b",))])
        assert validate_graph(g, registry).ok

    @pytest.mark.parametrize(
        ("confidence", "bad"),
        [(0.599, True), (0.6, False), (0.82, False), (1.0, False), (1.001, True)],
    )
    def test_confidence_boundaries(self, registry, confidence, bad):
        g = merge(Graph(registry), [fm_node("f1", confidence=confidence)])
        assert validate_graph(g, registry).has("ConfidenceOutOfRange") is bad

    def test_shelf_triple_must_be_ordered(self, registry):
        g = merge(
            Graph(registry),
            [fm_node(
                "f1",
                confidence_method="SHELF_elicited",
                silent_failure_risk=True,
                frequency_min=0.5,
                frequency_best=0.3,
                frequency_max=0.6,
            )],
        )
        assert validate_graph(g, registry).has("ShelfOrderViolation")

    def test_shelf_triple_must_be_complete(self, registry):
        g = merge(Graph(registry), [fm_node("f1", is_critical_path=True, frequency_min=0.1)])
        report = validate_graph(g, registry)
        assert report.codes() == ["MissingMandatoryField"] * 2
        assert [i.detail.split()[0] for i in report.issues] == ["frequency_best", "frequency_max"]

    def test_degenerate_shelf_triple_is_fine(self, registry):
        g = merge(
            Graph(registry),
            [fm_node(
                "f1",
                is_critical_path=True,
                frequency_min=0.1,
                frequency_best=0.1,
                frequency_max=0.1,
            )],
        )
        assert validate_graph(g, registry).ok

    def test_endpoint_label_violation(self, registry):
        g = Graph(registry)
        g = merge(g, [simple_node("WorkflowStep", "s1", step_index=1)])
        g = merge(g, [simple_node("UseCase", "u1", subgraph="AUTOMATION")])
        g = merge(
            g,
            [Edge(
                "MASKED_BY",
                NodeKey("SG", "WorkflowStep", "s1"),
                NodeKey("AUTOMATION", "UseCase", "u1"),
            )],
        )
        assert validate_graph(g, registry).has("EndpointLabelViolation")

    def test_cross_subgraph_violation_reported_on_foreign_graphs(self, registry):
        # a graph assembled under laxer cross-subgraph rules still fails validation
        class LaxRegistry:
            version = registry.version

            def cross_subgraph_edge_types(self):
                return frozenset({"CASCADES_TO"})

        lax = Graph(LaxRegistry())
        lax = merge(lax, [fm_node("f1", subgraph="SGA")])
        lax = merge(lax, [fm_node("f2", subgraph="SGB")])
        lax = merge(
            lax,
            [Edge("CASCADES_TO", NodeKey("SGA", "FailureMode", "f1"), NodeKey("SGB", "FailureMode", "f2"))],
        )
        assert validate_graph(lax, registry).has("CrossSubgraphViolation")

    def test_federated_store_is_clean(self, federated, registry):
        assert validate_graph(federated, registry).ok


class TestSchemaListing:
    def test_full_builtin_listing(self, registry):
        assert schema_listing(registry) == BUILTIN_LISTING

    def test_mentions_everything(self, registry):
        text = schema_listing(registry)
        assert "registry skg-ontology-1" in text
        for label in LABELS:
            assert label in text
        for edge_type in EDGE_TYPES:
            assert edge_type in text

    def test_groups_by_tier(self, registry):
        text = schema_listing(registry)
        assert text.index("TIER1_PROGRAM") < text.index("TIER2_PROTOCOL") < text.index("TIER3_EXECUTION")
