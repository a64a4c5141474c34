"""Release gate.

One test per shipping criterion; each prints a single verdict line so the
whole gate can be read off a terminal (run with -s). Values asserted here
were computed independently against the frozen fixture corpus and must not
drift: a red line means the engine changed behavior, not that the test
needs updating.
"""

import json
import random
import re
from contextlib import contextmanager

import pytest

from skg import (
    Edge,
    Graph,
    Node,
    NodeKey,
    Prop,
    Rejected,
    apply_plan,
    builtin_registry,
    compile_seo,
    emit_cypher,
    graph_hash,
    merge,
    parse_seo,
    plan_to_bytes,
    validate_graph,
    validate_seo,
)
from skg.metrics import compare_extractions, f1, match_failure_modes
from skg.queries import (
    automation_reuse,
    cascade_paths,
    elicitation_gaps,
    low_confidence_claims,
    masking_exposures,
    ranked_failures,
    ranked_silent_failures,
    step_decision_points,
    subgraph_stats,
)

TOL = 1e-4


@contextmanager
def verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {label}")
        raise
    print(f"criterion {num:02d}: PASS  {label}")


# -- randomized document generator (criterion 1) ---------------------------

ADJECTIVES = ("ragged", "drifting", "clogged", "warm", "stale", "misaligned", "leaking", "foamy")
NOUNS = ("buffer", "seal", "gradient", "tip", "standard", "gasket", "membrane", "column")
USE_CASES = ("Plate Washing", "Serial Dilution", "Plate Transport", "Incubation Control")


def synth_doc_json(rng: random.Random, subgraph: str) -> dict:
    fm_names: list[str] = []
    steps = []
    for index in range(1, rng.randint(1, 4) + 1):
        failure_modes = []
        for _ in range(rng.randint(0, 3)):
            name = f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} {len(fm_names) + 1}"
            fm = {
                "name": name,
                "confidence": round(rng.uniform(0.6, 1.0), 2),
                "confidence_method": "linguistic_approximation",
                "source_scientist": "R. Synth",
                "silent_failure_risk": rng.random() < 0.3,
            }
            if rng.random() < 0.4:
                low = round(rng.uniform(0.01, 0.2), 3)
                best = round(low + rng.uniform(0.02, 0.2), 3)
                high = round(best + rng.uniform(0.02, 0.2), 3)
                fm.update(
                    confidence_method="SHELF_elicited",
                    is_critical_path=True,
                    frequency_min=low,
                    frequency_best=best,
                    frequency_max=high,
                )
            if fm_names and rng.random() < 0.3:
                fm["cascades_to"] = [rng.choice(fm_names)]
            fm_names.append(name)
            failure_modes.append(fm)
        step = {"name": f"stage {index}", "step_index": index, "failure_modes": failure_modes}
        if rng.random() < 0.4:
            step["required_use_cases"] = [rng.choice(USE_CASES)]
        steps.append(step)

    doc = {
        "session_mode": "DESIGN_EXPERT",
        "protocol": {
            "workflow_id": f"WF-{subgraph}-01",
            "workflow_name": f"{subgraph} bench flow",
            "subgraph": subgraph,
            "steps": steps,
        },
        "decision_model": {
            "_elicitation_scope": "full",
            "decision_points": None,
            "design_rationale": None,
        },
        "strategic": None,
        "method_alternatives": None,
        "automation_context": None,
        "twin_metadata": {"source_scientist": "R. Synth", "session_mode": "DESIGN_EXPERT"},
    }
    if rng.random() < 0.3:
        doc["decision_model"]["decision_points"] = [
            {
                "step_id": f"ST-{subgraph}-001",
                "condition_type": "threshold",
                "threshold_value": round(rng.uniform(0.5, 20.0), 2),
                "comparator": rng.choice(("<=", ">=")),
                "units": "au",
                "pass_action": "proceed",
                "fail_action": "repeat",
                "escalation_action": "escalate",
                "confidence": round(rng.uniform(0.6, 1.0), 2),
                "confidence_method": "linguistic_approximation",
                "source_scientist": "R. Synth",
            }
        ]
    if rng.random() < 0.3:
        doc["method_alternatives"] = [
            {
                "step_id": f"ST-{subgraph}-001",
                "name": "alternate cleanup",
                "tradeoff": "cheaper but dirtier",
            }
        ]
    if rng.random() < 0.3:
        doc["automation_context"] = [
            {"asset_name": "Synth Robot", "use_case_names": [rng.choice(USE_CASES)]}
        ]
    return doc


def test_c01_reapplying_a_plan_is_idempotent():
    rng = random.Random(20260825)
    with verdict(1, "100 randomized documents: apply twice hashes equal apply once"):
        for i in range(100):
            subgraph = f"SYN{i:03d}"
            doc = parse_seo(json.dumps(synth_doc_json(rng, subgraph)))
            plan = compile_seo(doc, subgraph)
            once = apply_plan(Graph(builtin_registry()), plan)
            twice = apply_plan(once, plan)
            assert graph_hash(twice) == graph_hash(once)


def test_c02_compilation_is_deterministic(fixtures_dir):
    with verdict(2, "triple compile byte-identical; self agreement f1 1.0, variance 0"):
        raw = (fixtures_dir / "elisa.seo.json").read_bytes()
        blobs = {plan_to_bytes(compile_seo(parse_seo(raw), "ELISA")) for _ in range(3)}
        assert len(blobs) == 1
        report = compare_extractions([parse_seo(raw) for _ in range(3)])
        assert report.mode == "within_agent"
        assert report.fm_f1 == 1.0
        assert report.fm_f1_variance == 0.0


def test_c03_top_silent_failure(federated):
    with verdict(3, "highest-confidence silent failure is Washer Carryover at 0.90"):
        top = ranked_silent_failures(federated, "ELISA")[0]
        assert top.name == "Washer Carryover"
        assert abs(top.confidence - 0.90) <= TOL
        assert top.silent is True
        assert top.masking_assets == ("EL406 Plate Washer",)


def test_c04_top_cross_assay_failure(federated):
    with verdict(4, "top-ranked LCMS failure is Recombinant/Endogenous Mismatch at 0.90"):
        top = ranked_failures(federated, "LCMS_PRM")[0]
        assert top.name == "Recombinant/Endogenous Mismatch"
        assert abs(top.confidence - 0.90) <= TOL


def test_c05_readout_decision_points(federated):
    with verdict(5, "Plate Readout carries exactly 6 fully specified decision points"):
        rows = step_decision_points(federated, "ELISA", "ST-ELISA-009")
        assert len(rows) == 6
        for row in rows:
            assert isinstance(row.threshold_value, float)
            assert row.comparator in ("<=", ">=", "==", "within_range")
            assert row.pass_action and row.fail_action and row.escalation_action


def test_c06_cascade_traversal(federated):
    with verdict(6, "depth-2 cascade reaches Standard Curve Failure; cycles terminate"):
        paths = cascade_paths(federated, "ELISA", "FM-ELISA-001", 2)
        assert (
            "Washer Carryover",
            "High Background / Nonspecific Signal",
            "Standard Curve Failure",
        ) in paths

        graph = Graph(builtin_registry())
        keys = []
        for i, name in enumerate(("alpha", "beta", "gamma"), start=1):
            key = NodeKey("SYN", "FailureMode", f"FM-SYN-00{i}")
            graph = merge(graph, [Node(key, {"name": Prop(name)})])
            keys.append(key)
        graph = merge(graph, [Edge("CASCADES_TO", keys[0], keys[1])])
        graph = merge(graph, [Edge("CASCADES_TO", keys[1], keys[2])])
        graph = merge(graph, [Edge("CASCADES_TO", keys[2], keys[0])])
        assert cascade_paths(graph, "SYN", "FM-SYN-001", 50) == [
            ("alpha", "beta"),
            ("alpha", "beta", "gamma"),
        ]


def test_c07_elicitation_gap_report(federated):
    with verdict(7, "gap scan returns 3 rows with Plate Readout evaluative"):
        rows = elicitation_gaps(federated, "ELISA")
        assert len(rows) == 3
        by_id = {row.id: row for row in rows}
        assert by_id["ST-ELISA-009"].name == "Plate Readout"
        assert by_id["ST-ELISA-009"].status == "EVALUATIVE_STEP"
        assert by_id["ST-ELISA-003"].status == "ELICITATION_GAP"
        assert by_id["ST-ELISA-008"].status == "ELICITATION_GAP"


def test_c08_low_confidence_floor(federated):
    with verdict(8, "3 LCMS claims sit at the 0.60 floor; FM-LCMS-022 is a silent 0.65"):
        rows = low_confidence_claims(federated, "LCMS_PRM", 0.60)
        assert len(rows) == 3
        wider = {row.id: row for row in low_confidence_claims(federated, "LCMS_PRM", 0.65)}
        assert abs(wider["FM-LCMS-022"].confidence - 0.65) <= TOL
        assert wider["FM-LCMS-022"].silent_failure_risk is True


def test_c09_masking_needs_convergence(federated, unconverged_federated):
    with verdict(9, "masking exposures appear only after convergence; loop flagged"):
        assert masking_exposures(unconverged_federated, "ELISA") == []
        rows = masking_exposures(federated, "ELISA")
        assert len(rows) == 2
        assert all(row.asset_name == "EL406 Plate Washer" for row in rows)
        loops = {row.failure_mode_name: row.loop for row in rows}
        assert loops == {
            "Washer Carryover": True,
            "High Background / Nonspecific Signal": False,
        }


def test_c10_automation_reuse_census(federated):
    with verdict(10, "22 assets across three tiers; 31 automation edges over 15 use cases"):
        rows = automation_reuse(federated)
        assert len(rows) == 22
        tiers: dict[str, int] = {}
        for row in rows:
            tiers[row.tier] = tiers.get(row.tier, 0) + 1
        assert tiers == {"SHARED_BOTH": 10, "ELISA_ONLY": 6, "LCMS_PRM_ONLY": 6}
        requires = [e for e in federated.edges("REQUIRES_AUTOMATION") if not e.pending]
        assert len(requires) == 31
        assert len(federated.nodes("UseCase")) == 15


def test_c11_confidence_profiles(federated):
    with verdict(11, "ELISA mean 0.820 and LCMS mean 0.710, both within 0.005"):
        elisa = subgraph_stats(federated, "ELISA")
        lcms = subgraph_stats(federated, "LCMS_PRM")
        assert elisa.n_failure_modes == 18
        assert abs(elisa.mean_confidence - 0.820) <= 0.005
        assert lcms.n_failure_modes == 23
        assert abs(lcms.mean_confidence - 0.710) <= 0.005


def test_c12_matching_arithmetic():
    with verdict(12, "f1 reproduces 1.0000, 0.4286 and recall 0.2222 within 1e-4"):
        names = [f"failure mode {i}" for i in range(13)]
        precision, recall, score = f1(match_failure_modes(names, list(names)))
        assert (precision, recall, score) == (1.0, 1.0, 1.0)

        reference = [f"failure mode {i}" for i in range(9)]
        candidate = [f"failure mode {i}" for i in range(3)] + ["ghost a", "ghost b"]
        precision, recall, score = f1(match_failure_modes(reference, candidate))
        assert abs(precision - 0.6) <= TOL
        assert abs(recall - 0.3333) <= TOL
        assert abs(score - 0.4286) <= TOL

        precision, recall, score = f1(match_failure_modes(reference, reference[:2]))
        assert abs(recall - 0.2222) <= TOL


# -- contamination guard corpus (criterion 13) ------------------------------


def operational_json() -> dict:
    return {
        "session_mode": "OPERATIONAL",
        "protocol": None,
        "decision_model": None,
        "strategic": None,
        "method_alternatives": None,
        "automation_context": None,
        "twin_metadata": {"source_scientist": "O. Runner", "session_mode": "OPERATIONAL"},
    }


def operational_step(index: int, n_claims: int) -> dict:
    return {
        "name": f"run stage {index}",
        "step_index": index,
        "failure_modes": [
            {
                "name": f"observed drift {index}.{j}",
                "confidence": 0.7,
                "confidence_method": "linguistic_approximation",
                "source_scientist": "O. Runner",
            }
            for j in range(n_claims)
        ],
    }


DP_CLAIM = {
    "step_id": "ST-OPS-001",
    "condition_type": "threshold",
    "threshold_value": 1.5,
    "comparator": "<=",
    "units": "au",
    "pass_action": "proceed",
    "fail_action": "repeat",
    "escalation_action": "escalate",
    "confidence": 0.8,
    "confidence_method": "linguistic_approximation",
    "source_scientist": "O. Runner",
}

CONTAMINATED_MODELS = [
    {"_elicitation_scope": "full"},
    {"_elicitation_scope": "full", "decision_points": []},
    {"_elicitation_scope": "full", "design_rationale": "kept design notes"},
    {"_elicitation_scope": "full", "decision_points": [], "design_rationale": "notes"},
    {"_elicitation_scope": "full", "decision_points": [DP_CLAIM]},
    {"_elicitation_scope": "operational_only", "decision_points": []},
    {"_elicitation_scope": "operational_only", "decision_points": [DP_CLAIM]},
    {"_elicitation_scope": "operational_only", "design_rationale": "because"},
    {"_elicitation_scope": "operational_only", "design_rationale": ""},
    {
        "_elicitation_scope": "operational_only",
        "decision_points": [],
        "design_rationale": "z",
    },
]


def test_c13_contamination_guard_corpus():
    with verdict(13, "10 contaminated documents rejected, 10 clean ones decision-free"):
        for model in CONTAMINATED_MODELS:
            raw = operational_json()
            raw["decision_model"] = model
            doc = parse_seo(json.dumps(raw))
            report = validate_seo(doc)
            assert report.has("ContaminationGuardViolation")
            with pytest.raises(Rejected) as err:
                compile_seo(doc, "OPS")
            assert err.value.report.has("ContaminationGuardViolation")

        for i in range(10):
            raw = operational_json()
            if i > 0:
                raw["protocol"] = {
                    "workflow_id": "WF-OPS-01",
                    "workflow_name": "Overnight run",
                    "subgraph": "OPS",
                    "steps": [operational_step(n + 1, n_claims=i % 3) for n in range(i % 4)],
                }
            doc = parse_seo(json.dumps(raw))
            assert validate_seo(doc).ok
            plan = compile_seo(doc, "OPS")
            assert not any(stmt.key.label == "DecisionPoint" for stmt in plan.nodes)


def test_c14_schema_boundaries(registry):
    with verdict(14, "confidence band edges, shelf ordering, and endpoint labels enforced"):
        for confidence, rejected in ((0.599, True), (0.600, False), (1.000, False), (1.001, True)):
            raw = operational_json()
            raw["protocol"] = {
                "workflow_id": "WF-OPS-01",
                "workflow_name": "Overnight run",
                "subgraph": "OPS",
                "steps": [
                    {
                        "name": "watchpoint",
                        "step_index": 1,
                        "failure_modes": [
                            {
                                "name": "boundary probe",
                                "confidence": confidence,
                                "confidence_method": "linguistic_approximation",
                                "source_scientist": "O. Runner",
                            }
                        ],
                    }
                ],
            }
            report = validate_seo(parse_seo(json.dumps(raw)))
            assert report.has("ConfidenceOutOfRange") is rejected

        shelf = operational_json()
        shelf["protocol"] = {
            "workflow_id": "WF-OPS-01",
            "workflow_name": "Overnight run",
            "subgraph": "OPS",
            "steps": [
                {
                    "name": "watchpoint",
                    "step_index": 1,
                    "failure_modes": [
                        {
                            "name": "shuffled shelf",
                            "confidence": 0.8,
                            "confidence_method": "SHELF_elicited",
                            "source_scientist": "O. Runner",
                            "silent_failure_risk": True,
                            "frequency_min": 0.2,
                            "frequency_best": 0.1,
                            "frequency_max": 0.3,
                        }
                    ],
                }
            ],
        }
        assert validate_seo(parse_seo(json.dumps(shelf))).has("ShelfOrderViolation")

        graph = Graph(builtin_registry())
        step_key = NodeKey("OPS", "WorkflowStep", "ST-OPS-001")
        case_key = NodeKey("OPS", "UseCase", "UC-watch")
        graph = merge(graph, [Node(step_key, {"name": Prop("watchpoint")})])
        graph = merge(graph, [Node(case_key, {"name": Prop("watch")})])
        graph = merge(graph, [Edge("MASKED_BY", step_key, case_key)])
        assert validate_graph(graph, registry).has("EndpointLabelViolation")


NODE_LINE = re.compile(
    r'^MERGE \(n:[A-Za-z]+ \{subgraph:"[A-Z0-9_]+", id:"[A-Za-z0-9_-]+"\}\)'
    r" SET n\.[a-z_]+ = .+;$"
)
EDGE_LINE = re.compile(
    r'^MATCH \(a:[A-Za-z]+ \{subgraph:"[A-Z0-9_]+", id:"[A-Za-z0-9_-]+"\}\),'
    r' \(b:[A-Za-z]+ \{subgraph:"[A-Z0-9_]+", id:"[A-Za-z0-9_-]+"\}\)'
    r" MERGE \(a\)-\[r:[A-Z_]+\]->\(b\)( SET r\.pending = true)?;$"
)
MARKER_LINE = re.compile(r"^// PENDING CONVERGENCE$")


def test_c15_cypher_golden(fixtures_dir, elisa_doc):
    with verdict(15, "emitted statements match the golden file byte for byte"):
        emitted = emit_cypher(compile_seo(elisa_doc, "ELISA"))
        golden = (fixtures_dir / "golden" / "elisa_plan.cypher").read_text(encoding="utf-8")
        assert emitted == golden
        for line in emitted.splitlines():
            assert (
                NODE_LINE.match(line) or EDGE_LINE.match(line) or MARKER_LINE.match(line)
            ), line
