"""Scale generator and answer oracle for the skg benchmark.

The generator rewrites the four fixture documents at the JSON level, so
every generated federation still goes through the real parse, validate,
compile and apply path. Copy 1 keeps the fixture names and is therefore
exactly the fixture corpus; copy i > 1 renames its protocol subgraph to
``<SUBGRAPH>_i``, points its program document's ``sourced_from``
references at those subgraphs and gives the program document a
``PROGRAM_i`` subgraph of its own.

The automation fleet has two shapes:

* ``shared``: one AUTOMATION document; every copy names the same assets
  and use cases, so hub degree grows with the copy count;
* ``per-copy``: one AUTOMATION document per copy, with asset and use-case
  names suffixed by the copy number in every document, so the edge count
  grows and hub degree stays constant.

The oracle computes expected query answers from the document JSON alone;
it imports nothing from ``skg``.
"""

from __future__ import annotations

import copy
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

FIXTURE_DOCS = (
    ("elisa.seo.json", "ELISA"),
    ("lcms_prm.seo.json", "LCMS_PRM"),
    ("automation.seo.json", "AUTOMATION"),
    ("program.seo.json", "PROGRAM"),
)
EXECUTION_SUBGRAPH = "AUTOMATION"
FLEETS = ("shared", "per-copy")


@dataclass(frozen=True)
class Doc:
    """One generated session document and the subgraph it targets."""

    name: str
    subgraph: str
    data: dict
    needs_subgraph_flag: bool  # no protocol layer, so `apply` needs --subgraph

    def to_bytes(self) -> bytes:
        return (json.dumps(self.data, indent=1, ensure_ascii=False) + "\n").encode("utf-8")


def _subgraph(base: str, i: int) -> str:
    return base if i == 1 else f"{base}_{i}"


def _asset_name(name: str, i: int, fleet: str) -> str:
    return name if fleet == "shared" or i == 1 else f"{name} {i}"


def _assay_copy(data: dict, i: int, fleet: str) -> dict:
    out = copy.deepcopy(data)
    proto = out["protocol"]
    proto["subgraph"] = _subgraph(proto["subgraph"], i)
    for step in proto["steps"]:
        step["required_use_cases"] = [
            _asset_name(n, i, fleet) for n in step.get("required_use_cases") or []
        ]
        for fm in step["failure_modes"]:
            if fm.get("masked_by_assets"):
                fm["masked_by_assets"] = [_asset_name(n, i, fleet) for n in fm["masked_by_assets"]]
    return out


def _automation_copy(data: dict, i: int) -> dict:
    out = copy.deepcopy(data)
    for claim in out["automation_context"]:
        claim["asset_name"] = _asset_name(claim["asset_name"], i, "per-copy")
        claim["use_case_names"] = [_asset_name(n, i, "per-copy") for n in claim["use_case_names"]]
    return out


def _program_copy(data: dict, i: int) -> dict:
    out = copy.deepcopy(data)
    for pm in out["strategic"]["program_milestones"]:
        for ei in pm["evidentiary_inputs"]:
            src = ei.get("sourced_from")
            if src:
                src["subgraph"] = _subgraph(src["subgraph"], i)
    return out


def load_fixtures(fixtures: Path) -> dict[str, dict]:
    return {
        sub: json.loads((fixtures / name).read_text(encoding="utf-8"))
        for name, sub in FIXTURE_DOCS
    }


def federation(fixtures: dict[str, dict], copies: int, fleet: str) -> list[Doc]:
    """Generated documents in corpus order: per copy ELISA, LCMS_PRM, AUTOMATION, PROGRAM.

    The shared fleet has a single AUTOMATION document, in copy 1.
    """
    if fleet not in FLEETS:
        raise ValueError(f"fleet must be one of {FLEETS}, not {fleet!r}")
    docs = []
    for i in range(1, copies + 1):
        for base in ("ELISA", "LCMS_PRM"):
            sg = _subgraph(base, i)
            docs.append(Doc(f"{sg.lower()}.seo.json", sg, _assay_copy(fixtures[base], i, fleet), False))
        if fleet == "per-copy" or i == 1:
            name = "automation.seo.json" if i == 1 else f"automation_{i}.seo.json"
            docs.append(Doc(name, EXECUTION_SUBGRAPH, _automation_copy(fixtures["AUTOMATION"], i), True))
        sg = _subgraph("PROGRAM", i)
        docs.append(Doc(f"{sg.lower()}.seo.json", sg, _program_copy(fixtures["PROGRAM"], i), True))
    return docs


# -- oracle ----------------------------------------------------------------

_BRACKETED = re.compile(r"\([^)]*\)|\[[^\]]*\]")
_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def _norm(name: str) -> str:
    text = unicodedata.normalize("NFKC", name).casefold()
    text = _NON_ALNUM.sub(" ", _BRACKETED.sub(" ", text))
    return " ".join(text.split())


def _slug(name: str) -> str:
    return _norm(name).replace(" ", "-")


@dataclass
class Expected:
    """Answers derived from documents alone, keyed by subgraph where relevant."""

    fm: dict = field(default_factory=dict)  # sg -> {fm id: (name, confidence, silent)}
    masking: dict = field(default_factory=dict)  # sg -> sorted [(asset id, fm id)]
    step_status: dict = field(default_factory=dict)  # sg -> {step id: status} for steps without FMs
    steps: dict = field(default_factory=dict)  # sg -> [step ids]
    decision_points: dict = field(default_factory=dict)  # (sg, step id) -> sorted dp ids
    low_conf: dict = field(default_factory=dict)  # sg -> {id: confidence} for FMs and DPs
    cascades: dict = field(default_factory=dict)  # (sg, fm id) -> {fm id: [target fm ids]}
    reuse: dict = field(default_factory=dict)  # asset id -> (serving subgraphs, tier)
    label_counts: Counter = field(default_factory=Counter)
    subgraphs: list = field(default_factory=list)

    def silent(self, sg: str) -> list[str]:
        return sorted(i for i, (_, _, s) in self.fm[sg].items() if s)

    def ranked(self, sg: str) -> list[str]:
        return [i for i, _ in sorted(self.fm[sg].items(), key=lambda kv: (-kv[1][1], kv[0]))]

    def low_confidence(self, sg: str, threshold: float) -> list[str]:
        return sorted(i for i, c in self.low_conf.get(sg, {}).items() if c <= threshold)

    def cascade_paths(self, sg: str, root: str, depth: int) -> list[tuple[str, ...]]:
        names = {i: n for i, (n, _, _) in self.fm[sg].items()}
        out: list[tuple[str, ...]] = []

        def walk(fm_id, path, seen, d):
            if d == depth:
                return
            for nxt in self.cascades[sg].get(fm_id, ()):
                if nxt in seen:
                    continue
                p = path + (names[nxt],)
                out.append(p)
                walk(nxt, p, seen | {nxt}, d + 1)

        walk(root, (names[root],), {root}, 0)
        return sorted(out, key=lambda p: (len(p), p))


def expect(docs: list[Doc]) -> Expected:
    """Expected answers over the converged federation of ``docs``."""
    ex = Expected()
    keys: set[tuple[str, str, str]] = set()  # (subgraph, label, id), claimed records and stubs
    suitable: dict[str, set[str]] = {}  # use case id -> asset ids
    requires: dict[str, set[str]] = {}  # use case id -> requiring subgraphs
    for doc in docs:
        sg, data = doc.subgraph, doc.data
        ex.subgraphs.append(sg)
        proto = data.get("protocol")
        n_claims = 0
        if proto:
            keys.add((sg, "AssayWorkflow", proto["workflow_id"]))
            fms = ex.fm.setdefault(sg, {})
            by_name = {}
            step_ids = []
            for step in proto["steps"]:
                step_ids.append(step["id"])
                keys.add((sg, "WorkflowStep", step["id"]))
                for uc in step.get("required_use_cases") or []:
                    keys.add((EXECUTION_SUBGRAPH, "UseCase", "UC-" + _slug(uc)))
                    requires.setdefault("UC-" + _slug(uc), set()).add(sg)
                for fm in step["failure_modes"]:
                    n_claims += 1
                    keys.add((sg, "FailureMode", fm["id"]))
                    by_name[_norm(fm["name"])] = fm["id"]
            ex.steps[sg] = step_ids
            masking = ex.masking.setdefault(sg, [])
            cascades = ex.cascades.setdefault(sg, {})
            low = ex.low_conf.setdefault(sg, {})
            for step in proto["steps"]:
                for fm in step["failure_modes"]:
                    masked = fm.get("masked_by_assets") or []
                    detected = fm.get("detected_by") or []
                    silent = bool(masked) or (bool(fm.get("silent_failure_risk")) and not detected)
                    fms[fm["id"]] = (fm["name"], fm["confidence"], silent)
                    low[fm["id"]] = fm["confidence"]
                    for asset in masked:
                        keys.add((EXECUTION_SUBGRAPH, "AutomationAsset", "AA-" + _slug(asset)))
                        masking.append(("AA-" + _slug(asset), fm["id"]))
                    for sig in detected:
                        keys.add((sg, "ErrorSignature", "ES-" + _slug(sig)))
                    for target in fm.get("cascades_to") or []:
                        # the generator keeps names, so every target is a claimed mode
                        cascades.setdefault(fm["id"], []).append(by_name[_norm(target)])
            masking.sort()
            dps: dict[str, list[str]] = {}
            dm = data.get("decision_model") or {}
            for dp in dm.get("decision_points") or []:
                n_claims += 1
                keys.add((sg, "DecisionPoint", dp["id"]))
                keys.add((sg, "WorkflowStep", dp["step_id"]))
                dps.setdefault(dp["step_id"], []).append(dp["id"])
                low[dp["id"]] = dp["confidence"]
            for step_id, ids in dps.items():
                ex.decision_points[(sg, step_id)] = sorted(ids)
            for n, ma in enumerate(data.get("method_alternatives") or [], start=1):
                keys.add((sg, "WorkflowStep", ma["step_id"]))
                keys.add((sg, "MethodAlternative", f"MA-{sg}-{n:03d}"))
            with_fm = {s["id"] for s in proto["steps"] if s["failure_modes"]}
            ex.step_status[sg] = {
                step_id: "EVALUATIVE_STEP" if step_id in dps else "ELICITATION_GAP"
                for step_id in sorted({k[2] for k in keys if k[:2] == (sg, "WorkflowStep")})
                if step_id not in with_fm
            }
        for claim in data.get("automation_context") or []:
            asset = "AA-" + _slug(claim["asset_name"])
            keys.add((EXECUTION_SUBGRAPH, "AutomationAsset", asset))
            for uc in claim["use_case_names"]:
                keys.add((EXECUTION_SUBGRAPH, "UseCase", "UC-" + _slug(uc)))
                suitable.setdefault("UC-" + _slug(uc), set()).add(asset)
        strategic = data.get("strategic") or {}
        for pm in strategic.get("program_milestones") or []:
            keys.add((sg, "ProgramMilestone", pm["id"]))
            for ei in pm["evidentiary_inputs"]:
                keys.add((sg, "EvidentiaryInput", ei["id"]))
                src = ei.get("sourced_from")
                if src:
                    keys.add((src["subgraph"], "AssayWorkflow", src["workflow_id"]))
        if n_claims:
            keys.add((sg, "CalibrationRecord", f"CAL-{sg}"))  # one per claiming document
    serving: dict[str, set[str]] = {}
    for uc, assets in suitable.items():
        for asset in assets:
            serving.setdefault(asset, set()).update(requires.get(uc, ()))
    for _, label, asset in keys:
        if label == "AutomationAsset":
            subs = tuple(sorted(serving.get(asset, ())))
            tier = "SHARED_BOTH" if len(subs) >= 2 else f"{subs[0]}_ONLY" if subs else "UNUSED"
            ex.reuse[asset] = (subs, tier)
    ex.label_counts = Counter(label for _, label, _ in keys)
    return ex
