"""Read-side queries over federation state.

Every query returns a deterministically ordered list of rows, each a
``NamedTuple`` that equals the plain tuple of its fields; rendering to
TSV or canonical JSON is separate so the same rows back both the CLI and
the tests.

Every query crosses edges only through ``graph_core.neighbors``, one
O(degree) hop from a node it already holds, and never lists edges.
``neighbors`` never crosses a pending edge, so pending cross-subgraph
edges are invisible here: a masking relation or an automation
requirement that has not been approved does not count as knowledge yet.

A failure mode is treated as silent when an approved masking relation
hides it behind an instrument, or when the scientist marked it a silent
risk and no log signature detects it.

Every query that takes a subgraph ``S`` reads only the nodes of ``S``,
the edges with an endpoint in ``S``, and records lying wholly inside a
subgraph such an edge reaches (the ``SUITABLE_FOR`` edges of a use case
that a step of ``S`` requires, for ``masking_exposures``). That is what
``load_store(path, registry, S)`` keeps of a trusted store, so
``skg query`` and ``skg stats`` load with their ``--subgraph``. A query
that reads further, such as ``automation_reuse``, which reads every
subgraph, must be given a whole load.
"""

from __future__ import annotations

from typing import NamedTuple

from .canonical import plain_number, render_number, render_text
from .errors import RangeError
from .graph_core import Graph, Node, NodeKey, neighbors
from .ontology import CONFIDENCE_CEILING, CONFIDENCE_FLOOR

SHARED_TIER = "SHARED_BOTH"
UNUSED_TIER = "UNUSED"

EVALUATIVE_STEP = "EVALUATIVE_STEP"
ELICITATION_GAP = "ELICITATION_GAP"


class RankedFailureRow(NamedTuple):
    id: str
    name: str
    confidence: float
    silent: bool
    masking_assets: tuple[str, ...]
    confidence_method: str
    source_scientist: str


class DecisionPointRow(NamedTuple):
    id: str
    name: str
    condition_type: str
    threshold_value: float
    comparator: str
    units: str
    pass_action: str
    fail_action: str
    escalation_action: str
    confidence: float


class StepGapRow(NamedTuple):
    id: str
    name: str
    step_index: float
    status: str
    decision_point_count: int


class LowConfidenceRow(NamedTuple):
    id: str
    label: str
    name: str
    confidence: float
    silent_failure_risk: bool | None
    flagged_for_review: bool | None


class MaskingRow(NamedTuple):
    asset_id: str
    asset_name: str
    failure_mode_id: str
    failure_mode_name: str
    loop: bool
    loop_path: tuple[str, ...]


class AssetReuseRow(NamedTuple):
    id: str
    name: str
    use_cases: tuple[str, ...]
    serving_subgraphs: tuple[str, ...]
    tier: str


def _subgraph_stats_type() -> type:
    """``SubgraphStats``, a frozen dataclass, built on first use and kept.

    It stays a dataclass because skgbench/run.py, its last user, renders
    it with ``dataclasses.asdict``; it is built here, not at import, so
    that only a library caller of ``subgraph_stats`` pays to import
    ``dataclasses`` (and through it ``inspect``). ``skg stats`` and
    scripts/check_fixtures.py render ``subgraph_stats_record``.
    """
    built = globals().get("SubgraphStats")
    if built is not None:
        return built
    from dataclasses import dataclass

    class SubgraphStats:
        subgraph: str
        n_failure_modes: int
        mean_confidence: float | None
        histogram: tuple[int, ...]
        n_at_floor: int
        n_silent: int

    SubgraphStats.__qualname__ = "SubgraphStats"  # pickle finds it as a module attribute
    built = globals()["SubgraphStats"] = dataclass(frozen=True)(SubgraphStats)
    return built


def __getattr__(name: str):
    # PEP 562: the module attribute SubgraphStats is built on first access
    if name == "SubgraphStats":
        return _subgraph_stats_type()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require_subgraph(graph: Graph, subgraph: str) -> None:
    if not graph.has_subgraph(subgraph):
        raise KeyError(subgraph)


def _name(node: Node) -> str:
    """A record's name, or its id where it has none."""
    return str(node.get("name", node.key.id))


def _masking_assets(graph: Graph, node: Node) -> tuple[str, ...]:
    return tuple(sorted(_name(asset) for asset in neighbors(graph, node.key, "MASKED_BY", "out")))


def _undetected_risk(graph: Graph, node: Node) -> bool:
    """Marked a silent risk by the scientist, and no log signature detects it."""
    if not node.get("silent_failure_risk", False):
        return False
    return not neighbors(graph, node.key, "DETECTED_BY", "out")


def is_silent(graph: Graph, node: Node) -> bool:
    return bool(_masking_assets(graph, node)) or _undetected_risk(graph, node)


def _ranked_row(graph: Graph, node: Node) -> RankedFailureRow:
    masking_assets = _masking_assets(graph, node)
    return RankedFailureRow(
        id=node.key.id,
        name=str(node.get("name", "")),
        confidence=float(node.get("confidence", CONFIDENCE_FLOOR)),
        silent=bool(masking_assets) or _undetected_risk(graph, node),
        masking_assets=masking_assets,
        confidence_method=str(node.get("confidence_method", "")),
        source_scientist=str(node.get("source_scientist", "")),
    )


def ranked_failures(graph: Graph, subgraph: str) -> list[RankedFailureRow]:
    """All failure modes in a subgraph, highest confidence first."""
    _require_subgraph(graph, subgraph)
    rows = [_ranked_row(graph, n) for n in graph.nodes("FailureMode", subgraph)]
    rows.sort(key=lambda r: (-r.confidence, r.id))
    return rows


def ranked_silent_failures(graph: Graph, subgraph: str) -> list[RankedFailureRow]:
    """The silent subset of ``ranked_failures``: the risks nobody would see."""
    return [row for row in ranked_failures(graph, subgraph) if row.silent]


def step_decision_points(graph: Graph, subgraph: str, step_id: str) -> list[DecisionPointRow]:
    """Decision points attached to one workflow step, by id.

    Raises:
        KeyError: the step does not exist.
    """
    step = graph.node(NodeKey(subgraph, "WorkflowStep", step_id))
    rows = []
    for dp in neighbors(graph, step.key, "HAS_DECISION_POINT", "out"):
        rows.append(
            DecisionPointRow(
                id=dp.key.id,
                name=str(dp.get("name", "")),
                condition_type=str(dp.get("condition_type", "")),
                threshold_value=float(dp.get("threshold_value", 0.0)),
                comparator=str(dp.get("comparator", "")),
                units=str(dp.get("units", "")),
                pass_action=str(dp.get("pass_action", "")),
                fail_action=str(dp.get("fail_action", "")),
                escalation_action=str(dp.get("escalation_action", "")),
                confidence=float(dp.get("confidence", CONFIDENCE_FLOOR)),
            )
        )
    rows.sort(key=lambda r: r.id)
    return rows


def cascade_paths(
    graph: Graph,
    subgraph: str,
    failure_mode_id: str,
    max_depth: int,
    direction: str = "down",
) -> list[tuple[str, ...]]:
    """Cascade chains from one failure mode, as name paths.

    ``down`` follows effects (what this mode causes); ``up`` follows
    causes (what cascades into it). Returns every simple path of one to
    ``max_depth`` hops; cycles are truncated at the first revisited
    record. Paths sort shortest first, then lexically.

    Raises:
        KeyError: the root failure mode does not exist.
        RangeError: ``max_depth`` is negative.
        ValueError: ``direction`` is not ``down`` or ``up``.
    """
    if max_depth < 0:
        raise RangeError(f"max_depth must be >= 0, got {max_depth}")
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be down|up, not {direction!r}")
    hop = "out" if direction == "down" else "in"
    root_key = NodeKey(subgraph, "FailureMode", failure_mode_id)
    root = graph.node(root_key)
    paths: list[tuple[str, ...]] = []
    # an explicit stack: a nested function that recurses through its own
    # closure cell is a reference cycle, which keeps the graph alive until
    # the next garbage collection
    stack = [(root_key, (_name(root),), frozenset({root_key}))]
    while stack:
        key, names, visited = stack.pop()
        if len(names) > max_depth:  # the root's name and one per hop
            continue
        for nxt in neighbors(graph, key, "CASCADES_TO", hop):
            if nxt.key in visited:
                continue
            path = names + (_name(nxt),)
            paths.append(path)
            stack.append((nxt.key, path, visited | {nxt.key}))
    paths.sort(key=lambda p: (len(p), p))
    return paths


def elicitation_gaps(graph: Graph, subgraph: str) -> list[StepGapRow]:
    """Steps without a single elicited failure mode, in workflow order.

    A step that at least carries decision points is an evaluative step
    (nothing physical happens that could fail unseen); one with neither
    is a genuine elicitation gap for the next session to close.
    """
    _require_subgraph(graph, subgraph)
    rows = []
    for step in graph.nodes("WorkflowStep", subgraph):
        if neighbors(graph, step.key, "CAUSES_IF_INCOMPLETE", "out"):
            continue
        n_points = len(neighbors(graph, step.key, "HAS_DECISION_POINT", "out"))
        rows.append(
            StepGapRow(
                id=step.key.id,
                name=str(step.get("name", "")),
                step_index=float(step.get("step_index", 0)),
                status=EVALUATIVE_STEP if n_points else ELICITATION_GAP,
                decision_point_count=n_points,
            )
        )
    rows.sort(key=lambda r: (r.step_index, r.id))
    return rows


def low_confidence_claims(
    graph: Graph, subgraph: str, threshold: float
) -> list[LowConfidenceRow]:
    """Failure modes and decision points at or below a confidence threshold.

    Raises:
        RangeError: threshold outside the confidence range.
    """
    if not CONFIDENCE_FLOOR <= threshold <= CONFIDENCE_CEILING:
        raise RangeError(
            f"threshold {threshold} outside [{CONFIDENCE_FLOOR}, {CONFIDENCE_CEILING}]"
        )
    _require_subgraph(graph, subgraph)
    rows = []
    for label in ("DecisionPoint", "FailureMode"):
        for node in graph.nodes(label, subgraph):
            confidence = node.get("confidence")
            if confidence is None or confidence > threshold:
                continue
            rows.append(
                LowConfidenceRow(
                    id=node.key.id,
                    label=label,
                    name=str(node.get("name", "")),
                    confidence=float(confidence),
                    silent_failure_risk=node.get("silent_failure_risk"),
                    flagged_for_review=node.get("flagged_for_review"),
                )
            )
    rows.sort(key=lambda r: r.id)
    return rows


def masking_exposures(graph: Graph, subgraph: str) -> list[MaskingRow]:
    """Approved masking relations, with self-masking loop detection.

    A loop exists when a step that causes the failure mode requires an
    automation use case served by the very instrument that masks it:
    the instrument hides the evidence of its own work product failing.
    ``loop_path`` holds the first such chain in sorted order, as
    (step, use case, asset, failure mode) names.
    """
    _require_subgraph(graph, subgraph)
    rows = []
    # sources of any label, as the store holds them; (source, asset) key order
    for fm in graph.nodes(subgraph=subgraph):
        for asset in neighbors(graph, fm.key, "MASKED_BY", "out"):
            loop_path: tuple[str, ...] = next(
                (
                    (_name(step), _name(use_case), _name(asset), _name(fm))
                    for step in neighbors(graph, fm.key, "CAUSES_IF_INCOMPLETE", "in")
                    for use_case in neighbors(graph, step.key, "REQUIRES_AUTOMATION", "out")
                    if asset in neighbors(graph, use_case.key, "SUITABLE_FOR", "out")
                ),
                (),
            )
            rows.append(
                MaskingRow(
                    asset_id=asset.key.id,
                    asset_name=_name(asset),
                    failure_mode_id=fm.key.id,
                    failure_mode_name=_name(fm),
                    loop=bool(loop_path),
                    loop_path=loop_path,
                )
            )
    rows.sort(key=lambda r: (r.asset_name, r.failure_mode_name))
    return rows


def automation_reuse(graph: Graph) -> list[AssetReuseRow]:
    """Instrument reuse across subgraphs, shared assets first.

    An asset serves a subgraph when an approved requirement chain
    (step -> use case -> asset) reaches it from that subgraph. Assets
    serving two or more land in the shared tier; single-subgraph assets
    are tiered by that subgraph's name; unreached assets sort last.
    """
    rows = []
    for asset in graph.nodes("AutomationAsset"):
        use_cases = neighbors(graph, asset.key, "SUITABLE_FOR", "in")
        serving: set[str] = set()
        for use_case in use_cases:
            for step in neighbors(graph, use_case.key, "REQUIRES_AUTOMATION", "in"):
                serving.add(step.key.subgraph)
        if len(serving) >= 2:
            tier = SHARED_TIER
        elif serving:
            tier = f"{next(iter(serving))}_ONLY"
        else:
            tier = UNUSED_TIER
        rows.append(
            AssetReuseRow(
                id=asset.key.id,
                name=_name(asset),
                use_cases=tuple(sorted(_name(uc) for uc in use_cases)),
                serving_subgraphs=tuple(sorted(serving)),
                tier=tier,
            )
        )
    rows.sort(key=lambda r: (0 if r.tier == SHARED_TIER else 1, r.tier, r.name))
    return rows


_N_BINS = 8
_BIN_MILLIS = 50
_FLOOR_MILLIS = round(CONFIDENCE_FLOOR * 1000)


def subgraph_stats_record(graph: Graph, subgraph: str) -> dict:
    """Failure-mode confidence profile for one subgraph, as a plain dict.

    The dict is what ``dataclasses.asdict`` gives for ``subgraph_stats``,
    built without the dataclass, so ``skg stats`` imports no
    ``dataclasses``. The histogram has eight equal bins across the
    confidence range; binning happens on integer thousandths so float
    noise cannot move a value across a boundary.

    Raises:
        KeyError: the subgraph holds no records at all.
    """
    _require_subgraph(graph, subgraph)
    modes = graph.nodes("FailureMode", subgraph)
    confidences = []
    histogram = [0] * _N_BINS
    n_at_floor = 0
    for node in modes:
        confidence = node.get("confidence")
        if confidence is None:
            continue
        confidences.append(confidence)
        millis = round(confidence * 1000)
        if millis == _FLOOR_MILLIS:
            n_at_floor += 1
        index = min(max((millis - _FLOOR_MILLIS) // _BIN_MILLIS, 0), _N_BINS - 1)
        histogram[index] += 1
    return {
        "subgraph": subgraph,
        "n_failure_modes": len(modes),
        "mean_confidence": round(sum(confidences) / len(confidences), 3) if confidences else None,
        "histogram": tuple(histogram),
        "n_at_floor": n_at_floor,
        "n_silent": sum(1 for node in modes if is_silent(graph, node)),
    }


def subgraph_stats(graph: Graph, subgraph: str) -> SubgraphStats:
    """``subgraph_stats_record`` as a frozen ``SubgraphStats``.

    Raises:
        KeyError: the subgraph holds no records at all.
    """
    return _subgraph_stats_type()(**subgraph_stats_record(graph, subgraph))


# -- rendering -----------------------------------------------------------


# a tab, newline or CR in a text cell would split its row; "\\" escapes
# them, so it is escaped too
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def tsv_text(value: str) -> str:
    """``value`` as one TSV cell: backslash, tab, newline and CR escaped."""
    # most cells need no escape; translating every one cut the rebuild sweep's rate by a quarter
    if value.isprintable() and "\\" not in value:  # tab, newline and CR are not printable
        return value
    return value.translate(_TSV_ESCAPES)


def _cell(value: object) -> str:
    cls = value.__class__  # rows hold only these exact classes
    if cls is str:
        return tsv_text(value)
    if cls is float or cls is int:
        return render_number(value)
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return ""
    if cls is tuple:  # text items, joined by "|"; an item escapes its own "|" as "\\|"
        return "|".join([tsv_text(item).replace("|", "\\|") for item in value])
    return str(value)


def rows_to_tsv(rows: list) -> str:
    """Tab-separated rows with a header line; empty input renders as empty.

    Each row is one line of one cell per field: text cells escape
    backslash, tab, newline and CR as ``tsv_text`` does, and the items
    of a list cell also escape ``|`` as ``\\|``.
    """
    if not rows:
        return ""
    lines = ["\t".join(rows[0]._fields)]
    for row in rows:
        lines.append("\t".join(map(_cell, row)))
    return "\n".join(lines) + "\n"


def _json_cell(value: object) -> str:
    """The JSON twin of ``_cell``: ``render_value``'s bytes for every class a row holds."""
    cls = value.__class__
    if cls is str:
        return render_text(value)
    if cls is float:
        number = plain_number(value)
        return render_number(value) if number is None else repr(number)
    if cls is bool:
        return "true" if value else "false"
    if cls is int:  # a count
        return repr(value)
    if value is None:
        return "null"
    return "[" + ", ".join(map(render_text, value)) + "]"  # a tuple of texts


# row class -> (its object with a %s per field, members in sorted order;
# the indices of its fields in that order), built on the first row of the class
_JSON_LAYOUTS: dict[type, tuple[str, list[int]]] = {}


def _json_layout(cls: type) -> tuple[str, list[int]]:
    names = sorted(cls._fields)
    template = "{" + ", ".join(f"{render_text(name)}: %s" for name in names) + "}"
    layout = _JSON_LAYOUTS[cls] = (template, [cls._fields.index(name) for name in names])
    return layout


def rows_to_json(rows: list) -> str:
    """Canonical JSON array of row objects, one line.

    Each row renders from its class's layout, built once: members in
    sorted order, each cell through ``_json_cell``, which gives the
    bytes ``canonical.render_value`` gives for the row's ``_asdict()``.
    """
    rendered = []
    for row in rows:
        template, order = _JSON_LAYOUTS.get(row.__class__) or _json_layout(row.__class__)
        rendered.append(template % tuple([_json_cell(row[i]) for i in order]))
    return "[" + ", ".join(rendered) + "]\n"
