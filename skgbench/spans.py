"""Timing shims and in-memory spans for the traced benchmark run.

``install()`` wraps the public functions listed in ``SHIMS`` and rebinds
every module attribute in the ``skg`` package that holds the original
function object, so calls made through ``from .x import f`` bindings
(``skg.cli.load_store``, ``skg.queries.neighbors``, ...) are timed as
well as calls made through the defining module. ``uninstall()`` puts
the originals back. Nothing in the package itself changes.

Each call records one span: name, start, end and the id of the span
that was open when it began. Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

# (module, function) pairs wrapped in the traced run; the span name is
# "<layer>.<function>" where the layer is the module name without "skg."
SHIMS = (
    ("skg.cli", "main"),
    ("skg.seo", "parse_seo"),
    ("skg.seo", "validate_seo"),
    ("skg.annotator", "compile_seo"),
    ("skg.annotator", "plan_to_bytes"),
    ("skg.annotator", "load_plan"),
    ("skg.annotator", "apply_plan"),
    ("skg.annotator", "approve_pending"),
    ("skg.graph_core", "load_store"),
    ("skg.graph_core", "save_store"),
    ("skg.graph_core", "canonical_serialize"),
    ("skg.graph_core", "graph_hash"),
    ("skg.graph_core", "neighbors"),
    ("skg.ontology", "validate_graph"),
    ("skg.queries", "ranked_failures"),
    ("skg.queries", "ranked_silent_failures"),
    ("skg.queries", "step_decision_points"),
    ("skg.queries", "cascade_paths"),
    ("skg.queries", "elicitation_gaps"),
    ("skg.queries", "low_confidence_claims"),
    ("skg.queries", "masking_exposures"),
    ("skg.queries", "automation_reuse"),
    ("skg.queries", "subgraph_stats"),
    ("skg.queries", "rows_to_tsv"),
    ("skg.queries", "rows_to_json"),
    ("skg.metrics", "compare_extractions"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0  # work done, as the shim reads it from arguments or result
    target: str = ""  # the store path, for save_store

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count(name: str, args: tuple, result: object) -> int:
    """Units of work one call did, read from its arguments or result."""
    fn = name.split(".", 1)[1]
    if fn == "apply_plan":
        plan = args[1]
        return len(plan.nodes) + len(plan.edges) + len(plan.pending_edges)
    if fn == "approve_pending":
        return len(result[1])
    if fn == "load_store":
        return result.node_count + result.edge_count
    if fn == "save_store":
        return Path(args[1]).stat().st_size  # bytes written
    if fn == "canonical_serialize":
        return len(result)
    if fn == "compare_extractions":
        return len(result.comparisons)
    if name.startswith("queries.") and isinstance(result, list):
        return len(result)
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def shim(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else None, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.count = _count(name, args, result)
            if name == "graph_core.save_store":
                span.target = str(args[1])
            return result

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "skg" or n.startswith("skg.")]
        for module_name, attr in SHIMS:
            original = getattr(sys.modules[module_name], attr)
            shim = self._wrap(f"{module_name[4:]}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, name, original))
                        setattr(module, name, shim)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span, indexed like ``spans``."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def total(self, name: str) -> tuple[float, int, int]:
        """(seconds, calls, counted units) over every span called ``name``.

        Seconds are inclusive, but a call nested in a call of the same
        name (recursion through a shim) is not counted twice.
        """
        seconds = 0.0
        calls = units = 0
        for s in self.spans:
            if s.name != name:
                continue
            calls += 1
            units += s.count
            if s.parent is None or not self._inside(s.parent, name):
                seconds += s.duration
        return seconds, calls, units

    def _inside(self, span_id: int | None, name: str) -> bool:
        while span_id is not None:
            span = self.spans[span_id]
            if span.name == name:
                return True
            span_id = span.parent
        return False

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (span-name prefix)."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def count_within(self, inner: str, outer_prefix: str) -> int:
        """Calls of ``inner`` made while a span named ``outer_prefix``* was open."""
        n = 0
        for s in self.spans:
            if s.name != inner:
                continue
            parent = s.parent
            while parent is not None:
                if self.spans[parent].name.startswith(outer_prefix):
                    n += 1
                    break
                parent = self.spans[parent].parent
        return n
