#!/usr/bin/env python3
"""skg benchmark: federate, query and rebuild workloads over scaled federations.

Run from the repository root:

    python3 skgbench/run.py --workload federate --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of closed-loop rounds run for ``--seconds`` seconds;
``--trace 1`` replays one round in this process with timing shims on the
library's public functions and reports per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from corpus import expect, federation, load_fixtures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
FIXTURE_SHA = FIXTURES / "stores" / "federated.skg.sha256"
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
# a run keeps going until it has MIN_READS read latencies, so that
# TAIL_PERCENTILE is the highest percentile with at least 10 samples beyond it
MIN_READS = 40
TAIL_PERCENTILE = 75
READ_NAMES = (
    "silent", "ranked", "decision-points", "cascades", "gaps",
    "low-confidence", "masking", "reuse", "stats",
)
# Every timing is reported at the speed where _reference_loop takes this long;
# see _reference_loop.
REFERENCE_LOOP_S = 0.005
LOW_CONFIDENCE_THRESHOLD = 0.7
CASCADE_DEPTH = 3
PERTURBED_RUNS = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    write: tuple[int, str]  # (copies, fleet) federated by `skg apply` processes each round
    read_batches: int  # batches of one process per READ_NAMES entry, each round
    read_prebuilt: tuple[int, str] | None  # store built in set-up for the reads; None: the write store
    library: tuple[int, str]  # (copies, fleet) rebuilt in process each round
    library_repeats: int
    store: str  # the store store_bytes measures: "write", "prebuilt" or "library"
    rss_of: str  # "children" or "self"


WORKLOADS = {
    "federate": Workload((4, "shared"), 1, None, (4, "shared"), 2, "write", "children"),
    "query": Workload((1, "shared"), 2, (8, "shared"), (1, "shared"), 4, "prebuilt", "children"),
    "rebuild": Workload((1, "shared"), 1, None, (16, "per-copy"), 1, "library", "self"),
}


def _reference_loop() -> float:
    """Time a fixed piece of interpreter work that runs no skg code.

    A shared or virtualised CPU can change speed by 40 % between states that
    last from seconds to minutes, and skg's own work scales with it. A run
    scales its timings by REFERENCE_LOOP_S over the mean of these samples, so
    that two runs made in different states still compare.
    """
    start = time.perf_counter()
    table = {str(k): k * k for k in range(20000)}
    sorted(table.values(), reverse=True)
    return time.perf_counter() - start


def _percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sidecar(store: Path) -> Path:
    return store.with_name(store.name[: -len(".jsonl")] + ".sha256")


def _node_labels(store_bytes: bytes) -> Counter:
    labels: Counter = Counter()
    for line in store_bytes.decode("utf-8").splitlines()[1:]:
        record = json.loads(line)
        if record["kind"] == "node":
            labels[record["label"]] += 1
    return labels


class Cli:
    """Runs `skg` commands as processes, or through skg.cli.main in the traced run."""

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, args: list[str]) -> tuple[int, str, str, float]:
        if self.in_process:
            import skg.cli

            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = skg.cli.main(args)
            return code, out.getvalue(), err.getvalue(), time.perf_counter() - start
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "skg.cli", *args],
            capture_output=True, text=True, env=self.env, cwd=ROOT,
        )
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


class Bench:
    """One workload: set-up, rounds, checks, and the samples they produce."""

    def __init__(self, name: str, seed: int, work: Path, cli: Cli):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sweep_calls = 0
        self.phase_seconds: dict[str, float] = defaultdict(float)

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems

    def run_cli(self, kind: str, args: list[str]) -> str | None:
        self.samples["reference"].append(_reference_loop())
        self.attempted += 1
        code, out, err, elapsed = self.cli(args)
        if code != 0:
            self.failed += 1
            print(f"skgbench: skg {' '.join(args)} exited {code}: {err.strip()}", file=sys.stderr)
            return None
        self.samples[kind].append(elapsed)
        return out

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Generate documents, the oracle and the read store; warm the bytecode cache."""
        from skg import graph_core

        if self.work.exists():
            shutil.rmtree(self.work)
        (self.work / "docs").mkdir(parents=True)
        rng = random.Random(self.seed)
        self.fixtures = load_fixtures(FIXTURES)
        self.fixture_digest = FIXTURE_SHA.read_text(encoding="utf-8").split()[0]
        self.write_docs = federation(self.fixtures, *self.spec.write)
        self.library_docs = federation(self.fixtures, *self.spec.library)
        self.write_expect = expect(self.write_docs)
        self.library_expect = expect(self.library_docs)
        self.doc_bytes = {}
        for doc in self.write_docs + self.library_docs:
            data = doc.to_bytes()
            self.doc_bytes[doc.name] = data
            (self.work / "docs" / doc.name).write_bytes(data)

        # copy 1 of the generator is the fixture corpus, digest for digest
        self.check(
            graph_core.graph_hash(_build(federation(self.fixtures, 1, "shared"))) == self.fixture_digest,
            "generated copy 1 does not reproduce fixtures/stores/federated.skg.sha256",
        )

        self.read_store = self.work / "write.skg.jsonl"
        self.read_expect = self.write_expect
        if self.spec.read_prebuilt:
            docs = federation(self.fixtures, *self.spec.read_prebuilt)
            self.read_expect = expect(docs)
            self.read_store = self.work / "prebuilt.skg.jsonl"
            graph_core.save_store(_build(docs), self.read_store)
            self.check(
                _node_labels(self.read_store.read_bytes()) == self.read_expect.label_counts,
                "prebuilt store: records per label differ from the oracle",
            )

        self.perturbed = _perturb(self.fixtures["ELISA"], rng)
        self.reads = self._read_plan(rng)
        self.order_rng = random.Random(rng.random())
        # a throwaway process compiles the package's bytecode before anything is timed
        code, _, err, _ = Cli(False)(["schema"])
        self.check(code == 0, f"skg schema failed: {err.strip()}")

    def _read_plan(self, rng: random.Random) -> list[list[str]]:
        ex = self.read_expect
        assays = sorted(ex.fm)
        reads = []
        for _ in range(self.spec.read_batches):
            for name in READ_NAMES:
                sg = rng.choice(assays)
                args = ["stats"] if name == "stats" else ["query", name]
                args += ["--graph", str(self.read_store)]
                if name != "reuse":
                    args += ["--subgraph", sg]
                if name == "decision-points":
                    args += ["--step", rng.choice(ex.steps[sg])]
                elif name == "cascades":
                    args += ["--root", rng.choice(sorted(ex.cascades[sg])), "--depth", str(CASCADE_DEPTH)]
                elif name == "low-confidence":
                    args += ["--threshold", str(LOW_CONFIDENCE_THRESHOLD)]
                if name != "stats":
                    args += ["--format", rng.choice(("tsv", "json"))]
                reads.append(args)
        return reads

    # -- phases ------------------------------------------------------------

    def write_phase(self) -> bytes | None:
        """Cold store -> apply each document -> converge -> hash --verify -> check -> re-apply."""
        store = self.work / "write.skg.jsonl"
        for path in (store, _sidecar(store)):
            path.unlink(missing_ok=True)
        order = list(self.write_docs)
        self.order_rng.shuffle(order)
        busy = 0.0
        ok = True
        for doc in order:
            out = self.run_cli("apply", self._apply_args(doc, store))
            if out is None:
                ok = False
                continue
            busy += self.samples["apply"][-1]
            self._check_digest(store, out.strip(), f"apply {doc.name}")
        for kind, args in (
            ("converge", ["converge", "--graph", str(store)]),
            ("hash", ["hash", "--verify", "--graph", str(store)]),
            ("check", ["check", "--graph", str(store)]),
        ):
            out = self.run_cli(kind, args)
            if out is None:
                ok = False
                continue
            busy += self.samples[kind][-1]
            if kind != "check":
                self._check_digest(store, out.strip(), kind)
        if not ok:
            return None
        self.samples["federate"].append(busy)
        data = store.read_bytes()
        self.check(b'"kind": "pending_edge"' not in data, "pending edges remain after converge")
        self.check(
            _node_labels(data) == self.write_expect.label_counts,
            "write store: records per label differ from the oracle",
        )
        if self.spec.write[0] == 1:
            self.check(_sha(data) == self.fixture_digest, "CLI-built copy 1 differs from the fixture digest")
        again = self.order_rng.choice(self.write_docs)
        out = self.run_cli("apply", self._apply_args(again, store))
        if out is not None:
            self.check(out.strip() == _sha(data), f"re-applying {again.name} changed the digest")
        return data

    def _apply_args(self, doc, store: Path) -> list[str]:
        args = ["apply", str(self.work / "docs" / doc.name), "--graph", str(store)]
        return args + (["--subgraph", doc.subgraph] if doc.needs_subgraph_flag else [])

    def _check_digest(self, store: Path, printed: str, what: str) -> None:
        actual = _sha(store.read_bytes())
        sidecar = _sidecar(store).read_text(encoding="utf-8").split()[0]
        self.check(printed == actual == sidecar, f"{what}: printed, file and sidecar digests disagree")

    def read_phase(self) -> None:
        for args in self.reads:
            out = self.run_cli("query", args)
            if out is not None:
                self._check_read(self.read_expect, args, out)

    def _check_read(self, ex, args: list[str], out: str) -> None:
        name = "stats" if args[0] == "stats" else args[1]
        opts = {a: b for a, b in zip(args, args[1:]) if a.startswith("--")}
        sg = opts.get("--subgraph")
        fmt = opts.get("--format", "json")
        if name == "stats":
            got = json.loads(out)
            want = {"n_failure_modes": len(ex.fm.get(sg, {})), "n_silent": len(ex.silent(sg)) if sg in ex.fm else 0}
            self.check({k: got[k] for k in want} == want, f"stats {sg}: {got}")
            return
        if name == "cascades":
            paths = json.loads(out) if fmt == "json" else [line.split(" -> ") for line in out.splitlines()]
            want = ex.cascade_paths(sg, opts["--root"], int(opts["--depth"]))
            self.check([tuple(p) for p in paths] == want, f"cascades {sg} {opts['--root']}")
            return
        rows = _parse_rows(out, fmt)
        ids = [r.get("id") for r in rows]
        if name == "silent":
            want = [i for i in ex.ranked(sg) if ex.fm[sg][i][2]] if sg in ex.fm else []
            self.check(ids == want, f"silent {sg}: {ids} != {want}")
        elif name == "ranked":
            self.check(ids == (ex.ranked(sg) if sg in ex.fm else []), f"ranked {sg}")
        elif name == "decision-points":
            want = ex.decision_points.get((sg, opts["--step"]), [])
            self.check(ids == want, f"decision-points {sg} {opts['--step']}")
        elif name == "gaps":
            got = {r["id"]: r["status"] for r in rows}
            self.check(got == ex.step_status.get(sg, {}), f"gaps {sg}")
        elif name == "low-confidence":
            threshold = float(opts.get("--threshold", LOW_CONFIDENCE_THRESHOLD))
            self.check(sorted(ids) == ex.low_confidence(sg, threshold), f"low-confidence {sg}")
        elif name == "masking":
            got = sorted((r["asset_id"], r["failure_mode_id"]) for r in rows)
            self.check(got == ex.masking.get(sg, []), f"masking {sg}")
        elif name == "reuse":
            got = {r["id"]: (_cells(r["serving_subgraphs"]), r["tier"]) for r in rows}
            self.check(got == ex.reuse, "reuse: serving subgraphs or tiers differ from the oracle")

    def library_phase(self, expected: bytes | None) -> None:
        """Documents -> reloaded, validated graph in process; then the read and consistency sweeps."""
        from skg import annotator, graph_core, ontology, seo

        ex = self.library_expect
        store = self.work / "library.skg.jsonl"
        self.samples["reference"].append(_reference_loop())
        start = time.perf_counter()
        registry = ontology.builtin_registry()
        graph = graph_core.Graph(registry)
        for doc in self.library_docs:
            parsed = seo.parse_seo(self.doc_bytes[doc.name])
            report = seo.validate_seo(parsed)
            plan = annotator.compile_seo(parsed, doc.subgraph)
            plan = annotator.load_plan(annotator.plan_to_bytes(plan))
            graph = annotator.apply_plan(graph, plan)
            self.check(report.ok, f"{doc.name}: validate_seo reported issues")
        graph, _ = annotator.approve_pending(graph)
        digest = graph_core.graph_hash(graph)
        saved = graph_core.save_store(graph, store)
        loaded = graph_core.load_store(store, registry)
        report = ontology.validate_graph(loaded, registry)
        self.samples["rebuild"].append(time.perf_counter() - start)
        self.attempted += 6 * len(self.library_docs) + 5
        data = store.read_bytes()
        self.check(report.ok, "validate_graph reported issues on the rebuilt store")
        self.check(digest == saved == _sha(data), "graph_hash, save_store and file digest disagree")
        self.check(loaded == graph, "load_store(save_store(g)) != g")
        self.check(Counter(n.key.label for n in loaded.nodes()) == ex.label_counts,
                   "library store: records per label differ from the oracle")
        if expected is not None:
            self.check(data == expected, "in-process corpus-order store differs from the CLI-built store")
        if self.spec.library[0] == 1:
            self.check(digest == self.fixture_digest, "in-process copy 1 differs from the fixture digest")
        self._sweep(loaded, ex)
        self._consistency()

    def _sweep(self, graph, ex) -> None:
        from skg import canonical, queries

        rendered = []
        start = time.perf_counter()
        for sg in dict.fromkeys(ex.subgraphs):
            for name, call in (
                ("ranked", lambda: queries.ranked_failures(graph, sg)),
                ("silent", lambda: queries.ranked_silent_failures(graph, sg)),
                ("gaps", lambda: queries.elicitation_gaps(graph, sg)),
                ("low-confidence", lambda: queries.low_confidence_claims(graph, sg, LOW_CONFIDENCE_THRESHOLD)),
                ("masking", lambda: queries.masking_exposures(graph, sg)),
            ):
                rows = call()
                queries.rows_to_tsv(rows)
                rendered.append((name, sg, None, queries.rows_to_json(rows)))
            stats = queries.subgraph_stats(graph, sg)
            rendered.append(("stats", sg, None, canonical.render_record(dataclasses.asdict(stats))))
            for step in ex.steps.get(sg, ()):
                rows = queries.step_decision_points(graph, sg, step)
                queries.rows_to_tsv(rows)
                rendered.append(("decision-points", sg, step, queries.rows_to_json(rows)))
            for root in sorted(ex.cascades.get(sg, ())):
                paths = queries.cascade_paths(graph, sg, root, CASCADE_DEPTH)
                rendered.append(("cascades", sg, root, canonical.render_value([list(p) for p in paths])))
        rows = queries.automation_reuse(graph)
        queries.rows_to_tsv(rows)
        rendered.append(("reuse", None, None, queries.rows_to_json(rows)))
        elapsed = time.perf_counter() - start
        self.attempted += len(rendered)
        self.sweep_calls += len(rendered)
        self.samples["sweep"].append(elapsed)
        for name, sg, arg, text in rendered:
            args = ["stats"] if name == "stats" else ["query", name, "--format", "json"]
            args += ["--subgraph", sg] if sg else []
            if name == "decision-points":
                args += ["--step", arg]
            elif name == "cascades":
                args += ["--root", arg, "--depth", str(CASCADE_DEPTH)]
            self._check_read(ex, args, text)

    def _consistency(self) -> None:
        from skg import metrics, seo

        reference = seo.parse_seo(json.dumps(self.fixtures["ELISA"]))
        runs = [seo.parse_seo(json.dumps(data)) for data, _ in self.perturbed]
        report = metrics.compare_extractions(runs, reference=reference)
        self.attempted += len(runs) + 2
        got = [(c.precision, c.recall, c.f1) for c in report.comparisons]
        self.check(got == [want for _, want in self.perturbed], f"compare_extractions scores {got}")

    # -- driving -----------------------------------------------------------

    def round(self) -> None:
        start = time.perf_counter()
        written = self.write_phase()
        self.phase_seconds["write"] += time.perf_counter() - start
        start = time.perf_counter()
        self.read_phase()
        self.phase_seconds["read"] += time.perf_counter() - start
        start = time.perf_counter()
        same_docs = self.spec.library == self.spec.write
        for _ in range(self.spec.library_repeats):
            self.library_phase(written if same_docs else None)
        self.phase_seconds["library"] += time.perf_counter() - start

    def store_path(self) -> Path:
        """The store this workload is about: see ``Workload.store``."""
        if self.spec.store == "prebuilt":
            return self.read_store
        return self.work / f"{self.spec.store}.skg.jsonl"


def _build(docs):
    """Converged graph of ``docs`` applied in order, built in this process."""
    from skg import annotator, graph_core, ontology, seo

    graph = graph_core.Graph(ontology.builtin_registry())
    for doc in docs:
        plan = annotator.compile_seo(seo.parse_seo(doc.to_bytes()), doc.subgraph)
        graph = annotator.apply_plan(graph, plan)
    return annotator.approve_pending(graph)[0]


def _cells(value) -> tuple[str, ...]:
    if isinstance(value, list):
        return tuple(value)
    return tuple(value.split("|")) if value else ()


def _parse_rows(out: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(out)
    lines = out.splitlines()
    if not lines:
        return []
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _perturb(elisa: dict, rng: random.Random) -> list[tuple[dict, tuple[float, float, float]]]:
    """Perturbed ELISA extractions and the (precision, recall, f1) each should score."""
    out = []
    for k in range(PERTURBED_RUNS):
        data = copy.deepcopy(elisa)
        claims = [(step, fm) for step in data["protocol"]["steps"] for fm in step["failure_modes"]]
        n = len(claims)
        dropped, renamed, added = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
        chosen = rng.sample(range(n), dropped + renamed)
        for index in chosen[dropped:]:
            claims[index][1]["name"] += f" variant {k}"
        for index in sorted(chosen[:dropped], reverse=True):
            step, fm = claims[index]
            step["failure_modes"].remove(fm)
        for j in range(added):
            step, fm = claims[rng.randrange(n)]
            extra = copy.deepcopy(fm)
            extra["id"] = f"FM-EXTRA-{k}{j}"
            extra["name"] = f"Unreferenced Mode {k} {j}"
            extra.pop("cascades_to", None)
            step["failure_modes"].append(extra)
        tp, fp, fn = n - dropped - renamed, renamed + added, dropped + renamed
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append((data, (round(precision, 4), round(recall, 4), round(f1, 4))))
    return out


# -- end-to-end run ------------------------------------------------------------


def run_untraced(bench: Bench, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        bench.samples["reference"].append(_reference_loop())
        start = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    rounds = 0
    while True:
        bench.round()
        rounds += 1
        if len(bench.samples["query"]) >= MIN_READS and time.perf_counter() - start >= seconds:
            break
    s = bench.samples
    if bench.spec.rss_of == "self":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    measured = {
        "setup_s": (statistics.median(setups), "s"),
        "federate_s": (statistics.mean(s["federate"]), "s"),
        "apply_ms": (statistics.mean(s["apply"]) * 1e3, "ms"),
        "query_ms": (statistics.mean(s["query"]) * 1e3, "ms"),
        "query_tail_ms": (_percentile(s["query"], TAIL_PERCENTILE) * 1e3, "ms"),
        "rebuild_s": (statistics.mean(s["rebuild"]), "s"),
        "queries_per_s": (bench.sweep_calls / sum(s["sweep"]), "1/s"),
    }
    reference = statistics.mean(s["reference"])
    scale = REFERENCE_LOOP_S / reference
    phases = ", ".join(f"{k} {v:.1f} s" for k, v in bench.phase_seconds.items())
    unscaled = ", ".join(f"{k} {v:.4g}" for k, (v, _) in measured.items())
    print(f"skgbench: {bench.name}: {rounds} rounds in {time.perf_counter() - start:.1f} s ({phases}); "
          f"reference loop {reference * 1e3:.3f} ms; unscaled: {unscaled}", file=sys.stderr)
    out = {
        name: (value / scale if unit == "1/s" else value * scale, unit)
        for name, (value, unit) in measured.items()
    }
    out["store_bytes"] = (bench.store_path().stat().st_size, "bytes")
    out["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return out


# -- traced run ------------------------------------------------------------------


def run_traced(bench: Bench) -> dict:
    from spans import Tracer

    from skg import canonical

    bench.setup()
    startup = [Cli(False)(["schema"])[3] for _ in range(5)]
    tracer = Tracer()
    plain = []
    for traced in (False, True, False):
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            bench.round()
        finally:
            elapsed = time.perf_counter() - start
            tracer.uninstall()
        if traced:
            traced_s = elapsed
        else:
            plain.append(elapsed)
    untraced_s = statistics.mean(plain)

    # canonical.render_record over the records of the workload's own store
    lines = bench.store_path().read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        for record in records:
            canonical.render_record(record)
        passes.append(time.perf_counter() - start)

    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"spans-{bench.name}-{bench.seed}.jsonl", "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps({
                "id": span.id, "name": span.name, "parent": span.parent,
                "start": span.start, "end": span.end, "count": span.count,
            }) + "\n")

    def ms(name: str) -> float:
        return tracer.total(name)[0] * 1e3

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    neighbor_s, neighbor_calls, _ = tracer.total("graph_core.neighbors")
    load_s, _, load_records = tracer.total("graph_core.load_store")
    apply_s, _, statements = tracer.total("annotator.apply_plan")
    ser_s, _, ser_bytes = tracer.total("graph_core.canonical_serialize")
    _, _, written = tracer.total("graph_core.save_store")
    final_sizes = {s.target: s.count for s in tracer.spans if s.name == "graph_core.save_store"}
    query_fns = (
        "ranked_failures", "ranked_silent_failures", "step_decision_points", "cascade_paths",
        "elicitation_gaps", "low_confidence_claims", "masking_exposures", "automation_reuse",
        "subgraph_stats",
    )
    top_rows = sum(
        s.count for s in tracer.spans
        if s.name.startswith("queries.") and s.name.split(".", 1)[1] in query_fns
        and not (s.parent is not None and tracer.spans[s.parent].name.startswith("queries."))
    )
    layer_self = tracer.layer_self()
    out = {
        "cli.startup.ms": (statistics.median(startup) * 1e3, "ms"),
        "seo.parse_seo.ms": (ms("seo.parse_seo"), "ms"),
        "seo.validate_seo.ms": (ms("seo.validate_seo"), "ms"),
        "seo.docs": (tracer.total("seo.parse_seo")[1], "count"),
        "annotator.compile_seo.ms": (ms("annotator.compile_seo"), "ms"),
        "annotator.plan_to_bytes.ms": (ms("annotator.plan_to_bytes"), "ms"),
        "annotator.load_plan.ms": (ms("annotator.load_plan"), "ms"),
        "annotator.apply_plan.ms": (apply_s * 1e3, "ms"),
        "annotator.apply_plan.us_per_statement": (per(apply_s * 1e6, statements), "us"),
        "annotator.statements": (statements, "count"),
        "annotator.approve_pending.ms": (ms("annotator.approve_pending"), "ms"),
        "annotator.approved_edges": (tracer.total("annotator.approve_pending")[2], "count"),
        "graph_core.load_store.ms": (load_s * 1e3, "ms"),
        "graph_core.load_store.us_per_record": (per(load_s * 1e6, load_records), "us"),
        "graph_core.load_store.records": (load_records, "count"),
        "graph_core.save_store.ms": (ms("graph_core.save_store"), "ms"),
        "graph_core.write_amplification": (per(written, sum(final_sizes.values())), "ratio"),
        "graph_core.canonical_serialize.ms": (ser_s * 1e3, "ms"),
        "graph_core.canonical_serialize.mb_per_s": (per(ser_bytes / 1e6, ser_s), "MB/s"),
        "graph_core.graph_hash.ms": (ms("graph_core.graph_hash"), "ms"),
        "graph_core.neighbors.calls": (neighbor_calls, "count"),
        "graph_core.neighbors.us_per_call": (per(neighbor_s * 1e6, neighbor_calls), "us"),
        "canonical.render_record.us_per_record": (statistics.median(passes) * 1e6 / len(records), "us"),
        "ontology.validate_graph.ms": (ms("ontology.validate_graph"), "ms"),
    }
    for fn in query_fns:
        out[f"queries.{fn}.ms"] = (ms(f"queries.{fn}"), "ms")
    out["queries.rows"] = (top_rows, "count")
    out["queries.neighbors_per_row"] = (
        per(tracer.count_within("graph_core.neighbors", "queries."), top_rows), "ratio"
    )
    out["queries.render.ms"] = (ms("queries.rows_to_tsv") + ms("queries.rows_to_json"), "ms")
    out["metrics.compare_extractions.ms"] = (ms("metrics.compare_extractions"), "ms")
    out["metrics.pairs"] = (tracer.total("metrics.compare_extractions")[2], "count")
    for layer in ("cli", "seo", "annotator", "graph_core", "ontology", "queries", "metrics"):
        out[f"{layer}.self.ms"] = (layer_self.get(layer, 0.0) * 1e3, "ms")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.overhead_pct"] = ((traced_s - untraced_s) / untraced_s * 100, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skg" / "cli.py").is_file() or not FIXTURE_SHA.is_file():
        parser.exit(2, f"skgbench: no skg sources under {SRC} or no fixture corpus under {FIXTURES}\n")
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work, Cli(in_process=bool(args.trace)))
    try:
        metrics = run_traced(bench) if args.trace else run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for problem in dict.fromkeys(bench.problems):
        print(f"skgbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
