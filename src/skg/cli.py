"""Command-line front end.

One executable, subcommand per operation, files in and text out, so the
whole elicitation-to-federation loop can be driven from a shell script.
Store mutations take an exclusive advisory lock on ``<store>.lock``.
Reads take a shared one and need no write access: a read creates the
lock file only beside a store that exists, and one that can neither open
nor create it reads without the lock. ``save_store`` replaces the store
in one rename, so each open of the store sees one whole version; only
``hash --verify``, which reads the store and then its sidecar, needs it.

Exit codes (``skg.errors``): 0 success, 1 rejected input, 2 usage, 3 I/O
failure, 4 violated graph invariant or missing record, argument out of
range (``--depth -1``) or no key part (``--step "a b"``), or
``consistency`` given one run. An error type states its exit class.
"""

from __future__ import annotations

import argparse
import errno
import fcntl
import gc
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .canonical import render_number, render_value, strict_loads
from .errors import EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_REJECTED, EXIT_USAGE
from .errors import Rejected, SkgError, SubgraphMismatch
from .graph_core import Graph, load_store, parse_node_key, save_store, store_digest
from .ontology import builtin_registry, schema_listing, validate_graph

# The document parser, the compiler, the read queries and the matching
# metrics are imported by the subcommands that run them, so a one-shot
# query process does not pay to import the document side of the package.

# query name -> (its skg.queries function, the options that function takes
# after the store, in call order); functions are named, so only the query
# and stats subcommands import skg.queries. A query that takes "subgraph"
# loads only what it can reach from there (see load_store)
QUERIES = {
    "silent": ("ranked_silent_failures", ("subgraph",)),
    "ranked": ("ranked_failures", ("subgraph",)),
    "decision-points": ("step_decision_points", ("subgraph", "step")),
    "cascades": ("cascade_paths", ("subgraph", "root", "depth", "direction")),
    "gaps": ("elicitation_gaps", ("subgraph",)),
    "low-confidence": ("low_confidence_claims", ("subgraph", "threshold")),
    "masking": ("masking_exposures", ("subgraph",)),
    "reuse": ("automation_reuse", ()),
}

# names a `variant = canonical` table that replaces the packaged aliases
ALIAS_ENV_VAR = "SKG_ALIAS_FILE"


def _aliases():
    from .metrics import load_aliases

    path = os.environ.get(ALIAS_ENV_VAR)
    return load_aliases(path) if path else None


def _read_doc(path: str):
    from .seo import parse_seo

    return parse_seo(Path(path).read_bytes())


@contextmanager
def _store_lock(store: Path, exclusive: bool):
    # flock takes either lock on a read-only descriptor, and closing it releases the lock.
    # The shared lock is for `hash --verify`: it reads the store, then its sidecar, two
    # files that one save replaces in turn, so a save between the reads would refuse a
    # good store. Every other read opens the store once and is right without the lock.
    if store.is_dir():  # refused before a lock file can appear beside it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(store))
    create = os.O_CREAT if exclusive or store.exists() else 0
    try:
        fd = os.open(f"{store}.lock", os.O_RDONLY | create, 0o666)
    except OSError:
        if exclusive:
            raise
        fd = None  # a reader that can neither open nor create the lock reads without it
    try:
        if fd is not None:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        if fd is not None:
            os.close(fd)


def _load(store: str, subgraph: str | None = None) -> Graph:
    path = Path(store)
    with _store_lock(path, exclusive=False):
        return load_store(path, builtin_registry(), subgraph)


# -- subcommands ---------------------------------------------------------


def cmd_validate(args) -> int:
    from .seo import validate_seo

    report = validate_seo(_read_doc(args.document), aliases=_aliases())
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_REJECTED


def cmd_compile(args) -> int:
    from .annotator import compile_seo, emit_cypher, plan_to_bytes

    plan = compile_seo(_read_doc(args.document), args.subgraph, aliases=_aliases())
    if args.emit_cypher:
        Path(args.emit_cypher).write_text(emit_cypher(plan), encoding="utf-8")
    sys.stdout.write(plan_to_bytes(plan).decode("utf-8"))
    return EXIT_OK


def cmd_apply(args) -> int:
    from .annotator import apply_plan, check_target, compile_seo, plan_from_json
    from .seo import document_from_json, parse_seo

    if args.subgraph is not None:  # given, even empty, it is checked as compile checks it
        check_target(args.subgraph)
    raw = Path(args.input).read_bytes()
    # decoded once, then routed on shape: compiled plans are single merge_plan records
    try:
        value = strict_loads(raw.decode("utf-8"))
    except ValueError:  # not strict JSON: parse_seo reports why, as validate does
        value = None
    if isinstance(value, dict) and value.get("kind") == "merge_plan":
        plan = plan_from_json(value)
        if args.subgraph and args.subgraph != plan.provenance.subgraph:
            raise SubgraphMismatch(
                f"plan targets {plan.provenance.subgraph}, not {args.subgraph}"
            )
    else:
        doc = parse_seo(raw) if value is None else document_from_json(value)
        subgraph = args.subgraph or (doc.protocol.subgraph if doc.protocol else None)
        if not subgraph:
            print(
                "error: --subgraph is required for documents without a protocol layer",
                file=sys.stderr,
            )
            return EXIT_USAGE
        plan = compile_seo(doc, subgraph, aliases=_aliases())
    store = Path(args.graph)
    with _store_lock(store, exclusive=True):
        graph = load_store(store, builtin_registry()) if store.exists() else Graph(builtin_registry())
        graph = apply_plan(graph, plan)
        digest = save_store(graph, store)
    print(digest)
    return EXIT_OK


def cmd_converge(args) -> int:
    from .annotator import approve_pending

    selectors = None
    if args.edge:
        selectors = [
            (edge_type, parse_node_key(src), parse_node_key(dst))
            for edge_type, src, dst in args.edge
        ]
    store = Path(args.graph)
    store.stat()  # converge never creates a store, so a missing one leaves no lock file
    with _store_lock(store, exclusive=True):
        graph = load_store(store, builtin_registry())
        graph, approved = approve_pending(graph, selectors)
        digest = save_store(graph, store)
    for edge_type, src, dst in approved:
        print(f"approved {edge_type} {src.to_text()} -> {dst.to_text()}", file=sys.stderr)
    print(digest)
    return EXIT_OK


def cmd_check(args) -> int:
    report = validate_graph(_load(args.graph), builtin_registry())
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_REJECTED


def cmd_query(args) -> int:
    from . import queries

    function, options = QUERIES[args.name]
    values = [getattr(args, option) for option in options]
    for option, value in zip(options, values):
        if value in (None, ""):  # not falsiness: --depth 0 is a valid depth
            print(f"error: {args.name} needs --{option}", file=sys.stderr)
            return EXIT_USAGE
    graph = _load(args.graph, args.subgraph if "subgraph" in options else None)
    result = getattr(queries, function)(graph, *values)
    if args.name == "cascades":
        if args.format == "json":
            sys.stdout.write(render_value(result) + "\n")
        else:
            for path in result:
                print(" -> ".join(map(queries.tsv_text, path)))
        return EXIT_OK
    text = queries.rows_to_json(result) if args.format == "json" else queries.rows_to_tsv(result)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_stats(args) -> int:
    from . import queries

    if not args.subgraph:  # argparse's required flag still takes ""
        print("error: stats needs --subgraph", file=sys.stderr)
        return EXIT_USAGE
    stats = queries.subgraph_stats_record(_load(args.graph, args.subgraph), args.subgraph)
    sys.stdout.write(render_value(stats) + "\n")
    return EXIT_OK


def cmd_f1(args) -> int:
    from .metrics import f1, load_aliases, match_failure_modes

    reference = Path(args.reference).read_text(encoding="utf-8").splitlines()
    candidate = Path(args.candidate).read_text(encoding="utf-8").splitlines()
    aliases = load_aliases(args.alias) if args.alias else _aliases()
    match = match_failure_modes(
        [line for line in reference if line.strip()],
        [line for line in candidate if line.strip()],
        aliases,
    )
    precision, recall, score = f1(match)
    print("precision\trecall\tf1")
    print(f"{render_number(precision)}\t{render_number(recall)}\t{render_number(score)}")
    return EXIT_OK


def cmd_consistency(args) -> int:
    from .metrics import compare_extractions

    runs = [_read_doc(path) for path in args.runs]
    reference = _read_doc(args.reference) if args.reference else None
    report = compare_extractions(runs, reference=reference, aliases=_aliases())
    sys.stdout.write(render_value(report.to_jsonable()) + "\n")
    return EXIT_OK


def cmd_schema(args) -> int:
    sys.stdout.write(schema_listing(builtin_registry()))
    return EXIT_OK


def cmd_hash(args) -> int:
    store = Path(args.graph)
    with _store_lock(store, exclusive=False):
        digest = store_digest(store, builtin_registry(), args.verify)
    print(digest)
    return EXIT_OK


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skg",
        description="Semantic knowledge-graph engine for laboratory workflow twins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an extraction document")
    p.add_argument("document")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compile", help="compile a document into a merge plan on stdout")
    p.add_argument("document")
    p.add_argument("--subgraph", required=True)
    p.add_argument("--emit-cypher", help="also write graph-database statements here")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("apply", help="merge a document or compiled plan into a store")
    p.add_argument("input", help="extraction document or compiled plan")
    p.add_argument("--graph", required=True, help="store file, created if absent")
    p.add_argument("--subgraph", help="target; defaults to the protocol layer's subgraph")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("converge", help="approve pending cross-subgraph edges")
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="approve every pending edge (default)")
    group.add_argument(
        "--edge",
        nargs=3,
        action="append",
        metavar=("TYPE", "SRC", "DST"),
        help="approve one edge (keys as subgraph:Label:id); repeatable",
    )
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("check", help="validate a store against the registry")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("query", help="run a read query against a store")
    p.add_argument("name", choices=list(QUERIES))
    p.add_argument("--graph", required=True)
    p.add_argument("--subgraph", help="required by every query except reuse")
    p.add_argument("--step", help="step id for decision-points")
    p.add_argument("--root", help="failure mode id for cascades")
    p.add_argument("--depth", type=int, default=3, help="cascade depth limit")
    p.add_argument(
        "--direction",
        choices=["down", "up"],
        default="down",
        help="cascade direction: effects (down) or causes (up)",
    )
    p.add_argument("--threshold", type=float, default=0.7, help="low-confidence cutoff")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats", help="confidence profile of one subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--subgraph", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("f1", help="score candidate failure-mode names against a reference")
    p.add_argument("--reference", required=True, help="file with one reference name per line")
    p.add_argument("--candidate", required=True, help="file with one candidate name per line")
    p.add_argument("--alias", help=f"alias table; overrides {ALIAS_ENV_VAR}")
    p.set_defaults(func=cmd_f1)

    p = sub.add_parser("consistency", help="cross-run extraction agreement report")
    p.add_argument("--runs", nargs="+", required=True, help="documents from repeated runs")
    p.add_argument("--reference", help="gold document; switches to cross-agent mode")
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("schema", help="print the registry")
    p.set_defaults(func=cmd_schema)

    p = sub.add_parser("hash", help="print the content hash of a store")
    p.add_argument("--graph", required=True)
    p.add_argument("--verify", action="store_true", help="compare against the digest sidecar")
    p.set_defaults(func=cmd_hash)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Rejected as exc:
        sys.stderr.write(exc.report.to_text())
        return exc.exit_code
    except SkgError as exc:  # each error type states its exit class
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyError as exc:
        print(f"error: not found: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """The ``skg`` command: ``main`` on the process arguments, then exit.

    The heap is frozen first, so the interpreter's collection at exit
    has nothing to traverse; the process frees its memory as it ends
    anyway. Only this entry point freezes: a caller of ``main`` keeps
    its collector as it was.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
