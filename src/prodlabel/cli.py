"""Command-line interface.

Exit codes are stable: 0 success, 1 input, output or usage problem (or an
oracle search over its node budget), 2 graph not nice (contains a two-vertex
component), 3 verification failure or internal error (a broken construction
invariant, reported as "internal error: ..."; ``label`` then saves the graph
to ``label_fail.edges`` in the working directory).

``label`` on text in the form ``Graph.to_edge_list`` writes loads only the
construction.  The oracle, the line readers and ``json`` are imported where
they are used, when that code runs.

``main`` builds its parser once per process and runs each command with the
cyclic garbage collector paused.  A command builds only acyclic data (a
graph, a partition, a labelling), so the collector's passes over the
caller's heap would find nothing; ``main`` gives the caller back the
collector's state on every way out, an uncaught exception included.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from collections import Counter

from .engine import label_graph
from .graph import Graph, GraphFormatError, InvariantViolation, NotNiceError, parse_graph
from .labelling import find_conflicts, format_counts, format_labelling

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_NICE = 2
EXIT_CONFLICTS = 3

LABEL_REPRO = "label_fail.edges"


def _read(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:
                raise OSError("stdin is closed")
            # As open() reads a file below: strict UTF-8, whatever the
            # locale, and universal newlines.
            text = sys.stdin.buffer.read().decode("utf-8")
            return text.replace("\r\n", "\n").replace("\r", "\n")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _save_repro(path: str, text: str) -> None:
    """Save a graph that reproduces a failure; a file that cannot be
    written is reported, and the run carries on."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
    else:
        print(f"wrote {path}", file=sys.stderr)


def _internal_error(g: Graph, what: str) -> int:
    """Report a broken construction and save the graph that hit it."""
    print(f"internal error: {what}", file=sys.stderr)
    _save_repro(LABEL_REPRO, g.to_edge_list())
    return EXIT_CONFLICTS


def cmd_label(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    try:
        report = label_graph(g)
    except InvariantViolation as exc:
        return _internal_error(g, str(exc))
    if args.stats:
        import json

        print(json.dumps(report.stats, sort_keys=True), file=sys.stderr)
    # label_graph recomputes its verdict from the labels with the independent
    # conflict scan; refuse to report success unless that scan agrees.  The
    # product report prints the counts that scan made.
    if not report.verified:
        return _internal_error(g, "labelling failed verification")
    out = format_labelling(g, report.labelling) + "\n" + format_counts(*report.products)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .readers import parse_labelling

    if args.graph == "-" and args.labelling == "-":
        print("input error: only one input can come from stdin", file=sys.stderr)
        return EXIT_INPUT
    g = _load_graph(args.graph)
    labelling = parse_labelling(g, _read(args.labelling))
    conflicts = find_conflicts(g, labelling)
    if conflicts:
        for eid in conflicts:
            u, v = g.edges[eid]
            print(f"conflict: edge ({u},{v}) joins equal products")
        return EXIT_CONFLICTS
    print("ok")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import brute_force_min_k

    g = _load_graph(args.graph)
    k = brute_force_min_k(g)
    print("chi_P > 3" if k is None else f"chi_P = {k}")
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .oracle import random_nice_graph

    if args.trials < 1:
        print("trials must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    failures = 0
    stats: Counter = Counter()
    for trial in range(args.trials):
        seed = args.seed + trial
        g = random_nice_graph(args.n, args.p, seed)
        try:
            report = label_graph(g)
            stats.update(report.stats)
            bad = not report.verified
        except Exception as exc:  # noqa: BLE001 - fuzz must report, not crash
            print(f"trial {trial} raised {exc!r}", file=sys.stderr)
            bad = True
        if bad:
            failures += 1
            print(f"trial {trial} FAILED (seed {seed})", file=sys.stderr)
            _save_repro(f"fuzz_fail_{trial}.edges",
                        f"# trial {trial} seed {seed} n {args.n} p {args.p}\n" + g.to_edge_list())
    print(f"{args.trials - failures}/{args.trials} ok")
    print(json.dumps(stats, sort_keys=True))
    return EXIT_OK if failures == 0 else EXIT_CONFLICTS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="prodlabel",
        description="Label graph edges with 1, 2, 3 so adjacent vertices get "
                    "distinct products of incident labels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="label a graph and print labels plus products")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--stats", action="store_true",
                   help="print the construction's counters to stderr as one JSON object")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="check a labelling file against a graph")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("labelling", help="labelling file with 'u v label' lines, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive smallest-k search over k = 2 and 3 "
                       "(chi_P > 3 when neither fits); exit 1 over its search-node budget")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fuzz", help="random end-to-end trials with verification; "
                       "prints the counters summed over the trials as one JSON line")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n", type=int, default=20, help="vertex count per trial")
    p.add_argument("--p", type=float, default=0.3, help="edge probability")
    p.add_argument("--seed", type=int, default=0, help="seed of the first trial")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    # Parsing stays outside the pause: --help and usage errors leave cycles
    # in argparse's formatter.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if sys.stdout is None and not getattr(args, "out", None):
            raise OSError("stdout is closed")
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except GraphFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotNiceError:
        print("graph is not nice: it contains a two-vertex component", file=sys.stderr)
        return EXIT_NOT_NICE
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        # stdout's buffer keeps the bytes a write failed on; with fd 1 on the
        # null device the interpreter's flush at exit does not fail again.
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CONFLICTS
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
