"""The measured process of the pipeline benchmark.

``run.py`` starts it in a fresh interpreter, so its set-up time and peak
memory are the package's own.  It imports ``prodlabel`` from the checkout's
``src``, labels one tiny graph to warm up, then drives the public entry
points in a closed loop with one thread: each call starts when the previous
one has returned.  Only the calls into the package are timed; bookkeeping,
output capture and the reference work happen between timed calls, and
``run.py`` checks the outputs afterwards.

    worker.py --kind K --workdir D --setup-only
    worker.py --kind K --workdir D --seconds S --trace 0|1 --trace-items N
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import gen

ROOT = Path(__file__).resolve().parents[1]

# A triangle with a pendant: the smallest input that reaches every pass.
WARMUP = (4, [(0, 1), (0, 2), (1, 2), (2, 3)])


class Runner:
    """Runs one pool item per call and keeps what each call returned."""

    def __init__(self, kind: str, workdir: Path):
        import prodlabel
        import prodlabel.cli  # noqa: F401 - the cli workloads call it

        self.pl = prodlabel
        self.kind = kind
        self.workdir = workdir
        self.attempts: list[list] = []           # [item, seconds, error, variant]
        self.outputs: dict[int, list] = {}       # item -> distinct outputs
        self.op = {"cli": self._cli, "stream": self._stream, "oracle": self._oracle}[kind]

    # Each operation returns (seconds, error or None, output); attributes are
    # looked up at call time so the tracer's wrappers take effect.

    def _cli(self, path):
        out = self.workdir / f"out-{len(self.attempts)}.txt"
        start = perf_counter()
        code = self.pl.cli.main(["label", str(path), "--out", str(out)])
        elapsed = perf_counter() - start
        return elapsed, (f"exit code {code}" if code else None), out

    def _stream(self, g):
        start = perf_counter()
        report = self.pl.label_graph(g)
        conflicts = self.pl.find_conflicts(g, report.labelling)
        elapsed = perf_counter() - start
        error = f"find_conflicts rejected {len(conflicts)} edges" if conflicts else None
        return elapsed, error, list(report.labelling.labels)

    def _oracle(self, g):
        start = perf_counter()
        k = self.pl.brute_force_min_k(g)
        witness = self.pl.brute_force_labelling(g, k) if k else None
        report = self.pl.label_graph(g)
        conflicts = self.pl.find_conflicts(g, report.labelling)
        elapsed = perf_counter() - start
        error = None
        if k is None or k > 3:
            error = f"oracle answered {k} on a nice graph"
        elif conflicts:
            error = f"find_conflicts rejected {len(conflicts)} edges"
        return elapsed, error, [k, witness, list(report.labelling.labels)]

    def attempt(self, index: int, item) -> float:
        try:
            elapsed, error, output = self.op(item)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            self.attempts.append([index, None, f"{type(exc).__name__}: {exc}", None])
            return 0.0
        if self.kind == "cli":
            output = self._keep_file(index, output)
        seen = self.outputs.setdefault(index, [])
        if output not in seen:
            seen.append(output)
        self.attempts.append([index, elapsed, error, seen.index(output)])
        return elapsed

    def _keep_file(self, index: int, path: Path):
        """Keep one copy of each distinct output file; return its name."""
        if not path.exists():
            return None
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        kept = self.workdir / f"item-{index}-{digest}.txt"
        if kept.exists():
            path.unlink()
        else:
            path.rename(kept)
        return kept.name


def load_items(kind: str, workdir: Path, pl) -> list:
    with open(workdir / "pool.json", encoding="utf-8") as fh:
        pool = json.load(fh)
    if kind == "cli":
        return [workdir / name for name in pool]
    return [pl.Graph(n, edges) for n, edges in pool]


def warm_up(runner: Runner) -> None:
    n, edges = WARMUP
    if runner.kind == "cli":
        path = runner.workdir / "warmup.edges"
        gen.write_edge_file(path, n, edges)
        item = path
    else:
        item = runner.pl.Graph(n, edges)
    _, error, _ = runner.op(item)
    if error:
        raise RuntimeError(f"warm-up failed: {error}")


def reference_s() -> float:
    """Seconds one fixed piece of pure-Python work takes now.

    The work, dict, sort and sum traffic over a few thousand ints, does not
    touch the package, so its time follows only the machine's speed.  The
    collector is off so that the size of the package's heap cannot slow it.
    """
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for i in range(3000):
            table[i * 7919 % 3001] = i
        sum(table[k] for k in sorted(table))
        return perf_counter() - start
    finally:
        gc.enable()


REFERENCE_EVERY_S = 0.2
REFERENCE_BURST = 5


def timed_loop(runner: Runner, items: list, seconds: float) -> dict:
    """Cycle through the items until `seconds` have passed.

    Between calls, at most every REFERENCE_EVERY_S, a burst of reference
    work is timed, so that its median covers the same stretch of time as
    the calls.
    """
    reference = []
    next_reference = 0.0
    deadline = perf_counter() + seconds
    i = 0
    while True:
        if perf_counter() >= next_reference:
            reference += [reference_s() for _ in range(REFERENCE_BURST)]
            next_reference = perf_counter() + REFERENCE_EVERY_S
        runner.attempt(i % len(items), items[i % len(items)])
        i += 1
        if perf_counter() >= deadline:
            break
    return {"peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "reference_s": statistics.median(reference)}


def traced_loop(runner: Runner, items: list, seconds: float, trace_items: int | None) -> dict:
    """Alternate an untraced and a traced pass over the leading items.

    Counters come from the first traced pass and must repeat on every pass;
    self times are the median over traced passes.  The overhead is the gap
    between untraced and traced edges per second over the same items.
    """
    from tracing import Tracer

    tracer = Tracer()
    chosen = items[:trace_items]
    untraced, traced, passes = [], [], []
    deadline = perf_counter() + seconds
    while True:
        untraced.append(sum(runner.attempt(i, item) for i, item in enumerate(chosen)))
        tracer.reset()
        with tracer:
            traced.append(sum(runner.attempt(i, item) for i, item in enumerate(chosen)))
        passes.append((dict(tracer.calls), dict(tracer.self_s), dict(tracer.counters)))
        if perf_counter() >= deadline:
            break
    calls, _, counters = passes[0]
    layers = set().union(*(p[1] for p in passes))
    return {
        "passes": len(passes),
        "calls": calls,
        "self_s": {layer: statistics.median(p[1].get(layer, 0.0) for p in passes) for layer in layers},
        "counters": counters,
        "stable": all(p[0] == calls and p[2] == counters for p in passes),
        "absent": tracer.absent,
        "broken": sorted(tracer.broken),
        "overhead_pct": 100.0 * (1.0 - statistics.median(untraced) / statistics.median(traced)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--kind", choices=("cli", "stream", "oracle"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-items", type=int, help="leading items the traced passes cover (default all)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    # CPU time, not wall time: on a shared machine the wall time of a fresh
    # import swings with what else runs, its CPU time much less.
    start = process_time()
    runner = Runner(args.kind, args.workdir)
    warm_up(runner)
    setup_s = process_time() - start
    if args.setup_only:
        reference = statistics.median(reference_s() for _ in range(REFERENCE_BURST))
        print(json.dumps({"setup_s": setup_s, "reference_s": reference}))
        return 0

    items = load_items(args.kind, args.workdir, runner.pl)
    if args.trace:
        result = {"trace": traced_loop(runner, items, args.seconds, args.trace_items)}
    else:
        result = timed_loop(runner, items, args.seconds)
    result.update(attempts=runner.attempts, outputs=runner.outputs)
    with open(args.workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
