#!/usr/bin/env python3
"""Pipeline benchmark for prodlabel: one workload, one seed, one run.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated here from the
seed, the package (from ``src/``) runs in a fresh worker process, and every
output is checked here with exact integer products.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import os
import tempfile
from pathlib import Path
from time import perf_counter

import check
import gen
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Times are measured against the worker's reference work, timed in the same
# process at the same time: the speed of a shared machine drifts by 20% and
# more over minutes, whatever the run length, and the reference work drifts
# with it.  Call times are reported in units of it ("ref"); set-up time in
# seconds on a machine that runs it in REFERENCE_NOMINAL_S.
END_TO_END = {
    "setup_s": "s",
    "edges_per_ref": "edges/ref",
    "graphs_per_ref": "graphs/ref",
    "graph_ref_p50": "ref",
    "peak_rss_mib": "MiB",
}

LAYERS = ("graph.parse", "graph.components", "graph.view", "partition", "upward", "repair",
          "labelling.verify", "labelling.format", "engine", "cli", "oracle")

FIXER_CASES = ("anchor", "anchor-seeded", "anchor-seeded-done", "hub-1-even", "hub-1-odd", "hub-2-many", "hub-2-single",
               "hub-3-even", "hub-3-odd", "hub-4-anchored", "hub-4-plain", "hub-5-cycle",
               "hub-5-cycle-special", "hub-5-odd", "hub-6", "pendant-balanced",
               "pendant-special-reserve", "pendant-special-self")

COUNTERS = ("partition.parts", "upward.swaps", "repair.components", "repair.conflicts_in",
            *(f"repair.case.{c}" for c in FIXER_CASES), "graph.view.edges_scanned",
            "oracle.k.1", "oracle.k.2", "oracle.k.3", "oracle.searches")

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{name: "count" for name in COUNTERS},
    "trace.overhead_pct": "%",
}

SETUP_PROBES = 16
REFERENCE_NOMINAL_S = 0.0005
MARGIN_S = 150.0  # input generation, set-up probes and checks, on top of --seconds

# One thread: numpy's BLAS would otherwise start a thread per CPU at import,
# and the package does no BLAS work.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker(args: list[str], deadline: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=WORKER_ENV,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def check_outputs(kind: str, pool: list, workdir: Path, outputs: dict) -> dict[tuple[int, int], str]:
    """Reason for each wrong (item, variant) output; empty when all are right."""
    wrong = {}
    for key, variants in outputs.items():
        n, edges = pool[int(key)]
        for variant, out in enumerate(variants):
            if kind == "cli":
                reason = ("no output file" if out is None else
                          check.check_cli_output(n, edges, (workdir / out).read_text(encoding="utf-8")))
            elif kind == "stream":
                reason = check.check_labels(n, edges, out)
            else:
                reason = check.check_oracle(n, edges, *out)
            if reason is not None:
                wrong[(int(key), variant)] = reason
    return wrong


def end_to_end(pool: list, attempts: list, setup: list[float], result: dict) -> dict:
    ok = [(index, secs) for index, secs, _, _ in attempts if secs is not None]
    if not ok:
        raise BenchError(f"every call raised, the first: {attempts[0][2]}")
    times = [secs for _, secs in ok]
    edges = sum(len(pool[index][1]) for index, _ in ok)
    ref = result["reference_s"]
    busy = sum(times)
    print(f"wall: {edges / busy:.6g} edges/s, {len(ok) / busy:.6g} graphs/s, "
          f"graph_s_p50 {statistics.median(times):.6g} s; reference work {ref:.6g} s")
    if len(times) >= 1000:
        print(f"graph_s_p99 = {statistics.quantiles(times, n=100)[98]:.6g} s ({len(times)} graphs)")
    return {
        "setup_s": statistics.median(setup),
        "edges_per_ref": edges * ref / busy,
        "graphs_per_ref": len(ok) * ref / busy,
        "graph_ref_p50": statistics.median(times) / ref,
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }


def per_layer(trace: dict) -> dict:
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = trace["calls"].get(layer, 0)
        values[f"{layer}.self_s"] = trace["self_s"].get(layer, 0.0)
    for name in COUNTERS:
        values[name] = trace["counters"].get(name, 0)
    values["trace.overhead_pct"] = trace["overhead_pct"]
    return values


def report_trace(trace: dict) -> None:
    total = sum(trace["self_s"].values()) or 1.0
    print(f"traced passes: {trace['passes']}; per pass:")
    for layer in sorted(trace["self_s"], key=trace["self_s"].get, reverse=True):
        secs = trace["self_s"][layer]
        print(f"  {layer:<18} {trace['calls'].get(layer, 0):>8} calls {secs:10.4f} s {100 * secs / total:5.1f}%")
    extra = sorted(set(trace["counters"]) - set(COUNTERS))
    if extra:
        print("counters not in the metric list: " + ", ".join(f"{c}={trace['counters'][c]}" for c in extra))
    if trace["absent"]:
        print("absent (reported as 0): " + ", ".join(trace["absent"]))
    if trace["broken"]:
        print("counter hooks that no longer fit (reported as 0): " + ", ".join(trace["broken"]))
    if not trace["stable"]:
        print("FAILED: counters differed between traced passes")


def run(workload_name: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    start = perf_counter()
    deadline = start + seconds + MARGIN_S
    if not (ROOT / "src" / "prodlabel" / "__init__.py").is_file():
        raise BenchError(f"no prodlabel package under {ROOT / 'src'}; run from a checkout")
    workload = WORKLOADS[workload_name]
    pool = workload.make_pool(random.Random(seed), scale)

    (ROOT / ".pipebench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".pipebench_work"))
    try:
        if workload.kind == "cli":
            names = [f"input-{i}.edges" for i in range(len(pool))]
            for name, (n, edges) in zip(names, pool):
                gen.write_edge_file(workdir / name, n, edges)
            listing = names
        else:
            listing = pool
        with open(workdir / "pool.json", "w", encoding="utf-8") as fh:
            json.dump(listing, fh)

        base = ["--kind", workload.kind, "--workdir", str(workdir)]

        def probe() -> float:
            out = json.loads(worker([*base, "--setup-only"], deadline))
            return out["setup_s"] * REFERENCE_NOMINAL_S / out["reference_s"]

        # Half the set-up probes run before the measured worker and half
        # after, so their median spans the run, not one moment of it.
        probes = 0 if trace else SETUP_PROBES // 2
        setup = [probe() for _ in range(probes)]
        mode = ["--trace", str(trace)]
        if trace and workload.trace_items is not None:
            mode += ["--trace-items", str(workload.trace_items)]
        worker([*base, "--seconds", str(seconds), *mode], deadline)
        setup += [probe() for _ in range(probes)]
        with open(workdir / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        wrong = check_outputs(workload.kind, pool, workdir, result["outputs"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".pipebench_work").rmdir()
        except OSError:
            pass

    attempts = result["attempts"]
    failed = [a for a in attempts if a[2] is not None or (a[0], a[3]) in wrong]
    print(f"workload {workload_name}: seed {seed}, {len(pool)} inputs, "
          f"{len(attempts)} calls in {perf_counter() - start:.1f} s")
    for index, _, error, variant in failed[:5]:
        print(f"  FAILED input {index}: {error or wrong[(index, variant)]}")
    print(f"fail_ratio = {len(failed)}/{len(attempts)} = {len(failed) / len(attempts):.4f}")
    if trace:
        metrics, units = per_layer(result["trace"]), PER_LAYER
        report_trace(result["trace"])
    else:
        metrics, units = end_to_end(pool, attempts, setup, result), END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": not failed and (not trace or result["trace"]["stable"]),
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            outcome = run(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"pipebench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
