"""The four benchmark workloads: what each feeds the pipeline, and why."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import gen

Graph = tuple[int, gen.Edges]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # "cli": each input is written to a file and labelled by `prodlabel label`;
    # "stream": label_graph + find_conflicts per graph;
    # "oracle": brute_force_min_k and brute_force_labelling at that k,
    # then label_graph + find_conflicts.
    kind: str
    make_pool: Callable[[random.Random, float], list[Graph]]
    # The traced passes cover this many leading pool items (None: all), so
    # their counters are the same on every pass and every run with one seed.
    trace_items: int | None = None


def _nice(rng: random.Random, draw: Callable[[random.Random], Graph]) -> Graph:
    """Draw until the graph has no two-vertex component."""
    while True:
        n, edges = draw(rng)
        if gen.is_nice(n, edges):
            return n, edges


def _sparse(rng: random.Random, scale: float) -> list[Graph]:
    # Many graphs of n = 2500 rather than one of 3*10^4, which takes 5-8 s
    # alone.  Interleaved 20-s runs on a shared 2-CPU machine spread across
    # seeds (quartile distance over median of wall edges/s) by 0.30 at
    # n = 10^4, 0.09-0.17 at 5000 and 0.12-0.13 at 2500.  The price is the
    # partition share of a call: ~35% here, ~61% at 10^4, ~85% at 3*10^4.
    n = max(20, round(2500 * scale))
    return [_nice(rng, lambda r: gen.tree_plus_chords(r, n, 3 * n)) for _ in range(80)]


def _components(rng: random.Random, scale: float) -> list[Graph]:
    # 1500 components per file, not 3000: a call takes ~1.5 s, not ~5 s, and
    # ComponentView still takes ~77% of it (~86% at 3000).  Interleaved 20-s
    # runs spread across seeds by 0.23 at 3000 and 0.12-0.13 at 1500 (0.11
    # at 750, where ComponentView falls to ~67%).
    count = max(3, round(1500 * scale))
    return [_nice(rng, lambda r: gen.many_components(r, count)) for _ in range(12)]


def _small_graph(rng: random.Random) -> Graph:
    n = rng.randint(10, 60)
    family = rng.randrange(3)
    if family == 0:
        return gen.tree_plus_chords(rng, n, n - 1)
    if family == 1:
        return gen.caterpillar(rng, n)
    return gen.gnp(rng, n, rng.uniform(1.5, 4.0) / n)


def _stream(rng: random.Random, scale: float) -> list[Graph]:
    return [_nice(rng, _small_graph) for _ in range(max(10, round(4000 * scale)))]


# The graphs of the five fixed searches benchmarks/bench_kernels.py times.
# brute_force_min_k repeats four of them: K5 and K6 at k=2 (exhausted), K6
# at k=3 and G(12,16) at k=2.  G(10,14) needs only k=2, so its k=3 search
# is not repeated.
FIXED_ORACLE_CASES: list[Graph] = [
    gen.complete(5),
    gen.complete(6),
    gen.shuffled_pairs(12, 16, seed=7),
    gen.shuffled_pairs(10, 14, seed=3),
]


def _oracle_graph(rng: random.Random) -> Graph:
    # 14 <= m <= 16, the top of the oracle's range.  With m spread over
    # 3..16 the per-call times split into clusters by m, and their median
    # jumped between clusters from seed to seed.
    n = rng.randint(6, 9)
    return gen.tree_plus_chords(rng, n, rng.randint(14, min(16, n * (n - 1) // 2)))


def _oracle(rng: random.Random, scale: float) -> list[Graph]:
    randoms = [_nice(rng, _oracle_graph) for _ in range(max(3, round(300 * scale)))]
    return FIXED_ORACLE_CASES + randoms


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-cli",
                 "connected sparse graphs (tree + chords, m = 3n) through the CLI: "
                 "the partition builder's whole-graph rescans dominate",
                 "cli", _sparse, trace_items=10),
        Workload("many-components",
                 "~1500 small components per file through the CLI: the per-component "
                 "loop and ComponentView's O(m x components) scan dominate",
                 "cli", _components, trace_items=2),
        Workload("small-stream",
                 "a stream of small trees, caterpillars and sparse G(n,p): per-call "
                 "overhead and the repair pass dominate",
                 "stream", _stream),
        Workload("oracle-crosscheck",
                 "nice graphs with 14-16 edges, plus K5, K6 and two fixed graphs, "
                 "cross-checked against the brute-force oracle: the oracle dominates",
                 "oracle", _oracle),
    )
}
