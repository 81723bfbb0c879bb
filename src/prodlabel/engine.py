"""End-to-end labelling pipeline, brute-force oracles, and test generators."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from . import _kernels
from .graph import Graph, NotNiceError, connected_components, is_nice
from .labelling import Labelling, find_conflicts
from .partition import Partition, build_valid_partition
from .repair import run_repair_pass
from .upward import run_upward_pass


@dataclass
class PipelineReport:
    """Outcome of labelling one graph; the verdict is recomputed from the
    labels by the independent conflict scan, never trusted from the pipeline.

    ``partition`` is the valid partition of the whole graph after the upward
    pass's swaps; it is None only when the graph has no edges.
    """

    labelling: Labelling
    partition: Partition | None = None
    swaps: int = 0
    components_fixed: int = 0
    tally: Counter = field(default_factory=Counter)
    conflicts: list[int] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return not self.conflicts


def label_graph(g: Graph, trace: bool = False) -> PipelineReport:
    """Product-proper 3-labelling of a nice graph.

    The partition builder, the upward pass and the repair pass each run once
    over the whole graph.  Every step of the construction stays inside one
    connected component, so no per-component split is needed; isolated
    vertices land in part 1 and touch no edge.
    """
    if not is_nice(g):
        raise NotNiceError("graph has a two-vertex component")
    if g.m == 0:
        return PipelineReport(Labelling([]))
    up = run_upward_pass(g, build_valid_partition(g), trace=trace)
    rep = run_repair_pass(g, up.partition, up.labelling, trace=trace)
    return PipelineReport(
        labelling=rep.labelling,
        partition=up.partition,
        swaps=up.swaps,
        components_fixed=len(rep.component_vertices),
        tally=rep.tally,
        conflicts=find_conflicts(g, rep.labelling),
        trace=up.trace + rep.trace,
    )


def brute_force_min_k(g: Graph, k_max: int = 3) -> int | None:
    """Smallest k <= k_max admitting a proper k-labelling, by enumeration.

    Works edge-count-bounded (m <= 16).  An edgeless graph answers 1 by
    convention.  None when even k_max labels do not suffice.
    """
    if g.m == 0:
        return 1
    if g.m > 16:
        raise ValueError(f"oracle supports at most 16 edges, got {g.m}")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    for k in range(1, k_max + 1):
        if _kernels.search_first_proper(g, k) >= 0:
            return k
    return None


def brute_force_labelling(g: Graph, k: int) -> list[int] | None:
    """First proper k-labelling in lexicographic order, or None."""
    if g.m > 16:
        raise ValueError(f"oracle supports at most 16 edges, got {g.m}")
    idx = _kernels.search_first_proper(g, k)
    if idx < 0:
        return None
    return _kernels.decode_labels(idx, g.m, k)


def random_nice_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi draw, patched to contain no two-vertex component.

    Every two-vertex component either gains an edge from its smaller end to
    the lowest-id vertex outside it, or loses its edge when n == 2.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    lonely = [c for c in connected_components(g) if len(c) == 2]
    if not lonely:
        return g
    if n == 2:
        return Graph(n, [])
    patched = list(edges)
    seen = set(edges)
    for comp in lonely:
        a = comp[0]
        w = min(v for v in range(n) if v not in comp)
        e = (min(a, w), max(a, w))
        if e in seen:
            continue  # an earlier patch already attached this pair
        seen.add(e)
        patched.append(e)
    return Graph(n, patched)
