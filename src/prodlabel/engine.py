"""End-to-end labelling pipeline, brute-force oracles, and test generators."""

from __future__ import annotations

import random
from collections.abc import Sequence

from .graph import MAX_EDGES, Graph
from .labelling import Labelling, conflicting_edges, degree_counts
from .partition import build_valid_partition
from .repair import run_repair_pass
from .upward import run_upward_pass


class PipelineReport:
    """Outcome of labelling one graph; the verdict is recomputed from the
    labels by the independent conflict scan, never trusted from the pipeline.

    ``part_of`` is the part (1..t) of each vertex in the valid partition of
    the whole graph, after the upward pass's swaps; it is None only when
    the graph has no edges.

    ``stats`` counts the construction's decisions under the keys README.md
    lists: ``upward.swaps``, ``upward.branch.<branch>``,
    ``repair.conflicts_in``, ``repair.components`` and
    ``repair.case.<case>``.  A count of 0 is left out: the key is absent.
    Each stage writes the keys under its own prefix: the upward pass the
    ``upward.*`` keys, the repair pass the ``repair.*`` keys.
    ``upward.swaps`` counts swaps made, not edges moved: a vertex that
    swaps an edge's ends and then swaps them back adds 2.

    ``products`` is the pair of lists (d2, d3) that the conflict scan
    counted from the labels, each vertex's product key.

    Two reports are equal when their labellings, partitions, conflict lists
    and stats are; ``products`` follows from the labelling, so neither
    equality nor ``repr`` reads it.
    """

    __slots__ = ("labelling", "part_of", "conflicts", "stats", "products")
    _FIELDS = __slots__[:4]

    def __init__(self, labelling: Labelling, part_of: list[int] | None,
                 conflicts: list[int], stats: dict[str, int],
                 products: tuple[list[int], list[int]]):
        self.labelling = labelling
        self.part_of = part_of
        self.conflicts = conflicts
        self.stats = stats
        self.products = products

    def __eq__(self, other):
        if other.__class__ is not PipelineReport:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"PipelineReport({fields})"

    @property
    def verified(self) -> bool:
        return not self.conflicts


def label_graph(g: Graph) -> PipelineReport:
    """Product-proper 3-labelling of a nice graph.

    The partition builder, the upward pass and the repair pass each run once
    over the whole graph.  Every step of the construction stays inside one
    connected component, so no per-component split is needed; isolated
    vertices land in part 1 and touch no edge.  A graph that is not nice is
    rejected by the partition builder with NotNiceError; a graph without
    edges is always nice.  The verdict comes from one count of the final
    labels, which the report keeps as ``products``.
    """
    labelling, part_of, stats = _construct(g) if g.m else (Labelling([]), None, {})
    d2, d3 = degree_counts(g, labelling)
    conflicts = conflicting_edges(g, d2, d3, range(g.m))
    return PipelineReport(labelling, part_of, conflicts, stats, (d2, d3))


def _construct(g: Graph) -> tuple[Labelling, list[int], dict[str, int]]:
    """The three stages on a graph with edges: the labelling, the partition
    after the upward pass's swaps, and the stats."""
    state, part_of, stats = run_upward_pass(g, *build_valid_partition(g))
    stats.update(run_repair_pass(g, part_of, state))
    return state.labelling, part_of, stats


# Search nodes (single-edge label assignments) one public oracle call may
# visit, summed over every k it tries: about 0.87 s at 2.3 M nodes/s on one
# core of a shared 2-CPU Linux machine (Python 3.11).  With the twin order of
# brute_force_min_k, K8 (28 edges) needs 1.26 M nodes in all; K9 runs out of
# budget at k = 2.
ORACLE_NODE_BUDGET = 2_000_000


def _first_proper(n: int, edges: Sequence[tuple[int, int]], k: int, budget: int,
                  twins: frozenset[tuple[int, int]] = frozenset()
                  ) -> tuple[list[int] | None, int]:
    """Lex-first proper k-labelling of ``edges`` on vertices 0..n-1 (or
    None), one label per entry of ``edges``, and the search nodes visited.

    Depth-first over ``edges`` in the order given, labels 1..k.  A vertex's
    exact integer product is final once its last incident edge is labelled,
    and each edge is checked as soon as both of its ends are final, so a
    branch dies at the first edge whose ends must end up with equal
    products.

    An edge ``(u, v)`` listed in ``twins`` is checked more strictly: its
    branch dies unless prod(u) < prod(v).  The answer is then the first
    labelling that is proper and obeys those orders.
    """
    m = len(edges)
    last = [-1] * n
    for j, (u, v) in enumerate(edges):
        last[u] = last[v] = j
    checks: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    ordered: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for u, v in edges:
        (ordered if (u, v) in twins else checks)[max(last[u], last[v])].append((u, v))
    prod = [1] * n
    labels = [0] * m
    nodes = 0
    j = 0
    while 0 <= j < m:
        u, v = edges[j]
        lab = labels[j]
        if lab:
            prod[u] //= lab
            prod[v] //= lab
        if lab == k:
            labels[j] = 0
            j -= 1
            continue
        nodes += 1
        if nodes > budget:
            raise ValueError(f"oracle search exceeded its budget of "
                             f"{ORACLE_NODE_BUDGET} nodes")
        lab += 1
        labels[j] = lab
        prod[u] *= lab
        prod[v] *= lab
        for a, b in checks[j]:
            if prod[a] == prod[b]:
                break
        else:
            for a, b in ordered[j]:
                if prod[a] >= prod[b]:
                    break
            else:
                j += 1
    return (labels if j == m else None), nodes


def _true_twins(g: Graph) -> frozenset[tuple[int, int]]:
    """The edges ``(u, v)``, u < v, whose ends have equal closed
    neighbourhoods (N[u] = N[v]).  Rows of ``g.adj`` are sorted by
    neighbour, so equal neighbourhoods give equal lists."""
    adj = g.adj
    return frozenset(
        (u, v) for u, v in g.edges
        if len(adj[u]) == len(adj[v])
        and [w for w, _ in adj[u] if w != v] == [w for w, _ in adj[v] if w != u])


def brute_force_min_k(g: Graph, k_max: int = 3) -> int | None:
    """Smallest k <= k_max admitting a proper k-labelling, by exhaustive search.

    An edgeless graph answers 1 by convention.  None when even k_max labels
    do not suffice.  All k values share ORACLE_NODE_BUDGET search nodes;
    going over it raises ValueError.

    k = 1 is not searched on a graph with an edge: with one label every
    product is 1, so every edge conflicts.

    The searches run over the edges in sorted (u, v) order, whatever order
    ``g`` lists them in: each vertex's edges to higher ids come together, so
    products become final early and dead branches are cut sooner.  Whether
    a proper labelling exists does not depend on the order; the node count
    does.

    They also search only labellings in which every pair of true twins u < v
    (adjacent, with N[u] = N[v]) has prod(u) < prod(v).  This keeps the
    answer: a class of true twins is a clique, so a proper labelling gives
    its members pairwise distinct products; any permutation of the class is
    an automorphism that leaves every vertex outside it with its product,
    because it only permutes that vertex's neighbours in the class; so
    sorting each class's products by vertex id turns any proper labelling
    into a proper labelling that obeys the order.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if g.m == 0:
        return 1
    edges = sorted(g.edges)
    twins = _true_twins(g)
    budget = ORACLE_NODE_BUDGET
    for k in range(2, k_max + 1):
        labels, nodes = _first_proper(g.n, edges, k, budget, twins)
        if labels is not None:
            return k
        budget -= nodes
    return None


def brute_force_labelling(g: Graph, k: int) -> list[int] | None:
    """First proper k-labelling in lexicographic order (first edge most
    significant), or None; bounded by ORACLE_NODE_BUDGET search nodes.

    The search keeps the edges in index order, because that order defines
    which labelling is first.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _first_proper(g.n, g.edges, k, ORACLE_NODE_BUDGET)[0]


def random_nice_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi draw, patched to contain no two-vertex component.

    Every two-vertex component (an edge whose two ends both have degree 1)
    either gains an edge from its smaller end to the lowest-id vertex
    outside it, or loses its edge when n == 2.  An n with more than
    MAX_EDGES vertex pairs is refused before any coin is drawn.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n * (n - 1) // 2 > MAX_EDGES:
        raise ValueError(f"n = {n} has more than the limit of {MAX_EDGES} vertex pairs")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    lonely = [(a, b) for a, b in edges if len(g.adj[a]) == len(g.adj[b]) == 1]
    if not lonely:
        return g
    if n == 2:
        return Graph(n, [])
    patched = list(edges)
    seen = set(edges)
    for a, b in lonely:  # drawn with a < b, by ascending a
        w = min({0, 1, 2} - {a, b})
        e = (min(a, w), max(a, w))
        if e in seen:
            continue  # an earlier patch already attached this pair
        seen.add(e)
        patched.append(e)
    return Graph(n, patched)
