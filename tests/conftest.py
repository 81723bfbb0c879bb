"""Shared test helpers: tiny graph builders and independent oracles."""

from __future__ import annotations

import random

from hypothesis import settings

from prodlabel.graph import Graph, NotNiceError, is_nice
from prodlabel.labelling import Labelling
from prodlabel.partition import _certificate, greedy_partition

from spec import missing_lower_neighbours, tracker, validate_partition

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def exact_products(g: Graph, labels) -> list[int]:
    """Big-integer product of incident labels per vertex, from scratch."""
    prod = [1] * g.n
    for eid, (u, v) in enumerate(g.edges):
        prod[u] *= labels[eid]
        prod[v] *= labels[eid]
    return prod


def exact_conflicts(g: Graph, labels) -> list[int]:
    """Conflicting edge ids via exact integer products; independent of the
    production verifier's exponent keys."""
    prod = exact_products(g, labels)
    return [eid for eid, (u, v) in enumerate(g.edges) if prod[u] == prod[v]]


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``vertices``, renumbered in ascending id order,
    and the parent edge id of each of its edges."""
    local = {v: i for i, v in enumerate(sorted(vertices))}
    edge_ids = [eid for eid, (u, v) in enumerate(g.edges) if u in local and v in local]
    sub = Graph(len(local), [(local[g.edges[e][0]], local[g.edges[e][1]]) for e in edge_ids])
    return sub, edge_ids


class CountingAdj(list):
    """Stand-in for ``Graph.adj`` that counts every adjacency entry a caller
    iterates or indexes in a row it fetched, so a test can bound how much of
    the graph a walk reads.  A row's ``len()`` reads no entry."""

    read = 0

    def __getitem__(self, v):
        return _CountedRow(self, super().__getitem__(v))


class _CountedRow:
    """A row fetched from ``CountingAdj``; every entry read through it counts.
    With no ``__iter__``, a loop over it indexes it until IndexError."""

    def __init__(self, owner: CountingAdj, row: list):
        self.owner, self.row = owner, row

    def __len__(self):
        return len(self.row)

    def __getitem__(self, i):
        entry = self.row[i]
        self.owner.read += 1
        return entry


class CountingEdges(tuple):
    """Stand-in for ``Graph.edges`` that counts the passes over it (each
    ``iter``, as ``for``, ``enumerate`` and ``zip`` make one); looking an
    edge up by its index is no pass."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def random_graph(rng: random.Random, n_max: int = 10, p: float = 0.4) -> Graph:
    n = rng.randint(1, n_max)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_nice_graph(rng: random.Random, n_max: int = 12, p: float = 0.35) -> Graph:
    """Connected graph on >= 3 vertices: a random spanning tree plus noise."""
    n = rng.randint(3, max(3, n_max))
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randint(0, i - 1)]
        edges.add((min(u, v), max(u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return Graph(n, sorted(edges))


def parity_draw(rng: random.Random, n_max: int):
    """Inputs for a parity pass: a tracker over a random connected nice graph
    whose edges carry 1 inside the set and a random label outside it, the set
    (about 80% of the vertices), a root in it and a random side per vertex."""
    g = random_connected_nice_graph(rng, n_max, p=0.15)
    root = rng.randrange(g.n)
    vset = {v for v in range(g.n) if v == root or rng.random() < 0.8}
    labels = [1 if u in vset and v in vset else rng.randint(1, 3) for u, v in g.edges]
    side = [rng.randint(1, 2) for _ in range(g.n)]
    return tracker(g, Labelling(labels)), vset, root, side


def spider(legs: int) -> Graph:
    """Vertex 0 with 2*legs + 5 paths of length 2 hanging off it, joined to
    vertex 1 with ``legs`` such paths: one conflict component on parts 1
    and 2 holding two vertices of degree above ``legs``."""
    edges = [(0, 1)]
    n = 2
    for centre, count in ((0, 2 * legs + 5), (1, legs)):
        for _ in range(count):
            edges += [(centre, n), (n, n + 1)]
            n += 2
    return Graph(n, edges)


def reference_build_valid_partition(g: Graph) -> list[int]:
    """The valid-partition builder as a full rescan per round: every settle
    round and every witness round scans the whole graph again.  The
    production worklist must make exactly the same moves."""
    if not is_nice(g):
        raise NotNiceError("graph has a two-vertex component")
    part_of = greedy_partition(g)
    validate_partition(g, part_of)

    def settle_lower_links() -> None:
        while True:
            violations = missing_lower_neighbours(g, part_of)
            if not violations:
                return
            moved: set[int] = set()
            for v, j in violations:
                if v in moved:
                    continue
                # Earlier moves in this sweep may have filled the gap already.
                neighbour_parts = {part_of[w] for w, _ in g.adj[v]}
                target = next((k for k in range(1, part_of[v]) if k not in neighbour_parts), None)
                if target is None:
                    continue
                part_of[v] = target
                moved.add(v)

    settle_lower_links()
    previous = None
    while True:
        validate_partition(g, part_of)
        end_edge, witnesses = _certificate(g, part_of)
        if previous is not None:
            # A witness round creates no swappable edge and no witness, which
            # is what lets the builder walk the first sweep's witnesses once.
            assert end_edge.items() <= previous[0].items()
            assert witnesses.keys() <= previous[1].keys()
        previous = end_edge, witnesses
        witness = next(iter(witnesses.values()), None)
        if witness is None:
            break
        for eid in sorted(witness):
            u, v = g.edges[eid]
            part_of[u], part_of[v] = part_of[v], part_of[u]
        settle_lower_links()
    validate_partition(g, part_of)
    return part_of
