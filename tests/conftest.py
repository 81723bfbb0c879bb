"""Shared test helpers: tiny graph builders and independent oracles."""

from __future__ import annotations

import random

from hypothesis import settings

from prodlabel import Graph

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
        j = order[rng.randint(0, i - 1)]
        u, v = order[i], j
        edges.add((min(u, v), max(u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return Graph(n, sorted(edges))
