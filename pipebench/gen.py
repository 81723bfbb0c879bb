"""Seeded O(m) graph generators for the pipeline benchmark.

Every generator draws only from the ``random.Random`` it is given, so one
seed gives a byte-identical edge list.  Edges are ``(u, v)`` pairs with ``u < v`` and
vertex ids ``0..n-1``; a graph is the pair ``(n, edges)``.  The package's
``random_nice_graph`` flips a coin per vertex pair, which is O(n^2) and far
too slow for the large inputs here.
"""

from __future__ import annotations

import math
import random

Edges = list[tuple[int, int]]


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _tree(rng: random.Random, ids: list[int]) -> Edges:
    """Random recursive tree on the given vertex ids, in shuffled order."""
    order = list(ids)
    rng.shuffle(order)
    return [_pair(order[i], order[rng.randrange(i)]) for i in range(1, len(order))]


def _add_chords(rng: random.Random, ids: list[int], edges: Edges, count: int) -> None:
    """Append ``count`` distinct new edges between random members of ``ids``."""
    seen = set(edges)
    s = len(ids)
    count = min(count, s * (s - 1) // 2 - len(edges))
    while count > 0:
        e = _pair(ids[rng.randrange(s)], ids[rng.randrange(s)])
        if e[0] != e[1] and e not in seen:
            seen.add(e)
            edges.append(e)
            count -= 1


def tree_plus_chords(rng: random.Random, n: int, m: int) -> tuple[int, Edges]:
    """Connected graph: a random tree on n vertices plus m - (n-1) chords."""
    ids = list(range(n))
    edges = _tree(rng, ids)
    _add_chords(rng, ids, edges, m - len(edges))
    return n, edges


def many_components(rng: random.Random, count: int) -> tuple[int, Edges]:
    """``count`` disjoint connected components of 3..8 vertices each.

    Each component is a random tree plus up to as many chords as it has
    vertices, placed on a contiguous block of ids.
    """
    edges: Edges = []
    n = 0
    for _ in range(count):
        s = rng.randint(3, 8)
        ids = list(range(n, n + s))
        part = _tree(rng, ids)
        _add_chords(rng, ids, part, rng.randint(0, s))
        edges.extend(part)
        n += s
    return n, edges


def caterpillar(rng: random.Random, n: int) -> tuple[int, Edges]:
    """A path (the spine) with each remaining vertex hung on a random spine vertex."""
    ids = list(range(n))
    rng.shuffle(ids)
    spine = rng.randint(2, max(2, n // 2))
    edges = [_pair(ids[i], ids[i + 1]) for i in range(spine - 1)]
    edges.extend(_pair(ids[i], ids[rng.randrange(spine)]) for i in range(spine, n))
    return n, edges


def gnp(rng: random.Random, n: int, p: float) -> tuple[int, Edges]:
    """Erdos-Renyi G(n, p) in O(n + m) by geometric skipping (Batagelj-Brandes)."""
    edges: Edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return n, edges


def complete(n: int) -> tuple[int, Edges]:
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def shuffled_pairs(n: int, m: int, seed: int) -> tuple[int, Edges]:
    """m random vertex pairs of n, drawn as benchmarks/bench_kernels.py draws them."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    return n, sorted(pairs[:m])


def is_nice(n: int, edges: Edges) -> bool:
    """True iff no connected component is a single edge (union-find, O(m))."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
    size = [0] * n
    for v in range(n):
        size[find(v)] += 1
    return all(s != 2 for s in size)


def write_edge_file(path, n: int, edges: Edges) -> None:
    """Write the edge-list format `prodlabel label` reads: a header, then "u v" lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)
