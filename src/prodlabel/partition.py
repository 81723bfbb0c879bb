"""Ordered partitions into independent sets and the valid-partition builder.

A partition (V1, ..., Vt) is *valid* when every part is independent, every
vertex of Vi has a neighbour in each lower part Vj (j < i), and both
properties survive swapping any subset of the swappable bottom edges (the
isolated edges of the subgraph induced by V1 and V2, whose two ends may be
exchanged between the two parts).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, NotNiceError, is_nice


class Partition:
    """Vertex partition into parts indexed 1..t; parts hold vertex sets."""

    __slots__ = ("part_of", "parts")

    def __init__(self, part_of: list[int]):
        self.part_of = part_of
        t = max(part_of) if part_of else 0
        self.parts: list[set[int]] = [set() for _ in range(t)]
        for v, i in enumerate(part_of):
            if i < 1:
                raise ValueError("part indices are 1-based")
            self.parts[i - 1].add(v)

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        part_of: dict[int, int] = {}
        for i, vs in enumerate(parts, start=1):
            for v in vs:
                part_of[v] = i
        n = len(part_of)
        if sorted(part_of) != list(range(n)):
            raise ValueError("parts must cover vertices 0..n-1 exactly once")
        return cls([part_of[v] for v in range(n)])

    @property
    def t(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return len(self.part_of)

    def part(self, i: int) -> set[int]:
        return self.parts[i - 1]

    def copy(self) -> "Partition":
        return Partition(list(self.part_of))

    def move(self, v: int, i: int) -> None:
        self.parts[self.part_of[v] - 1].discard(v)
        self.part_of[v] = i
        self.parts[i - 1].add(v)

    def compact(self) -> None:
        """Drop trailing empty parts."""
        while self.parts and not self.parts[-1]:
            self.parts.pop()

    def validate(self, g: Graph) -> None:
        if len(self.part_of) != g.n:
            raise ValueError("partition does not cover the vertex set")
        for i, vs in enumerate(self.parts, start=1):
            if not vs:
                raise ValueError(f"part {i} is empty")
            for v in vs:
                if self.part_of[v] != i:
                    raise ValueError("part_of inconsistent with parts")
        for u, v in g.edges:
            if self.part_of[u] == self.part_of[v]:
                raise ValueError(f"part {self.part_of[u]} is not independent: edge ({u},{v})")

    def dump(self) -> str:
        lines = []
        for i, vs in enumerate(self.parts, start=1):
            lines.append(f"V{i}: " + " ".join(str(v) for v in sorted(vs)))
        return "\n".join(lines) + ("\n" if lines else "")

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.part_of == other.part_of

    def __repr__(self) -> str:
        sizes = ",".join(str(len(p)) for p in self.parts)
        return f"Partition(t={self.t}, sizes=[{sizes}])"


def default_order(g: Graph) -> list[int]:
    """Descending degree, ties by ascending id."""
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def greedy_partition(g: Graph, order=None) -> Partition:
    """Assign each vertex the smallest part free of already-placed neighbours.

    By construction every vertex in part i ends up with a placed neighbour in
    every part below i, so the lower-neighbour property holds on the output.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if order is None:
        order = default_order(g)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    part_of = [0] * g.n
    for v in order:
        used = {part_of[w] for w, _ in g.adj[v] if part_of[w]}
        i = 1
        while i in used:
            i += 1
        part_of[v] = i
    return Partition(part_of)


def potential(p: Partition) -> int:
    """Sum of part_index * part_size; strictly decreases on every repair move."""
    return sum(i * len(vs) for i, vs in enumerate(p.parts, start=1))


def swappable_edges(g: Graph, p: Partition) -> set[int]:
    """Edge ids of the isolated edges of the subgraph induced by V1 and V2.

    Both ends of such an edge have exactly one neighbour inside V1 u V2, so
    exchanging their parts keeps both parts independent.
    """
    if p.t < 2:
        return set()
    part_of = p.part_of
    bottom_degree = [0] * g.n
    candidates = []
    for eid, (u, v) in enumerate(g.edges):
        pu, pv = part_of[u], part_of[v]
        if pu <= 2 and pv <= 2:
            bottom_degree[u] += 1
            bottom_degree[v] += 1
            if pu != pv:
                candidates.append(eid)
    return {eid for eid in candidates
            if bottom_degree[g.edges[eid][0]] == 1 and bottom_degree[g.edges[eid][1]] == 1}


def swap_edge(g: Graph, p: Partition, eid: int) -> Partition:
    """Exchange the two ends of a swappable bottom edge between V1 and V2."""
    if eid not in swappable_edges(g, p):
        raise ValueError(f"edge {eid} is not swappable in this partition")
    q = p.copy()
    u, v = g.edges[eid]
    pu, pv = q.part_of[u], q.part_of[v]
    q.move(u, pv)
    q.move(v, pu)
    return q


def missing_lower_neighbours(g: Graph, p: Partition) -> list[tuple[int, int]]:
    """All pairs (v, j) where v sits in part i > j yet has no neighbour in part j.

    Empty exactly when the lower-neighbour property holds.  Ordered by vertex
    id, then part index.
    """
    out: list[tuple[int, int]] = []
    part_of = p.part_of
    for v in range(g.n):
        i = part_of[v]
        if i < 2:
            continue
        seen = [False] * i
        for w, _ in g.adj[v]:
            j = part_of[w]
            if j < i:
                seen[j] = True
        out.extend((v, j) for j in range(1, i) if not seen[j])
    return out


@dataclass(frozen=True)
class SwapWitness:
    """Certificate that swap robustness fails.

    Swapping exactly ``edges`` leaves ``vertex`` with no neighbour in part
    ``side`` (side is 1 or 2).
    """

    vertex: int
    side: int
    edges: frozenset[int]


def swap_safety_witness(g: Graph, p: Partition) -> SwapWitness | None:
    """None if every subset of swappable edges preserves the partition
    properties, else a concrete failing subset.

    Swaps of distinct swappable edges are independent and never break
    independence (each swapped end has no other neighbour in V1 u V2), so the
    check reduces to one condition per vertex and side: the vertex keeps a
    neighbour on that side under every swap subset iff it has a neighbour
    there that is not a swappable-edge end, or it is adjacent to both ends of
    one swappable edge (the pair always occupies both sides).

    The partition must already be valid with no missing lower neighbours.
    """
    p.validate(g)
    if missing_lower_neighbours(g, p):
        raise ValueError("partition has missing lower neighbours; settle those first")
    m0 = swappable_edges(g, p)
    if not m0:
        return None
    part_of = p.part_of
    end_edge: dict[int, int] = {}
    for eid in m0:
        u, v = g.edges[eid]
        end_edge[u] = eid
        end_edge[v] = eid

    def witness_for(v: int, side: int) -> SwapWitness | None:
        has_stable = False
        incident_pairs: dict[int, int] = {}
        for w, _ in g.adj[v]:
            eid = end_edge.get(w)
            if eid is None:
                if part_of[w] == side:
                    has_stable = True
                    break
            else:
                incident_pairs[eid] = incident_pairs.get(eid, 0) + 1
        if has_stable or 2 in incident_pairs.values():
            return None
        bad = frozenset(eid for eid in incident_pairs
                        if part_of[[u for u in g.edges[eid] if g.has_edge(u, v)][0]] == side)
        return SwapWitness(v, side, bad)

    for v in range(g.n):
        i = part_of[v]
        if i >= 3:
            for side in (1, 2):
                w = witness_for(v, side)
                if w is not None:
                    return w
        elif i == 2 and v not in end_edge:
            w = witness_for(v, 1)
            if w is not None:
                return w
    return None


def build_valid_partition(g: Graph, initial: Partition | None = None) -> Partition:
    """Deterministic valid partition of a nice graph.

    Local search with two potential-decreasing moves: (a) drop a vertex that
    misses a neighbour in some lower part down to the smallest such part;
    (b) when swap robustness fails, apply the witness swaps and then move the
    stranded vertex down.  Every move lowers the potential, so the loop ends.
    No move reaches outside the connected component it starts in, so a
    disconnected graph gets the partitions of its components side by side;
    isolated vertices stay in part 1.
    """
    if not is_nice(g):
        raise NotNiceError("graph has a two-vertex component")
    p = initial.copy() if initial is not None else greedy_partition(g)
    p.validate(g)

    def settle_lower_links() -> None:
        while True:
            violations = missing_lower_neighbours(g, p)
            if not violations:
                return
            moved: set[int] = set()
            for v, j in violations:
                if v in moved:
                    continue
                # Earlier moves in this sweep may have filled the gap already.
                neighbour_parts = {p.part_of[w] for w, _ in g.adj[v]}
                target = next((k for k in range(1, p.part_of[v]) if k not in neighbour_parts), None)
                if target is None:
                    continue
                p.move(v, target)
                moved.add(v)
            p.compact()

    settle_lower_links()
    while True:
        witness = swap_safety_witness(g, p)
        if witness is None:
            break
        for eid in sorted(witness.edges):
            u, v = g.edges[eid]
            pu, pv = p.part_of[u], p.part_of[v]
            p.move(u, pv)
            p.move(v, pu)
        settle_lower_links()
    p.compact()
    p.validate(g)
    return p
