"""Specifications the tests hold the pipeline to, outside the package.

Vertex profiles and their classes, the per-part targets of the upward pass,
the partition properties and the partition potential are written straight
from their definitions, and so are connected components.  A partition is
the ``part_of`` list the pipeline uses: each vertex's part index.
``parity_relabel`` checks its input and then runs the repair pass's own
parity sweep, so tests of it drive the production ``repair._sweep``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from prodlabel.graph import Graph
from prodlabel.labelling import Labelling, ProfileTracker
from prodlabel.repair import _sweep, _within


def edge_id(g: Graph, u: int, v: int) -> int:
    """Index of the edge uv, read from its entry in ``g.adj[u]``; KeyError
    if there is none."""
    for w, eid in g.adj[u]:
        if w == v:
            return eid
    raise KeyError((u, v))


@dataclass(frozen=True)
class VertexProfile:
    """Counts of incident edges per label; d1 + d2 + d3 equals the degree."""

    d1: int
    d2: int
    d3: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.d2, self.d3)


class VertexKind(enum.Enum):
    MONO1 = 1
    MONO2 = 2
    MONO3 = 3
    BICHROMATIC = 4


@dataclass(frozen=True)
class VertexClass:
    kind: VertexKind
    special: bool


def profile(g: Graph, l: Labelling, v: int) -> VertexProfile:
    """Exact incident-label counts of v."""
    d1 = d2 = d3 = 0
    for _, eid in g.adj[v]:
        lab = l.labels[eid]
        if lab == 1:
            d1 += 1
        elif lab == 2:
            d2 += 1
        else:
            d3 += 1
    return VertexProfile(d1, d2, d3)


def classify(p: VertexProfile) -> VertexClass:
    """Kind of a vertex plus its special flag.

    Special means d3 == 1, d2 >= 2, and d2 + d3 odd (so d2 is even).
    """
    if p.d2 == 0 and p.d3 == 0:
        kind = VertexKind.MONO1
    elif p.d2 > 0 and p.d3 == 0:
        kind = VertexKind.MONO2
    elif p.d3 > 0 and p.d2 == 0:
        kind = VertexKind.MONO3
    else:
        kind = VertexKind.BICHROMATIC
    special = p.d3 == 1 and p.d2 >= 2 and (p.d2 + p.d3) % 2 == 1
    return VertexClass(kind, special)


@dataclass(frozen=True)
class PartTarget:
    """Required final profile for vertices of one part."""

    part: int
    d2_exact: int | None
    d3_exact: int | None
    parity: int | None  # required (d2+d3) % 2, None for parts 1 and 2
    kinds: tuple[str, ...]  # admissible kinds for parts 1 and 2

    def matches(self, d2: int, d3: int) -> bool:
        if self.part == 1:
            return (d2 == 0 and d3 == 0) or (d3 > 0 and d2 == 0)
        if self.part == 2:
            return (d2 == 0 and d3 == 0) or (d2 > 0 and d3 == 0)
        if d2 == 0 or d3 == 0:
            return False
        if self.d2_exact is not None and d2 != self.d2_exact:
            return False
        if self.d3_exact is not None and d3 != self.d3_exact:
            return False
        return (d2 + d3) % 2 == self.parity


def target_profile(i: int, t: int | None = None) -> PartTarget:
    """Profile constraint for part i (1-based); t only bounds the range check."""
    if i < 1 or (t is not None and i > t):
        raise ValueError(f"part index {i} out of range")
    if i == 1:
        return PartTarget(1, None, None, None, ("MONO1", "MONO3"))
    if i == 2:
        return PartTarget(2, None, None, None, ("MONO1", "MONO2"))
    if i % 2 == 0:
        return PartTarget(i, None, i // 2, 1, ("BICHROMATIC",))
    return PartTarget(i, (i - 1) // 2, None, 0, ("BICHROMATIC",))


def potential(part_of: list[int]) -> int:
    """Sum of part_index * part_size, which is the sum of the vertices' part
    indices; strictly decreases on every repair move."""
    return sum(part_of)


def validate_partition(g: Graph, part_of: list[int]) -> None:
    """ValueError unless ``part_of`` gives every vertex a part in 1..t, with
    no part empty and every part independent."""
    if len(part_of) != g.n:
        raise ValueError("partition does not cover the vertex set")
    present = set(part_of)
    if min(present) < 1:
        raise ValueError("part indices are 1-based")
    for i in range(1, max(present) + 1):
        if i not in present:
            raise ValueError(f"part {i} is empty")
    for u, v in g.edges:
        if part_of[u] == part_of[v]:
            raise ValueError(f"part {part_of[u]} is not independent: edge ({u},{v})")


def missing_lower_neighbours(g: Graph, part_of: list[int]) -> list[tuple[int, int]]:
    """All pairs (v, j) where v sits in part i > j yet has no neighbour in part j.

    Empty exactly when the lower-neighbour property holds.  Ordered by vertex
    id, then part index.
    """
    out: list[tuple[int, int]] = []
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


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by
    minimum id."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            for w, _ in g.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def parity_relabel(g: Graph, l: Labelling, edge_ids, s: int,
                   exempt: int, odd_on_exempt_side: bool = True) -> list[int]:
    """Relabel a connected bipartite subgraph with 1/s to fixed parities.

    The subgraph is the one induced by the ends of ``edge_ids`` plus the
    exempt vertex; ``edge_ids`` must be exactly its edge set, each carrying
    label 1 or s.  Every vertex on the exempt vertex's side except the
    exempt vertex itself ends with odd s-degree and every vertex on the
    other side with even s-degree (or the swapped pattern when
    ``odd_on_exempt_side`` is false).  Parities count subgraph edges only.
    Returns the edge ids whose label changed.
    """
    if s not in (2, 3):
        raise ValueError("s must be 2 or 3")
    state = ProfileTracker(g, l)
    edge_ids = list(edge_ids)
    for eid in edge_ids:
        if state.label(eid) not in (1, s):
            raise ValueError(f"edge {eid} carries label {state.label(eid)}, expected 1 or {s}")
    vset = {exempt}
    for eid in edge_ids:
        vset.update(g.edges[eid])
    induced = [eid for v in vset for w, eid in g.adj[v] if v < w and w in vset]
    if sorted(induced) != sorted(edge_ids):
        raise ValueError("edge_ids must be every edge its ends and the exempt vertex induce")
    # 2-colour from the exempt vertex; the subgraph must be bipartite.
    colour = {exempt: 0}
    queue = [exempt]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w, _ in _within(g, v, vset):
            if w not in colour:
                colour[w] = colour[v] ^ 1
                queue.append(w)
            elif colour[w] == colour[v]:
                raise ValueError("subgraph is not bipartite")
    if len(colour) != len(vset):
        raise ValueError("subgraph is not connected")
    within = {v: 0 for v in vset}
    for eid in edge_ids:
        if state.label(eid) == s:
            u, v = g.edges[eid]
            within[u] += 1
            within[v] += 1
    # The sweep sets the parity of each vertex's whole s-count, so a vertex
    # with an odd number of s-edges leaving the set wants the other parity.
    counts = state.d2 if s == 2 else state.d3
    odd_colour = 0 if odd_on_exempt_side else 1
    odd = {v: (colour[v] == odd_colour) != ((counts[v] - within[v]) % 2 == 1) for v in vset}
    before = {eid: state.label(eid) for eid in edge_ids}
    _sweep(state, vset, exempt, odd, True, s)
    return [eid for eid in edge_ids if state.label(eid) != before[eid]]
