"""Specifications the tests hold the pipeline to, outside the package.

Vertex profiles and their classes, the per-part targets of the upward pass
and the partition properties are written straight from their definitions,
and so are connected components.  A partition is
the ``part_of`` list the pipeline uses: each vertex's part index.
``parity_pass_misses`` runs the repair pass's own ``_parity_pass`` and
checks its result against the pass's contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from prodlabel.graph import Graph
from prodlabel.labelling import Labelling, ProfileTracker
from prodlabel.repair import _parity_pass


def tracker(g: Graph, l: Labelling | None = None) -> ProfileTracker:
    """A ProfileTracker over ``l`` (a fresh all-ones labelling when None)
    with its degree counts counted from scratch, edge by edge."""
    l = Labelling.all_ones(g) if l is None else l
    d2, d3 = [0] * g.n, [0] * g.n
    for (u, v), lab in zip(g.edges, l.labels):
        if lab != 1:
            counts = d2 if lab == 2 else d3
            counts[u] += 1
            counts[v] += 1
    return ProfileTracker(g, l, d2, d3)


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


def parity_pass_misses(state: ProfileTracker, vset: set[int], root: int,
                       side, odd_side: int, s: int) -> list[str]:
    """Run ``_parity_pass`` and list how it misses its contract: the piece of
    ``vset`` that ``root`` reaches is walked and leaves the set, each vertex
    of it but the root ends with an odd s-count iff its ``side`` is
    ``odd_side``, and only tree edges change, each from 1 to s."""
    g, labels = state.g, state.labelling.labels
    piece = [root]
    for v in piece:  # grows while it is read: a queue
        piece.extend(w for w, _ in g.adj[v] if w in vset and w not in piece)
    rest = set(vset) - set(piece)
    before = list(labels)
    tree = _parity_pass(state, vset, root, side, odd_side, s)
    misses = []
    if sorted(tree) != sorted(piece):
        misses.append(f"walked {sorted(tree)}, the piece is {sorted(piece)}")
    if vset != rest:
        misses.append(f"the set keeps {sorted(vset)}, expected {sorted(rest)}")
    tree_edges = {eid for _, eid in tree.values()}
    for eid, (old, new) in enumerate(zip(before, labels)):
        if old != new and (eid not in tree_edges or (old, new) != (1, s)):
            misses.append(f"edge {eid} went from {old} to {new}")
    for v in piece[1:]:
        count = sum(labels[eid] == s for _, eid in g.adj[v])
        if (count % 2 == 1) != (side[v] == odd_side):
            misses.append(f"vertex {v} on side {side[v]} ends with s-count {count}")
    return misses
