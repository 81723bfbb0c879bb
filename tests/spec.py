"""Specifications the tests hold the pipeline to, outside the package.

Vertex profiles and their classes, the per-part targets of the upward pass
and the partition properties are written straight from their definitions.
A partition is the ``part_of`` list the pipeline uses: each vertex's part index.
``parity_pass_misses`` runs the repair pass's own ``_parity_pass`` and
checks its result against the pass's contract.
"""

from __future__ import annotations

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


def profile(g: Graph, l: Labelling, v: int) -> tuple[int, int, int]:
    """Exact incident-label counts (d1, d2, d3) of v; they sum to its degree."""
    labels = [l.labels[eid] for _, eid in g.adj[v]]
    return labels.count(1), labels.count(2), labels.count(3)


def kind(d2: int, d3: int) -> str:
    """The kind of a vertex: "mono2" or "mono3" when its labels other than 1
    are all 2s or all 3s, "mono1" when it has none, else "bichromatic"."""
    if d2 and d3:
        return "bichromatic"
    return "mono2" if d2 else "mono3" if d3 else "mono1"


def special(d2: int, d3: int) -> bool:
    """d3 == 1, d2 >= 2 and d2 + d3 odd (so d2 is even)."""
    return d3 == 1 and d2 >= 2 and (d2 + d3) % 2 == 1


def meets_target(i: int, d2: int, d3: int) -> bool:
    """Whether (d2, d3) is the final profile the upward pass owes a vertex
    of part i (1-based): no 2 in part 1 and no 3 in part 2.  Above them the
    kept label (3 in an even part, 2 in an odd one) occurs exactly i // 2
    times, the other label at least once, and d2 + d3 is odd iff i is even."""
    if i == 1:
        return d2 == 0
    if i == 2:
        return d3 == 0
    kept, other = (d3, d2) if i % 2 == 0 else (d2, d3)
    return kept == i // 2 and other > 0 and (d2 + d3) % 2 != i % 2


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
