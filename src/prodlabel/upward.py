"""Upward labelling pass: give every part a distinctive product signature.

Starting from the all-1 labelling, vertices of parts t, t-1, ..., 3 are
processed bottom-up and some of their upward edges are relabelled so that a
vertex of part i ends with:

    i = 2n     (n >= 2): 3-count exactly n, odd  2+3 count, bichromatic;
    i = 2n + 1 (n >= 1): 2-count exactly n, even 2+3 count, bichromatic.

Edges are always labelled 3 towards odd parts and 2 towards even parts, so
every vertex only ever receives one non-1 label from below, which keeps parts
1 and 2 monochromatic.  A set of pending swappable bottom edges whose ends
are both still 1-monochromatic is tracked; whenever a processed vertex
neighbours such an edge, the relabelling (and an occasional swap of that
edge's ends between parts 1 and 2) makes one of its ends non-1-monochromatic.
That guarantees no surviving conflict pair forms an isolated bottom edge.
"""

from __future__ import annotations

from .graph import Graph, InvariantViolation
from .labelling import Labelling, ProfileTracker


class UpwardResult:
    __slots__ = ("labelling", "part_of", "swaps", "branches")

    def __init__(self, labelling: Labelling, part_of: list[int]):
        self.labelling = labelling
        self.part_of = part_of
        self.swaps = 0  # swaps made; a swap undone at the same vertex counts twice
        self.branches: dict[str, int] = {}  # vertices of parts >= 3 by branch


def _lower(best: dict[int, tuple[int, int]], u: int, i: int, j: int) -> int:
    """The edge from ``u`` (in part i) to its chosen neighbour in part j."""
    if j not in best:
        raise InvariantViolation(f"vertex {u} in part {i} has no usable neighbour in part {j}")
    return best[j][1]


def run_upward_pass(g: Graph, part_of: list[int], end_edge: dict[int, int]) -> UpwardResult:
    """Relabel upward edges of parts t..3 so every part meets its target.

    ``part_of`` must be a valid partition and ``end_edge`` the end map of
    its swappable edges, as ``build_valid_partition`` returns them; neither
    is changed.  The returned partition differs from ``part_of`` only by
    swaps of swappable bottom edges.  Every relabelled edge is taken from
    the entry of ``g.adj[u]`` that names its other end.
    """
    part_of, adj = list(part_of), g.adj
    state = ProfileTracker(g)
    d2, d3, relabel = state.d2, state.d3, state.set
    result = UpwardResult(state.labelling, part_of)
    branches = result.branches

    pending = set(end_edge.values())  # swappable edges with both ends still 1-monochromatic
    # Swaps move vertices between parts 1 and 2 only, which the loop never reads.
    parts: list[list[int]] = [[] for _ in range(max(part_of) + 1)]
    for v, i in enumerate(part_of):
        parts[i].append(v)

    def do_swap(eid: int) -> None:
        a, b = g.edges[eid]
        part_of[a], part_of[b] = part_of[b], part_of[a]
        result.swaps += 1

    for i in range(len(parts) - 1, 2, -1):
        even = i % 2 == 0
        target_side = 2 if even else 1
        for u in parts[i]:
            # One pass over u's edges: the (end, edge from u) pairs of every
            # pending edge next to u, and the smallest neighbour of each lower
            # part that is no pending-edge end.
            ends: dict[int, list[tuple[int, int]]] = {}
            best: dict[int, tuple[int, int]] = {}
            for w, eid in adj[u]:
                pe = end_edge.get(w)
                if pe in pending:
                    ends.setdefault(pe, []).append((w, eid))
                elif part_of[w] < i and part_of[w] not in best:
                    best[part_of[w]] = (w, eid)
            mu = sorted(ends)
            chosen: list[tuple[int, int]] = []
            for pe in mu:
                pair = ends[pe]
                if len(pair) == 2 and part_of[pair[0][0]] != target_side:
                    pair.reverse()  # the end already on the target side comes first
                if part_of[pair[0][0]] != target_side:
                    do_swap(pe)
                chosen.append(pair[0])
                if len(pair) == 2:
                    # The other end is not reserved: it competes for the
                    # smallest neighbour of the part it now lies in.
                    w, j = pair[1][0], part_of[pair[1][0]]
                    if j not in best or w < best[j][0]:
                        best[j] = pair[1]
            chosen.sort()

            chain_lab = 3 if even else 2
            for j in range(3 if even else 4, i, 2):
                relabel(_lower(best, u, i, j), chain_lab)

            if not mu:
                branch = "plain"
                if even:
                    relabel(_lower(best, u, i, 1), 3)
                    if i == 4:
                        # A single knob edge serves both goals here: label it 2
                        # only when that yields the odd total, which also keeps
                        # the 2-count positive.
                        if (d2[u] + d3[u]) % 2 == 0:
                            relabel(_lower(best, u, i, 2), 2)
                    else:
                        relabel(_lower(best, u, i, i - 2), 2)
                        if (d2[u] + d3[u]) % 2 == 0:
                            relabel(_lower(best, u, i, 2), 2)
                else:
                    relabel(_lower(best, u, i, 2), 2)
                    if i > 3:
                        relabel(_lower(best, u, i, i - 2), 3)
                    if (d2[u] + d3[u]) % 2 == 1:
                        relabel(_lower(best, u, i, 1), 3)
            else:
                branch = "pending"
                z, ez = chosen[0]
                z_edge = end_edge[z]
                other_lab = 2 if even else 3
                for _, eid in chosen[1:]:
                    relabel(eid, other_lab)
                if even:
                    if (d2[u] + d3[u]) % 2 == 1:
                        relabel(ez, 2)
                        relabel(_lower(best, u, i, 1), 3)
                    elif d2[u] > 0:
                        do_swap(z_edge)
                        relabel(ez, 3)
                    else:
                        if i == 4:
                            raise InvariantViolation(
                                f"part-4 vertex {u} reached the excluded branch "
                                f"(d2=0, even 2+3 count: profile {state.key(u)})")
                        branch = "pending-fallback"
                        relabel(_lower(best, u, i, i - 2), 2)
                        relabel(ez, 2)
                        relabel(_lower(best, u, i, 1), 3)
                else:
                    if (d2[u] + d3[u]) % 2 == 0:
                        relabel(ez, 3)
                        relabel(_lower(best, u, i, 2), 2)
                    elif d3[u] > 0:
                        do_swap(z_edge)
                        relabel(ez, 2)
                    else:
                        if i <= 4:
                            raise InvariantViolation(
                                f"part-3 vertex {u} reached the excluded branch "
                                f"(d3=0, odd 2+3 count: profile {state.key(u)})")
                        branch = "pending-fallback"
                        relabel(_lower(best, u, i, i - 2), 3)
                        relabel(ez, 3)
                        relabel(_lower(best, u, i, 2), 2)
                pending.difference_update(mu)

            d2u, d3u = state.key(u)
            got = d3u if even else d2u
            if got != i // 2 or d2u == 0 or d3u == 0 or (d2u + d3u) % 2 != (1 if even else 0):
                raise InvariantViolation(
                    f"vertex {u} in part {i} ended with profile ({d2u},{d3u})")
            branches[branch] = branches.get(branch, 0) + 1
    return result
