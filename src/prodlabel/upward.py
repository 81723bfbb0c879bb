"""Upward labelling pass: give every part a distinctive product signature.

Starting from the all-1 labelling, vertices of parts t, t-1, ..., 3 are
processed in that order and some of their edges to lower parts are
relabelled by one rule: an edge is labelled 3 towards an odd part and 2
towards an even part.  So the edges from above into a vertex carry 1 or
one and the same non-1 label, which keeps parts 1 and 2 monochromatic, and
a vertex of part i ends with the label keep (3 for even i, 2 for odd i)
exactly i // 2 times, the other label at least once, and a 2+3 count that
is odd for even i and even for odd i.

A set of pending swappable bottom edges whose ends are both still
1-monochromatic is tracked; whenever a processed vertex neighbours such an
edge, the relabelling (and an occasional swap of that edge's ends between
parts 1 and 2) makes one of its ends non-1-monochromatic.  That guarantees
no surviving conflict pair forms an isolated bottom edge.
"""

from __future__ import annotations

from .graph import Graph, InvariantViolation
from .labelling import Labelling, ProfileTracker


def _lower(best: dict[int, tuple[int, int]], u: int, i: int, j: int) -> int:
    """The edge from ``u`` (in part i) to its chosen neighbour in part j."""
    if j not in best:
        raise InvariantViolation(f"vertex {u} in part {i} has no usable neighbour in part {j}")
    return best[j][1]


def run_upward_pass(g: Graph, part_of: list[int],
                    end_edge: dict[int, int]) -> tuple[ProfileTracker, list[int], dict[str, int]]:
    """Relabel upward edges of parts t..3 so every part meets its target.

    ``part_of`` must be a valid partition and ``end_edge`` the end map of
    its swappable edges, as ``build_valid_partition`` returns them; neither
    is changed.  Returns the tracker that holds the new labelling and its
    degree counts, the partition, which differs from ``part_of`` only by
    swaps of swappable bottom edges, and the pass's ``upward.*`` stats.
    Every relabelled edge is taken from the entry of ``g.adj[u]`` that
    names its other end.
    """
    part_of, adj = list(part_of), g.adj
    state = ProfileTracker(g, Labelling.all_ones(g), [0] * g.n, [0] * g.n)
    d2, d3, relabel = state.d2, state.d3, state.set
    stats: dict[str, int] = {}

    pending = set(end_edge.values())  # swappable edges with both ends still 1-monochromatic
    # Swaps move vertices between parts 1 and 2 only, which the loop never reads.
    parts: list[list[int]] = [[] for _ in range(max(part_of) + 1)]
    for v, i in enumerate(part_of):
        parts[i].append(v)

    def do_swap(eid: int) -> None:
        a, b = g.edges[eid]
        part_of[a], part_of[b] = part_of[b], part_of[a]
        stats["upward.swaps"] = stats.get("upward.swaps", 0) + 1

    for i in range(len(parts) - 1, 2, -1):
        # By the rule, keep is the label towards parts near, near + 2, ...,
        # i - 1 and other the label towards far and i - 2; want is the
        # parity that the 2+3 count of a vertex of part i must end with.
        if i % 2 == 0:
            keep, other, near, far, want, d_keep, d_other = 3, 2, 1, 2, 1, d3, d2
        else:
            keep, other, near, far, want, d_keep, d_other = 2, 3, 2, 1, 0, d2, d3
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
                if part_of[pair[0][0]] != far:
                    pair.reverse()  # the end already in part far comes first
                if part_of[pair[0][0]] != far:
                    do_swap(pe)
                chosen.append(pair[0])
                if len(pair) == 2:
                    # The other end is not reserved: it competes for the
                    # smallest neighbour of the part it now lies in.
                    w, j = pair[1][0], part_of[pair[1][0]]
                    if j not in best or w < best[j][0]:
                        best[j] = pair[1]
            chosen.sort()

            for j in range(near + 2, i, 2):
                relabel(_lower(best, u, i, j), keep)

            if not mu:
                branch = "upward.branch.plain"
                relabel(_lower(best, u, i, near), keep)
                if i > 4:
                    # For i = 3, 4 part i - 2 is far, whose single edge serves
                    # both goals: it takes other only to fix the parity.
                    relabel(_lower(best, u, i, i - 2), other)
                if (d2[u] + d3[u]) % 2 != want:
                    relabel(_lower(best, u, i, far), other)
            else:
                branch = "upward.branch.pending"
                z, ez = chosen[0]
                for _, eid in chosen[1:]:
                    relabel(eid, other)
                if (d2[u] + d3[u]) % 2 == want:
                    relabel(ez, other)
                    relabel(_lower(best, u, i, near), keep)
                elif d_other[u] > 0:
                    do_swap(end_edge[z])
                    relabel(ez, keep)
                else:
                    if i <= 4:
                        raise InvariantViolation(
                            f"part-{i} vertex {u} reached the excluded branch "
                            f"(d{other}=0, {'odd' if i % 2 else 'even'} 2+3 count: "
                            f"profile {state.key(u)})")
                    branch = "upward.branch.pending-fallback"
                    relabel(_lower(best, u, i, i - 2), other)
                    relabel(ez, other)
                    relabel(_lower(best, u, i, near), keep)
                pending.difference_update(mu)

            if d_keep[u] != i // 2 or d2[u] == 0 or d3[u] == 0 or (d2[u] + d3[u]) % 2 != want:
                raise InvariantViolation(
                    f"vertex {u} in part {i} ended with profile ({d2[u]},{d3[u]})")
            stats[branch] = stats.get(branch, 0) + 1
    return state, part_of, stats
