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

from dataclasses import dataclass, field

from .graph import Graph, InvariantViolation
from .labelling import Labelling, ProfileTracker
from .partition import Partition, _end_edges


@dataclass
class UpwardResult:
    labelling: Labelling
    partition: Partition
    swaps: int = 0
    trace: list[str] = field(default_factory=list)


def run_upward_pass(g: Graph, p: Partition, trace: bool = False) -> UpwardResult:
    """Relabel upward edges of parts t..3 so every part meets its target.

    The input partition must be valid; the returned partition differs from it
    only by swaps of swappable bottom edges.
    """
    part = p.copy()
    part_of = part.part_of
    state = ProfileTracker(g)
    result = UpwardResult(state.labelling, part)

    end_edge = _end_edges(g, part)
    pending = set(end_edge.values())  # swappable edges with both ends still 1-monochromatic

    adjacent = {u: dict(g.adj[u]) for u in range(g.n) if part_of[u] >= 3}

    def do_swap(eid: int) -> None:
        a, b = g.edges[eid]
        pa, pb = part_of[a], part_of[b]
        part.move(a, pb)
        part.move(b, pa)
        result.swaps += 1

    for i in range(part.t, 2, -1):
        even = i % 2 == 0
        n_level = i // 2
        for u in sorted(part.part(i)):
            nbrs = adjacent[u]
            mu = sorted({end_edge[w] for w in nbrs if w in end_edge and end_edge[w] in pending})
            target_side = 2 if even else 1
            chosen_ends: list[int] = []
            swapped_here: list[int] = []
            for eid in mu:
                a, b = g.edges[eid]
                cands = [x for x in (a, b) if x in nbrs]
                if len(cands) == 2:
                    end = a if part_of[a] == target_side else b
                else:
                    end = cands[0]
                if part_of[end] != target_side:
                    do_swap(eid)
                    swapped_here.append(eid)
                chosen_ends.append(end)
            chosen = set(chosen_ends)

            # Smallest neighbour per lower part, preferring ends not reserved
            # for pending-edge handling.
            best: dict[int, int] = {}
            for w in sorted(nbrs):
                j = part_of[w]
                if j < i and j not in best and w not in chosen:
                    best[j] = w

            def x_in(j: int) -> int:
                if j not in best:
                    raise InvariantViolation(
                        f"vertex {u} in part {i} has no usable neighbour in part {j}")
                return best[j]

            def relabel(w: int, lab: int) -> None:
                state.set(nbrs[w], lab)

            chain_lab = 3 if even else 2
            for j in range(3 if even else 4, i, 2):
                relabel(x_in(j), chain_lab)

            parity = lambda: (state.d2[u] + state.d3[u]) % 2

            if not mu:
                branch = "plain"
                if even:
                    relabel(x_in(1), 3)
                    if i == 4:
                        # A single knob edge serves both goals here: label it 2
                        # only when that yields the odd total, which also keeps
                        # the 2-count positive.
                        if parity() == 0:
                            relabel(x_in(2), 2)
                    else:
                        relabel(x_in(i - 2), 2)
                        if parity() == 0:
                            relabel(x_in(2), 2)
                else:
                    relabel(x_in(2), 2)
                    if i > 3:
                        relabel(x_in(i - 2), 3)
                    if parity() == 1:
                        relabel(x_in(1), 3)
            else:
                branch = "pending"
                z = min(chosen)
                z_edge = end_edge[z]
                other_lab = 2 if even else 3
                for w in sorted(chosen - {z}):
                    relabel(w, other_lab)
                if even:
                    if parity() == 1:
                        relabel(z, 2)
                        relabel(x_in(1), 3)
                    elif state.d2[u] > 0:
                        do_swap(z_edge)
                        swapped_here.append(z_edge)
                        relabel(z, 3)
                    else:
                        if i == 4:
                            raise InvariantViolation(
                                f"part-4 vertex {u} reached the excluded branch "
                                f"(d2=0, even 2+3 count: profile {state.key(u)})")
                        branch = "pending-fallback"
                        relabel(x_in(i - 2), 2)
                        relabel(z, 2)
                        relabel(x_in(1), 3)
                else:
                    if parity() == 0:
                        relabel(z, 3)
                        relabel(x_in(2), 2)
                    elif state.d3[u] > 0:
                        do_swap(z_edge)
                        swapped_here.append(z_edge)
                        relabel(z, 2)
                    else:
                        if i <= 4:
                            raise InvariantViolation(
                                f"part-3 vertex {u} reached the excluded branch "
                                f"(d3=0, odd 2+3 count: profile {state.key(u)})")
                        branch = "pending-fallback"
                        relabel(x_in(i - 2), 3)
                        relabel(z, 3)
                        relabel(x_in(2), 2)
                pending.difference_update(mu)

            d2u, d3u = state.key(u)
            want = n_level if even else (i - 1) // 2
            got = d3u if even else d2u
            if got != want or d2u == 0 or d3u == 0 or (d2u + d3u) % 2 != (1 if even else 0):
                raise InvariantViolation(
                    f"vertex {u} in part {i} ended with profile ({d2u},{d3u})")
            if trace:
                result.trace.append(
                    f"part={i} vertex={u} branch={branch} profile=({d2u},{d3u}) "
                    f"swaps={swapped_here}")
    return result
