"""Ordered partitions into independent sets and the valid-partition builder.

A partition (V1, ..., Vt) is *valid* when every part is independent, every
vertex of Vi has a neighbour in each lower part Vj (j < i), and both
properties survive swapping any subset of the swappable bottom edges (the
isolated edges of the subgraph induced by V1 and V2, whose two ends may be
exchanged between the two parts).  A partition is the list ``part_of`` of
each vertex's part index; the parts are 1..max(part_of), none empty.
"""

from __future__ import annotations

from .graph import Graph, InvariantViolation, NotNiceError, is_nice


def greedy_partition(g: Graph) -> list[int]:
    """The part of each vertex: the smallest part free of already-placed
    neighbours, placing the vertices by descending degree, ties by ascending
    id.

    By construction every vertex in part i ends up with a placed neighbour in
    every part below i, so the lower-neighbour property holds on the output.
    """
    part_of, adj = [0] * g.n, g.adj
    for v in sorted(range(g.n), key=lambda v: -len(adj[v])):  # a stable sort
        used = {part_of[w] for w, _ in adj[v]}  # 0 marks a vertex not yet placed
        i = 1
        while i in used:
            i += 1
        part_of[v] = i
    return part_of


def _edge_pass(g: Graph, part_of: list[int]) -> tuple[dict[int, int], list[int]]:
    """The one pass over the edges of a certificate sweep: ValueError on the
    first edge inside a part, else each end of a swappable edge mapped to
    that edge, and the mask of the parts each vertex has a neighbour in (bit
    j set for part j).  The swappable edges are the isolated edges of the
    subgraph induced by V1 and V2, so swapping the two ends of one keeps
    both parts independent."""
    edges = g.edges
    bit = [1 << i for i in part_of]
    seen = [0] * g.n
    bottom_degree = [0] * g.n
    bottom = []
    for eid, (u, v) in enumerate(edges):
        pu, pv = part_of[u], part_of[v]
        if pu == pv:
            raise ValueError(f"part {pu} is not independent: edge ({u},{v})")
        if pu <= 2 and pv <= 2:
            bottom_degree[u] += 1
            bottom_degree[v] += 1
            bottom.append(eid)
        seen[u] |= bit[v]
        seen[v] |= bit[u]
    end_edge: dict[int, int] = {}
    for eid in bottom:
        u, v = edges[eid]
        if bottom_degree[u] == 1 and bottom_degree[v] == 1:
            end_edge[u] = end_edge[v] = eid
    return end_edge, seen


def _vertex_witness(g: Graph, part_of: list[int], end_edge: dict[int, int],
                    v: int) -> frozenset[int] | None:
    """The first witness at ``v`` that swap robustness fails, side 1 before
    side 2: the swappable edges whose swap leaves ``v`` with no neighbour in
    that part.  None when there is none, or below part 3.

    ``end_edge`` maps each swappable-edge end to its edge.  A side is safe
    iff ``v`` has a neighbour there that is no swappable-edge end, or ``v``
    is adjacent to both ends of one swappable edge (the pair always occupies
    both sides).  On a partition with the lower-neighbour property no part-2
    vertex has a witness: an end sits in part 2 only while its partner sits
    in part 1, and any other part-2 vertex has a part-1 neighbour that is no
    end either (its only bottom edge would make ``v`` its partner)."""
    if part_of[v] < 3:
        return None
    fixed = set()  # the parts of v's neighbours that no swap moves
    adjacent_end: dict[int, int] = {}
    for w, _ in g.adj[v]:
        eid = end_edge.get(w)
        if eid is None:
            fixed.add(part_of[w])
        elif eid in adjacent_end:
            return None
        else:
            adjacent_end[eid] = w
    for side in (1, 2):
        if side not in fixed:
            return frozenset(eid for eid, w in adjacent_end.items() if part_of[w] == side)
    return None


def _certificate(g: Graph, part_of: list[int]) -> tuple[dict[int, int], dict[int, frozenset[int]]]:
    """One pass over the edges (``_edge_pass``) and one over the vertices:
    ValueError on a part index below 1, an empty part among 1..max(part_of),
    an edge inside a part or a vertex with no neighbour in some lower part,
    else the end map of the swappable edges and the witness of every vertex
    that has one, by ascending vertex (``part_of`` is valid exactly when
    there is none).

    Witnesses are searched only at the neighbours of swappable-edge ends
    that lie above part 2.  Once every vertex has a neighbour in each lower
    part, a vertex next to no end keeps a neighbour in parts 1 and 2 under
    every swap, so ``_vertex_witness`` finds none there."""
    present = set(part_of)
    if min(present) < 1:
        raise ValueError("part indices are 1-based")
    for i in range(1, max(present) + 1):
        if i not in present:
            raise ValueError(f"part {i} is empty")
    end_edge, seen = _edge_pass(g, part_of)
    for v, i in enumerate(part_of):
        need = (1 << i) - 2
        if seen[v] & need != need:
            raise ValueError(f"vertex {v} in part {i} misses a neighbour in a lower part")
    near_ends = {w for x in end_edge for w, _ in g.adj[x] if part_of[w] >= 3}
    witnesses: dict[int, frozenset[int]] = {}
    for v in sorted(near_ends):
        w = _vertex_witness(g, part_of, end_edge, v)
        if w is not None:
            witnesses[v] = w
    return end_edge, witnesses


def build_valid_partition(g: Graph) -> tuple[list[int], dict[int, int]]:
    """Deterministic valid partition of a nice graph, as the part (1..t) of
    each vertex, and the end map of its swappable edges (each end mapped to
    its edge id).

    Local search from the greedy partition with two moves, each of which
    lowers the sum of part index times part size: (a) drop a vertex that
    misses a neighbour in some lower part to the smallest such part; (b)
    when swap robustness fails, apply the witness swaps, then move the
    stranded vertex down.  No move leaves its connected component; isolated
    vertices stay in part 1.
    Every later check is a ``_certificate`` sweep, on the start and, if a
    witness round ran, on the result; a failure is an InvariantViolation.
    The end map is the one the last sweep found.
    """
    if not is_nice(g):
        raise NotNiceError("graph has a two-vertex component")
    part_of = greedy_partition(g)
    try:
        end_edge = _local_search(g, part_of)
    except ValueError as exc:
        raise InvariantViolation(f"valid-partition builder: {exc}") from exc
    return part_of, end_edge


def _local_search(g: Graph, part_of: list[int]) -> dict[int, int]:
    """The moves of ``build_valid_partition``, made on ``part_of`` in place,
    in the order a full rescan per round would make them; returns the end
    map of the last certificate sweep.

    A settle round moves, in id order, each dirty vertex that misses a lower
    neighbour when the round starts and still does when its turn comes; the
    moved vertices and their neighbours are the next round's dirty set.  The
    greedy start misses no lower neighbour, so settle rounds run only after
    a witness round's swaps.  The witness rounds walk the first certificate
    sweep's witness vertices once, in ascending order, each applying move
    (b) with its current witness while it has one; a vertex that a settle
    round moves into V1 u V2 deletes the swappable edges next to it from the
    end map as it moves.  If a witness round ran, a second sweep checks the
    result.

    The walk is the rescan's order, and the end map stays exact, because no
    vertex ever gains a witness.  Parts 1 and 2 lose vertices only through
    swaps: settle only moves vertices down, and a part-2 vertex that is no
    swappable-edge end keeps a part-1 neighbour that is no end (see
    ``_vertex_witness``).  So a vertex above part 2 falls to its smallest
    missing part k in {1, 2} only after every part-k neighbour was a swapped
    end; those ends now sit on the other bottom side next to it, with its
    unswapped neighbours there, so it joins with at least two bottom
    neighbours.  Hence bottom degrees only grow, a swappable edge dies
    exactly when such a newcomer touches one of its ends, and bottom
    vertices that are no ends never move.  So a side on which a vertex has
    a neighbour that is no end, or both ends of one swappable edge, stays
    so, and a vertex without a witness never gets one.
    """
    adj = g.adj

    def lower_gap(v: int) -> int | None:
        i = part_of[v]
        if i < 2:
            return None
        neighbour_parts = {part_of[w] for w, _ in adj[v]}
        return next((k for k in range(1, i) if k not in neighbour_parts), None)

    def settle(seeds: list[int]) -> None:
        """Run settle rounds, each on the closed neighbourhood of ``seeds`` (the
        swapped ends, then the last round's moves); each move into V1 u V2
        deletes the swappable edges next to the mover from the end map."""
        while seeds:
            dirty = set(seeds)
            for v in seeds:
                dirty.update(w for w, _ in adj[v])
            moved = []
            for v in sorted(v for v in dirty if lower_gap(v) is not None):
                # Earlier moves in this round may have filled the gap already.
                target = lower_gap(v)
                if target is not None:
                    part_of[v] = target
                    moved.append(v)
                    if target <= 2:
                        for w, _ in adj[v]:
                            if w in end_edge:
                                for end in g.edges[end_edge[w]]:
                                    del end_edge[end]
            seeds = moved

    end_edge, witnesses = _certificate(g, part_of)
    if not witnesses:
        return end_edge
    for v in witnesses:  # ascending
        while (witness := _vertex_witness(g, part_of, end_edge, v)) is not None:
            swapped: list[int] = []
            for eid in sorted(witness):
                a, b = g.edges[eid]
                part_of[a], part_of[b] = part_of[b], part_of[a]
                swapped += (a, b)
            settle(swapped)
    end_edge, witnesses = _certificate(g, part_of)
    if witnesses:
        raise InvariantViolation("the witness worklist missed a swap-safety witness")
    return end_edge
