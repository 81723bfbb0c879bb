"""Repair pass: settle every conflicting component of the bottom subgraph.

After the upward pass every part-1 vertex has no 2 and every part-2 vertex no
3, since an edge from above carries only a 3 into part 1 and only a 2 into
part 2; this is the pass's entry contract.  So a conflict can only join two
1-monochromatic vertices of parts 1 and 2.  The pass works on the
``ProfileTracker`` that the upward pass built: each connected component of
the subgraph induced by those two parts that still contains a conflict is
rewritten in place on it, so that no internal conflict remains and every
vertex of the component ends monochromatic or special (special: exactly one
3, at least two 2s, odd 2+3 count).  Only edges inside the component are
touched, so products elsewhere are unaffected and the order in which the
components are settled changes no label.  Every conflict test is
``labelling.conflicting_edges``, the verdict's scan: discovery runs it over
all edges, and ``fix_pendant`` takes its conflict from discovery; the other
fixers and the settled-state check run it over a component's edges.

The partition is the only record of a vertex's side.  A component is a whole
connected component of the bottom subgraph, so a neighbour of one of its
vertices is in it iff its part is 1 or 2.  Every walk reads the input
graph's own ``g.adj`` and keeps to the bottom or to a vertex set, so no
adjacency is ever copied.  ``g.adj`` is sorted by (neighbour, edge id), so
the filtered lists hand out neighbours in ascending order and every
smallest-neighbour choice is deterministic.  A fixer relabels an edge
through the edge id that came with the neighbour it picked, from a
``(neighbour, edge id)`` entry or a walk-tree link; no edge is ever looked
up by its ends.  Every 1/s relabelling is one ``_parity_pass``: a
breadth-first walk inside a vertex set that takes the walked piece out of
the set and flips tree edges bottom-up until each vertex but the root has
the parity its side needs.  ``fix_anchored`` and ``fix_hub`` run one from
the smallest contact of each piece or block (a whole component of the set,
so no later walk changes), ``fix_pendant`` one from the pendant's partner.

Three fixers cover all components, tried in order; each returns None, with
no label touched, when it does not apply:

* ``fix_anchored``  - the component has (or gains) a 3-anchored side-1 vertex;
* ``fix_hub``       - a 1-monochromatic side-2 vertex has two neighbours;
* ``fix_pendant``   - the conflicting side-2 vertex is a pendant.
"""

from __future__ import annotations

from .graph import Graph, InvariantViolation
from .labelling import ProfileTracker, conflicting_edges


class ConflictComponent:
    """One connected component of the bottom subgraph holding a conflict.

    Only ``vertices``, ``eids`` and ``conflict`` are its own: ``side`` is the
    pass's ``part_of`` and ``degrees`` its bottom-degree list (0 off the
    bottom), both shared by every component of the pass.
    """

    __slots__ = ("vertices", "side", "eids", "degrees", "conflict")

    def __init__(self, vertices: list[int], side: list[int],
                 eids: list[int], degrees: list[int], conflict: int):
        self.vertices = vertices                 # sorted global ids
        self.side = side                         # part_of: 1 or 2 on the component
        self.eids = eids                         # global edge ids, in walk order
        self.degrees = degrees                   # degree inside the bottom subgraph
        self.conflict = conflict                 # its smallest conflicting edge id


def _within(g: Graph, v: int, vset) -> list[tuple[int, int]]:
    """The (neighbour, edge id) pairs of ``g.adj[v]`` whose neighbour is in
    ``vset`` (any container), in ascending neighbour order."""
    return [(w, eid) for w, eid in g.adj[v] if w in vset]


def conflict_components(g: Graph, part_of: list[int],
                        state: ProfileTracker) -> tuple[list[ConflictComponent], int]:
    """Connected components of the bottom subgraph that contain a conflict,
    in discovery order, and the number of conflicting edges.

    ``conflicting_edges`` lists the conflicting edges, all in the bottom by
    the entry contract.  One walk from each whose component is not yet
    walked, its smallest conflict, writes the component's bottom degrees and
    collects its vertices and edges; clean components are never walked.
    Each component spans at least two edges (asserted); one edge alone would
    mean the upward pass failed to break up an isolated bottom edge.
    """
    adj = g.adj
    degrees = [0] * g.n
    out = []
    conflicts = conflicting_edges(g, state.d2, state.d3, range(g.m))
    for first in conflicts:
        u = g.edges[first][0]
        if degrees[u]:
            continue
        vertices = [u]
        eids = []
        for x in vertices:  # grows while it is read: a queue
            degree = 0
            for w, eid in adj[x]:
                if part_of[w] > 2:
                    continue
                degree += 1
                if not degrees[w]:
                    degrees[w] = -1  # queued; its own turn writes its degree
                    vertices.append(w)
                if x < w:
                    eids.append(eid)
            degrees[x] = degree
        vertices.sort()
        if len(eids) < 2:
            raise InvariantViolation(
                f"conflict component {vertices} has fewer than two edges")
        out.append(ConflictComponent(vertices, part_of, eids, degrees, first))
    return out, len(conflicts)


def component_violations(comp: ConflictComponent, state: ProfileTracker) -> list[str]:
    """Empty iff the component has no internal conflict and every vertex is
    monochromatic or special."""
    edges, d2, d3 = state.g.edges, state.d2, state.d3
    out = ["conflict on edge ({},{})".format(*edges[eid])
           for eid in conflicting_edges(state.g, d2, d3, comp.eids)]
    for v in comp.vertices:
        twos, threes = d2[v], d3[v]
        if twos > 0 and threes > 0:
            if not (threes == 1 and twos >= 2 and (twos + threes) % 2 == 1):
                out.append(f"vertex {v} is bichromatic but not special ({twos},{threes})")
    return out


# ---------------------------------------------------------------------------
# Parity machinery


def _walk(state: ProfileTracker, vset, root: int, s: int):
    """Breadth-first spanning tree of the subgraph induced by ``vset`` from
    ``root``: the visit order, a map from each reached vertex to its
    (parent, tree edge) (the root maps to itself and -1), and the first edge
    met whose label is neither 1 nor s (None when there is none)."""
    adj, labels = state.g.adj, state.labelling.labels
    order = [root]
    tree = {root: (root, -1)}
    bad = None
    for v in order:  # grows while it is read: a queue
        for w, eid in adj[v]:
            if w not in vset:
                continue
            if bad is None and labels[eid] != 1 and labels[eid] != s:
                bad = eid
            if w not in tree:
                tree[w] = (v, eid)
                order.append(w)
    return order, tree, bad


def _parity_pass(state: ProfileTracker, vset: set[int], root: int,
                 side, odd_side: int, s: int) -> dict[int, tuple[int, int]]:
    """Walk ``vset`` from ``root``, take the walked vertices out of it and
    toggle the tree edges (1 <-> s) bottom-up, so that each walked vertex
    but the root ends with an odd s-count iff its ``side`` is ``odd_side``;
    the root absorbs the slack.  Returns the walk's tree.

    A vertex is flipped after every vertex below it, so its live s-count
    already holds their flips, and the tree edge above it flips iff that
    count has the wrong parity.  A walk that reaches only its root meets no
    edge and flips nothing.  A walked edge labelled neither 1 nor s is a
    broken construction, raised before any label is touched.
    """
    order, tree, bad = _walk(state, vset, root, s)
    if bad is not None:
        raise InvariantViolation(f"edge {bad} carries label {state.label(bad)}, expected 1 or {s}")
    vset.difference_update(order)
    counts = state.d2 if s == 2 else state.d3
    for v in order[:0:-1]:  # reverse visit order, root excluded
        if (counts[v] % 2 == 1) != (side[v] == odd_side):
            eid = tree[v][1]
            state.set(eid, s if state.label(eid) == 1 else 1)
    return tree


def nullstellensatz_assign(counts) -> list[int]:
    """A 0/1 vector z with sum(z) - z[i] != counts[i] for every position i.

    Existence for r >= 2 is the combinatorial-nullstellensatz guarantee for
    the product polynomial of the constraints; constructively, the smallest
    total s that the counts allow is taken.  For a total s, a position whose
    count is s must take 1 and one whose count is s - 1 must take 0; the
    other positions take 1 in ascending order until the total is s.
    """
    r = len(counts)
    for s in range(r + 1):
        z = [int(c == s) for c in counts]
        free = [i for i, c in enumerate(counts) if c != s and c != s - 1]
        need = s - sum(z)
        if 0 <= need <= len(free):
            for i in free[:need]:
                z[i] = 1
            if any(s - zi == c for zi, c in zip(z, counts)):
                raise InvariantViolation("constructed assignment violates a constraint")
            return z
    raise InvariantViolation("no feasible total found; contradicts the nonvanishing guarantee")


# ---------------------------------------------------------------------------
# Fixers


def _anchor_seed(comp: ConflictComponent, state: ProfileTracker) -> tuple[int, int] | None:
    """The edges to the first two 1-mono pendant side-2 neighbours of the
    smallest 1-mono side-1 vertex that has two."""
    adj, degrees = state.g.adj, comp.degrees
    for v in comp.vertices:
        if comp.side[v] == 1 and state.is_mono1(v):
            first = None
            for w, eid in adj[v]:
                if degrees[w] == 1 and state.is_mono1(w):
                    if first is not None:
                        return first, eid
                    first = eid
    return None


def fix_anchored(comp: ConflictComponent, state: ProfileTracker) -> str | None:
    """Settle a component around its 3-anchored side-1 vertices; None, with
    no label touched, when it has neither an anchor nor a seed for one.

    The seed is ``_anchor_seed``'s result, searched once.  If there is one,
    its 1-mono side-1 vertex is turned into a new anchor through its two
    1-mono pendant side-2 neighbours (both pendant edges get label 3).
    Pieces hanging off the anchors are given alternating 2-parities,
    leftover 1-mono contact vertices are absorbed by a second 1/3 parity
    pass over the anchor contact graph, and odd anchors are evened out by
    rerouting one 3 onto a reserve neighbour.

    The component is connected, so every piece touches an anchor.  Both
    passes find their pieces in ascending vertex order: the first vertex not
    yet walked that touches an anchor is the smallest contact of its piece
    (the first anchor not yet walked, the smallest anchor of its part of the
    contact graph), and one breadth-first walk from it collects the piece
    and is the spanning tree of its parity pass.
    """
    adj, side, d2, d3 = state.g.adj, comp.side, state.d2, state.d3
    seed = _anchor_seed(comp, state)
    case = "anchor"
    if seed is not None:
        state.set(seed[0], 3)
        state.set(seed[1], 3)
        case = "anchor-seeded"
        if not conflicting_edges(state.g, d2, d3, comp.eids):
            return case + "-done"

    anchors = [v for v in comp.vertices if side[v] == 1 and d3[v] > 0]
    if not anchors:
        if seed is None:
            return None
        raise InvariantViolation("anchored fixer ran without any 3-anchored vertex")
    anchor_set = set(anchors)

    rest = set(comp.vertices) - anchor_set  # the non-anchors no walk reached yet
    mate_edge: dict[int, int] = {}  # contact -> edge to its 1-mono partner
    for y in comp.vertices:
        if y not in rest:
            continue
        for x, exy in adj[y]:  # the smallest anchor neighbour
            if x in anchor_set:
                break
        else:
            continue  # no anchor neighbour: the walk from a larger contact reaches y
        tree = _parity_pass(state, rest, y, side, 2, 2)
        if d2[y] % 2 == 1:
            continue
        if d2[y] > 0:
            state.set(exy, 3)  # y turns special
            continue
        mate = next((e for w, e in adj[y] if w in tree and state.is_mono1(w)), None)
        if mate is not None:
            mate_edge[y] = mate
    if rest:
        raise InvariantViolation("piece without contact to an anchor")

    if mate_edge:
        contact_graph = anchor_set | set(mate_edge)
        for xk in anchors:
            if xk not in contact_graph:
                continue
            tree = _parity_pass(state, contact_graph, xk, side, 2, 3)
            if d3[xk] % 2 == 1:
                for y, exy in adj[xk]:
                    if y not in tree or side[y] != 2 or state.key(y) != state.key(xk):
                        continue
                    state.set(exy, 1 if state.label(exy) == 3 else 3)
                    state.set(mate_edge[y], 3)
                    break
    return case


def hub_vertex(comp: ConflictComponent, state: ProfileTracker) -> int | None:
    for v in comp.vertices:
        if comp.side[v] == 2 and state.is_mono1(v) and comp.degrees[v] >= 2:
            return v
    return None


class _Piece:
    __slots__ = ("vset", "rep", "hub_edge", "lone", "mate")

    def __init__(self, vset: set[int], rep: int, hub_edge: int):
        self.vset = vset
        self.rep = rep                    # smallest hub neighbour inside the piece
        self.hub_edge = hub_edge          # the edge from the hub to rep
        self.lone: int | None = None      # edge from rep to its single even contact; None iff nice
        self.mate: int | None = None      # that contact's edge to a 1-mono partner; set iff tricky


def fix_hub(comp: ConflictComponent, state: ProfileTracker) -> str | None:
    """Settle a component around the 1-mono side-2 hub with >= 2 neighbours
    that ``hub_vertex`` finds; None, with no label touched, if there is none.

    Every piece of the component minus the hub is first normalised by 1/2
    parity passes; pieces are then classified by their contact vertices and
    one of six endgames rewires the hub edges.

    Pieces are found in ascending hub-neighbour order: the first neighbour
    not yet walked is the representative of its piece.  The piece minus
    its representative falls into blocks, found the same way from the
    representative's neighbours; one breadth-first walk from a block's
    smallest contact collects the block and is the spanning tree of its
    parity pass, as in ``fix_anchored``.
    """
    u = hub_vertex(comp, state)
    if u is None:
        return None
    g = state.g
    for v in comp.vertices:
        if state.d3[v] != 0:
            raise InvariantViolation(f"hub fixer entered with a 3-count at vertex {v}")
    rest = set(comp.vertices) - {u}  # the vertices no piece holds yet
    nbrs = _within(g, u, rest)  # (hub neighbour, hub edge), ascending
    for w, _ in nbrs:
        if not state.is_mono1(w):
            raise InvariantViolation(f"hub neighbour {w} is not 1-monochromatic")

    pieces: list[_Piece] = []
    for rep, hub_edge in nbrs:
        if rep not in rest:
            continue
        rest.discard(rep)  # no walk of this piece's blocks may pass through it
        piece = _Piece({rep}, rep, hub_edge)
        # Normalise every block hanging off the representative with a 1/2
        # parity pass; the block's contact is the one vertex allowed to end
        # with an even 2-count.
        contacts: list[tuple[int, int]] = []
        for xj, exj in g.adj[rep]:
            if xj not in rest:
                continue  # off the bottom, another piece's, or walked from a smaller contact
            piece.vset.update(_parity_pass(state, rest, xj, comp.side, 2, 2))
            contacts.append((xj, exj))
        evens = [(x, ex) for x, ex in contacts if state.d2[x] % 2 == 0]
        if len(evens) >= 2 or (evens and state.d2[evens[0][0]] >= 1):
            for _, ez in evens:
                state.set(ez, 3)  # the piece stays nice
        elif evens:
            w, piece.lone = evens[0]
            piece.mate = next((ey for y, ey in _within(g, w, piece.vset)
                               if y != piece.rep and state.is_mono1(y)), None)
        pieces.append(piece)
    if rest:
        raise InvariantViolation(f"vertex {min(rest)} is not attached to the hub {u}")
    pieces.sort(key=lambda p: min(p.vset))

    tricky = [p for p in pieces if p.mate is not None]
    bad = [p for p in pieces if p.lone is not None and p.mate is None]
    nice = [p for p in pieces if p.lone is None]

    if tricky:
        chosen = tricky[0]
        for p in tricky[1:] + bad:
            state.set(p.lone, 2)
            state.set(p.hub_edge, 2)
        if state.d2[u] % 2 == 0:
            state.set(chosen.lone, 2)
            state.set(chosen.hub_edge, 2)
            return "hub-1-even"
        state.set(chosen.lone, 3)
        state.set(chosen.mate, 3)
        return "hub-1-odd"

    if not nice:
        if len(bad) == 1:
            p = bad[0]
            state.set(p.lone, 2)
            state.set(p.hub_edge, 2)
            return "hub-2-single"
        for p in bad:
            state.set(p.hub_edge, 3)
        return "hub-2-many"

    if bad:
        for p in bad:
            state.set(p.lone, 2)
            state.set(p.hub_edge, 2)
        if state.d2[u] % 2 == 1:
            return "hub-3-odd"
        state.set(nice[0].hub_edge, 3)
        return "hub-3-even"

    if len(pieces) == 1:
        p = pieces[0]
        if state.is_mono1(p.rep):
            state.set(p.hub_edge, 3)
            state.set(next(e for w, e in nbrs if w != p.rep), 3)
            return "hub-4-plain"
        if state.d2[p.rep] != 0:
            raise InvariantViolation(f"piece representative {p.rep} carries 2s")
        state.set(p.hub_edge, 3)
        return "hub-4-anchored"

    for p in pieces:
        if state.d3[p.rep] < 2:
            continue
        others = [(w, e) for w, e in nbrs if w in p.vset and w != p.rep]
        if not others:
            continue
        x, ex = others[0]
        for w, eid in g.adj[p.rep]:
            if state.label(eid) == 3:  # a bottom edge: the fixer started 3-free
                state.set(eid, 2)
        if state.d2[p.rep] % 2 == 1:
            state.set(p.hub_edge, 2)
            return "hub-5-odd"
        tree = _walk(state, p.vset, p.rep, 2)[1]
        cycle = [p.hub_edge, ex]
        while x != p.rep:  # the tree path from x up to the representative
            x, eid = tree[x]
            cycle.append(eid)
        for eid in cycle:
            lab = state.label(eid)
            if lab not in (1, 2):
                raise InvariantViolation(f"cycle edge {eid} carries label {lab}")
            state.set(eid, 2 if lab == 1 else 1)
        if not conflicting_edges(g, state.d2, state.d3, comp.eids):
            return "hub-5-cycle"
        state.set(min((q.rep, q.hub_edge) for q in pieces if q is not p)[1], 3)
        return "hub-5-cycle-special"

    targets = [(w, e) for w, e in nbrs if state.d2[w] == 0]
    if len(targets) < 2:
        raise InvariantViolation("hub endgame needs two or more clean neighbours")
    for w, e in targets:
        if state.label(e) != 1:
            raise InvariantViolation(f"hub edge to {w} already relabelled")
    zvec = nullstellensatz_assign([state.d3[w] for w, _ in targets])
    for (_, e), z in zip(targets, zvec):
        if z:
            state.set(e, 3)
    return "hub-6"


def fix_pendant(comp: ConflictComponent, state: ProfileTracker) -> str:
    """Settle a component whose conflicting side-2 vertex is a pendant.

    The structure is forced once the other fixers do not apply: the side-1
    partner of the conflict has further side-2 neighbours that all carry 2s
    from below.  One 1/2 parity pass over the component minus the pendant
    leaves at most the partner unbalanced, and a single 3 repairs it.
    """
    g = state.g
    eid_uv = comp.conflict  # both its ends are 1-mono, by the entry contract
    a, b = g.edges[eid_uv]
    v, u = (a, b) if comp.side[a] == 1 else (b, a)
    if comp.degrees[u] != 1:
        raise InvariantViolation(f"pendant vertex {u} has degree {comp.degrees[u]}")
    rest = set(comp.vertices) - {u}
    xs = _within(g, v, rest)
    if not xs:
        raise InvariantViolation("conflict pair is an isolated edge")
    for x, _ in xs:
        if state.d3[x] != 0 or state.d2[x] < 1:
            raise InvariantViolation(f"side-2 neighbour {x} is not 2-monochromatic")

    _parity_pass(state, rest, v, comp.side, 1, 2)
    if rest:
        raise InvariantViolation("parity sweep requires a connected subgraph")

    if state.d2[v] % 2 == 1:
        return "pendant-balanced"
    if state.d2[v] >= 2:
        state.set(eid_uv, 3)  # v turns special, u 3-monochromatic
        return "pendant-special-self"
    x, ex = xs[0]
    if state.label(ex) != 1:
        raise InvariantViolation("1-mono vertex carries a labelled edge")
    if state.d2[x] < 2 or state.d2[x] % 2 == 1:
        raise InvariantViolation(f"reserve neighbour {x} cannot turn special")
    state.set(ex, 3)  # x turns special, v 3-monochromatic
    return "pendant-special-reserve"


# ---------------------------------------------------------------------------
# Driver


def run_repair_pass(g: Graph, part_of: list[int], state: ProfileTracker) -> dict[str, int]:
    """Fix every conflicting bottom component on ``state``, the tracker the
    upward pass built, and return the pass's ``repair.*`` stats.

    The labels and degree counts are changed in place, so no edge is
    counted again.  For each component the first fixer that applies runs,
    and the settled state (no internal conflict, all vertices monochromatic
    or special) is re-checked before moving on.
    """
    comps, conflicts_in = conflict_components(g, part_of, state)
    stats = {"repair.conflicts_in": conflicts_in} if conflicts_in else {}
    for comp in comps:
        case = fix_anchored(comp, state) or fix_hub(comp, state) or fix_pendant(comp, state)
        violations = component_violations(comp, state)
        if violations:
            raise InvariantViolation(
                f"component {comp.vertices} not settled after {case}: {violations}")
        for key in ("repair.components", "repair.case." + case):
            stats[key] = stats.get(key, 0) + 1
    return stats
