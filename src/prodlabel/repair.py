"""Repair pass: settle every conflicting component of the bottom subgraph.

After the upward pass the only possible conflicts sit between 1-monochromatic
vertices of parts 1 and 2.  Each connected component of the subgraph induced
by those two parts that still contains a conflict is rewritten in place so
that no internal conflict remains and every vertex of the component ends
monochromatic or special (special: exactly one 3, at least two 2s, odd 2+3
count).  Only edges inside the component are touched, so products elsewhere
are unaffected.

Every walk reads the input graph's own ``g.adj`` and keeps to a vertex set
(the component, a piece or a block of it) by a membership test, so no
adjacency is ever copied.  ``g.adj`` is sorted by (neighbour, edge id), so
the filtered lists hand out neighbours in ascending order and every
smallest-neighbour choice is deterministic.

Three mutually exclusive fixers cover all components, tried in order:

* ``fix_anchored``  - the component has (or gains) a 3-anchored side-1 vertex;
* ``fix_hub``       - a 1-monochromatic side-2 vertex has two neighbours;
* ``fix_pendant``   - the conflicting side-2 vertex is a pendant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .graph import Graph, InvariantViolation, connected_components
from .labelling import Labelling, ProfileTracker
from .partition import Partition


@dataclass
class ConflictComponent:
    """One connected component of the bottom subgraph holding a conflict.

    No adjacency of its own: the neighbours of v inside the component are
    the entries of ``g.adj[v]`` whose vertex is a key of ``side``.
    """

    g: Graph
    vertices: list[int]                      # sorted global ids
    side: dict[int, int]                     # 1 or 2, from the partition
    edge_ids: list[int]                      # sorted global edge ids

    def degree(self, v: int) -> int:
        return len(_within(self.g, v, self.side))


def _within(g: Graph, v: int, vset) -> list[tuple[int, int]]:
    """The (neighbour, edge id) pairs of ``g.adj[v]`` whose neighbour is in
    ``vset`` (any container), in ascending neighbour order."""
    return [(w, eid) for w, eid in g.adj[v] if w in vset]


def _component_view(g: Graph, p: Partition, vertices: list[int]) -> ConflictComponent:
    side = {v: p.part_of[v] for v in vertices}
    edge_ids = sorted(eid for v in vertices for w, eid in g.adj[v] if v < w and w in side)
    return ConflictComponent(g, vertices, side, edge_ids)


def _has_conflict(comp: ConflictComponent, state: ProfileTracker) -> bool:
    for eid in comp.edge_ids:
        u, v = comp.g.edges[eid]
        if state.key(u) == state.key(v):
            return True
    return False


def conflict_components(g: Graph, p: Partition, l: Labelling | ProfileTracker) -> list[ConflictComponent]:
    """Connected components of the bottom subgraph that contain a conflict.

    Each returned component is guaranteed (and asserted) to span at least two
    edges; a single-edge conflict component would mean the upward pass failed
    to break up an isolated bottom edge.
    """
    state = l if isinstance(l, ProfileTracker) else ProfileTracker(g, l)
    out = []
    for vertices in connected_components(g, [v for v in range(g.n) if p.part_of[v] <= 2]):
        comp = _component_view(g, p, vertices)
        if _has_conflict(comp, state):
            if len(comp.edge_ids) < 2:
                raise InvariantViolation(
                    f"conflict component {vertices} has fewer than two edges")
            out.append(comp)
    return out


def component_violations(comp: ConflictComponent, state: ProfileTracker) -> list[str]:
    """Empty iff the component has no internal conflict and every vertex is
    monochromatic or special."""
    out = []
    for eid in comp.edge_ids:
        u, v = comp.g.edges[eid]
        if state.key(u) == state.key(v):
            out.append(f"conflict on edge ({u},{v})")
    for v in comp.vertices:
        d2, d3 = state.key(v)
        if d2 > 0 and d3 > 0:
            if not (d3 == 1 and d2 >= 2 and (d2 + d3) % 2 == 1):
                out.append(f"vertex {v} is bichromatic but not special ({d2},{d3})")
    return out


# ---------------------------------------------------------------------------
# Parity machinery


def _sweep(state: ProfileTracker, vset: set[int], root: int,
           need_flip: dict[int, bool], s: int) -> None:
    """Toggle spanning-tree edges (1 <-> s) bottom-up so every vertex with
    need_flip set has its s-parity flipped; the root absorbs the slack.

    The tree spans the subgraph induced by ``vset``, which must be connected
    and contain the root, and every edge of that subgraph must carry label 1
    or s.  parity_relabel checks both first and the fixers guarantee them,
    so a failure here is a broken construction.
    Each non-root vertex owns exactly one tree edge towards the root,
    processed after all edges below it, so one pass settles every requested
    flip exactly.
    """
    adj = state.g.adj
    order = [root]
    parent: dict[int, int] = {root: root}
    parent_edge: dict[int, int] = {}
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for w, eid in adj[v]:
            if w not in vset:
                continue
            if state.label(eid) not in (1, s):
                raise InvariantViolation(
                    f"edge {eid} carries label {state.label(eid)}, expected 1 or {s}")
            if w not in parent:
                parent[w] = v
                parent_edge[w] = eid
                order.append(w)
    if len(order) != len(vset):
        raise InvariantViolation("parity sweep requires a connected subgraph")
    need = dict(need_flip)
    for v in reversed(order):
        if v == root:
            continue
        if need.get(v):
            eid = parent_edge[v]
            state.set(eid, s if state.label(eid) == 1 else 1)
            need[parent[v]] = not need.get(parent[v], False)


def parity_relabel(g: Graph, l: Labelling | ProfileTracker, edge_ids, s: int,
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
    state = l if isinstance(l, ProfileTracker) else ProfileTracker(g, l)
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
    need = {}
    for v in vset:
        if v == exempt:
            continue
        want_odd = (colour[v] == 0) == odd_on_exempt_side
        need[v] = (within[v] % 2 == 1) != want_odd
    before = {eid: state.label(eid) for eid in edge_ids}
    _sweep(state, vset, exempt, need, s)
    return [eid for eid in edge_ids if state.label(eid) != before[eid]]


def nullstellensatz_assign(counts) -> list[int]:
    """A 0/1 vector z with sum(z) - z[i] != counts[i] for every position i.

    Existence for r >= 2 is the combinatorial-nullstellensatz guarantee for
    the product polynomial of the constraints; constructively, fixing the
    total s forces z[i] whenever s - counts[i] is 0 or 1, and the smallest
    feasible total is taken with free ones filled in ascending order.
    """
    counts = list(counts)
    r = len(counts)
    if r < 2:
        raise ValueError("need at least two positions")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    for s in range(r + 1):
        forced: dict[int, int] = {}
        for i, ni in enumerate(counts):
            gap = s - ni
            if gap == 0:
                forced[i] = 1
            elif gap == 1:
                forced[i] = 0
        ones = sum(forced.values())
        zeros = len(forced) - ones
        if ones <= s <= r - zeros:
            z = [forced.get(i, 0) for i in range(r)]
            total = ones
            for i in range(r):
                if total == s:
                    break
                if i not in forced:
                    z[i] = 1
                    total += 1
            if total != s:
                continue
            if any(s - z[i] == counts[i] for i in range(r)):
                raise InvariantViolation("constructed assignment violates a constraint")
            return z
    raise InvariantViolation("no feasible total found; contradicts the nonvanishing guarantee")


# ---------------------------------------------------------------------------
# Fixers


def anchor_trigger(comp: ConflictComponent, state: ProfileTracker):
    """None unless the component has a 3-anchored side-1 vertex or a seed
    for one; else a one-tuple holding ``_anchor_seed``'s result (None when
    an anchor exists but no seed), the argument ``fix_anchored`` takes."""
    seed = _anchor_seed(comp, state)
    if seed is not None or any(comp.side[v] == 1 and state.d3[v] > 0 and state.d2[v] == 0
                               for v in comp.vertices):
        return (seed,)
    return None


def _anchor_seed(comp: ConflictComponent, state: ProfileTracker):
    """Smallest 1-mono side-1 vertex with two 1-mono pendant side-2 neighbours."""
    g = comp.g
    # Counted once: comp.degree(w) per neighbour would rescan a high-degree
    # vertex's adjacency list once for each of its neighbours.
    degree = Counter(x for eid in comp.edge_ids for x in g.edges[eid])
    for v in comp.vertices:
        if comp.side[v] == 1 and state.is_mono1(v):
            pendants = [(w, eid) for w, eid in _within(g, v, comp.side)
                        if degree[w] == 1 and state.is_mono1(w)]
            if len(pendants) >= 2:
                return v, pendants[0], pendants[1]
    return None


def fix_anchored(comp: ConflictComponent, state: ProfileTracker, seed) -> str:
    """Settle a component around its 3-anchored side-1 vertices.

    ``seed`` is ``_anchor_seed``'s result, as ``anchor_trigger`` hands it
    over.  If there is one, its 1-mono side-1 vertex is turned into a new
    anchor through its two 1-mono pendant side-2 neighbours (both pendant
    edges get label 3).  Pieces hanging off the anchors are given
    alternating 2-parities, leftover 1-mono contact vertices are absorbed by
    a second 1/3 parity pass over the anchor contact graph, and odd anchors
    are evened out by rerouting one 3 onto a reserve neighbour.
    """
    g = comp.g
    case = "anchor"
    if seed is not None:
        v1, (u1, e1), (u2, e2) = seed
        state.set(e1, 3)
        state.set(e2, 3)
        case = "anchor-seeded"
        if not _has_conflict(comp, state):
            return case + "-done"

    anchors = [v for v in comp.vertices
               if comp.side[v] == 1 and state.d3[v] > 0 and state.d2[v] == 0]
    if not anchors:
        raise InvariantViolation("anchored fixer ran without any 3-anchored vertex")
    anchor_set = set(anchors)

    rest = set(comp.vertices) - anchor_set
    pieces = []
    for piece in connected_components(g, rest):
        if any(comp.side[v] == 2 and state.d3[v] > 0 for v in piece):
            continue  # pendant vertices already retyped by the seeding step
        pieces.append(piece)

    contact_partner: dict[int, tuple[int, int]] = {}
    for piece in pieces:
        pset = set(piece)
        contact = None
        for v in piece:
            partner = _within(g, v, anchor_set)
            if partner:
                contact = (v, partner[0])
                break
        if contact is None:
            raise InvariantViolation("piece without contact to an anchor")
        y, (x, exy) = contact
        need = {}
        for v in piece:
            if v == y:
                continue
            want_odd = comp.side[v] == 2
            need[v] = (state.d2[v] % 2 == 1) != want_odd
        _sweep(state, pset, y, need, 2)
        if state.d2[y] % 2 == 1:
            continue
        if state.d2[y] > 0:
            state.set(exy, 3)  # y turns special
            continue
        mates = [w for w, _ in _within(g, y, pset) if state.is_mono1(w)]
        if mates:
            contact_partner[y] = (x, mates[0])

    if contact_partner:
        for q in connected_components(g, anchor_set | set(contact_partner)):
            qset = set(q)
            xk = min(v for v in q if v in anchor_set)
            need = {}
            for v in q:
                if v == xk:
                    continue
                want_odd = comp.side[v] == 2
                need[v] = (state.d3[v] % 2 == 1) != want_odd
            _sweep(state, qset, xk, need, 3)
            if state.d3[xk] % 2 == 1:
                for y, exy in _within(g, xk, qset):
                    if comp.side[y] != 2 or state.key(y) != state.key(xk):
                        continue
                    mate = contact_partner[y][1]
                    eyw = g.edge_id(y, mate)
                    if state.label(exy) == 3:
                        state.set(exy, 1)
                    else:
                        state.set(exy, 3)
                    state.set(eyw, 3)
                    break
    return case


def hub_vertex(comp: ConflictComponent, state: ProfileTracker) -> int | None:
    for v in comp.vertices:
        if comp.side[v] == 2 and state.is_mono1(v) and comp.degree(v) >= 2:
            return v
    return None


@dataclass
class _Piece:
    vertices: list[int]
    vset: set[int]
    rep: int                      # designated hub neighbour inside the piece
    kind: str = "nice"            # nice | bad | tricky
    lone: int | None = None       # the single even contact, for bad/tricky
    mate: int | None = None       # lone's 1-mono partner, for tricky


def fix_hub(comp: ConflictComponent, state: ProfileTracker, u: int) -> str:
    """Settle a component around a 1-mono side-2 hub with >= 2 neighbours.

    Every piece of the component minus the hub is first normalised by 1/2
    parity passes; pieces are then classified by their contact vertices and
    one of six endgames rewires the hub edges.
    """
    g = comp.g
    for v in comp.vertices:
        if state.d3[v] != 0:
            raise InvariantViolation(f"hub fixer entered with a 3-count at vertex {v}")
    nbrs = [w for w, _ in _within(g, u, comp.side)]
    for w in nbrs:
        if not state.is_mono1(w):
            raise InvariantViolation(f"hub neighbour {w} is not 1-monochromatic")

    rest = set(comp.vertices) - {u}
    pieces: list[_Piece] = []
    for vertices in connected_components(g, rest):
        vset = set(vertices)
        # Pieces and blocks come sorted, so the first hub (or representative)
        # neighbour found is the smallest.
        rep = next(w for w in vertices if g.has_edge(u, w))
        piece = _Piece(vertices, vset, rep)
        # Normalise every block hanging off the representative with a 1/2
        # parity pass; the chosen contact of each block is the one vertex
        # allowed to end with an even 2-count.
        contacts: list[int] = []
        for block in connected_components(g, vset - {rep}):
            bset = set(block)
            xj = next((w for w in block if g.has_edge(rep, w)), None)
            if xj is None:
                raise InvariantViolation(f"block {block} not attached to {rep}")
            contacts.append(xj)
            need = {}
            for v in block:
                if v == xj:
                    continue
                want_odd = comp.side[v] == 2
                need[v] = (state.d2[v] % 2 == 1) != want_odd
            _sweep(state, bset, xj, need, 2)
        evens = [x for x in contacts if state.d2[x] % 2 == 0]
        if not evens:
            piece.kind = "nice"
        elif len(evens) >= 2:
            piece.kind = "nice"
            for z in evens:
                state.set(g.edge_id(piece.rep, z), 3)
        else:
            w = evens[0]
            if state.d2[w] >= 1:
                piece.kind = "nice"
                state.set(g.edge_id(piece.rep, w), 3)
            else:
                piece.lone = w
                mates = [y for y, _ in _within(g, w, piece.vset)
                         if y != piece.rep and state.is_mono1(y)]
                if mates:
                    piece.kind = "tricky"
                    piece.mate = mates[0]
                else:
                    piece.kind = "bad"
        pieces.append(piece)

    tricky = [p for p in pieces if p.kind == "tricky"]
    bad = [p for p in pieces if p.kind == "bad"]
    nice = [p for p in pieces if p.kind == "nice"]

    if tricky:
        chosen = tricky[0]
        for p in tricky[1:] + bad:
            state.set(g.edge_id(p.rep, p.lone), 2)
            state.set(g.edge_id(u, p.rep), 2)
        if state.d2[u] % 2 == 0:
            state.set(g.edge_id(chosen.rep, chosen.lone), 2)
            state.set(g.edge_id(u, chosen.rep), 2)
            return "hub-1-even"
        state.set(g.edge_id(chosen.rep, chosen.lone), 3)
        state.set(g.edge_id(chosen.lone, chosen.mate), 3)
        return "hub-1-odd"

    if not nice:
        if len(bad) == 1:
            p = bad[0]
            state.set(g.edge_id(p.rep, p.lone), 2)
            state.set(g.edge_id(u, p.rep), 2)
            return "hub-2-single"
        for p in bad:
            state.set(g.edge_id(u, p.rep), 3)
        return "hub-2-many"

    if bad:
        for p in bad:
            state.set(g.edge_id(p.rep, p.lone), 2)
            state.set(g.edge_id(u, p.rep), 2)
        if state.d2[u] % 2 == 1:
            return "hub-3-odd"
        state.set(g.edge_id(u, nice[0].rep), 3)
        return "hub-3-even"

    if len(pieces) == 1:
        p = pieces[0]
        v2 = min(w for w in nbrs if w != p.rep)
        if state.is_mono1(p.rep):
            state.set(g.edge_id(u, p.rep), 3)
            state.set(g.edge_id(u, v2), 3)
            return "hub-4-plain"
        if state.d2[p.rep] != 0:
            raise InvariantViolation(f"piece representative {p.rep} carries 2s")
        state.set(g.edge_id(u, p.rep), 3)
        return "hub-4-anchored"

    for p in pieces:
        if state.d3[p.rep] < 2:
            continue
        others = [w for w in nbrs if w in p.vset and w != p.rep]
        if not others:
            continue
        x = others[0]
        for w, eid in _within(g, p.rep, comp.side):
            if state.label(eid) == 3:
                state.set(eid, 2)
        if state.d2[p.rep] % 2 == 1:
            state.set(g.edge_id(u, p.rep), 2)
            return "hub-5-odd"
        path = _shortest_path(g, p.vset, p.rep, x)
        cycle = [g.edge_id(u, p.rep)] + path + [g.edge_id(x, u)]
        for eid in cycle:
            lab = state.label(eid)
            if lab not in (1, 2):
                raise InvariantViolation(f"cycle edge {eid} carries label {lab}")
            state.set(eid, 2 if lab == 1 else 1)
        if not _has_conflict(comp, state):
            return "hub-5-cycle"
        vj = min(q.rep for q in pieces if q is not p)
        state.set(g.edge_id(u, vj), 3)
        return "hub-5-cycle-special"

    targets = sorted(w for w in nbrs if state.d2[w] == 0)
    if len(targets) < 2:
        raise InvariantViolation("hub endgame needs two or more clean neighbours")
    for w in targets:
        if state.label(g.edge_id(u, w)) != 1:
            raise InvariantViolation(f"hub edge to {w} already relabelled")
    zvec = nullstellensatz_assign([state.d3[w] for w in targets])
    for w, z in zip(targets, zvec):
        if z:
            state.set(g.edge_id(u, w), 3)
    return "hub-6"


def _shortest_path(g: Graph, vset: set[int], a: int, b: int) -> list[int]:
    """Edge ids of a shortest a-b path inside the given vertex set."""
    parent: dict[int, tuple[int, int] | None] = {a: None}
    queue = [a]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == b:
            break
        for w, eid in _within(g, v, vset):
            if w not in parent:
                parent[w] = (v, eid)
                queue.append(w)
    if b not in parent:
        raise InvariantViolation(f"no path from {a} to {b} inside the piece")
    path = []
    v = b
    while parent[v] is not None:
        prev, eid = parent[v]
        path.append(eid)
        v = prev
    path.reverse()
    return path


def fix_pendant(comp: ConflictComponent, state: ProfileTracker) -> str:
    """Settle a component whose conflicting side-2 vertex is a pendant.

    The structure is forced once the other fixers do not apply: the side-1
    partner of the conflict has further side-2 neighbours that all carry 2s
    from below.  One 1/2 parity pass over the component minus the pendant
    leaves at most the partner unbalanced, and a single 3 repairs it.
    """
    g = comp.g
    pair = None
    for eid in comp.edge_ids:
        a, b = g.edges[eid]
        if state.is_mono1(a) and state.is_mono1(b):
            pair = (eid, a, b)
            break
    if pair is None:
        raise InvariantViolation("pendant fixer ran on a settled component")
    eid_uv, a, b = pair
    v, u = (a, b) if comp.side[a] == 1 else (b, a)
    if comp.degree(u) != 1:
        raise InvariantViolation(f"pendant vertex {u} has degree {comp.degree(u)}")
    xs = [w for w, _ in _within(g, v, comp.side) if w != u]
    if not xs:
        raise InvariantViolation("conflict pair is an isolated edge")
    for x in xs:
        if state.d3[x] != 0 or state.d2[x] < 1:
            raise InvariantViolation(f"side-2 neighbour {x} is not 2-monochromatic")

    rest = set(comp.vertices) - {u}
    need = {}
    for w in rest:
        if w == v:
            continue
        want_odd = comp.side[w] == 1
        need[w] = (state.d2[w] % 2 == 1) != want_odd
    _sweep(state, rest, v, need, 2)

    if state.d2[v] % 2 == 1:
        return "pendant-balanced"
    if state.d2[v] >= 2:
        state.set(eid_uv, 3)  # v turns special, u 3-monochromatic
        return "pendant-special-self"
    ex = g.edge_id(v, xs[0])
    if state.label(ex) != 1:
        raise InvariantViolation("1-mono vertex carries a labelled edge")
    if state.d2[xs[0]] < 2 or state.d2[xs[0]] % 2 == 1:
        raise InvariantViolation(f"reserve neighbour {xs[0]} cannot turn special")
    state.set(ex, 3)  # xs[0] turns special, v 3-monochromatic
    return "pendant-special-reserve"


# ---------------------------------------------------------------------------
# Driver


@dataclass
class RepairResult:
    labelling: Labelling
    tally: Counter
    component_vertices: list[list[int]] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)


def run_repair_pass(g: Graph, p: Partition, l: Labelling, trace: bool = False) -> RepairResult:
    """Fix every conflicting bottom component; returns the new labelling.

    For each component exactly one fixer runs, chosen by trigger order, and
    the settled state (no internal conflict, all vertices monochromatic or
    special) is re-checked before moving on.
    """
    labelling = l.copy()
    state = ProfileTracker(g, labelling)
    result = RepairResult(labelling, Counter())
    for comp in conflict_components(g, p, state):
        start = anchor_trigger(comp, state)
        if start is not None:
            case = fix_anchored(comp, state, *start)
        else:
            u = hub_vertex(comp, state)
            if u is not None:
                case = fix_hub(comp, state, u)
            else:
                case = fix_pendant(comp, state)
        violations = component_violations(comp, state)
        if violations:
            raise InvariantViolation(
                f"component {comp.vertices} not settled after {case}: {violations}")
        result.tally[case] += 1
        result.component_vertices.append(comp.vertices)
        if trace:
            result.trace.append(f"component={comp.vertices[0]} case={case}")
    return result
