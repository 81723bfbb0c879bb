import itertools
import random
from collections import Counter

import pytest

from prodlabel import Graph, InvariantViolation, Labelling, find_conflicts, label_graph
from prodlabel.labelling import conflicting_edges, degree_counts
from prodlabel.partition import build_valid_partition
import prodlabel.repair as repair_module
from prodlabel.repair import (
    ConflictComponent,
    _anchor_seed,
    _parity_pass,
    component_violations,
    conflict_components,
    fix_anchored,
    fix_hub,
    fix_pendant,
    hub_vertex,
    nullstellensatz_assign,
    run_repair_pass,
)
from prodlabel.upward import run_upward_pass

import gen
from conftest import (
    CountingAdj,
    complete_graph,
    exact_products,
    path_graph,
    random_connected_nice_graph,
    spider,
    star_graph,
)
from spec import kind, meets_target, profile, special, tracker


def fixture(parts, edges, labels=None):
    """Graph + partition + tracker for handcrafted repair scenarios."""
    part_of = {v: i for i, vs in enumerate(parts, start=1) for v in vs}
    g = Graph(len(part_of), edges)
    p = [part_of[v] for v in range(g.n)]
    l = Labelling(list(labels) if labels is not None else [1] * g.m)
    return g, p, tracker(g, l)


def cases(stats):
    """The ``repair.case.*`` counts of a repair pass's stats, by case."""
    return {key.removeprefix("repair.case."): count for key, count in stats.items()
            if key.startswith("repair.case.")}


def the_component(g, p, state):
    comps, _ = conflict_components(g, p, state)
    assert len(comps) == 1
    return comps[0]


# Hub u=0 in part 2 with three pendant part-1 leaves.
HUB_6 = ([{1, 2, 3}, {0}], [(0, 1), (0, 2), (0, 3)])
# Path u(0)-v(1)-x(2); x carries one downward 2.
PENDANT_BALANCED = ([{1}, {0, 2}, {3}], [(0, 1), (1, 2), (2, 3)], [1, 1, 2])


class TestParityPass:
    def test_path(self):
        # Vertex 2 wants an odd 2-count, vertex 1 an even one: both edges take 2.
        state = tracker(path_graph(3))
        assert _parity_pass(state, {0, 1, 2}, 0, [1, 2, 1], 1, 2) == {
            0: (0, -1), 1: (0, 0), 2: (1, 1)}
        assert state.labelling.labels == [2, 2]

    @pytest.mark.parametrize("label", [2, 3])
    def test_wrong_label_is_internal(self, label):
        # A walked edge not labelled 1, s included, is a broken construction:
        # the pass raises before it touches a label.
        state = tracker(path_graph(3), Labelling([1, label]))
        with pytest.raises(InvariantViolation, match=f"edge 1 carries label {label}, expected 1$"):
            _parity_pass(state, {0, 1, 2}, 0, [1, 2, 1], 1, 2)
        assert state.labelling.labels == [1, label]

    def test_pass_leaves_unreached_vertices_in_the_set(self):
        # The pass takes out only the piece its walk reaches; the rest of a
        # disconnected set stays for a later pass (or a caller's error).
        g = Graph(4, [(0, 1), (2, 3)])
        state = tracker(g, Labelling.all_ones(g))
        vset = {0, 1, 2, 3}
        assert _parity_pass(state, vset, 0, [1, 2, 1, 2], 1, 2) == {0: (0, -1), 1: (0, 0)}
        assert vset == {2, 3} and state.labelling.labels == [1, 1]

    def test_pass_keeps_to_its_vertex_set(self):
        # Edges leaving the vertex set neither join the tree nor get their
        # labels checked.
        g = path_graph(4)
        state = tracker(g, Labelling([1, 1, 3]))
        _parity_pass(state, {0, 1, 2}, 0, {0: 1, 1: 1, 2: 1}, 1, 2)
        assert state.labelling.labels == [1, 2, 3]


def enumerate_assignments(counts):
    """All 0/1 vectors meeting the forbidden-sum constraints, by brute force."""
    r = len(counts)
    out = []
    for bits in itertools.product((0, 1), repeat=r):
        total = sum(bits)
        if all(total - bits[i] != counts[i] for i in range(r)):
            out.append(list(bits))
    return out


class TestNullstellensatzAssign:
    def test_two_zeros(self):
        assert enumerate_assignments([0, 0]) == [[1, 1]]
        assert nullstellensatz_assign([0, 0]) == [1, 1]

    def test_three_zeros(self):
        assert nullstellensatz_assign([0, 0, 0]) == [1, 1, 0]
        assert [1, 1, 0] in enumerate_assignments([0, 0, 0])

    def test_one_zero(self):
        assert nullstellensatz_assign([1, 0]) == [1, 0]
        assert [1, 0] in enumerate_assignments([1, 0])


class TestConflictComponents:
    def test_k3_clean(self):
        g = complete_graph(3)
        state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
        assert conflict_components(g, part_of, tracker(g, state.labelling)) == ([], 0)

    def test_star_whole(self):
        g = star_graph(3)
        p, _ = build_valid_partition(g)
        comps, conflicts = conflict_components(g, p, tracker(g))
        assert len(comps) == 1 and comps[0].vertices == [0, 1, 2, 3]
        assert conflicts == 3

    def test_p5_whole(self):
        g = path_graph(5)
        p, _ = build_valid_partition(g)
        comps, conflicts = conflict_components(g, p, tracker(g))
        assert len(comps) == 1 and comps[0].vertices == [0, 1, 2, 3, 4]
        assert conflicts == 4

    def test_single_edge_component_asserts(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InvariantViolation, match="fewer than two edges"):
            conflict_components(g, [1, 2], tracker(g))

    @pytest.mark.parametrize("clean", [1, 40, 400])
    def test_clean_components_never_walked(self, clean):
        # `clean` bottom paths a-b-c whose middle carries a 2 towards its own
        # part-3 vertex d, which carries a 3 towards a (no key repeats on an
        # edge), then a conflicting star on the highest ids, its edges listed
        # first.
        parts, edges, labels = [set(), set(), set()], [], []
        for i in range(clean):
            a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
            parts[0] |= {a, c}
            parts[1].add(b)
            parts[2].add(d)
            edges += [(a, b), (b, c), (b, d), (a, d)]
            labels += [1, 1, 2, 3]
        centre = 4 * clean
        leaves = [centre + 1, centre + 2, centre + 3]
        parts[0].add(centre)
        parts[1].update(leaves)
        edges = [(centre, x) for x in leaves] + edges
        labels = [1, 1, 1] + labels
        g, p, state = fixture(parts, edges, labels)
        star_degrees = sum(len(g.adj[v]) for v in [centre] + leaves)
        g.adj = CountingAdj(g.adj)
        comps, conflicts = conflict_components(g, p, state)
        assert [c.vertices for c in comps] == [[centre] + leaves]
        assert conflicts == 3  # the star's edges
        assert comps[0].eids == [0, 1, 2]
        assert comps[0].degrees == [0] * centre + [3, 1, 1, 1]  # no clean vertex walked
        assert g.adj.read <= 2 * star_degrees

    def test_discovery_order(self):
        # The first conflicting edge lies in the component with the larger
        # ids, so that component comes first; each keeps the edge its walk
        # started from and lists its edges in walk order.
        parts = [{0, 2, 3}, {1, 4, 5, 6}]
        edges = [(3, 4), (3, 5), (3, 6), (0, 1), (1, 2)]
        g, p, state = fixture(parts, edges)
        comps, conflicts = conflict_components(g, p, state)
        assert [c.vertices for c in comps] == [[3, 4, 5, 6], [0, 1, 2]]
        assert conflicts == 5
        assert [c.conflict for c in comps] == [0, 3]
        assert [c.eids for c in comps] == [[0, 1, 2], [3, 4]]

    def test_violations_name_conflicts_and_unspecial_vertices(self):
        # The hub-6 star before any fix: every edge joins two 1-mono ends.
        g, p, state = fixture(*HUB_6)
        comp = the_component(g, p, state)
        assert component_violations(comp, state) == [
            "conflict on edge (0,1)", "conflict on edge (0,2)", "conflict on edge (0,3)"]
        # A 2 and a 3 at the hub: (1,1) is bichromatic but not special.
        state.set(0, 2)
        state.set(1, 3)
        assert component_violations(comp, state) == [
            "vertex 0 is bichromatic but not special (1,1)"]

    def test_components_share_the_partition_and_one_degree_list(self):
        # Two conflicting components; vertex 6 also has a part-3 neighbour 7.
        parts = [{0, 2, 3}, {1, 4, 5, 6}, {7}]
        edges = [(3, 4), (3, 5), (3, 6), (0, 1), (1, 2), (6, 7)]
        g, p, state = fixture(parts, edges)
        comps, _ = conflict_components(g, p, state)
        assert len(comps) == 2
        assert all(c.side is p for c in comps)
        assert comps[0].degrees is comps[1].degrees
        assert comps[0].degrees == [1, 2, 1, 3, 1, 1, 1, 0]


class TestFixAnchored:
    def test_star_seeding(self):
        # 1-mono centre in part 1 with three 1-mono pendant part-2 leaves.
        g, p, state = fixture([{0}, {1, 2, 3}], [(0, 1), (0, 2), (0, 3)])
        comp = the_component(g, p, state)
        assert _anchor_seed(comp, state) == (0, 1)  # edges from centre 0 to pendants 1 and 2
        case = fix_anchored(comp, state)
        assert case == "anchor-seeded-done"
        assert state.labelling.labels == [3, 3, 1]
        assert [state.key(v) for v in range(4)] == [(0, 2), (0, 1), (0, 1), (0, 0)]
        assert component_violations(comp, state) == []

    def test_contact_turns_special(self):
        # Anchor x=0 (one downward 3); contact y=1 collects two 2s from the
        # parity pass and turns special via the contact edge.
        parts = [{0, 2, 4}, {1, 3, 5}, {6}]
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6)]
        labels = [1, 1, 1, 1, 1, 3]
        g, p, state = fixture(parts, edges, labels)
        comp = the_component(g, p, state)
        assert comp.vertices == [0, 1, 2, 3, 4, 5]
        assert _anchor_seed(comp, state) is None  # anchored already, no seed
        assert fix_anchored(comp, state) == "anchor"
        assert state.key(1) == (2, 1)  # special contact
        assert state.labelling.labels[0] == 3
        assert component_violations(comp, state) == []

    @staticmethod
    def _merged(g, p, state):
        """One ConflictComponent over the whole bottom of g, connected or not."""
        vertices = [v for v in range(g.n) if p[v] <= 2]
        edge_ids = [eid for eid, (a, b) in enumerate(g.edges) if p[a] <= 2 and p[b] <= 2]
        degrees = [sum(1 for w, _ in g.adj[v] if p[w] <= 2) if p[v] <= 2 else 0 for v in range(g.n)]
        conflict = conflicting_edges(g, state.d2, state.d3, edge_ids)[0]
        return ConflictComponent(vertices, p, edge_ids, degrees, conflict)

    def test_piece_without_contact(self):
        # The anchored component of test_contact_turns_special glued to a
        # separate bottom path 7-8-9, a piece that touches no anchor: a
        # connected component has none, so this is a broken construction.
        parts = [{0, 2, 4, 7, 9}, {1, 3, 5, 8}, {6, 10}]
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6), (7, 8), (8, 9), (8, 10)]
        g, p, state = fixture(parts, edges, [1, 1, 1, 1, 1, 3, 1, 1, 1])
        with pytest.raises(InvariantViolation, match="piece without contact"):
            fix_anchored(self._merged(g, p, state), state)

    def test_leftover_one_mono_contacts(self):
        # Two pieces whose contacts stay 1-mono force the 1/3 pass over the
        # anchor contact graph.
        parts = [{0, 2, 5}, {1, 4, 6}, {3}]
        edges = [(0, 1), (1, 2), (0, 4), (4, 5), (5, 6), (0, 3)]
        labels = [1, 1, 1, 1, 1, 3]
        g, p, state = fixture(parts, edges, labels)
        comp = the_component(g, p, state)
        fix_anchored(comp, state)
        assert component_violations(comp, state) == []


class TestFixHub:
    def test_star_nullstellensatz(self):
        # Endgame assignment (1,1,0) labels the first two hub edges 3.
        g, p, state = fixture(*HUB_6)
        comp = the_component(g, p, state)
        assert fix_anchored(comp, state) is None
        assert hub_vertex(comp, state) == 0
        case = fix_hub(comp, state)
        assert case == "hub-6"
        assert state.labelling.labels == [3, 3, 1]
        assert [state.key(v) for v in range(4)] == [(0, 2), (0, 1), (0, 1), (0, 0)]
        assert component_violations(comp, state) == []

    def test_single_bad_piece_exact_degrees(self):
        # One bad piece; after the fix the three rewired vertices carry
        # 2-counts 1, 2, 1 (lone contact, representative, hub).
        parts = [{1, 2}, {0, 3, 4, 5}, {6, 7}]
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (2, 5),
                 (4, 6), (4, 7), (5, 6), (5, 7)]
        labels = [1] * 6 + [2, 2, 2, 2]
        g, p, state = fixture(parts, edges, labels)
        comp = the_component(g, p, state)
        assert comp.vertices == [0, 1, 2, 3, 4, 5]
        assert fix_anchored(comp, state) is None
        assert hub_vertex(comp, state) == 0
        case = fix_hub(comp, state)
        assert case == "hub-2-single"
        assert state.d2[3] == 1 and state.d2[1] == 2 and state.d2[0] == 1
        assert component_violations(comp, state) == []

    def _case5_fixture(self, extra_singleton: bool):
        # Hub u=0; piece one has representative 1 with a second hub neighbour
        # 2 sitting in a deep block, plus even-contact singletons; piece two
        # is the lone vertex 3.  Vertices 5..9 (and 10) carry two downward 2s
        # each so the anchored trigger never fires on entry.
        deep = {0, 4, 5, 6, 7, 8, 9} | ({10} if extra_singleton else set())
        d1 = 11 if extra_singleton else 10
        d2_ = d1 + 1
        parts = [{1, 2, 3}, deep, {d1, d2_}]
        edges = [(0, 1), (0, 2), (0, 3),
                 (1, 4), (1, 5), (1, 6),
                 (2, 4), (2, 7), (2, 8), (2, 9)]
        carriers = [5, 6, 7, 8, 9]
        if extra_singleton:
            edges.append((1, 10))
            carriers.append(10)
        twos = [(v, d) for v in carriers for d in (d1, d2_)]
        labels = [1] * len(edges) + [2] * len(twos)
        return fixture(parts, edges + twos, labels)

    def test_case5_cycle(self):
        g, p, state = self._case5_fixture(extra_singleton=False)
        comp = the_component(g, p, state)
        assert fix_anchored(comp, state) is None
        assert hub_vertex(comp, state) == 0
        case = fix_hub(comp, state)
        assert case == "hub-5-cycle"
        assert state.key(0) == (2, 0)
        assert component_violations(comp, state) == []

    def test_case5_odd(self):
        g, p, state = self._case5_fixture(extra_singleton=True)
        comp = the_component(g, p, state)
        case = fix_hub(comp, state)
        assert case == "hub-5-odd"
        assert state.key(0) == (1, 0)
        assert component_violations(comp, state) == []

    def test_case5_cycle_special(self):
        # Two even contacts only: after the cycle toggle the hub and the
        # representative share the key (2,0), so the spare piece absorbs a 3
        # and the hub goes special.
        parts = [{1, 2, 3}, {0, 4, 5}]
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4)]
        g, p, state = fixture(parts, edges)
        comp = the_component(g, p, state)
        case = fix_hub(comp, state)
        assert case == "hub-5-cycle-special"
        assert state.key(0) == (2, 1)  # hub went special
        assert component_violations(comp, state) == []

    def test_tricky_even_and_odd(self):
        # One tricky piece alone: the hub parity is even, both rewired edges
        # get label 2.
        parts = [{1, 3}, {0, 2}]
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        g, p, state = fixture(parts, edges)
        comp = the_component(g, p, state)
        case = fix_hub(comp, state)
        assert case == "hub-1-even"
        assert component_violations(comp, state) == []
        # Tricky plus bad piece: the bad rewiring makes the hub odd first.
        parts = [{1, 3, 4}, {0, 2, 5}]
        edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)]
        g, p, state = fixture(parts, edges)
        comp = the_component(g, p, state)
        case = fix_hub(comp, state)
        assert case == "hub-1-odd"
        assert component_violations(comp, state) == []

    def test_case4_plain(self):
        # Single nice piece with no even contact: the shared contact vertex
        # carries one downward 2, so the parity pass leaves it odd.
        parts = [{1, 2}, {0, 3}, {4}]
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
        labels = [1, 1, 1, 1, 2]
        g, p, state = fixture(parts, edges, labels)
        comp = the_component(g, p, state)
        case = fix_hub(comp, state)
        assert case == "hub-4-plain"
        assert state.key(0) == (0, 2)
        assert component_violations(comp, state) == []

    def test_piece_off_the_hub_is_internal(self):
        # The hub-6 star next to a separate bottom path 4-5-6 in one
        # component: no walk from the hub's neighbours reaches the path.
        g, p, state = fixture([{1, 2, 3, 4, 6}, {0, 5}],
                              [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)])
        comp = TestFixAnchored._merged(g, p, state)
        with pytest.raises(InvariantViolation, match="vertex 4 is not attached to the hub 0"):
            fix_hub(comp, state)

    def test_case4_anchored(self):
        # The single even contact has two downward 2s, so the nice fix makes
        # the representative 3-anchored before the endgame.
        parts = [{1, 2}, {0, 3}, {4, 5}]
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]
        labels = [1, 1, 1, 1, 2, 2]
        g, p, state = fixture(parts, edges, labels)
        comp = the_component(g, p, state)
        case = fix_hub(comp, state)
        assert case == "hub-4-anchored"
        assert state.key(3) == (2, 1)  # contact turned special
        assert component_violations(comp, state) == []


class TestFixPendant:
    def test_reserve_contact_turns_special(self):
        # Path u(0)-v(1)-x1(2); x1 carries two downward 2s.
        parts = [{1}, {0, 2}, {3, 4}]
        edges = [(0, 1), (1, 2), (2, 3), (2, 4)]
        labels = [1, 1, 2, 2]
        g, p, state = fixture(parts, edges, labels)
        comp = the_component(g, p, state)
        assert fix_anchored(comp, state) is None
        assert hub_vertex(comp, state) is None
        case = fix_pendant(comp, state)
        assert case == "pendant-special-reserve"
        assert state.key(0) == (0, 0)
        assert state.key(1) == (0, 1)
        assert state.key(2) == (2, 1)
        assert component_violations(comp, state) == []

    def test_self_turns_special(self):
        # v collects two 2s from the parity pass and goes special itself.
        parts = [{1}, {0, 2, 3, 4}, {5, 6, 7, 8}]
        edges = [(0, 1), (1, 2), (1, 3), (1, 4),
                 (2, 5), (2, 6), (3, 7), (4, 8)]
        labels = [1, 1, 1, 1, 2, 2, 2, 2]
        g, p, state = fixture(parts, edges, labels)
        comp = the_component(g, p, state)
        case = fix_pendant(comp, state)
        assert case == "pendant-special-self"
        assert state.key(0) == (0, 1)
        d2, d3 = state.key(1)
        assert d3 == 1 and d2 >= 2 and d2 % 2 == 0
        assert component_violations(comp, state) == []

    def test_balanced_needs_no_extra_edit(self):
        # One odd reserve contact: the parity pass alone settles v.
        g, p, state = fixture(*PENDANT_BALANCED)
        comp = the_component(g, p, state)
        case = fix_pendant(comp, state)
        assert case == "pendant-balanced"
        assert component_violations(comp, state) == []

    def test_disconnected_component_is_internal(self):
        # PENDANT_BALANCED plus an isolated part-1 vertex 4 that no real
        # component holds: the parity pass from the partner leaves it unwalked.
        parts, edges, labels = PENDANT_BALANCED
        g, p, state = fixture([parts[0] | {4}, *parts[1:]], edges, labels)
        comp = ConflictComponent([0, 1, 2, 4], p, [0, 1], [1, 2, 1, 0, 0], 0)
        with pytest.raises(InvariantViolation, match="requires a connected subgraph"):
            fix_pendant(comp, state)


@pytest.mark.parametrize("fixer, scenario, case", [
    (fix_anchored, PENDANT_BALANCED, "pendant-balanced"),
    (fix_hub, PENDANT_BALANCED, "pendant-balanced"),
    (fix_anchored, HUB_6, "hub-6"),
], ids=["anchored-on-pendant", "hub-on-pendant", "anchored-on-hub"])
def test_fixer_that_does_not_apply(fixer, scenario, case):
    # Returns None and touches no label; the driver then tries the next one.
    g, p, state = fixture(*scenario)
    comp = the_component(g, p, state)
    before = (list(state.labelling.labels), list(state.d2), list(state.d3))
    assert fixer(comp, state) is None
    assert (state.labelling.labels, state.d2, state.d3) == before
    assert cases(run_repair_pass(g, p, state)) == {case: 1}


PAIRS7 = list(itertools.combinations(range(7), 2))


def mask_graph(mask: int) -> Graph:
    """The graph on 0..6 whose edges are the pairs of PAIRS7 at the set bits
    of ``mask``, as ``tools/sweep7.py`` numbers them."""
    return Graph(7, [pair for k, pair in enumerate(PAIRS7) if mask >> k & 1])


# One small graph per fixer case, on which the case is the only repair the
# whole pipeline makes.  The first five were found by seeded search over the
# fuzz families (G(n, p), spanning tree plus noise, tree plus chords,
# caterpillars), hub-5-odd in a component of a seeded nice graph and
# hub-5-cycle in a seeded tree plus chords, each shrunk edge by edge; the
# others are the first 7-vertex masks that reach their case.  No graph on 7
# vertices reaches hub-5-odd or hub-5-cycle.
PINNED_CASES = {
    "anchor": Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
    "anchor-seeded": Graph(5, [(0, 3), (1, 3), (0, 4), (0, 2)]),
    "hub-2-many": Graph(5, [(1, 3), (0, 3), (0, 2), (1, 4)]),
    "hub-3-even": Graph(9, [(3, 4), (2, 3), (0, 2), (1, 2), (0, 5), (0, 8), (2, 6), (7, 8), (1, 4)]),
    "hub-3-odd": path_graph(4),
    "hub-5-odd": Graph(8, [(2, 5), (1, 5), (2, 7), (2, 4), (3, 4), (3, 6), (0, 4), (2, 6)]),
    "hub-5-cycle": Graph(13, [(2, 5), (2, 10), (5, 12), (7, 11), (1, 2), (4, 5), (1, 6), (1, 3),
                              (6, 8), (0, 9), (5, 7), (0, 4), (1, 4)]),
    "anchor-seeded-done": mask_graph(3),
    "hub-1-even": mask_graph(198),
    "hub-4-anchored": mask_graph(206),
    "hub-4-plain": mask_graph(454),
    "hub-2-single": mask_graph(470),
    "hub-6": mask_graph(2323),
    "hub-5-cycle-special": mask_graph(2389),
    "pendant-balanced": mask_graph(2420),
    "hub-1-odd": mask_graph(4500),
    "pendant-special-reserve": mask_graph(6821),
    "pendant-special-self": mask_graph(41766),
}


def seeded_graphs() -> list[Graph]:
    graphs = [random_connected_nice_graph(random.Random(seed + 555), n_max=16)
              for seed in range(150)]
    rng = random.Random(556)
    for _ in range(150):
        n = rng.randint(8, 40)
        graphs.append(Graph(*gen.tree_plus_chords(rng, n, n - 1 + rng.randint(0, n // 4))))
    return graphs


def test_upward_pass_meets_the_repair_contract():
    # What the fixers rest on: after the upward pass every bottom edge still
    # carries 1, no part-1 vertex has a 2 and no part-2 vertex a 3, so every
    # conflict joins two 1-mono vertices of parts 1 and 2.  Discovery hands
    # out the components by their smallest conflict, each holding that edge.
    graphs = list(PINNED_CASES.values()) + [spider(4),
                                            Graph(*gen.many_components(random.Random(27), 300))]
    conflicts = 0
    for g in graphs + seeded_graphs():
        state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
        assert all(lab == 1 for (u, v), lab in zip(g.edges, state.labelling.labels)
                   if part_of[u] <= 2 and part_of[v] <= 2)
        assert all(state.d2[v] == 0 for v in range(g.n) if part_of[v] == 1)
        assert all(state.d3[v] == 0 for v in range(g.n) if part_of[v] == 2)
        for eid in conflicting_edges(g, state.d2, state.d3, range(g.m)):
            u, v = g.edges[eid]
            assert {part_of[u], part_of[v]} == {1, 2}
            assert state.is_mono1(u) and state.is_mono1(v)
            conflicts += 1
        comps = conflict_components(g, part_of, state)[0]
        for comp in comps:
            assert comp.conflict == min(conflicting_edges(g, state.d2, state.d3, comp.eids))
        assert [c.conflict for c in comps] == sorted(c.conflict for c in comps)
    assert conflicts >= 500


# Small graphs with their labels and stats.  The first three, shrunk from
# seeded draws, catch one-operator changes to fix_pendant's and hub-1's parity
# tests and to hub-5-cycle-special's smallest other piece; on the last, the
# hub-5 cycle follows the piece's tree, not a fresh walk from the representative.
PINNED_RUNS = [
    (Graph(11, [(0, 2), (1, 2), (1, 4), (3, 4), (3, 5), (2, 6), (2, 7), (5, 8), (7, 9), (8, 9),
                (0, 10), (8, 10)]),
     [2, 2, 2, 3, 1, 1, 2, 1, 2, 3, 2, 3],
     {"upward.branch.plain": 3, "repair.conflicts_in": 1, "repair.components": 1,
      "repair.case.pendant-balanced": 1}),
    (Graph(17, [(2, 15), (3, 9), (9, 16), (3, 7), (7, 8), (1, 7), (1, 13), (0, 14), (2, 11),
                (3, 12), (5, 8), (4, 12), (0, 10), (6, 16)]),
     [3, 1, 2, 2, 2, 2, 2, 3, 3, 2, 2, 1, 3, 2],
     {"repair.conflicts_in": 14, "repair.components": 3, "repair.case.anchor-seeded-done": 2,
      "repair.case.hub-1-even": 1}),
    (Graph(13, [(2, 12), (2, 4), (4, 5), (2, 9), (6, 11), (1, 4), (4, 8), (1, 3), (1, 7), (0, 11),
                (10, 12), (2, 7)]),
     [2, 2, 3, 2, 3, 2, 1, 2, 1, 3, 1, 2],
     {"repair.conflicts_in": 12, "repair.components": 2, "repair.case.anchor-seeded-done": 1,
      "repair.case.hub-5-cycle-special": 1}),
    (Graph(9, [(0, 2), (2, 3), (0, 4), (1, 4), (0, 5), (1, 5), (2, 6), (5, 6), (1, 7), (0, 8)]),
     [2, 3, 1, 2, 1, 1, 2, 2, 2, 2],
     {"repair.conflicts_in": 10, "repair.components": 1, "repair.case.hub-5-cycle-special": 1}),
]


@pytest.mark.parametrize("g, labels, stats", PINNED_RUNS,
                         ids=["pendant-parity", "hub-1-parity", "hub-5-smallest-piece", "hub-5-tree"])
def test_pinned_run(g, labels, stats):
    rep = label_graph(g)
    assert (rep.labelling.labels, rep.stats) == (labels, stats)
    assert find_conflicts(g, rep.labelling) == []


def spy_walks(monkeypatch, fixer, graphs):
    """Repair every graph, recording the walked vertices of the
    ``_parity_pass`` calls in each call of ``fixer`` by (s, vertex-set
    object); also the tally of fixer cases."""
    inside, walks, tally = [], [], Counter()
    real_pass = repair_module._parity_pass

    def spied_pass(state, vset, root, side, odd_side, s):
        tree = real_pass(state, vset, root, side, odd_side, s)
        if inside:
            walks[-1].setdefault((s, id(vset)), []).append(list(tree))
        return tree
    monkeypatch.setattr(repair_module, "_parity_pass", spied_pass)
    real_fixer = getattr(repair_module, fixer)

    def tracked(*args):
        inside.append(1)
        walks.append({})
        try:
            return real_fixer(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(repair_module, fixer, tracked)
    for g in graphs:
        state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
        tally.update(cases(run_repair_pass(g, part_of, state)))
        assert find_conflicts(g, state.labelling) == []
    return walks, tally


def assert_one_walk_per_vertex(walks):
    for per_set in walks:
        for orders in per_set.values():
            walked = [v for order in orders for v in order]
            assert len(walked) == len(set(walked))


class TestRunRepairPass:
    def test_walks_scale_with_the_component(self):
        # A scan of a high-degree vertex's whole adjacency list per block,
        # piece or neighbour would read about legs**2 entries here.
        g = spider(1000)
        state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
        g.adj = CountingAdj(g.adj)
        assert cases(run_repair_pass(g, part_of, state)) == {"hub-3-even": 1}
        assert find_conflicts(g, state.labelling) == []
        assert g.adj.read <= 20 * g.m

    def test_one_anchor_seed_search_per_component(self, monkeypatch):
        # The anchored fixer searches for its seed once, whether or not it
        # applies; no other fixer searches for one.
        calls = []
        seed_of = repair_module._anchor_seed
        monkeypatch.setattr(repair_module, "_anchor_seed",
                            lambda comp, state: calls.append(1) or seed_of(comp, state))
        for case in sorted(PINNED_CASES):
            g = PINNED_CASES[case]
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            calls.clear()
            stats = run_repair_pass(g, part_of, state)
            assert len(calls) == stats["repair.components"] == 1, case

    def test_one_walk_per_anchored_piece(self, monkeypatch):
        # fix_anchored finds each piece with one walk from its smallest
        # contact (and each part of the contact graph with one walk from its
        # smallest anchor): no component search, and every vertex walked at
        # most once per pass.
        graphs = [PINNED_CASES["anchor"], PINNED_CASES["anchor-seeded"]] + seeded_graphs()
        walks, tally = spy_walks(monkeypatch, "fix_anchored", graphs)
        assert not hasattr(repair_module, "connected_components")
        assert_one_walk_per_vertex(walks)
        # Not vacuous: one-vertex pieces and both passes were reached.
        pieces = [order for per_pass in walks for (s, _), orders in per_pass.items()
                  if s == 2 for order in orders]
        assert sum(count for case, count in tally.items() if case.startswith("anchor")) > 150
        assert any(len(order) == 1 for order in pieces)
        assert any(len(order) > 1 for order in pieces)
        assert any(s == 3 for per_pass in walks for s, _ in per_pass)

    def test_one_walk_per_hub_block(self, monkeypatch):
        # fix_hub finds each block of a piece with one walk from its
        # smallest contact, the way fix_anchored finds its pieces.
        hubs = [g for case, g in PINNED_CASES.items() if case.startswith("hub")]
        walks, tally = spy_walks(monkeypatch, "fix_hub", hubs + [spider(4)] + seeded_graphs())
        assert_one_walk_per_vertex(walks)
        blocks = [order for per_set in walks for orders in per_set.values() for order in orders]
        assert any(len(order) == 1 for order in blocks)
        assert any(len(order) > 1 for order in blocks)
        assert tally["hub-2-many"] and tally["hub-3-even"] >= 2 and tally["hub-3-odd"]

    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_pinned_case(self, case):
        g = PINNED_CASES[case]
        state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
        assert cases(run_repair_pass(g, part_of, state)) == {case: 1}
        assert find_conflicts(g, state.labelling) == []

    def test_unsettled_component_is_internal(self, monkeypatch):
        # A fixer that names its case but relabels nothing: the re-check
        # after it reports the component, the case and what is wrong.
        monkeypatch.setattr(repair_module, "fix_anchored", lambda comp, state: "anchor")
        g, p, state = fixture(*HUB_6)
        with pytest.raises(InvariantViolation) as info:
            run_repair_pass(g, p, state)
        assert str(info.value) == (
            "component [0, 1, 2, 3] not settled after anchor: ['conflict on edge (0,1)', "
            "'conflict on edge (0,2)', 'conflict on edge (0,3)']")

    def test_k3_untouched(self):
        g = complete_graph(3)
        state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
        before = list(state.labelling.labels)
        assert run_repair_pass(g, part_of, state) == {}
        assert state.labelling.labels == before

    def test_star_products(self):
        g = star_graph(3)
        state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
        run_repair_pass(g, part_of, state)
        assert find_conflicts(g, state.labelling) == []
        assert sorted(exact_products(g, state.labelling.labels)) == [1, 3, 3, 9]

    def test_p5_proper(self):
        g = path_graph(5)
        state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
        run_repair_pass(g, part_of, state)
        assert find_conflicts(g, state.labelling) == []

    def test_one_fixer_per_component(self):
        for seed in range(150):
            g = random_connected_nice_graph(random.Random(seed + 17), n_max=14)
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            comps = conflict_components(g, part_of, state)[0]
            stats = run_repair_pass(g, part_of, state)
            assert sum(cases(stats).values()) == len(comps) == stats.get("repair.components", 0)
            assert find_conflicts(g, state.labelling) == []

    def test_starts_from_the_upward_counts(self):
        # The pass settles the upward pass's tracker in place and keeps its
        # counts those of its labels; the upward counts equal a count from
        # scratch, and the labels and stats equal those of a run handed a
        # tracker counted from scratch over a copy of the same labels.
        rng = random.Random(4242)
        graphs = [Graph(*gen.many_components(rng, rng.randint(20, 200))) for _ in range(20)]
        for _ in range(40):
            n = rng.randint(10, 400)
            graphs.append(Graph(*gen.tree_plus_chords(rng, n, n - 1 + rng.randint(0, 2 * n))))
        repaired = 0
        for g in graphs:
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            fresh = tracker(g, Labelling(list(state.labelling.labels)))
            assert (state.d2, state.d3) == (fresh.d2, fresh.d3)
            stats = run_repair_pass(g, part_of, state)
            assert (state.d2, state.d3) == degree_counts(g, state.labelling)
            assert run_repair_pass(g, part_of, fresh) == stats
            assert fresh.labelling == state.labelling
            repaired += "repair.components" in stats
        assert repaired >= 40

    def test_conflicts_in_matches_the_checker(self):
        nonzero = 0
        for seed in range(150):
            g = random_connected_nice_graph(random.Random(seed + 1618), n_max=14)
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            conflicts = len(find_conflicts(g, state.labelling))
            stats = run_repair_pass(g, part_of, state)
            assert stats.get("repair.conflicts_in", 0) == conflicts
            nonzero += conflicts > 0
        assert nonzero >= 50

    def test_final_state_by_part(self):
        # Bottom vertices end monochromatic or special; deeper vertices keep
        # their exact upward-pass profile.
        for seed in range(150):
            g = random_connected_nice_graph(random.Random(seed + 9876), n_max=14, p=0.4)
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            run_repair_pass(g, part_of, state)
            for v in range(g.n):
                d2, d3 = profile(g, state.labelling, v)[1:]
                if part_of[v] <= 2:
                    assert kind(d2, d3) != "bichromatic" or special(d2, d3)
                else:
                    assert meets_target(part_of[v], d2, d3) and not special(d2, d3)
