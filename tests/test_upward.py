import random
from collections import Counter

import pytest

from prodlabel import Graph, Labelling, label_graph
from prodlabel.oracle import random_nice_graph
from prodlabel.partition import _edge_pass, build_valid_partition
from prodlabel.upward import run_upward_pass

from conftest import (
    complete_graph,
    induced_subgraph,
    path_graph,
    random_connected_nice_graph,
    star_graph,
)
from spec import VertexKind, classify, connected_components, edge_id, profile, target_profile


def upward(g: Graph, part_of: list[int]):
    """The upward pass on a hand-made partition, with its end map."""
    return run_upward_pass(g, part_of, _edge_pass(g, part_of)[0])


class TestTargetProfile:
    def test_part3(self):
        t = target_profile(3)
        assert t.d2_exact == 1 and t.parity == 0

    def test_part4(self):
        t = target_profile(4)
        assert t.d3_exact == 2 and t.parity == 1

    def test_part7(self):
        t = target_profile(7)
        assert t.d2_exact == 3 and t.parity == 0

    def test_part1_part2_kinds(self):
        assert target_profile(1).kinds == ("MONO1", "MONO3")
        assert target_profile(2).kinds == ("MONO1", "MONO2")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            target_profile(0)
        with pytest.raises(ValueError):
            target_profile(5, t=4)

    def test_matches_table(self):
        assert target_profile(3).matches(1, 3)
        assert not target_profile(3).matches(2, 2)
        assert target_profile(4).matches(3, 2)
        assert not target_profile(4).matches(2, 2)
        assert target_profile(1).matches(0, 4)
        assert not target_profile(1).matches(1, 4)


def check_items(g: Graph, part_of: list[int], l: Labelling) -> None:
    """The six contract checks of the upward pass, straight off profiles."""
    profs = {v: profile(g, l, v) for v in range(g.n)}
    classes = {v: classify(profs[v]) for v in range(g.n)}
    t = max(part_of)
    for v, i in enumerate(part_of):
        if i == 1:
            # 1 and 2: parts 1/2 are monochromatic in their own colour.
            assert classes[v].kind in (VertexKind.MONO1, VertexKind.MONO3)
        elif i == 2:
            assert classes[v].kind in (VertexKind.MONO1, VertexKind.MONO2)
        else:
            # 3: deeper parts are bichromatic and match their exact targets.
            assert classes[v].kind is VertexKind.BICHROMATIC
            assert target_profile(i, t).matches(profs[v].d2, profs[v].d3), (v, i, profs[v])
    # 4: nobody special.
    assert not any(c.special for c in classes.values())
    # 5: edges within the bottom two parts still carry 1.
    for eid, (a, b) in enumerate(g.edges):
        if part_of[a] <= 2 and part_of[b] <= 2:
            assert l.labels[eid] == 1
    # 6: conflicts sit across parts 1/2 and never form an isolated bottom edge.
    for eid, (a, b) in enumerate(g.edges):
        if profs[a].key == profs[b].key:
            assert {part_of[a], part_of[b]} == {1, 2}
            others = [w for v in (a, b) for w, _ in g.adj[v]
                      if w not in (a, b) and part_of[w] <= 2]
            assert others, f"conflict edge ({a},{b}) is isolated in the bottom subgraph"


def check_downward_invariant(g: Graph, part_of: list[int], l: Labelling) -> None:
    """Edges point 3s at odd parts and 2s at even parts."""
    for eid, (a, b) in enumerate(g.edges):
        lab = l.labels[eid]
        if lab == 1:
            continue
        assert lab == (3 if min(part_of[a], part_of[b]) % 2 == 1 else 2)


class TestRunUpwardPass:
    def test_k3_exact_labels(self):
        g = complete_graph(3)
        p = [1, 2, 3]
        state, part_of, _ = upward(g, p)
        assert state.labelling.labels == [1, 3, 2]
        assert part_of == p

    def test_star_given_partition_stays_all_one(self):
        g = star_graph(3)
        assert upward(g, [2, 1, 1, 1])[0].labelling.labels == [1, 1, 1]

    def test_bipartite_stays_all_one(self):
        g = path_graph(6)
        p, end_edge = build_valid_partition(g)
        assert max(p) == 2
        labelling = run_upward_pass(g, p, end_edge)[0].labelling
        assert labelling.labels == [1] * g.m
        check_items(g, p, labelling)

    def test_partition_only_changed_by_swaps(self):
        for seed in range(200):
            g = random_connected_nice_graph(random.Random(seed), n_max=10)
            p, end_edge = build_valid_partition(g)
            part_of = run_upward_pass(g, p, end_edge)[1]
            moved = [v for v in range(g.n) if part_of[v] != p[v]]
            assert set(moved) <= set(end_edge)
            for v in moved:
                assert {p[v], part_of[v]} == {1, 2}

    def test_swaps_counts_swaps_made(self):
        # Vertex 4 (part 3) swaps the ends of the pending edge (3, 6) and then
        # swaps them back in its z-branch: two swaps, and no vertex moves.
        g = Graph(7, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (1, 5), (2, 4), (2, 5),
                      (3, 5), (3, 6), (4, 6)])
        p, end_edge = build_valid_partition(g)
        _, part_of, stats = run_upward_pass(g, p, end_edge)
        assert stats["upward.swaps"] == 2 and part_of == p
        assert label_graph(g).stats["upward.swaps"] == 2

    def test_only_upward_edges_of_deep_vertices_change(self):
        for seed in range(200):
            g = random_connected_nice_graph(random.Random(seed + 7000), n_max=10)
            p, end_edge = build_valid_partition(g)
            labels = run_upward_pass(g, p, end_edge)[0].labelling.labels
            for eid, (a, b) in enumerate(g.edges):
                if labels[eid] != 1:
                    assert max(p[a], p[b]) >= 3

    def test_postconditions_random(self):
        for seed in range(400):
            g = random_connected_nice_graph(random.Random(seed + 1234), n_max=14, p=0.45)
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            check_items(g, part_of, state.labelling)
            check_downward_invariant(g, part_of, state.labelling)

    def test_cross_part_separation(self):
        # Adjacent vertices in two distinct deep parts differ in d2, d3, or parity.
        for seed in range(150):
            g = random_connected_nice_graph(random.Random(seed + 555), n_max=14, p=0.6)
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            for a, b in g.edges:
                ia, ib = part_of[a], part_of[b]
                if ia >= 3 and ib >= 3 and ia != ib:
                    pa, pb = profile(g, state.labelling, a), profile(g, state.labelling, b)
                    assert (pa.d2, pa.d3) != (pb.d2, pb.d3)

    def test_branches_count_every_deep_vertex(self):
        branches = Counter()
        for seed in range(150):
            g = random_connected_nice_graph(random.Random(seed + 2718), n_max=14, p=0.4)
            _, part_of, stats = run_upward_pass(g, *build_valid_partition(g))
            counts = {key.removeprefix("upward.branch."): count
                      for key, count in stats.items() if key != "upward.swaps"}
            assert sum(counts.values()) == sum(i >= 3 for i in part_of)
            branches += counts
        assert set(branches) <= {"plain", "pending", "pending-fallback"}
        assert branches["plain"] and branches["pending"]

    def test_deterministic(self):
        for seed in range(40):
            g = random_connected_nice_graph(random.Random(seed + 99), n_max=12)
            p, end_edge = build_valid_partition(g)
            assert (run_upward_pass(g, p, end_edge)[0].labelling.labels
                    == run_upward_pass(g, p, end_edge)[0].labelling.labels)


class TestPartFourKnobCorner:
    def test_odd_downward_two_count_skips_the_knob(self):
        # In part 4, the bichromatic knob and the parity knob are the same
        # edge; when a vertex arrives with an odd downward 2-count the knob
        # must stay at 1 or the total parity breaks.  This seeded graph hits
        # that corner (verified by reconstruction below).
        g = random_nice_graph(32, 0.5, seed=3840)
        skipped = 0
        for comp in connected_components(g):
            if len(comp) < 2:
                continue
            sub, _ = induced_subgraph(g, comp)
            part_of, end_edge = build_valid_partition(sub)
            state, swapped, _ = run_upward_pass(sub, part_of, end_edge)
            labels = state.labelling.labels
            check_items(sub, swapped, state.labelling)
            # A vertex with no swappable-edge end next to it takes the plain
            # branch, and none of its neighbours changes part.
            for u in range(sub.n):
                if part_of[u] != 4 or any(w in end_edge for w, _ in sub.adj[u]):
                    continue
                x2 = min(w for w, _ in sub.adj[u] if part_of[w] == 2)
                if labels[edge_id(sub, u, x2)] != 2:
                    d2 = sum(1 for _, eid in sub.adj[u] if labels[eid] == 2)
                    assert d2 % 2 == 1
                    skipped += 1
        assert skipped >= 1


class TestPendingEdgeHandling:
    def test_k3_pending_edge_resolved(self):
        # The lone bottom edge of the K3 partition must lose 1-mono status on
        # one end once vertex 2 is processed.
        g = complete_graph(3)
        labelling = upward(g, [1, 2, 3])[0].labelling
        p0 = profile(g, labelling, 0)
        p1 = profile(g, labelling, 1)
        assert p0.key != (0, 0) or p1.key != (0, 0)

    def test_no_isolated_conflict_edges_on_dense_graphs(self):
        for seed in range(150):
            g = random_connected_nice_graph(random.Random(seed + 4242), n_max=16, p=0.25)
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            check_items(g, part_of, state.labelling)
