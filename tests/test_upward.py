import random
from collections import Counter

import pytest

from prodlabel import Graph, Labelling, label_graph
from prodlabel.oracle import random_nice_graph
from prodlabel.partition import _edge_pass, build_valid_partition
from prodlabel.upward import run_upward_pass

from conftest import complete_graph, path_graph, random_connected_nice_graph, star_graph
from spec import edge_id, meets_target, profile, special


def upward(g: Graph, part_of: list[int]):
    """The upward pass on a hand-made partition, with its end map."""
    return run_upward_pass(g, part_of, _edge_pass(g, part_of)[0])


@pytest.mark.parametrize("i, d2, d3, expected", [
    # Parts 1 and 2 are monochromatic in their own colour, or all 1s.
    (1, 0, 0, True), (1, 0, 4, True), (1, 2, 0, False), (1, 1, 4, False),
    (2, 0, 0, True), (2, 3, 0, True), (2, 0, 1, False), (2, 1, 1, False),
    # Part 3: exactly one 2 and an even total.
    (3, 1, 3, True), (3, 2, 2, False), (3, 1, 2, False),
    # Part 4: exactly two 3s and an odd total.
    (4, 3, 2, True), (4, 2, 3, False), (4, 2, 2, False),
    # Part 7: exactly three 2s and an even total.
    (7, 3, 1, True), (7, 2, 2, False), (7, 3, 2, False),
    # Deeper parts are bichromatic.
    (5, 2, 0, False),
])
def test_meets_target(i, d2, d3, expected):
    assert meets_target(i, d2, d3) == expected


def check_items(g: Graph, part_of: list[int], l: Labelling) -> None:
    """The six contract checks of the upward pass, straight off profiles,
    and its downward invariant."""
    keys = [profile(g, l, v)[1:] for v in range(g.n)]
    # 1-3: parts 1/2 are monochromatic in their own colour; deeper parts are
    # bichromatic and meet their exact targets.
    for v, i in enumerate(part_of):
        assert meets_target(i, *keys[v]), (v, i, keys[v])
    # 4: nobody special.
    assert not any(special(*key) for key in keys)
    # 5: edges within the bottom two parts still carry 1.
    for eid, (a, b) in enumerate(g.edges):
        if part_of[a] <= 2 and part_of[b] <= 2:
            assert l.labels[eid] == 1
    # 6: conflicts sit across parts 1/2 and never form an isolated bottom edge.
    for eid, (a, b) in enumerate(g.edges):
        if keys[a] == keys[b]:
            assert {part_of[a], part_of[b]} == {1, 2}
            others = [w for v in (a, b) for w, _ in g.adj[v]
                      if w not in (a, b) and part_of[w] <= 2]
            assert others, f"conflict edge ({a},{b}) is isolated in the bottom subgraph"
    # 7: edges point 3s at odd parts and 2s at even parts, read at their lower end.
    for eid, (a, b) in enumerate(g.edges):
        if l.labels[eid] != 1:
            assert l.labels[eid] == (3 if min(part_of[a], part_of[b]) % 2 == 1 else 2)


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

    def test_cross_part_separation(self):
        # Adjacent vertices in two distinct deep parts differ in d2, d3, or parity.
        for seed in range(150):
            g = random_connected_nice_graph(random.Random(seed + 555), n_max=14, p=0.6)
            state, part_of, _ = run_upward_pass(g, *build_valid_partition(g))
            for a, b in g.edges:
                ia, ib = part_of[a], part_of[b]
                if ia >= 3 and ib >= 3 and ia != ib:
                    assert profile(g, state.labelling, a)[1:] != profile(g, state.labelling, b)[1:]

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


class TestPartFourKnobCorner:
    def test_odd_downward_two_count_skips_the_knob(self):
        # In part 4, the bichromatic knob and the parity knob are the same
        # edge; when a vertex arrives with an odd downward 2-count the knob
        # must stay at 1 or the total parity breaks.  This seeded graph hits
        # that corner (verified by reconstruction below).
        g = random_nice_graph(32, 0.5, seed=3840)
        part_of, end_edge = build_valid_partition(g)
        state, swapped, _ = run_upward_pass(g, part_of, end_edge)
        labels = state.labelling.labels
        check_items(g, swapped, state.labelling)
        # A vertex with no swappable-edge end next to it takes the plain
        # branch, and none of its neighbours changes part.
        skipped = 0
        for u in range(g.n):
            if part_of[u] != 4 or any(w in end_edge for w, _ in g.adj[u]):
                continue
            x2 = min(w for w, _ in g.adj[u] if part_of[w] == 2)
            if labels[edge_id(g, u, x2)] != 2:
                d2 = sum(1 for _, eid in g.adj[u] if labels[eid] == 2)
                assert d2 % 2 == 1
                skipped += 1
        assert skipped >= 1


class TestPendingEdgeHandling:
    def test_k3_pending_edge_resolved(self):
        # The lone bottom edge of the K3 partition must lose 1-mono status on
        # one end once vertex 2 is processed.
        g = complete_graph(3)
        labelling = upward(g, [1, 2, 3])[0].labelling
        assert profile(g, labelling, 0)[1:] != (0, 0) or profile(g, labelling, 1)[1:] != (0, 0)
