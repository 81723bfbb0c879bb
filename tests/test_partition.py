import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from prodlabel import (
    Graph,
    NotNiceError,
    Partition,
    build_valid_partition,
    greedy_partition,
    missing_lower_neighbours,
    potential,
    swap_edge,
    swap_safety_witness,
    swappable_edges,
)

from conftest import complete_graph, path_graph, random_connected_nice_graph, star_graph

# P5 as y-x-w-z-p with ids y=0, x=1, w=2, z=3, p=4.
P5 = path_graph(5)
P5_SEED = Partition.from_parts([{1, 4}, {0, 3}, {2}])


def exhaustive_swap_check(g: Graph, p: Partition) -> bool:
    """Ground truth for swap robustness: try all 2**|M0| swap subsets."""
    m0 = sorted(swappable_edges(g, p))
    for r in range(len(m0) + 1):
        for subset in itertools.combinations(m0, r):
            q = p
            for eid in subset:
                q = swap_edge(g, q, eid)
            try:
                q.validate(g)  # includes independence
            except ValueError:
                return False
            if missing_lower_neighbours(g, q):
                return False
    return True


class TestGreedy:
    def test_k3(self):
        p = greedy_partition(complete_graph(3), order=[0, 1, 2])
        assert p.parts == [{0}, {1}, {2}]

    def test_p3(self):
        p = greedy_partition(path_graph(3), order=[0, 1, 2])
        assert p.parts == [{0, 2}, {1}]

    def test_edgeless(self):
        p = greedy_partition(Graph(3, []))
        assert p.parts == [{0, 1, 2}]

    @given(st.integers(min_value=0, max_value=299))
    def test_output_is_independent_and_linked(self, seed):
        g = random_connected_nice_graph(random.Random(seed))
        p = greedy_partition(g)
        p.validate(g)
        assert missing_lower_neighbours(g, p) == []


class TestPotential:
    def test_k3(self):
        assert potential(greedy_partition(complete_graph(3), order=[0, 1, 2])) == 6

    def test_p3(self):
        assert potential(greedy_partition(path_graph(3), order=[0, 1, 2])) == 4

    def test_single_part(self):
        assert potential(Partition([1] * 7)) == 7


class TestSwappableEdges:
    def test_p5(self):
        eid_yx = P5.edge_id(0, 1)
        eid_zp = P5.edge_id(3, 4)
        assert swappable_edges(P5, P5_SEED) == {eid_yx, eid_zp}

    def test_k3(self):
        p = Partition.from_parts([{0}, {1}, {2}])
        assert swappable_edges(complete_graph(3), p) == {0}

    def test_star_whole_component(self):
        g = star_graph(3)
        p = Partition.from_parts([{1, 2, 3}, {0}])
        assert swappable_edges(g, p) == set()

    def test_single_part(self):
        assert swappable_edges(Graph(3, []), Partition([1, 1, 1])) == set()


class TestSwapEdge:
    def test_k3_swap(self):
        g = complete_graph(3)
        p = Partition.from_parts([{0}, {1}, {2}])
        q = swap_edge(g, p, g.edge_id(0, 1))
        assert q.parts == [{1}, {0}, {2}]

    def test_involution(self):
        g = complete_graph(3)
        p = Partition.from_parts([{0}, {1}, {2}])
        eid = g.edge_id(0, 1)
        assert swap_edge(g, swap_edge(g, p, eid), eid) == p

    def test_p5_swap(self):
        q = swap_edge(P5, P5_SEED, P5.edge_id(0, 1))
        assert q.parts == [{0, 4}, {1, 3}, {2}]

    def test_preserves_potential_and_set(self):
        q = swap_edge(P5, P5_SEED, P5.edge_id(0, 1))
        assert potential(q) == potential(P5_SEED)
        assert swappable_edges(P5, q) == swappable_edges(P5, P5_SEED)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="not swappable"):
            swap_edge(P5, P5_SEED, P5.edge_id(1, 2))


class TestMissingLowerNeighbours:
    def test_k3_greedy_clean(self):
        p = greedy_partition(complete_graph(3), order=[0, 1, 2])
        assert missing_lower_neighbours(complete_graph(3), p) == []

    def test_p3_bipartition_clean(self):
        p = Partition.from_parts([{0, 2}, {1}])
        assert missing_lower_neighbours(path_graph(3), p) == []

    def test_p5_after_swap(self):
        q = swap_edge(P5, P5_SEED, P5.edge_id(0, 1))
        assert missing_lower_neighbours(P5, q) == [(2, 1)]


class TestSwapSafety:
    def test_p5_witness(self):
        w = swap_safety_witness(P5, P5_SEED)
        assert w is not None
        assert w.vertex == 2 and w.side == 1
        assert w.edges == frozenset({P5.edge_id(0, 1)})

    def test_k3_safe(self):
        p = Partition.from_parts([{0}, {1}, {2}])
        assert swap_safety_witness(complete_graph(3), p) is None

    def test_empty_swap_set_safe(self):
        g = star_graph(3)
        p = Partition.from_parts([{1, 2, 3}, {0}])
        assert swap_safety_witness(g, p) is None

    def test_witness_strands_its_vertex(self):
        w = swap_safety_witness(P5, P5_SEED)
        q = P5_SEED
        for eid in w.edges:
            q = swap_edge(P5, q, eid)
        stranded = [(v, j) for v, j in missing_lower_neighbours(P5, q) if v == w.vertex]
        assert (w.vertex, w.side) in stranded

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=9999))
    def test_matches_exhaustive_on_greedy_partitions(self, seed):
        g = random_connected_nice_graph(random.Random(seed), n_max=9)
        p = greedy_partition(g)
        if len(swappable_edges(g, p)) > 8:
            return
        assert (swap_safety_witness(g, p) is None) == exhaustive_swap_check(g, p)


class TestBuildValidPartition:
    def test_k3(self):
        p = build_valid_partition(complete_graph(3))
        assert p.parts == [{0}, {1}, {2}]

    def test_p5_seeded_repair(self):
        p = build_valid_partition(P5, initial=P5_SEED)
        assert p.parts == [{0, 2, 4}, {1, 3}]
        assert potential(p) == 7

    def test_star(self):
        p = build_valid_partition(star_graph(3))
        p.validate(star_graph(3))
        assert p.t == 2

    def test_rejects_k2(self):
        with pytest.raises(NotNiceError):
            build_valid_partition(Graph(2, [(0, 1)]))

    def test_accepts_disconnected(self):
        g = Graph(4, [(0, 1), (1, 2)])
        p = build_valid_partition(g)
        p.validate(g)
        assert p.part_of[3] == 1

    def test_single_vertex(self):
        p = build_valid_partition(Graph(1, []))
        assert p.parts == [{0}]

    def test_deterministic(self):
        for seed in range(25):
            g = random_connected_nice_graph(random.Random(seed))
            assert build_valid_partition(g) == build_valid_partition(g)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=9999))
    def test_output_fully_valid(self, seed):
        g = random_connected_nice_graph(random.Random(seed + 31337))
        p = build_valid_partition(g)
        p.validate(g)
        assert missing_lower_neighbours(g, p) == []
        assert swap_safety_witness(g, p) is None
        if len(swappable_edges(g, p)) <= 8:
            assert exhaustive_swap_check(g, p)

    def test_potential_never_increases_from_seed(self):
        assert potential(build_valid_partition(P5, initial=P5_SEED)) <= potential(P5_SEED)


class TestDump:
    def test_lines(self):
        p = Partition.from_parts([{2, 0}, {1}])
        assert p.dump() == "V1: 0 2\nV2: 1\n"
