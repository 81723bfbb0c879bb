"""Search order and label arithmetic of the oracle's lex-first search.

brute_force_labelling returns the first proper vector in itertools.product
order (first edge most significant) and compares exact integer products, so
a label above 3 counts as the product of its prime factors.
"""

import itertools
import random

from prodlabel import Graph, brute_force_labelling
from prodlabel.graph import is_nice

from conftest import complete_graph, exact_conflicts, exact_products, path_graph
from test_engine import first_proper_by_definition

# Lex-first search reaches label 4 on edge 6: with edge 6 at 3, the last edge
# would need 4, which gives vertex 0 the product 4 of vertex 1 (2 * 2).
FOUR_IS_TWO_TWOS = Graph(6, [(4, 5), (0, 5), (0, 2), (0, 1), (1, 4), (1, 2), (3, 5), (0, 3)])

# Lex-first search reaches label 6 on edge 13: with 5 there, the last edge
# would need 6, which gives vertex 0 the product 6 of vertex 8 (2 * 3).
SIX_IS_TWO_THREES = Graph(9, [(0, 7), (0, 1), (0, 8), (0, 3), (0, 5), (5, 7), (1, 3), (1, 7),
                              (2, 5), (5, 6), (1, 8), (4, 6), (5, 8), (6, 7), (0, 2)])


class TestLabelWeights:
    def test_three_labels(self):
        # K3 needs three pairwise distinct labels; 1, 2, 3 give distinct products.
        g = complete_graph(3)
        assert brute_force_labelling(g, 2) is None
        assert brute_force_labelling(g, 3) == [1, 2, 3]
        assert exact_products(g, [1, 2, 3]) == [2, 3, 6]

    def test_label_four_counts_two_twos(self):
        g = FOUR_IS_TWO_TWOS
        skipped = [1, 1, 1, 1, 2, 2, 3, 4]
        assert exact_products(g, skipped)[:2] == [4, 4]
        assert exact_conflicts(g, skipped) == [3]
        assert brute_force_labelling(g, 4) == [1, 1, 1, 1, 2, 2, 4, 3]

    def test_label_six_splits(self):
        g = SIX_IS_TWO_THREES
        skipped = [1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 3, 2, 2, 5, 6]
        prod = exact_products(g, skipped)
        assert prod[0] == prod[8] == 6
        assert exact_conflicts(g, skipped) == [2]
        # 5 is prime: the answer puts it on vertex 0 and no neighbour matches.
        assert brute_force_labelling(g, 6) == [1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 3, 2, 2, 6, 5]


class TestProductOrder:
    def test_first_edge_most_significant(self):
        # On P4 both [1, 2, 2] and [2, 2, 1] are proper; the first edge is the
        # most significant digit, so [1, 2, 2] comes first.
        g = path_graph(4)
        assert not exact_conflicts(g, [2, 2, 1])
        assert brute_force_labelling(g, 3) == [1, 2, 2]

    def test_every_earlier_vector_conflicts(self):
        g = complete_graph(4)
        labels = brute_force_labelling(g, 3)
        assert labels is not None
        assert not exact_conflicts(g, labels)
        # Every earlier vector conflicts somewhere.
        for earlier in itertools.product(range(1, 4), repeat=g.m):
            if list(earlier) == labels:
                break
            assert exact_conflicts(g, earlier)
        else:
            raise AssertionError("labelling not in product order")


def has_early_check(g: Graph) -> bool:
    """Whether an edge before the final one is the last edge at both of its
    ends: the oracle checks such an edge's pair before labelling it."""
    last = {}
    for j, (u, v) in enumerate(g.edges):
        last[u] = last[v] = j
    return any(last[u] == last[v] == j for j, (u, v) in enumerate(g.edges[:-1]))


class TestEarlyPairCheck:
    def test_matches_product_order(self):
        # Edge j = (u, v) multiplies both ends by the same label, so the search
        # checks prod(u) = prod(v) once every other edge at u and v is labelled,
        # before j itself when j is the last edge at both ends.  The answer must
        # still be the first vector of itertools.product with no conflict.
        rng = random.Random(32)
        graphs = []
        while len(graphs) < 24:
            n = rng.randint(4, 7)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(pairs)
            g = Graph(n, pairs[:rng.randint(4, min(8, len(pairs)))])
            if is_nice(g) and has_early_check(g):
                graphs.append(g)
        for i, g in enumerate(graphs):
            for k in (2, 3):
                assert brute_force_labelling(g, k) == first_proper_by_definition(g, k), (i, k)
