"""Exhaustive checks over every small graph.

The construction depends on vertex ids (greedy order ties, smallest-neighbour
choices), so the certificate runs over labelled graphs, not isomorphism
classes; its digest pins the labels byte for byte.  The atlas check runs the
oracle alone and so tests the theorem independently of the construction.
"""

import hashlib
import itertools
from collections import Counter

import networkx as nx

from prodlabel import Graph, brute_force_min_k, label_graph
from prodlabel.graph import is_nice
from prodlabel.labelling import degree_counts, format_counts, format_labelling

from conftest import exact_conflicts

# sha256 over every labelled nice graph on 1-6 vertices of
# format_labelling + "\n" + the "v d2 d3" product lines; graphs in order of n, then of
# the edge mask, bit k standing for the k-th pair (i < j) in lex order.
SMALL_GRAPHS_DIGEST = "98b877f9dbecad36bed97ac471569684d92f5a981a2cef3c3cd8a466090d0fc9"


def labelled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])


def test_every_labelled_nice_graph_up_to_six_vertices():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 7):
        for g in labelled_graphs(n):
            if not is_nice(g):
                continue
            labels = label_graph(g).labelling
            assert all(lab in (1, 2, 3) for lab in labels.labels), g.edges
            assert exact_conflicts(g, labels.labels) == [], g.edges
            products = format_counts(*degree_counts(g, labels))
            digest.update((format_labelling(g, labels) + "\n" + products).encode())
            count += 1
    assert count == 32_904
    assert digest.hexdigest() == SMALL_GRAPHS_DIGEST


def test_graph_atlas_needs_at_most_three_labels():
    # All 1,253 graphs on at most 7 vertices; the atlas numbers nodes 0..n-1.
    chi = Counter()
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), h.edges())
        if is_nice(g):
            chi[brute_force_min_k(g)] += 1
    assert chi == {1: 8, 2: 1113, 3: 79}
