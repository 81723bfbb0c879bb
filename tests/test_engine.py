import random
from collections import Counter

import networkx as nx
import pytest

from prodlabel import Graph, NotNiceError, brute_force_min_k, label_graph
from prodlabel.oracle import random_nice_graph

import gen
from conftest import (
    CountingAdj,
    CountingEdges,
    complete_graph,
    cycle_graph,
    exact_conflicts,
    exact_products,
    induced_subgraph,
    path_graph,
    random_connected_nice_graph,
    spider,
    star_graph,
)
from spec import validate_partition


class TestLabelGraph:
    def test_k3_exact(self):
        rep = label_graph(complete_graph(3))
        assert rep.labelling.labels == [1, 3, 2]
        assert rep.verified and rep.conflicts == []

    def test_k2_rejected(self):
        with pytest.raises(NotNiceError):
            label_graph(Graph(2, [(0, 1)]))

    def test_disjoint_union(self):
        # K3 on {0,1,2} plus a 3-leaf star on {3..6}.
        g = Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6)])
        rep = label_graph(g)
        assert rep.verified
        assert len(rep.part_of) == g.n
        validate_partition(g, rep.part_of)
        prods = exact_products(g, rep.labelling.labels)
        assert sorted(prods[:3]) == [2, 3, 6]
        assert sorted(prods[3:]) == [1, 3, 3, 9]

    def test_isolated_vertices_passed_through(self):
        g = Graph(5, [(1, 2), (2, 3)])
        rep = label_graph(g)
        assert rep.verified
        assert len(rep.part_of) == g.n
        validate_partition(g, rep.part_of)
        assert rep.part_of[0] == rep.part_of[4] == 1

    def test_star_products(self):
        rep = label_graph(star_graph(3))
        assert sorted(exact_products(star_graph(3), rep.labelling.labels)) == [1, 3, 3, 9]

    def test_edgeless(self):
        rep = label_graph(Graph(4, []))
        assert rep.verified and rep.labelling.labels == []
        assert rep.part_of is None and rep.stats == {}

    def test_reports_compare_by_value(self):
        g = random_nice_graph(6, 0.4, 105)
        a, b = label_graph(g), label_graph(g)
        assert a == b and a is not b
        b.stats["upward.swaps"] += 1
        assert a != b
        assert a != a.labelling

    def test_report_repr_names_its_fields(self):
        assert repr(label_graph(Graph(2, []))) == (
            "PipelineReport(labelling=Labelling(labels=[]), part_of=None, conflicts=[], stats={})")

    @pytest.mark.parametrize("g, stats", [
        (random_nice_graph(6, 0.4, 105), {"upward.swaps": 2, "upward.branch.plain": 1,
                                          "upward.branch.pending": 1}),
        (random_nice_graph(6, 0.5, 28), {"upward.branch.plain": 3,
                                         "upward.branch.pending-fallback": 1}),
    ], ids=["swaps", "pending-fallback"])
    def test_stats_pinned(self, g, stats):
        # The repair keys are pinned through the CLI on P5 (test_cli.py).
        assert label_graph(g).stats == stats


def _shuffled_union(pieces, rng: random.Random) -> Graph:
    """Disjoint union of ``pieces`` with the vertex ids of all pieces interleaved."""
    ids = list(range(sum(g.n for g in pieces)))
    rng.shuffle(ids)
    edges, offset = [], 0
    for g in pieces:
        edges.extend((ids[offset + u], ids[offset + v]) for u, v in g.edges)
        offset += g.n
    return Graph(len(ids), edges)


class TestComponentLocality:
    """One pass over the whole graph, restricted to a component, equals the
    pass over that component alone.  Every step of the construction stays
    inside a component, which is why label_graph needs no per-component split."""

    @staticmethod
    def graphs():
        rng = random.Random(0x10CA1)
        for _ in range(60):
            pieces = [random_connected_nice_graph(rng, n_max=14, p=rng.choice((0.1, 0.3)))
                      for _ in range(rng.randint(2, 4))]
            pieces.append(Graph(rng.randint(0, 2), []))
            yield _shuffled_union(pieces, rng)
        for seed in range(300):
            yield random_nice_graph(rng.randint(10, 40), (0.05, 0.1)[seed % 2], seed)

    def test_restriction_equals_component_alone(self):
        checked = 0
        for g in self.graphs():
            comps = [sorted(c) for c in nx.connected_components(nx.Graph(g.edges))]
            if len(comps) < 2:
                continue
            checked += 1
            whole = label_graph(g)
            stats = Counter()
            for comp in comps:
                sub, edge_ids = induced_subgraph(g, comp)
                alone = label_graph(sub)
                assert [whole.labelling.labels[e] for e in edge_ids] == alone.labelling.labels
                assert [whole.part_of[v] for v in comp] == alone.part_of
                stats += alone.stats
            assert whole.stats == stats
        assert checked >= 180


def _complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _hypercube(d):
    n = 1 << d
    return Graph(n, [(v, v | (1 << b)) for v in range(n) for b in range(d) if not v & (1 << b)])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


class TestNamedFamilies:
    def test_families_label_and_verify(self):
        families = {
            "K33": _complete_bipartite(3, 3),
            "K45": _complete_bipartite(4, 5),
            "C5": cycle_graph(5),
            "C6": cycle_graph(6),
            "C7": cycle_graph(7),
            "Q3": _hypercube(3),
            "Q4": _hypercube(4),
            "petersen": _petersen(),
            "K7": complete_graph(7),
            "K10": complete_graph(10),
            "binary_tree": Graph(15, [(i, 2 * i + 1) for i in range(7)]
                                 + [(i, 2 * i + 2) for i in range(7)]),
        }
        for name, g in families.items():
            rep = label_graph(g)
            assert rep.verified, name
            assert not exact_conflicts(g, rep.labelling.labels), name

    def test_small_families_against_oracle(self):
        for g in (cycle_graph(5), cycle_graph(6), _complete_bipartite(2, 3), path_graph(6)):
            k = brute_force_min_k(g)
            assert k is not None and k <= 3
            rep = label_graph(g)
            assert rep.verified


# Families for the linear-work gate, each built from a seeded rng at size n.
# The star and the spider each hold vertices of degree about n: a stage that
# scanned such a row once per neighbour would read about n**2 entries.
WORK_FAMILIES = {
    "path": lambda rng, n: path_graph(n),
    "caterpillar": lambda rng, n: Graph(*gen.caterpillar(rng, n)),
    "sparse": lambda rng, n: Graph(*gen.tree_plus_chords(rng, n, 3 * n)),
    "components": lambda rng, n: Graph(*gen.many_components(rng, n // 5)),
    "star": lambda rng, n: star_graph(n),
    "spider": lambda rng, n: spider(n // 6),
}


class TestLinearWork:
    """A whole ``label_graph`` run reads a bounded number of adjacency
    entries per vertex and edge, and makes a fixed number of passes over
    ``g.edges``, at n and 8n alike: no stage rescans the graph in a loop."""

    @pytest.mark.parametrize("n", [2000, 16000])
    @pytest.mark.parametrize("family", sorted(WORK_FAMILIES))
    def test_reads_per_vertex_and_edge(self, family, n):
        g = WORK_FAMILIES[family](random.Random(n), n)
        g.adj = CountingAdj(g.adj)
        g.edges = CountingEdges(g.edges)
        assert label_graph(g).verified
        assert g.adj.read < 16 * (g.n + g.m)
        assert g.edges.passes <= 6
