import itertools
import math
import random
from collections import Counter

import pytest

from prodlabel import (
    Graph,
    NotNiceError,
    brute_force_labelling,
    brute_force_min_k,
    label_graph,
    oracle,
)
from prodlabel.oracle import random_nice_graph
from prodlabel.graph import is_nice

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
from spec import connected_components, validate_partition


def first_proper_by_definition(g: Graph, k: int) -> list[int] | None:
    """First vector of the lexicographic enumeration that exact products accept."""
    for labels in itertools.product(range(1, k + 1), repeat=g.m):
        if not exact_conflicts(g, labels):
            return list(labels)
    return None


def python_min_k(g: Graph) -> int | None:
    """Independent oracle: the fewest labels the enumeration finds a proper
    labelling with, or None if three do not suffice."""
    return next((k for k in (1, 2, 3) if first_proper_by_definition(g, k) is not None), None)


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
            comps = [c for c in connected_components(g) if len(c) > 1]
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


class TestBruteForceMinK:
    def test_k2_has_no_labelling(self):
        assert brute_force_min_k(Graph(2, [(0, 1)])) is None
        # A K2 component beside other edges, numbered last and first.
        g = Graph(17, [(i, i + 1) for i in range(14)] + [(15, 16)])
        assert brute_force_min_k(g) is None
        g = Graph(22, [(0, 1)] + [(i, j) for i in range(2, 22) for j in range(i + 1, 22)])
        assert brute_force_min_k(g) is None

    def test_not_nice_answers_without_a_search(self, monkeypatch):
        # Both ends of a two-vertex component get the product of its edge
        # under every labelling.  Searched, this K20 beside an isolated edge
        # ran out of the node budget in both entry points.
        calls = []
        monkeypatch.setattr(oracle, "_first_proper", lambda *args: calls.append(args))
        g = Graph(22, [(i, j) for i in range(20) for j in range(i + 1, 20)] + [(20, 21)])
        assert brute_force_min_k(g) is None
        assert brute_force_labelling(g, 3) is None
        assert calls == []

    def test_edgeless_convention(self):
        assert brute_force_min_k(Graph(3, [])) == 1

    def test_labelling_needs_a_positive_k(self):
        with pytest.raises(ValueError, match="^k must be positive$"):
            brute_force_labelling(path_graph(3), 0)

    def test_bound_enforced(self):
        # A 17-edge path needs 3 labels: with 1 and 2 its even-indexed edges
        # must alternate and be 2 at both ends, which 8 of them cannot do.
        g = Graph(18, [(i, i + 1) for i in range(17)])
        assert brute_force_min_k(g) == 3
        assert brute_force_min_k(path_graph(17)) == 2

    def test_budget_shared_across_k(self, monkeypatch):
        # K6 costs 62 search nodes at k = 2 and 25 more at k = 3: 87 in all,
        # though no single k needs 63.  The 59-edge path's labelling needs 89.
        k6 = complete_graph(6)
        monkeypatch.setattr(oracle, "ORACLE_NODE_BUDGET", 87)
        assert brute_force_min_k(k6) == 3
        monkeypatch.setattr(oracle, "ORACLE_NODE_BUDGET", 86)
        with pytest.raises(ValueError, match="budget"):
            brute_force_min_k(k6)
        with pytest.raises(ValueError, match="budget"):
            brute_force_labelling(path_graph(60), 3)

    def test_agrees_with_python_oracle(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            if len(edges) > 8:
                continue
            g = Graph(n, edges)
            assert brute_force_min_k(g) == python_min_k(g), seed

    def test_monotone_in_k(self):
        for seed in range(40):
            rng = random.Random(seed + 500)
            n = rng.randint(3, 6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            if not edges or len(edges) > 8:
                continue
            g = Graph(n, edges)
            k = brute_force_min_k(g)
            if k is not None:
                assert brute_force_labelling(g, k + 1) is not None

    def test_witness_labelling_is_proper(self):
        for n in (3, 4, 5):
            g = complete_graph(n)
            labels = brute_force_labelling(g, 3)
            assert labels is not None
            assert not exact_conflicts(g, labels)
            assert brute_force_labelling(g, 2) is None


@pytest.fixture
def seen(monkeypatch):
    """One-item list that sums the nodes of every search; reset it to 0 to
    start a count."""
    seen = [0]
    search = oracle._first_proper

    def counted(*args):
        labels, nodes = search(*args)
        seen[0] += nodes
        return labels, nodes

    monkeypatch.setattr(oracle, "_first_proper", counted)
    return seen


class TestMinKEdgeOrder:
    """brute_force_min_k searches one edge order whatever order the input
    lists its edges in, so its answer and its search nodes are properties of
    the graph alone."""

    @staticmethod
    def reorderings(g: Graph, rng: random.Random, count: int = 3):
        yield g
        for _ in range(count):
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
            rng.shuffle(edges)
            yield Graph(g.n, edges)

    def test_same_answer_and_nodes_in_every_order(self, seen):
        rng = random.Random(9)
        graphs = [complete_graph(5), complete_graph(6), Graph(*gen.shuffled_pairs(12, 16, seed=7)),
                  Graph(*gen.shuffled_pairs(10, 14, seed=3))]
        while len(graphs) < 54:
            n = rng.randint(6, 9)
            g = Graph(*gen.tree_plus_chords(rng, n, rng.randint(14, min(16, n * (n - 1) // 2))))
            if is_nice(g):
                graphs.append(g)
        for i, g in enumerate(graphs):
            outcomes = set()
            for h in self.reorderings(g, rng):
                seen[0] = 0
                outcomes.add((brute_force_min_k(h), seen[0]))
            assert len(outcomes) == 1, (i, outcomes)

    def test_k6_nodes(self, seen):
        for h in self.reorderings(complete_graph(6), random.Random(6)):
            seen[0] = 0
            assert brute_force_min_k(h) == 3
            assert seen[0] == 87

    @pytest.mark.parametrize("n, nodes", [(7, 162), (8, 306), (9, 584), (10, 1_120)])
    def test_larger_complete_graph_nodes(self, seen, n, nodes):
        assert brute_force_min_k(complete_graph(n)) == 3
        assert seen[0] == nodes


class TestTwinOrder:
    """brute_force_min_k searches only labellings in which true twins u < v
    have prod(u) < prod(v).  Its answer must be that of a search that orders
    nothing, in every numbering of the vertices: a numbering decides which
    twin must get the smaller product."""

    @staticmethod
    def unordered_min_k(g: Graph) -> int | None:
        edges = sorted(g.edges)
        for k in (1, 2, 3):
            if oracle._first_proper(g.n, edges, k, oracle.ORACLE_NODE_BUDGET)[0] is not None:
                return k
        return None

    @staticmethod
    def graphs():
        """Every labelled graph on 2-5 vertices, then 200 seeded dense graphs
        on 6-7 vertices, where twins are common."""
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                yield Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        rng = random.Random(0x7317)
        for _ in range(200):
            n, p = rng.randint(6, 7), rng.uniform(0.5, 0.9)
            yield Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])

    @staticmethod
    def relabelled(g: Graph, rng: random.Random) -> Graph:
        """``g`` with its vertex ids permuted by a seeded shuffle."""
        perm = list(range(g.n))
        rng.shuffle(perm)
        return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])

    def test_same_answer_as_unordered_search(self):
        rng = random.Random(23)
        with_twins = 0
        for g in self.graphs():
            expected = self.unordered_min_k(g)
            with_twins += bool(oracle._true_twins(g))
            for h in [g] + [self.relabelled(g, rng) for _ in range(3)]:
                assert brute_force_min_k(h) == expected, h.edges
        assert with_twins >= 550

    def test_least_product_never_above_exact(self):
        for k in (2, 3):
            for r in range(5):
                products = sorted({math.prod(c) for c in
                                   itertools.product(range(1, k + 1), repeat=r)})
                for t in range(1, k ** r + 3):
                    exact = next((q for q in products if q >= t), 0)
                    assert oracle._least_product(t, r, k) == exact, (t, r, k)


class TestBruteForceLabelling:
    def test_matches_definition(self):
        checked = 0
        for seed in range(300):
            rng = random.Random(seed + 900)
            n = rng.randint(2, 7)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            rng.shuffle(edges)
            if len(edges) > 9:
                continue
            g = Graph(n, edges)
            for k in (1, 2, 3, 4):
                assert brute_force_labelling(g, k) == first_proper_by_definition(g, k), (seed, k)
                checked += 1
        assert checked >= 400
        # Labels up to 6.  These answers never reach 4 or 6; the graphs whose
        # answers hinge on 4 = 2 * 2 and 6 = 2 * 3 are in test_kernels.py.
        for g in (star_graph(3), complete_graph(4), path_graph(5)):
            for k in (5, 6):
                assert brute_force_labelling(g, k) == first_proper_by_definition(g, k)

    def test_edgeless(self):
        assert brute_force_labelling(Graph(3, []), 2) == []

    def test_no_witness(self):
        assert brute_force_labelling(Graph(2, [(0, 1)]), 3) is None
        assert brute_force_labelling(Graph(5, [(0, 1), (2, 3), (3, 4)]), 4) is None

    def test_long_path(self):
        # One search level per edge: a recursive search would overflow the stack.
        g = path_graph(100_001)
        labels = brute_force_labelling(g, 3)
        assert labels is not None and not exact_conflicts(g, labels)

    def test_sixty_edges_within_budget(self, seen):
        # Fits the node budget because each pair is checked once every other
        # edge at its ends is labelled; checked once both ends were final, the
        # search ran over it.
        g = Graph(*gen.tree_plus_chords(random.Random(2), 30, 60))
        labels = brute_force_labelling(g, 2)
        assert labels is not None and not exact_conflicts(g, labels)
        assert seen[0] == 7_368


class TestRandomNiceGraph:
    def test_matches_component_patching(self):
        # The same graphs as when the lone edges were found by walking every
        # component, smallest first.
        lonely = 0
        for seed in range(500):
            draw = random.Random(seed)
            n, p = draw.randint(3, 40), draw.choice((0.02, 0.05, 0.1, 0.3))
            rng = random.Random(seed)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            patched = list(edges)
            for a, b in (c for c in connected_components(Graph(n, edges)) if len(c) == 2):
                lonely += 1
                e = tuple(sorted((a, min(set(range(n)) - {a, b}))))
                if e not in patched:
                    patched.append(e)
            assert random_nice_graph(n, p, seed) == Graph(n, patched), seed
        assert lonely >= 300

    def test_single_vertex(self):
        g = random_nice_graph(1, 0.9, 7)
        assert g.n == 1 and g.m == 0

    def test_p_one_is_complete(self):
        g = random_nice_graph(5, 1.0, 3)
        assert g == complete_graph(5)

    def test_deterministic(self):
        a = random_nice_graph(30, 0.2, 42)
        b = random_nice_graph(30, 0.2, 42)
        assert a == b

    def test_always_nice(self):
        for seed in range(300):
            n = random.Random(seed).randint(1, 20)
            assert is_nice(random_nice_graph(n, 0.08, seed))

    def test_two_vertices_dropped_to_isolated(self):
        g = random_nice_graph(2, 1.0, 0)
        assert g.n == 2 and g.m == 0

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            random_nice_graph(0, 0.5, 1)
        with pytest.raises(ValueError):
            random_nice_graph(3, 1.5, 1)
        # 2897 * 2896 / 2 vertex pairs exceed MAX_EDGES = 2**22.
        with pytest.raises(ValueError, match="n = 2897 has more than the limit of 4194304 vertex pairs"):
            random_nice_graph(2897, 0.0, 1)


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
