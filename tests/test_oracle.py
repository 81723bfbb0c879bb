"""The brute-force oracle: brute_force_min_k's answers and search nodes, the
witness brute_force_labelling returns, and the seeded random_nice_graph."""

import itertools
import math
import random

import networkx as nx
import pytest

from prodlabel import Graph, brute_force_labelling, brute_force_min_k, oracle
from prodlabel.graph import is_nice
from prodlabel.oracle import random_nice_graph

import gen
from conftest import complete_graph, exact_conflicts, exact_products, path_graph


def python_min_k(g: Graph) -> int | None:
    """Independent oracle: the fewest labels with which a plain enumeration
    (edges in index order, no twin order) finds a proper labelling, or None
    if three do not suffice."""
    return next((k for k in (1, 2, 3) if any(
        not exact_conflicts(g, labels) for labels in itertools.product(range(1, k + 1), repeat=g.m))), None)


def first_proper_by_definition(g: Graph, k: int) -> list[int] | None:
    """The witness of brute_force_labelling(g, k) by its definition: the first
    vector of itertools.product over the edges in sorted order that exact
    products accept and that gives every class of true twins (equal closed
    neighbourhoods) products increasing with the vertex id; in g's edge order."""
    order = sorted(range(g.m), key=lambda e: g.edges[e])
    closed = [{v} for v in range(g.n)]
    for u, v in g.edges:
        closed[u].add(v)
        closed[v].add(u)
    twins = [(a, b) for a, b in itertools.combinations(range(g.n), 2) if closed[a] == closed[b]]
    for vector in itertools.product(range(1, k + 1), repeat=g.m):
        labels = [0] * g.m
        for e, lab in zip(order, vector):
            labels[e] = lab
        prod = exact_products(g, labels)
        if not exact_conflicts(g, labels) and all(prod[a] < prod[b] for a, b in twins):
            return labels
    return None


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
        # ran out of the node budget in both entry points.  With one label
        # every edge conflicts, so k = 1 is not searched either.
        calls = []
        monkeypatch.setattr(oracle, "_first_proper", lambda *args: calls.append(args))
        g = Graph(22, [(i, j) for i in range(20) for j in range(i + 1, 20)] + [(20, 21)])
        assert brute_force_min_k(g) is None
        assert brute_force_labelling(g, 3) is None
        assert brute_force_labelling(path_graph(3), 1) is None
        assert calls == []

    def test_edgeless_convention(self):
        assert brute_force_min_k(Graph(3, [])) == 1

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
        # brute_force_labelling finds a witness at exactly the k from the
        # answer up; 4 stands for no answer.
        for seed in range(40):
            rng = random.Random(seed + 500)
            n = rng.randint(3, 6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            if not edges or len(edges) > 8:
                continue
            g = Graph(n, edges)
            k = brute_force_min_k(g) or 4
            assert [brute_force_labelling(g, j) is not None for j in (1, 2, 3)] == [j >= k for j in (1, 2, 3)]

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
            if oracle._first_proper(g.n, edges, k, oracle.ORACLE_NODE_BUDGET, ())[0] is not None:
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
        # The search checks a pair once every other edge at its ends is
        # labelled, which comes before the pair's own edge when that edge is
        # the last at both ends, and cuts a twin class's branch once its
        # products can no longer end increasing.  Neither may change the
        # witness.  The edges are listed shuffled, each either way round.
        rng = random.Random(0x0AC1E)
        checked = with_twins = early = 0
        while checked < 600:
            n = rng.randint(3, 7)
            p = rng.uniform(0.3, 0.9)
            edges = [(v, u) if rng.random() < 0.5 else (u, v)
                     for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
            rng.shuffle(edges)
            g = Graph(n, edges)
            if not 1 <= g.m <= 9 or not is_nice(g):
                continue
            with_twins += bool(oracle._true_twins(g))
            last = {}
            for j, (u, v) in enumerate(sorted(g.edges)):
                last[u] = last[v] = j
            early += any(last[u] == last[v] == j for j, (u, v) in enumerate(sorted(g.edges)[:-1]))
            for k in (2, 3):
                witness = brute_force_labelling(g, k)
                assert witness == first_proper_by_definition(g, k), (g.edges, k)
                assert witness is None or not exact_conflicts(g, witness)
                checked += 1
        assert with_twins >= 120 and early >= 40, (with_twins, early)

    def test_same_witness_in_every_order(self):
        # The search runs over the sorted edges, so each edge gets the same
        # label however the input lists it.
        rng = random.Random(17)
        for g in [complete_graph(6), Graph(*gen.shuffled_pairs(12, 16, seed=7))] + [
                random_nice_graph(rng.randint(6, 9), 0.5, seed) for seed in range(20)]:
            k = brute_force_min_k(g)
            witnesses = set()
            for h in TestMinKEdgeOrder.reorderings(g, rng):
                witnesses.add(frozenset(zip(h.edges, brute_force_labelling(h, k))))
            assert len(witnesses) == 1, g.edges

    def test_three_labels(self):
        # K3 needs three pairwise distinct labels; its vertices are true twins,
        # so the witness gives them increasing products.
        g = complete_graph(3)
        assert brute_force_labelling(g, 2) is None
        assert brute_force_labelling(g, 3) == [1, 2, 3]
        assert exact_products(g, [1, 2, 3]) == [2, 3, 6]

    @pytest.mark.parametrize("k", [0, 4, 2.5])
    def test_k_outside_one_to_three(self, k):
        # With k = 2.5 the search never met its last label: K3 got [1, 2, 3].
        with pytest.raises(ValueError, match="^k must be 1, 2 or 3$"):
            brute_force_labelling(complete_graph(3), k)

    def test_edgeless(self):
        assert [brute_force_labelling(Graph(3, []), k) for k in (1, 2, 3)] == [[], [], []]

    def test_no_witness(self):
        assert brute_force_labelling(Graph(2, [(0, 1)]), 3) is None
        assert brute_force_labelling(Graph(5, [(0, 1), (2, 3), (3, 4)]), 3) is None

    def test_long_path(self):
        # One search level per edge: a recursive search would overflow the stack.
        g = path_graph(100_001)
        labels = brute_force_labelling(g, 3)
        assert labels is not None and not exact_conflicts(g, labels)

    @pytest.mark.parametrize("s, nodes", [(1, 249_419), (2, 164), (3, 2_108), (4, 2_078),
                                          (5, 327_426), (6, 139), (7, 49_632), (8, 5_554)])
    def test_sixty_edges_within_budget(self, seen, s, nodes):
        # Fits the node budget because each pair is checked once every other
        # edge at its ends is labelled, in sorted edge order with twins
        # ordered; in index order without twins s = 8 ran over it.
        g = Graph(*gen.tree_plus_chords(random.Random(s), 30, 60))
        labels = brute_force_labelling(g, 2)
        assert labels is not None and not exact_conflicts(g, labels)
        assert seen[0] == nodes


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
            for a, b in sorted(sorted(c) for c in nx.connected_components(nx.Graph(edges)) if len(c) == 2):
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
