import random

import pytest
from hypothesis import given, strategies as st

from prodlabel import (
    Graph,
    GraphFormatError,
    Labelling,
    find_conflicts,
    format_labelling,
    format_products,
    parse_labelling,
)
from prodlabel.labelling import ProfileTracker

from conftest import exact_conflicts, path_graph, random_graph, star_graph
from spec import VertexKind, VertexProfile, classify, profile


class TestProfile:
    def test_k3_mixed(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        l = Labelling([1, 3, 2])
        assert profile(g, l, 2) == VertexProfile(0, 1, 1)

    def test_all_ones(self):
        g = star_graph(4)
        l = Labelling.all_ones(g)
        assert profile(g, l, 0) == VertexProfile(4, 0, 0)

    def test_isolated(self):
        g = Graph(1, [])
        assert profile(g, Labelling([]), 0) == VertexProfile(0, 0, 0)


class TestClassify:
    def test_mono1(self):
        c = classify(VertexProfile(5, 0, 0))
        assert c.kind is VertexKind.MONO1 and not c.special

    def test_special(self):
        c = classify(VertexProfile(0, 2, 1))
        assert c.kind is VertexKind.BICHROMATIC and c.special

    def test_bichromatic_not_special(self):
        c = classify(VertexProfile(1, 2, 2))
        assert c.kind is VertexKind.BICHROMATIC and not c.special

    def test_mono2_mono3(self):
        assert classify(VertexProfile(0, 3, 0)).kind is VertexKind.MONO2
        assert classify(VertexProfile(2, 0, 1)).kind is VertexKind.MONO3

    def test_special_requires_odd_total(self):
        # d2 odd with d3 == 1 gives an even total, hence not special.
        assert not classify(VertexProfile(0, 3, 1)).special
        assert classify(VertexProfile(0, 4, 1)).special


class TestFindConflicts:
    def test_all_one_path(self):
        g = path_graph(3)
        conflicts = find_conflicts(g, Labelling.all_ones(g))
        assert conflicts == [0, 1] and all(type(eid) is int for eid in conflicts)

    def test_k3_proper(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert find_conflicts(g, Labelling([1, 3, 2])) == []

    def test_star_all_twos(self):
        g = star_graph(3)
        assert find_conflicts(g, Labelling([2, 2, 2])) == []

    def test_empty_graph(self):
        assert find_conflicts(Graph(4, []), Labelling([])) == []

    @given(st.integers(min_value=0, max_value=499))
    def test_matches_exact_products(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        labels = [rng.choice((1, 2, 3)) for _ in range(g.m)]
        assert find_conflicts(g, Labelling(labels)) == exact_conflicts(g, labels)

    @given(st.integers(min_value=0, max_value=199))
    def test_key_equality_iff_product_equality(self, seed):
        rng = random.Random(seed)
        d2a, d3a = rng.randint(0, 40), rng.randint(0, 40)
        d2b, d3b = rng.randint(0, 40), rng.randint(0, 40)
        keys_equal = (d2a, d3a) == (d2b, d3b)
        products_equal = 2**d2a * 3**d3a == 2**d2b * 3**d3b
        assert keys_equal == products_equal

    @given(st.integers(min_value=0, max_value=199))
    def test_label_handshake(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        labels = [rng.choice((1, 2, 3)) for _ in range(g.m)]
        l = Labelling(labels)
        for i in (1, 2, 3):
            total = sum(getattr(profile(g, l, v), f"d{i}") for v in range(g.n))
            assert total % 2 == 0


class TestLabellingMustFitGraph:
    """The checker and the product report refuse a labelling that does not
    give every edge one label in {1,2,3}, instead of counting past it or
    stopping short of it."""

    @pytest.mark.parametrize("check", [find_conflicts, format_products])
    @pytest.mark.parametrize("g, labels", [
        (path_graph(3), [2]),
        (path_graph(3), [2, 3, 1]),
        (path_graph(3), [2, 4]),
        (Graph(2, []), [1]),
    ], ids=["short", "long", "label-4", "edgeless-long"])
    def test_rejected(self, check, g, labels):
        with pytest.raises(ValueError, match="covers|outside"):
            check(g, Labelling(labels))


class TestProfileTracker:
    @given(st.integers(min_value=0, max_value=199))
    def test_incremental_matches_recompute(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        tracker = ProfileTracker(g)
        for _ in range(60):
            if not g.m:
                break
            tracker.set(rng.randrange(g.m), rng.choice((1, 2, 3)))
        for v in range(g.n):
            p = profile(g, tracker.labelling, v)
            assert tracker.key(v) == (p.d2, p.d3)


class TestLabellingValue:
    def test_equal_labels_compare_equal(self):
        l = Labelling([2, 3])
        assert l == Labelling([2, 3]) and l.copy() == l and l.copy().labels is not l.labels
        assert l != Labelling([3, 2]) and l != [2, 3]

    def test_repr_names_its_field(self):
        assert repr(Labelling([2, 3])) == "Labelling(labels=[2, 3])"

    def test_unhashable_like_its_list(self):
        with pytest.raises(TypeError):
            hash(Labelling([1]))


class TestFormats:
    def test_labelling_lines(self):
        g = Graph(3, [(0, 1), (1, 2)])
        out = format_labelling(g, Labelling([2, 3]))
        assert out == "0 1 2\n1 2 3\n"

    def test_product_lines(self):
        g = Graph(3, [(0, 1), (1, 2)])
        out = format_products(g, Labelling([2, 3]))
        assert out == "0 1 0\n1 1 1\n2 0 1\n"

    def test_parse_round_trip(self):
        g = Graph(3, [(0, 1), (1, 2)])
        l = Labelling([2, 3])
        assert parse_labelling(g, format_labelling(g, l)) == l

    def test_parse_rejects_missing_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphFormatError, match="no label"):
            parse_labelling(g, "0 1 2\n")

    def test_parse_rejects_unknown_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        # Ends out of range and a loop must not index past g.adj.
        for line in ("0 2 1", "0 9 1", "9 0 1", "1 1 1"):
            with pytest.raises(GraphFormatError, match="line 1: .* is not an edge"):
                parse_labelling(g, line + "\n0 1 1\n1 2 1\n")

    def test_parse_rejects_bad_label(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphFormatError, match="outside"):
            parse_labelling(g, "0 1 4\n")

    def test_parse_rejects_double_label(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphFormatError, match="twice"):
            parse_labelling(g, "0 1 1\n1 0 2\n")

    # int() alone reads "+1" as 1 and the full-width "３" as 3.
    @pytest.mark.parametrize("text", ["0 1 1\n1 2 +1\n", "0 1 1\n1 2 ３\n", "0 1 1\n+1 2 1\n",
                                      "0 1 1\n1 2_0 1\n"],
                             ids=["signed-label", "full-width-label", "signed-id", "underscore-id"])
    def test_parse_rejects_non_ascii_digits(self, text):
        with pytest.raises(GraphFormatError, match="line 2: malformed number"):
            parse_labelling(path_graph(3), text)
