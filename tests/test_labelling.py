import random

import pytest

from prodlabel import (
    Graph,
    GraphFormatError,
    Labelling,
    find_conflicts,
    format_labelling,
    parse_labelling,
)
from prodlabel.labelling import degree_counts, format_counts

from conftest import exact_conflicts, path_graph, random_graph, star_graph
from spec import kind, profile, special, tracker


@pytest.mark.parametrize("g, labels, v, expected", [
    (Graph(3, [(0, 1), (0, 2), (1, 2)]), [1, 3, 2], 2, (0, 1, 1)),
    (star_graph(4), [1, 1, 1, 1], 0, (4, 0, 0)),
    (Graph(1, []), [], 0, (0, 0, 0)),
], ids=["k3-mixed", "star-all-ones", "isolated"])
def test_profile(g, labels, v, expected):
    assert profile(g, Labelling(labels), v) == expected


@pytest.mark.parametrize("d2, d3, expected_kind, expected_special", [
    (0, 0, "mono1", False),
    (3, 0, "mono2", False),
    (0, 1, "mono3", False),
    (2, 2, "bichromatic", False),
    (2, 1, "bichromatic", True),
    (4, 1, "bichromatic", True),
    # d2 odd with d3 == 1 gives an even total, hence not special.
    (3, 1, "bichromatic", False),
])
def test_kind_and_special(d2, d3, expected_kind, expected_special):
    assert kind(d2, d3) == expected_kind and special(d2, d3) == expected_special


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

    def test_matches_exact_products(self):
        for seed in range(500):
            rng = random.Random(seed)
            g = random_graph(rng)
            labels = [rng.choice((1, 2, 3)) for _ in range(g.m)]
            assert find_conflicts(g, Labelling(labels)) == exact_conflicts(g, labels)

    def test_key_equality_iff_product_equality(self):
        for seed in range(200):
            rng = random.Random(seed)
            d2a, d3a = rng.randint(0, 40), rng.randint(0, 40)
            d2b, d3b = rng.randint(0, 40), rng.randint(0, 40)
            keys_equal = (d2a, d3a) == (d2b, d3b)
            products_equal = 2**d2a * 3**d3a == 2**d2b * 3**d3b
            assert keys_equal == products_equal

    def test_label_handshake(self):
        for seed in range(200):
            rng = random.Random(seed)
            g = random_graph(rng)
            l = Labelling([rng.choice((1, 2, 3)) for _ in range(g.m)])
            for i in range(3):  # d1, d2, d3
                assert sum(profile(g, l, v)[i] for v in range(g.n)) % 2 == 0


def product_report(g, l):
    """The "v d2 d3" lines that ``prodlabel label`` prints after the labels."""
    return format_counts(*degree_counts(g, l))


class TestLabellingMustFitGraph:
    """The checker and the product report refuse a labelling that does not
    give every edge one label in {1,2,3}, instead of counting past it or
    stopping short of it."""

    @pytest.mark.parametrize("check", [find_conflicts, product_report])
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
    def test_incremental_matches_recompute(self):
        for seed in range(200):
            rng = random.Random(seed)
            g = random_graph(rng)
            state = tracker(g)
            for _ in range(60):
                if not g.m:
                    break
                state.set(rng.randrange(g.m), rng.choice((1, 2, 3)))
            for v in range(g.n):
                assert state.key(v) == profile(g, state.labelling, v)[1:]


class TestLabellingValue:
    def test_equal_labels_compare_equal(self):
        l = Labelling([2, 3])
        assert l == Labelling([2, 3])
        assert l != Labelling([3, 2]) and l != [2, 3]

    def test_repr_names_its_field(self):
        assert repr(Labelling([2, 3])) == "Labelling(labels=[2, 3])"

    def test_unhashable_like_its_list(self):
        # A Graph too: both compare by value, and neither is a set member or dict key.
        for obj in (Labelling([1]), Graph(2, [(0, 1)])):
            with pytest.raises(TypeError):
                hash(obj)


class TestFormats:
    def test_labelling_lines(self):
        g = Graph(3, [(0, 1), (1, 2)])
        out = format_labelling(g, Labelling([2, 3]))
        assert out == "0 1 2\n1 2 3\n"

    def test_product_lines(self):
        g = Graph(3, [(0, 1), (1, 2)])
        out = product_report(g, Labelling([2, 3]))
        assert out == "0 1 0\n1 1 1\n2 0 1\n"

    def test_parse_round_trip(self):
        g = Graph(3, [(0, 1), (1, 2)])
        l = Labelling([2, 3])
        assert parse_labelling(g, format_labelling(g, l)) == l

    def test_parse_stops_at_a_blank_line_once_every_edge_has_a_label(self):
        g = Graph(3, [(0, 1), (1, 2)])
        # The first blank line comes while an edge is still missing.
        assert parse_labelling(g, "0 1 2\n\n1 2 3\n \n0 1 0\n1 2 1\n") == Labelling([2, 3])
        assert parse_labelling(Graph(2, []), "\n0 0 0\n1 0 0\n") == Labelling([])
        with pytest.raises(GraphFormatError, match="line 3: label 0 outside"):
            parse_labelling(g, "0 1 2\n1 2 3\n0 1 0\n")

    def test_parse_skips_comment_lines(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert parse_labelling(g, "# edge labels\n0 1 2\n  # indented\n1 2 3\n") == Labelling([2, 3])

    @pytest.mark.parametrize("line", ["0 1", "0 1 2 3"], ids=["two-tokens", "four-tokens"])
    def test_parse_rejects_other_token_counts(self, line):
        with pytest.raises(GraphFormatError) as info:
            parse_labelling(path_graph(3), f"0 1 1\n{line}\n")
        assert str(info.value) == f"line 2: expected 'u v label', got {line!r}"
        assert info.value.line == 2

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
                                      "0 1 1\n1 2_0 1\n", "0 1 1\n1 2 " + "9" * 5000 + "\n"],
                             ids=["signed-label", "full-width-label", "signed-id", "underscore-id",
                                  "over-long-label"])
    def test_parse_rejects_non_ascii_digits(self, text):
        with pytest.raises(GraphFormatError, match="line 2: malformed number"):
            parse_labelling(path_graph(3), text)
