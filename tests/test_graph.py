import random
import re

import pytest
from hypothesis import given, strategies as st

import prodlabel.graph as graph_module
import prodlabel.readers as readers_module
from prodlabel.graph import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    detect_format,
    is_nice,
    parse_edge_list,
    parse_graph,
)
from prodlabel.readers import parse_dimacs

import gen
from conftest import path_graph, random_graph
from spec import connected_components, edge_id


class TestGraph:
    def test_basic_construction(self):
        g = Graph(3, [(0, 1), (2, 1)])
        assert g.n == 3 and g.m == 2
        assert g.edges == ((0, 1), (1, 2))
        assert g.adj == [[(1, 0)], [(0, 0), (2, 1)], [(1, 1)]]
        assert edge_id(g, 2, 1) == 1
        with pytest.raises(KeyError):
            edge_id(g, 0, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, [(0, 1), (1, 0)])

    def test_names_the_first_duplicate(self):
        with pytest.raises(ValueError, match=re.escape("duplicate edge (1,2)")):
            Graph(3, [(0, 1), (1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            Graph(-1, [])

    def test_repr_gives_the_counts(self):
        assert repr(Graph(3, [(0, 1), (2, 1)])) == "Graph(n=3, m=2)"


class TestParseEdgeList:
    def test_plain(self):
        g = parse_edge_list("0 1\n1 2")
        assert g == Graph(3, [(0, 1), (1, 2)])

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a comment\n\n0 1\n\n# another\n1 2\n")
        assert g == Graph(3, [(0, 1), (1, 2)])

    def test_header_fixes_vertex_count(self):
        g = parse_edge_list("n 5\n0 1")
        assert g.n == 5 and g.m == 1

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 1.*self-loop"):
            parse_edge_list("0 0")

    def test_duplicate_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*duplicate"):
            parse_edge_list("0 1\n0 1")

    @pytest.mark.parametrize("text, line, edge", [
        ("0 1\n0 1", 2, "(0,1)"),
        ("0 1\n1 2\n2 1\n1 0\n", 3, "(1,2)"),  # a reversed pair, named by its ends in order
        ("c x\np edge 3 4\ne 1 2\ne 2 3\ne 3 2\ne 2 1\n", 5, "(3,2)"),  # DIMACS, as written
    ])
    def test_duplicate_names_line_and_edge(self, text, line, edge):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line}: duplicate edge {edge}" and info.value.line == line

    def test_malformed_token(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n1 x")

    def test_header_conflict(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_edge_list("n 2\n0 5")

    def test_header_conflict_names_its_line(self):
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list("n 2\n0 1\n0 5\n")
        assert info.value.line == 3
        assert str(info.value) == "line 3: vertex id 5 out of range for declared n=2"

    def test_late_header_rejected(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_edge_list("0 1\nn 4")

    def test_non_decimal_header(self):
        # "²".isdigit() holds but int("²") raises: the header must be
        # refused as malformed, not crash the conversion.
        for count in ("²", "1²", "-3", "+3", "\uff13"):
            with pytest.raises(GraphFormatError, match="line 1: malformed header"):
                parse_edge_list(f"n {count}\n0 1\n1 2")

    def test_declared_count_above_limit(self):
        with pytest.raises(GraphFormatError, match="line 1.*exceeds the limit"):
            parse_edge_list(f"n {MAX_VERTICES + 1}\n0 1\n1 2")
        with pytest.raises(GraphFormatError, match=r"^line 1: malformed number: too long \(5000"):
            parse_edge_list("n " + "9" * 5000 + "\n0 1\n1 2\n")

    def test_id_above_limit(self):
        with pytest.raises(GraphFormatError, match="line 2.*more than the limit"):
            parse_edge_list(f"0 1\n1 {MAX_VERTICES}")

    def test_edges_above_limit(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_EDGES", 2)
        assert parse_edge_list("# two edges\n0 1\n1 2\n").m == 2
        with pytest.raises(GraphFormatError, match="line 4: more than the limit of 2 edges"):
            parse_edge_list("# three edges\n0 1\n1 2\n2 3\n")
        # The same edges in the form the bulk reader reads.
        assert parse_edge_list("0 1\n1 2\n").m == 2
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list("0 1\n1 2\n2 3\n")
        assert str(info.value) == "line 3: more than the limit of 2 edges" and info.value.line == 3

    # int() alone reads each of the first five as a number: 1_0 as 10.  It
    # refuses the last, over its digit limit, with a message that names no line.
    @pytest.mark.parametrize("token, message", [
        ("+1", "malformed number '+1'"), ("-1", "malformed number '-1'"),
        ("1_0", "malformed number '1_0'"), ("\uff13", "malformed number '\uff13'"),
        ("1\u0661", "malformed number '1\u0661'"),
        ("9" * 5000, "malformed number: too long (5000 digits)"),
    ], ids=["plus", "minus", "underscore", "full-width", "arabic-indic", "over-long"])
    def test_ids_are_ascii_digits(self, token, message):
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list(f"0 1\n0 {token}")
        assert str(info.value) == f"line 2: {message}"


class TestBulkReader:
    """Text in the form Graph.to_edge_list writes is read in bulk.  It must
    give the graph, and on a failed check the message and line, that the
    line reader gives."""

    CANONICAL = "n 5\n0 1\n1 2\n3 1\n2 4\n"

    @pytest.mark.parametrize("text", [
        "# a comment\n" + CANONICAL,
        CANONICAL.replace("\n", "\r\n"),
        CANONICAL.replace(" ", "\t"),
        CANONICAL[:-1],
    ], ids=["comment", "crlf", "tabs", "no-final-newline"])
    def test_respellings_read_alike(self, text):
        assert graph_module._PLAIN.fullmatch(self.CANONICAL)
        assert not graph_module._PLAIN.fullmatch(text)
        expected = Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4)])
        assert parse_edge_list(self.CANONICAL) == parse_edge_list(text) == expected

    @pytest.mark.parametrize("text, line, message", [
        ("n 3\n0 1\n1 3\n", 3, "vertex id 3 out of range for declared n=3"),
        (f"0 1\n1 {MAX_VERTICES}\n", 2,
         f"vertex id {MAX_VERTICES} needs more than the limit of {MAX_VERTICES} vertices"),
        (f"n {MAX_VERTICES + 1}\n0 1\n", 1,
         f"declared vertex count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}"),
        ("0 1\n2 2\n", 2, "self-loop at vertex 2"),
        ("n 4\n0 1\n1 2\n0 1\n", 4, "duplicate edge (0,1)"),
        ("0 1\n2 1\n1 2\n", 3, "duplicate edge (1,2)"),
    ], ids=["id-above-declared", "id-above-limit", "header-above-limit", "self-loop",
            "duplicate", "reversed-duplicate"])
    def test_failed_checks_name_their_line(self, text, line, message):
        assert graph_module._PLAIN.fullmatch(text)
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list(text)
        assert str(info.value) == f"line {line}: {message}" and info.value.line == line

    def test_seeded_round_trip_without_the_line_reader(self, monkeypatch):
        texts = {}
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(3, 400)
            g = Graph(*gen.tree_plus_chords(rng, n, n - 1 + rng.randint(0, 2 * n)))
            texts[g.to_edge_list()] = g
            texts["".join(f"{v} {u}\n" for u, v in g.edges)] = g  # no header, pairs reversed
        monkeypatch.setattr(readers_module, "read_lines", None)  # a call would fail
        for text, g in texts.items():
            assert parse_edge_list(text) == g

    def test_agrees_with_the_line_reader(self, monkeypatch):
        # Canonical texts, some failing a check, and one-character edits of
        # them; the line reader is the reference.
        rng = random.Random(2024)
        alphabet = ["0", "7", " ", "\n", "\t", "\r", "#", "n", "+", "\uff13"]
        bulk = 0
        for _ in range(3000):
            n = rng.randint(0, 8)
            pairs = [(rng.randrange(n + 1), rng.randrange(n + 1)) for _ in range(rng.randint(0, 9))]
            text = (f"n {n}\n" if rng.random() < 0.5 else "") + "".join(
                f"{u} {v}\n" for u, v in pairs)
            if rng.random() < 0.5:
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(alphabet) + text[at + rng.randint(0, 1):]
            monkeypatch.setattr(graph_module, "MAX_EDGES", rng.choice((3, 2**22)))
            bulk += graph_module._PLAIN.fullmatch(text) is not None
            try:
                expected = readers_module.read_lines(text)
            except GraphFormatError as exc:
                with pytest.raises(GraphFormatError) as info:
                    parse_edge_list(text)
                assert (str(info.value), info.value.line) == (str(exc), exc.line), text
            else:
                assert parse_edge_list(text) == expected, text
        assert bulk > 1000


class TestParseDimacs:
    def test_plain(self):
        g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3")
        assert g == Graph(3, [(0, 1), (1, 2)])

    def test_comments(self):
        g = parse_dimacs("c hello\np edge 2 1\ne 1 2")
        assert g == Graph(2, [(0, 1)])

    def test_id_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_dimacs("p edge 2 1\ne 1 3")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="mismatch"):
            parse_dimacs("p edge 3 3\ne 1 2\ne 2 3")

    def test_missing_problem_line(self):
        with pytest.raises(GraphFormatError, match="problem line"):
            parse_dimacs("e 1 2")

    def test_duplicate_problem_line(self):
        with pytest.raises(GraphFormatError, match="duplicate problem"):
            parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2")

    def test_declared_count_above_limit(self):
        with pytest.raises(GraphFormatError, match="line 1.*exceeds the limit"):
            parse_dimacs(f"p edge {MAX_VERTICES + 1} 0")

    def test_edges_above_limit(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_EDGES", 2)
        assert parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n").m == 2
        with pytest.raises(GraphFormatError,
                           match="line 2: declared edge count 3 exceeds the limit of 2"):
            parse_dimacs("c path\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
        with pytest.raises(GraphFormatError, match="line 4: more than the limit of 2 edges"):
            parse_dimacs("p edge 4 2\ne 1 2\ne 2 3\ne 3 4\n")

    @pytest.mark.parametrize("text, line", [
        ("p edge 1_1 1\ne 1 2", 1),
        ("p edge 2 +1\ne 1 2", 1),
        ("p edge 2 1\ne 1 \uff12", 2),
        ("p edge 2 1\ne -1 2", 2),
        ("p edge 2 " + "9" * 5000 + "\ne 1 2", 1),
    ], ids=["underscore-count", "signed-count", "full-width-id", "negative-id", "over-long-count"])
    def test_counts_and_ids_are_ascii_digits(self, text, line):
        with pytest.raises(GraphFormatError, match=f"line {line}: malformed number"):
            parse_dimacs(text)

    @pytest.mark.parametrize("text, line, message", [
        ("c x\np edge 3\ne 1 2\n", 2, "expected 'p edge <n> <m>'"),
        ("p col 2 1\ne 1 2\n", 1, "expected 'p edge <n> <m>'"),
        ("p edge 3 2\ne 1 2\ne 2\n", 3, "expected 'e <u> <v>'"),
        ("p edge 2 1\ne 2 2\n", 2, "self-loop at vertex 2"),
        ("p edge 2 1\n\nx 1 2\n", 3, "unrecognised line 'x 1 2'"),
        ("c comments only\n", None, "missing problem line"),
    ], ids=["short-problem-line", "not-edge-format", "short-edge-line", "self-loop",
            "unrecognised-line", "missing-problem-line"])
    def test_rejections_name_their_line(self, text, line, message):
        with pytest.raises(GraphFormatError) as info:
            parse_dimacs(text)
        assert str(info.value) == (message if line is None else f"line {line}: {message}")
        assert info.value.line == line


class TestAutoFormat:
    def test_detects_dimacs(self):
        assert detect_format("c x\np edge 2 1\ne 1 2") == "dimacs"
        assert detect_format("\n p edge 2 1\ne 1 2") == "dimacs"

    def test_reads_past_leading_whitespace(self):
        assert detect_format(" \t\r\n\u00a0\n  c comment\np edge 2 1\ne 1 2\n") == "dimacs"
        assert detect_format("\n\n\tp edge 2 1\ne 1 2\n") == "dimacs"
        assert detect_format(" \n\t0 1\n") == "edgelist"
        assert detect_format(" \n\t") == "edgelist"

    def test_detects_edgelist(self):
        assert detect_format("# c\n0 1\n") == "edgelist"
        assert detect_format("n 4\n0 1\n") == "edgelist"

    def test_parse_graph_roundtrips_both(self):
        assert parse_graph("p edge 3 1\ne 1 3").m == 1
        assert parse_graph("0 2").m == 1


@given(st.integers(min_value=0, max_value=997))
def test_edge_list_round_trip(seed):
    import random

    g = random_graph(random.Random(seed))
    assert parse_edge_list(g.to_edge_list()) == g


class TestComponents:
    def test_path(self):
        assert connected_components(path_graph(3)) == [[0, 1, 2]]

    def test_two_edges(self):
        assert connected_components(Graph(4, [(0, 1), (2, 3)])) == [[0, 1], [2, 3]]

    def test_isolated(self):
        assert connected_components(Graph(2, [])) == [[0], [1]]

    @given(st.integers(min_value=0, max_value=499))
    def test_cover_and_disjoint(self, seed):
        import random

        g = random_graph(random.Random(seed))
        comps = connected_components(g)
        flat = [v for c in comps for v in c]
        assert sorted(flat) == list(range(g.n))
        assert len(flat) == len(set(flat))

    @given(st.integers(min_value=0, max_value=199))
    def test_matches_networkx(self, seed):
        import random

        import networkx as nx

        g = random_graph(random.Random(seed))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        expected = sorted(sorted(c) for c in nx.connected_components(h))
        assert connected_components(g) == expected


class TestNiceness:
    def test_single_edge_not_nice(self):
        assert not is_nice(Graph(2, [(0, 1)]))

    def test_path3_nice(self):
        assert is_nice(path_graph(3))

    def test_union_with_lone_edge_not_nice(self):
        g = Graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        assert not is_nice(g)

    def test_isolated_vertices_nice(self):
        assert is_nice(Graph(3, []))

    def test_star_next_to_lone_edge_not_nice(self):
        # Three leaves of degree 1 hang off a centre of degree 3.
        assert is_nice(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert not is_nice(Graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)]))

    def test_isolated_vertices_next_to_lone_edge_not_nice(self):
        assert not is_nice(Graph(4, [(2, 3)]))

    @given(st.integers(min_value=0, max_value=299))
    def test_agrees_with_component_sizes(self, seed):
        import random

        g = random_graph(random.Random(seed))
        assert is_nice(g) == all(len(c) != 2 for c in connected_components(g))

