"""Immutable simple-graph representation, parsers, and the nice-graph test."""

from __future__ import annotations

import re

# Largest vertex count the parsers accept.  A graph allocates one adjacency
# list per vertex before anything else is checked, so a header such as
# "n 99999999999" must be refused before it reaches Graph.
MAX_VERTICES = 2**20

# Largest edge count the parsers accept, checked as edges are read so that an
# oversized input is an input error, not exhausted memory.  On a seeded tree
# plus chords at both caps (n = 2**20, m = 2**22, a 58 MB file; Python 3.11,
# x86-64 Linux), `prodlabel label --out` took 61 s at 1.84 GiB of peak RSS
# and `prodlabel verify` on its output 30 s at 1.86 GiB.
MAX_EDGES = 2**22

# The form Graph.to_edge_list writes: an optional "n <count>" header, then
# "u v" lines of ASCII digits, one space, each line ending in "\n".
_PLAIN = re.compile(r"(?:n ([0-9]+)\n)?((?:[0-9]+ [0-9]+\n)*)")


class GraphFormatError(ValueError):
    """Raised on malformed graph input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotNiceError(ValueError):
    """Raised when a graph has a two-vertex connected component."""


class InvariantViolation(AssertionError):
    """An internally unreachable branch was reached; the construction is broken."""


def read_int(token: str, lineno: int) -> int:
    """The non-negative integer a token of ASCII digits spells; a
    GraphFormatError naming the line for any other token (``int`` alone also
    takes a sign, underscores and non-ASCII digits)."""
    if not (token.isascii() and token.isdecimal()):
        raise GraphFormatError(f"malformed number {token!r}", lineno)
    return int(token)


class Graph:
    """Simple undirected graph with dense 0-based vertex ids and indexed edges.

    Immutable after construction.  ``adj[v]`` is a list of ``(neighbour,
    edge id)`` pairs sorted by neighbour id, which keeps every
    smallest-neighbour choice in the pipeline deterministic.  These entries
    are the only way to find an edge from its ends: a stage that picks a
    neighbour from ``adj[v]`` keeps the edge id that comes with it.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) endpoint out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.append((u, v) if u < v else (v, u))
        if len(set(norm)) != len(norm):
            u, v = norm[_first_repeat(norm)]
            raise ValueError(f"duplicate edge ({u},{v})")
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(norm):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        for lst in adj:
            lst.sort()
        self.n = n
        self.edges = tuple(norm)
        self.adj = adj

    @property
    def m(self) -> int:
        return len(self.edges)

    def to_edge_list(self) -> str:
        """Serialise in the edge-list format understood by parse_edge_list."""
        lines = [f"n {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _first_repeat(edges) -> int:
    """Index of the first edge equal to an earlier one; called only on a
    list known to hold one."""
    seen: set[tuple[int, int]] = set()
    for i, e in enumerate(edges):
        if e in seen:
            return i
        seen.add(e)


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines (0-based ids) into a Graph.

    Blank lines and lines starting with ``#`` are ignored.  An optional
    leading ``n <count>`` header fixes the vertex count, and an id at or
    above it is rejected on its line; otherwise the count is one more than
    the largest id seen.  Counts above MAX_VERTICES, ids at
    or above it and more than MAX_EDGES edges are rejected.

    Text in the form ``Graph.to_edge_list`` writes is read in bulk; any
    other text, and any such text that fails a check, is read line by line,
    which names the offending line.
    """
    plain = _PLAIN.fullmatch(text)
    if plain is not None:
        header, body = plain.groups()
        try:
            if body.count("\n") <= MAX_EDGES:
                ids = list(map(int, body.split()))
                n = max(ids, default=-1) + 1 if header is None else int(header)
                if n <= MAX_VERTICES:
                    it = iter(ids)
                    return Graph(n, zip(it, it))  # consecutive ids pair up
        except ValueError:  # an id out of range, a self-loop, a duplicate or an over-long number
            pass
    return _read_lines(text)


def _read_lines(text: str) -> Graph:
    """``parse_edge_list`` one line at a time."""
    edges: list[tuple[int, int]] = []
    lines: list[int] = []  # the line of each edge, to name a duplicate's
    declared: int | None = None
    max_id = -1
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if not first_content:
                raise GraphFormatError("header must come before edges", lineno)
            if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdecimal()):
                raise GraphFormatError("malformed header, expected 'n <count>'", lineno)
            declared = int(tokens[1])
            if declared > MAX_VERTICES:
                raise GraphFormatError(
                    f"declared vertex count {declared} exceeds the limit of {MAX_VERTICES}", lineno)
            first_content = False
            continue
        first_content = False
        if len(tokens) != 2:
            raise GraphFormatError(f"expected 'u v', got {line!r}", lineno)
        if len(edges) == MAX_EDGES:
            raise GraphFormatError(f"more than the limit of {MAX_EDGES} edges", lineno)
        u, v = read_int(tokens[0], lineno), read_int(tokens[1], lineno)
        top = max(u, v)
        if top >= MAX_VERTICES:
            raise GraphFormatError(
                f"vertex id {top} needs more than the limit of {MAX_VERTICES} vertices", lineno)
        if declared is not None and top >= declared:
            raise GraphFormatError(f"vertex id {top} out of range for declared n={declared}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v) if u < v else (v, u))
        lines.append(lineno)
        max_id = max(max_id, top)
    n = declared if declared is not None else max_id + 1
    try:
        return Graph(n, edges)
    except ValueError:  # the only error left for Graph to find is a duplicate
        i = _first_repeat(edges)
        u, v = edges[i]
        raise GraphFormatError(f"duplicate edge ({u},{v})", lines[i]) from None


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS "p edge n m" format with 1-based "e u v" lines.

    A declared vertex count above MAX_VERTICES, and a declared or actual
    edge count above MAX_EDGES, are rejected.
    """
    n = None
    m_declared = 0
    edges: list[tuple[int, int]] = []
    lines: list[int] = []  # the line of each edge, to name a duplicate's
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem line", lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise GraphFormatError("expected 'p edge <n> <m>'", lineno)
            n, m_declared = read_int(tokens[2], lineno), read_int(tokens[3], lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"declared vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno)
            if m_declared > MAX_EDGES:
                raise GraphFormatError(
                    f"declared edge count {m_declared} exceeds the limit of {MAX_EDGES}", lineno)
        elif tokens[0] == "e":
            if n is None:
                raise GraphFormatError("edge before problem line", lineno)
            if len(tokens) != 3:
                raise GraphFormatError("expected 'e <u> <v>'", lineno)
            if len(edges) == MAX_EDGES:
                raise GraphFormatError(f"more than the limit of {MAX_EDGES} edges", lineno)
            u, v = read_int(tokens[1], lineno), read_int(tokens[2], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex id out of range in {line!r}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            edges.append((u - 1, v - 1) if u < v else (v - 1, u - 1))
            lines.append(lineno)
        else:
            raise GraphFormatError(f"unrecognised line {line!r}", lineno)
    if n is None:
        raise GraphFormatError("missing problem line")
    if len(edges) != m_declared:
        raise GraphFormatError(f"edge count mismatch: declared {m_declared}, found {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError:  # the only error left for Graph to find is a duplicate
        i = _first_repeat(edges)
        # Named as its own line spells it, 1-based and in its own order.
        u, v = (int(t) for t in text.splitlines()[lines[i] - 1].split()[1:])
        raise GraphFormatError(f"duplicate edge ({u},{v})", lines[i]) from None


def detect_format(text: str) -> str:
    """Return "dimacs" if the first content character (the first one that is
    not whitespace) starts a DIMACS c/p line, else "edgelist"."""
    first = next((c for c in text if not c.isspace()), "")
    return "dimacs" if first in ("c", "p") else "edgelist"


def parse_graph(text: str) -> Graph:
    """Parse an edge list or a DIMACS graph, as ``detect_format`` finds it."""
    if detect_format(text) == "dimacs":
        return parse_dimacs(text)
    return parse_edge_list(text)


def is_nice(g: Graph) -> bool:
    """True iff no connected component is a single edge on two vertices, that
    is, no vertex of degree 1 has a neighbour of degree 1."""
    adj = g.adj
    return not any(len(a) == 1 and len(adj[a[0][0]]) == 1 for a in adj)

