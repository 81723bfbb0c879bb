"""Immutable simple-graph representation, the input caps, the bulk
edge-list parser, format detection and the nice-graph test.

Text in the form ``Graph.to_edge_list`` writes is parsed here.  Any other
edge list, and DIMACS input, goes to the line readers in
``prodlabel.readers``, which load on first use, so a ``prodlabel label``
run on canonical text never compiles them.
"""

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
            u, v = norm[first_repeat(norm)]
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


def first_repeat(edges) -> int:
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
    other text, and any such text that fails a check, is read line by line
    by ``readers.read_lines``, which names the offending line.
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
    from .readers import read_lines

    return read_lines(text)


def detect_format(text: str) -> str:
    """Return "dimacs" if the first content character (the first one that is
    not whitespace) starts a DIMACS c/p line, else "edgelist"."""
    first = next((c for c in text if not c.isspace()), "")
    return "dimacs" if first in ("c", "p") else "edgelist"


def parse_graph(text: str) -> Graph:
    """Parse an edge list or a DIMACS graph, as ``detect_format`` finds it."""
    if detect_format(text) == "dimacs":
        from .readers import parse_dimacs

        return parse_dimacs(text)
    return parse_edge_list(text)


def is_nice(g: Graph) -> bool:
    """True iff no connected component is a single edge on two vertices, that
    is, no vertex of degree 1 has a neighbour of degree 1."""
    adj = g.adj
    return not any(len(a) == 1 and len(adj[a[0][0]]) == 1 for a in adj)

