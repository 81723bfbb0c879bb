"""Line-by-line readers: edge lists outside the bulk form, DIMACS graphs and
labellings.

``prodlabel label`` on text in the form ``Graph.to_edge_list`` writes never
loads this module.  ``graph.parse_edge_list`` and ``graph.parse_graph``
import it when they need a reader from here, ``prodlabel verify`` when it
runs, and ``prodlabel`` on the first access to ``parse_labelling``.  The
caps are read through ``graph`` at call time, so ``graph.MAX_EDGES`` and
``graph.MAX_VERTICES`` stay the only definitions.
"""

from __future__ import annotations

from bisect import bisect_left

from . import graph
from .graph import Graph, GraphFormatError, first_repeat
from .labelling import LABELS, Labelling


def read_int(token: str, lineno: int) -> int:
    """The non-negative integer a token of ASCII digits spells; a
    GraphFormatError naming the line for any other token (``int`` alone also
    takes a sign, underscores and non-ASCII digits) and for one with more
    digits than ``int`` converts."""
    if not (token.isascii() and token.isdecimal()):
        raise GraphFormatError(f"malformed number {token!r}", lineno)
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"malformed number: too long ({len(token)} digits)", lineno) from None


def read_lines(text: str) -> Graph:
    """``parse_edge_list`` one line at a time.

    Pairs are kept as read; ``Graph`` puts each in (smaller, larger) order,
    and only the duplicate error path orders them here, to find the first
    repeat."""
    max_edges, max_vertices = graph.MAX_EDGES, graph.MAX_VERTICES
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
            if declared is not None:
                raise GraphFormatError("duplicate header", lineno)
            if not first_content:
                raise GraphFormatError("header must come before edges", lineno)
            if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdecimal()):
                raise GraphFormatError("malformed header, expected 'n <count>'", lineno)
            declared = read_int(tokens[1], lineno)
            if declared > max_vertices:
                raise GraphFormatError(
                    f"declared vertex count {declared} exceeds the limit of {max_vertices}", lineno)
            first_content = False
            continue
        first_content = False
        if len(tokens) != 2:
            raise GraphFormatError(f"expected 'u v', got {line!r}", lineno)
        if len(edges) == max_edges:
            raise GraphFormatError(f"more than the limit of {max_edges} edges", lineno)
        u, v = read_int(tokens[0], lineno), read_int(tokens[1], lineno)
        top = max(u, v)
        if top >= max_vertices:
            raise GraphFormatError(
                f"vertex id {top} needs more than the limit of {max_vertices} vertices", lineno)
        if declared is not None and top >= declared:
            raise GraphFormatError(f"vertex id {top} out of range for declared n={declared}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
        lines.append(lineno)
        max_id = max(max_id, top)
    n = declared if declared is not None else max_id + 1
    try:
        return Graph(n, edges)
    except ValueError:  # the only error left for Graph to find is a duplicate
        norm = [(u, v) if u < v else (v, u) for u, v in edges]
        i = first_repeat(norm)
        u, v = norm[i]
        raise GraphFormatError(f"duplicate edge ({u},{v})", lines[i]) from None


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS "p edge n m" format with 1-based "e u v" lines.

    A declared vertex count above MAX_VERTICES, and a declared or actual
    edge count above MAX_EDGES, are rejected.
    """
    max_edges, max_vertices = graph.MAX_EDGES, graph.MAX_VERTICES
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
            if n > max_vertices:
                raise GraphFormatError(
                    f"declared vertex count {n} exceeds the limit of {max_vertices}", lineno)
            if m_declared > max_edges:
                raise GraphFormatError(
                    f"declared edge count {m_declared} exceeds the limit of {max_edges}", lineno)
        elif tokens[0] == "e":
            if n is None:
                raise GraphFormatError("edge before problem line", lineno)
            if len(tokens) != 3:
                raise GraphFormatError("expected 'e <u> <v>'", lineno)
            if len(edges) == max_edges:
                raise GraphFormatError(f"more than the limit of {max_edges} edges", lineno)
            u, v = read_int(tokens[1], lineno), read_int(tokens[2], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex id out of range in {line!r}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            edges.append((u - 1, v - 1))
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
        i = first_repeat([(u, v) if u < v else (v, u) for u, v in edges])
        # Named as its own line spells it, 1-based and in its own order.
        u, v = (int(t) for t in text.splitlines()[lines[i] - 1].split()[1:])
        raise GraphFormatError(f"duplicate edge ({u},{v})", lines[i]) from None


def parse_labelling(g: Graph, text: str) -> Labelling:
    """Parse "u v label" lines and check they cover every edge exactly once.

    A blank line that comes once every edge has a label ends the labelling,
    so the product report that ``prodlabel label`` prints after one is not
    read; an earlier blank line is skipped."""
    labels: list[int | None] = [None] * g.m
    labelled = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if labelled == g.m:
                break
            continue
        if line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise GraphFormatError(f"expected 'u v label', got {line!r}", lineno)
        u, v, lab = (read_int(tok, lineno) for tok in tokens)
        if lab not in LABELS:
            raise GraphFormatError(f"label {lab} outside {{1,2,3}}", lineno)
        row = g.adj[u] if u < g.n else []
        at = bisect_left(row, (v,))  # (v,) sorts just before every (v, edge id)
        if at == len(row) or row[at][0] != v:
            raise GraphFormatError(f"({u},{v}) is not an edge of the graph", lineno)
        eid = row[at][1]
        if labels[eid] is not None:
            raise GraphFormatError(f"edge ({u},{v}) labelled twice", lineno)
        labels[eid] = lab
        labelled += 1
    missing = [eid for eid, lab in enumerate(labels) if lab is None]
    if missing:
        u, v = g.edges[missing[0]]
        raise GraphFormatError(f"edge ({u},{v}) has no label ({len(missing)} missing)")
    return Labelling(labels)  # type: ignore[arg-type]  # no None is left
