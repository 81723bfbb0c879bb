"""Edge labellings, per-vertex degree counts, and conflict detection.

Vertex products are never materialised: with labels in {1,2,3} the product of
incident labels is 2**d2 * 3**d3, so the pair (d2, d3) is a faithful and
overflow-free product key.
"""

from __future__ import annotations

from bisect import bisect_left

from .graph import Graph, GraphFormatError, read_int

LABELS = (1, 2, 3)


class Labelling:
    """Total mapping edge index -> label in {1,2,3}.

    Two labellings are equal when their label lists are; like a list, a
    labelling is mutable and so unhashable.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: list[int]):
        self.labels = labels

    def __eq__(self, other):
        if other.__class__ is not Labelling:
            return NotImplemented
        return self.labels == other.labels

    def __repr__(self) -> str:
        return f"Labelling(labels={self.labels!r})"

    @classmethod
    def all_ones(cls, g: Graph) -> "Labelling":
        return cls([1] * g.m)

    def copy(self) -> "Labelling":
        return Labelling(list(self.labels))

    def __getitem__(self, eid: int) -> int:
        return self.labels[eid]

    def __len__(self) -> int:
        return len(self.labels)

    def validate(self, g: Graph) -> None:
        if len(self.labels) != g.m:
            raise ValueError(f"labelling covers {len(self.labels)} edges, graph has {g.m}")
        for eid, lab in enumerate(self.labels):
            if lab not in LABELS:
                raise ValueError(f"edge {eid} has label {lab} outside {{1,2,3}}")


def degree_counts(g: Graph, l: Labelling) -> tuple[list[int], list[int]]:
    """Lists (d2, d3) over all vertices, recomputed from scratch after
    ``l.validate(g)`` (ValueError unless every edge has a label in {1,2,3})."""
    l.validate(g)
    d2, d3 = [0] * g.n, [0] * g.n
    for (u, v), lab in zip(g.edges, l.labels):
        if lab == 2:
            d2[u] += 1
            d2[v] += 1
        elif lab == 3:
            d3[u] += 1
            d3[v] += 1
    return d2, d3


def find_conflicts(g: Graph, l: Labelling) -> list[int]:
    """Edge indices whose endpoints have equal product keys, ascending.

    Empty exactly when the labelling is proper for incident products.
    """
    d2, d3 = degree_counts(g, l)
    return [eid for eid, (u, v) in enumerate(g.edges) if d2[u] == d2[v] and d3[u] == d3[v]]


class ProfileTracker:
    """Mutable (labelling, per-vertex d2/d3) pair with incremental updates.

    The pipeline relabels one edge at a time; updating the two endpoint
    profiles keeps every parity and degree query O(1).
    """

    __slots__ = ("g", "labelling", "d2", "d3")

    def __init__(self, g: Graph, labelling: Labelling | None = None):
        self.g = g
        self.labelling = labelling if labelling is not None else Labelling.all_ones(g)
        self.d2 = [0] * g.n
        self.d3 = [0] * g.n
        for eid, lab in enumerate(self.labelling.labels):
            if lab != 1:
                u, v = g.edges[eid]
                arr = self.d2 if lab == 2 else self.d3
                arr[u] += 1
                arr[v] += 1

    def label(self, eid: int) -> int:
        return self.labelling.labels[eid]

    def set(self, eid: int, lab: int) -> None:
        old = self.labelling.labels[eid]
        if old == lab:
            return
        u, v = self.g.edges[eid]
        if old == 2:
            self.d2[u] -= 1
            self.d2[v] -= 1
        elif old == 3:
            self.d3[u] -= 1
            self.d3[v] -= 1
        if lab == 2:
            self.d2[u] += 1
            self.d2[v] += 1
        elif lab == 3:
            self.d3[u] += 1
            self.d3[v] += 1
        self.labelling.labels[eid] = lab

    def key(self, v: int) -> tuple[int, int]:
        return (self.d2[v], self.d3[v])

    def is_mono1(self, v: int) -> bool:
        return self.d2[v] == 0 and self.d3[v] == 0


def format_labelling(g: Graph, l: Labelling) -> str:
    """One "u v label" line per edge, in edge-index order."""
    return "\n".join(f"{u} {v} {l.labels[eid]}" for eid, (u, v) in enumerate(g.edges)) + ("\n" if g.m else "")


def format_products(g: Graph, l: Labelling) -> str:
    """One "v d2 d3" line per vertex."""
    d2, d3 = degree_counts(g, l)
    return "\n".join(f"{v} {d2[v]} {d3[v]}" for v in range(g.n)) + ("\n" if g.n else "")


def parse_labelling(g: Graph, text: str) -> Labelling:
    """Parse "u v label" lines and check they cover every edge exactly once."""
    labels: list[int | None] = [None] * g.m
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
    missing = [eid for eid, lab in enumerate(labels) if lab is None]
    if missing:
        u, v = g.edges[missing[0]]
        raise GraphFormatError(f"edge ({u},{v}) has no label ({len(missing)} missing)")
    return Labelling([lab for lab in labels])  # type: ignore[list-item]
