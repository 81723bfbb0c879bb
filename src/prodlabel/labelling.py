"""Edge labellings, per-vertex degree counts, and conflict detection.

Vertex products are never materialised: with labels in {1,2,3} the product of
incident labels is 2**d2 * 3**d3, so the pair (d2, d3) is a faithful and
overflow-free product key.
"""

from __future__ import annotations

from .graph import Graph

LABELS = frozenset((1, 2, 3))


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

    def validate(self, g: Graph) -> None:
        if len(self.labels) != g.m:
            raise ValueError(f"labelling covers {len(self.labels)} edges, graph has {g.m}")
        if not LABELS.issuperset(self.labels):
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


def conflicting_edges(g: Graph, d2: list[int], d3: list[int], eids) -> list[int]:
    """The ids in ``eids`` whose two ends have equal (d2, d3), in the order given."""
    edges = g.edges
    return [eid for eid in eids for u, v in (edges[eid],) if d2[u] == d2[v] and d3[u] == d3[v]]


def find_conflicts(g: Graph, l: Labelling) -> list[int]:
    """Edge indices whose endpoints have equal product keys, ascending.

    Empty exactly when the labelling is proper for incident products.
    """
    return conflicting_edges(g, *degree_counts(g, l), range(g.m))


class ProfileTracker:
    """Mutable (labelling, per-vertex d2/d3) pair with incremental updates.

    The pipeline relabels one edge at a time; updating the two endpoint
    profiles keeps every parity and degree query O(1).  The tracker takes
    the labelling and its degree counts as given and updates all three in
    place; the counts must be those of the labelling.
    """

    __slots__ = ("g", "labelling", "d2", "d3")

    def __init__(self, g: Graph, labelling: Labelling, d2: list[int], d3: list[int]):
        self.g = g
        self.labelling = labelling
        self.d2 = d2
        self.d3 = d3

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
    return "".join([f"{u} {v} {lab}\n" for (u, v), lab in zip(g.edges, l.labels)])


def format_counts(d2: list[int], d3: list[int]) -> str:
    """One "v d2 d3" line per vertex, from the labelling's degree counts."""
    return "".join([f"{v} {a} {b}\n" for v, a, b in zip(range(len(d2)), d2, d3)])
