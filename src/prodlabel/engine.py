"""End-to-end labelling pipeline: the three stages of the construction, then
the verdict from one count of the final labels.

The brute-force oracle and the random-graph generator live in
``prodlabel.oracle``, which ``prodlabel label`` never loads."""

from __future__ import annotations

from .graph import Graph
from .labelling import Labelling, conflicting_edges, degree_counts
from .partition import build_valid_partition
from .repair import run_repair_pass
from .upward import run_upward_pass


class PipelineReport:
    """Outcome of labelling one graph; the verdict is recomputed from the
    labels by the independent conflict scan, never trusted from the pipeline.

    ``part_of`` is the part (1..t) of each vertex in the valid partition of
    the whole graph, after the upward pass's swaps; it is None only when
    the graph has no edges.

    ``stats`` counts the construction's decisions under the keys README.md
    lists: ``upward.swaps``, ``upward.branch.<branch>``,
    ``repair.conflicts_in``, ``repair.components`` and
    ``repair.case.<case>``.  A count of 0 is left out: the key is absent.
    Each stage writes the keys under its own prefix: the upward pass the
    ``upward.*`` keys, the repair pass the ``repair.*`` keys.
    ``upward.swaps`` counts swaps made, not edges moved: a vertex that
    swaps an edge's ends and then swaps them back adds 2.

    ``products`` is the pair of lists (d2, d3) that the conflict scan
    counted from the labels, each vertex's product key.

    Two reports are equal when their labellings, partitions, conflict lists
    and stats are; ``products`` follows from the labelling, so neither
    equality nor ``repr`` reads it.
    """

    __slots__ = ("labelling", "part_of", "conflicts", "stats", "products")
    _FIELDS = __slots__[:4]

    def __init__(self, labelling: Labelling, part_of: list[int] | None,
                 conflicts: list[int], stats: dict[str, int],
                 products: tuple[list[int], list[int]]):
        self.labelling = labelling
        self.part_of = part_of
        self.conflicts = conflicts
        self.stats = stats
        self.products = products

    def __eq__(self, other):
        if other.__class__ is not PipelineReport:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"PipelineReport({fields})"

    @property
    def verified(self) -> bool:
        return not self.conflicts


def label_graph(g: Graph) -> PipelineReport:
    """Product-proper 3-labelling of a nice graph.

    The partition builder, the upward pass and the repair pass each run once
    over the whole graph.  Every step of the construction stays inside one
    connected component, so no per-component split is needed; isolated
    vertices land in part 1 and touch no edge.  A graph that is not nice is
    rejected by the partition builder with NotNiceError; a graph without
    edges is always nice.  The verdict comes from one count of the final
    labels, which the report keeps as ``products``.
    """
    labelling, part_of, stats = _construct(g) if g.m else (Labelling([]), None, {})
    d2, d3 = degree_counts(g, labelling)
    conflicts = conflicting_edges(g, d2, d3, range(g.m))
    return PipelineReport(labelling, part_of, conflicts, stats, (d2, d3))


def _construct(g: Graph) -> tuple[Labelling, list[int], dict[str, int]]:
    """The three stages on a graph with edges: the labelling, the partition
    after the upward pass's swaps, and the stats."""
    state, part_of, stats = run_upward_pass(g, *build_valid_partition(g))
    stats.update(run_repair_pass(g, part_of, state))
    return state.labelling, part_of, stats
