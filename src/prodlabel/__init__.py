"""Product-distinguishing {1,2,3} edge labellings for simple graphs."""

from .engine import PipelineReport, brute_force_labelling, brute_force_min_k, label_graph
from .graph import Graph, GraphFormatError, InvariantViolation, NotNiceError, parse_graph
from .labelling import (
    Labelling,
    find_conflicts,
    format_labelling,
    parse_labelling,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphFormatError",
    "InvariantViolation",
    "Labelling",
    "NotNiceError",
    "PipelineReport",
    "brute_force_labelling",
    "brute_force_min_k",
    "find_conflicts",
    "format_labelling",
    "label_graph",
    "parse_graph",
    "parse_labelling",
]
