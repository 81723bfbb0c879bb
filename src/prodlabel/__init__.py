"""Product-distinguishing {1,2,3} edge labellings for simple graphs.

``brute_force_min_k``, ``brute_force_labelling`` and ``parse_labelling``
load their modules (``prodlabel.oracle``, ``prodlabel.readers``) on first
access, so importing the package compiles only the construction.
"""

from .engine import PipelineReport, label_graph
from .graph import Graph, GraphFormatError, InvariantViolation, NotNiceError, parse_graph
from .labelling import Labelling, find_conflicts, format_labelling

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


def __getattr__(name: str):
    """The exports that load on first access (PEP 562).  Each is stored in
    the module's globals, so later lookups do not come back here."""
    if name == "brute_force_min_k":
        from .oracle import brute_force_min_k as value
    elif name == "brute_force_labelling":
        from .oracle import brute_force_labelling as value
    elif name == "parse_labelling":
        from .readers import parse_labelling as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
