"""Correctness checks on the pipeline's outputs, independent of prodlabel.

Products are compared as exact integers, as in the test suite's oracle, and
never through the package's ``find_conflicts`` or its parsers.  Each check
returns ``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

from gen import Edges


def exact_products(n: int, edges: Edges, labels: list[int]) -> list[int]:
    prod = [1] * n
    for (u, v), lab in zip(edges, labels):
        prod[u] *= lab
        prod[v] *= lab
    return prod


def check_labels(n: int, edges: Edges, labels: list[int], allowed=(1, 2, 3)) -> str | None:
    """A proper labelling: one allowed label per edge, ends of every edge
    with different products."""
    if len(labels) != len(edges):
        return f"{len(labels)} labels for {len(edges)} edges"
    bad = next((lab for lab in labels if lab not in allowed), None)
    if bad is not None:
        return f"label {bad} outside {set(allowed)}"
    prod = exact_products(n, edges, labels)
    clashes = sum(prod[u] == prod[v] for u, v in edges)
    if clashes:
        return f"{clashes} edges join equal products"
    return None


def check_cli_output(n: int, edges: Edges, text: str) -> str | None:
    """Output of `prodlabel label`: one "u v label" line per input edge in
    input order, a blank line, then one "v d2 d3" line per vertex."""
    lines = text.split("\n")
    if len(lines) != len(edges) + n + 2 or lines[len(edges)] != "" or lines[-1] != "":
        return f"{len(lines)} output lines for m={len(edges)}, n={n}"
    labels = []
    for (u, v), line in zip(edges, lines):
        tokens = line.split()
        if len(tokens) != 3 or (int(tokens[0]), int(tokens[1])) != (u, v):
            return f"edge line {line!r} does not match input edge ({u},{v})"
        labels.append(int(tokens[2]))
    reason = check_labels(n, edges, labels)
    if reason is not None:
        return reason
    prod = exact_products(n, edges, labels)
    for v, line in enumerate(lines[len(edges) + 1:-1]):
        tokens = line.split()
        if len(tokens) != 3 or int(tokens[0]) != v:
            return f"product line {line!r} is not for vertex {v}"
        if 2 ** int(tokens[1]) * 3 ** int(tokens[2]) != prod[v]:
            return f"vertex {v} reports {line!r} but its product is {prod[v]}"
    return None


def check_oracle(n: int, edges: Edges, k, witness, labels: list[int]) -> str | None:
    """The oracle's smallest k, its witness at that k, and the pipeline's labelling.

    The witness must be a proper labelling with labels 1..k.  Nice graphs
    need k = 1 without edges and 2 <= k <= 3 with edges (all-1 labels give
    every edge equal ends).  Complete graphs on n >= 3 vertices need 3: with
    labels 1 and 2 the n products would need n distinct counts of 2s in
    0..n-1, and no graph has both a vertex adjacent to all others and one
    adjacent to none.  A pipeline labelling that uses only labels 1..j
    proves k <= j.
    """
    reason = check_labels(n, edges, labels)
    if reason is not None:
        return f"pipeline: {reason}"
    if not edges:
        return None if k == 1 else f"oracle answered {k} on an edgeless graph"
    if k not in (2, 3):
        return f"oracle answered {k} on a nice graph"
    if k > max(labels):
        return f"oracle answered {k}, the pipeline needed only {max(labels)}"
    if k != 3 and n >= 3 and len(edges) == n * (n - 1) // 2:
        return f"oracle answered {k} on the complete graph K{n}"
    if witness is None:
        return f"oracle answered {k} without a witness"
    reason = check_labels(n, edges, witness, allowed=range(1, k + 1))
    return None if reason is None else f"oracle witness: {reason}"
