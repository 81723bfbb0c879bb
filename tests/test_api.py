"""The package's public names, and no definition the pipeline cannot reach.

Helpers that only tests use live in ``tests/spec.py``; a module-level
function or class in ``src/prodlabel`` must be reachable from ``cli.main``
or from a name in ``prodlabel.__all__``.
"""

import ast
from pathlib import Path

import prodlabel

PUBLIC = [
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
    "format_products",
    "label_graph",
    "parse_graph",
    "parse_labelling",
]


def test_public_names():
    assert sorted(prodlabel.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(prodlabel, name).__name__ == name


def package_definitions():
    """Every module-level function and class as (module, name), mapped to
    the names its body uses, and each name a module imports from a sibling
    mapped to where it comes from."""
    uses, imported = {}, {}
    for path in Path(prodlabel.__file__).parent.glob("*.py"):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[(module, alias.asname or alias.name)] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses[(module, node.name)] = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return uses, imported


def test_every_definition_is_reached():
    uses, imported = package_definitions()
    todo = [("cli", "main")] + [("__init__", name) for name in prodlabel.__all__]
    reached = set()
    while todo:
        key = todo.pop()
        while key in imported:
            key = imported[key]
        if key in uses and key not in reached:
            reached.add(key)
            todo.extend((key[0], name) for name in uses[key])
    assert ("cli", "main") in reached and ("repair", "fix_hub") in reached
    assert sorted(set(uses) - reached) == []
