"""The package's public names, and no definition the pipeline cannot reach.

Helpers that only tests use live in ``tests/spec.py``; a module-level
function or class in ``src/prodlabel`` must be reachable from ``cli.main``
or from a name in ``prodlabel.__all__``, every method and property of a
class must be read by the package itself, every unexported class lists
its fields in ``__slots__`` and the package reads each of them, and every
parameter default must be overridden by some call inside the package.
"""

import ast
from collections import defaultdict
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
    "label_graph",
    "parse_graph",
    "parse_labelling",
]


def test_public_names():
    assert sorted(prodlabel.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(prodlabel, name).__name__ == name


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(prodlabel.__file__).parent.glob("*.py")}


def package_definitions():
    """Every module-level function and class as (module, name), mapped to
    the names its body uses, and each name a module imports from a sibling
    mapped to where it comes from."""
    uses, imported = {}, {}
    for module, tree in package_trees().items():
        for node in tree.body:
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


def test_no_sibling_internals():
    """A module's underscore names stay in the module: no module of the
    package imports one from a sibling."""
    _, imported = package_definitions()
    assert sorted(f"{module} imports {source}.{name}" for (module, _), (source, name)
                  in imported.items() if name.startswith("_")) == []


def package_classes() -> dict[str, ast.ClassDef]:
    return {node.name: node for tree in package_trees().values()
            for node in tree.body if isinstance(node, ast.ClassDef)}


def classes_named(node, classes) -> set[str]:
    """The package classes an annotation or ``isinstance`` argument names."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in classes}


def test_no_parameter_takes_two_package_classes():
    """A parameter annotated with two package classes makes its function
    fork on which one it was given; each parameter takes one kind."""
    classes = package_classes()
    forks = [f"{module}.{func.name}({arg.arg})" for module, tree in package_trees().items()
             for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs
             if arg.annotation and len(classes_named(arg.annotation, classes)) > 1]
    assert forks == []


def attribute_reads(classes) -> dict[str, set[str]]:
    """Each attribute name the package reads, mapped to the classes whose
    instances the receiver may be.

    The receiver's classes are known for ``self`` (the enclosing class), an
    annotated parameter (the package classes it names, none for any other
    type), a name that ``isinstance`` tests, and a class name itself; any
    other receiver may be of every class.
    """
    reads: dict[str, set[str]] = defaultdict(set)
    for tree in package_trees().values():
        scopes = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        typed = set()
        for cls, func in scopes:
            params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            env = {a.arg: classes_named(a.annotation, classes) for a in params if a.annotation}
            if cls is not None and params:
                env[params[0].arg] = {cls}
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance" and isinstance(node.args[0], ast.Name)):
                    name = node.args[0].id
                    env[name] = env.get(name, set()) | classes_named(node.args[1], classes)
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    typed.add(node)
                    receiver = node.value
                    if isinstance(receiver, ast.Name) and receiver.id in env:
                        reads[node.attr] |= env[receiver.id]
                    elif isinstance(receiver, ast.Name) and receiver.id in classes:
                        reads[node.attr].add(receiver.id)
                    else:
                        reads[node.attr] |= set(classes)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node not in typed:
                reads[node.attr] |= set(classes)
    return reads


def test_every_method_is_read():
    classes = package_classes()
    reads = attribute_reads(classes)
    unread = [f"{name}.{node.name}" for name, cls in classes.items() for node in cls.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
              and name not in reads.get(node.name, ())]
    assert unread == []


def slot_fields(cls: ast.ClassDef) -> list[str]:
    """The entries of a class's ``__slots__``; empty when it declares none."""
    return [name for node in cls.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def test_every_field_is_read():
    """A field is an entry of ``__slots__``.  The exported classes
    (``Graph``, ``PipelineReport``, ``Labelling``) are exempt: callers
    outside the package read their fields.  Every other class declares
    ``__slots__``, so none of its fields escapes the check."""
    classes = package_classes()
    reads = attribute_reads(classes)
    unexported = {name: slot_fields(cls) for name, cls in classes.items()
                  if name not in prodlabel.__all__}
    assert sorted(name for name, fields in unexported.items() if not fields) == []
    assert "ProfileTracker" in unexported and "ConflictComponent" in unexported
    unread = [f"{name}.{field}" for name, fields in unexported.items() for field in fields
              if name not in reads.get(field, ())]
    assert unread == []


def test_every_default_is_passed():
    """``cli.main`` is exempt: the console script and ``python -m`` call it."""
    trees = package_trees()
    functions = []  # (name calls use, whether calls leave out self, def)
    for module, tree in trees.items():
        methods = {}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        methods[node] = cls.name if node.name == "__init__" else node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (module, node.name) != ("cli", "main"):
                functions.append((methods.get(node, node.name), node in methods, node))
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)

    def passed(call, param, position):
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return position is not None and len(call.args) > position

    never = []
    for name, method, func in functions:
        positional = func.args.posonlyargs + func.args.args
        defaulted = [(a.arg, positional.index(a) - method)
                     for a in positional[len(positional) - len(func.args.defaults):]]
        defaulted += [(a.arg, None) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
                      if d is not None]
        for param, position in defaulted:
            if not any(passed(call, param, position) for call in calls[name]):
                never.append(f"{name}({param}=)")
    assert never == []
