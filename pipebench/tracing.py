"""Per-layer spans and counters, recorded from outside the package.

The tracer replaces module attributes that ``prodlabel`` looks up at call
time (``engine.build_valid_partition``, ``cli.parse_graph``, ...) with
wrappers that time each call.  A layer's self time is its spans' wall time
minus the time of the spans nested inside them.  Counters are read from
arguments and return values after the span closes, and the time they take
is charged to no layer.  A name the package no longer has is reported as
absent instead of failing the run, so the trace survives refactors.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    # (module, attribute or prefix*, layer or None for a bare count,
    #  name of the counter hook method or None)
    TARGETS = (
        ("prodlabel.cli", "main", "cli", None),
        ("prodlabel.cli", "parse_graph", "graph.parse", None),
        ("prodlabel.cli", "label_graph", "engine", None),
        ("prodlabel.cli", "find_conflicts", "labelling.verify", None),
        ("prodlabel.cli", "format_*", "labelling.format", None),
        ("prodlabel", "label_graph", "engine", None),
        ("prodlabel", "find_conflicts", "labelling.verify", None),
        ("prodlabel", "brute_force_min_k", "oracle", "_oracle_k"),
        ("prodlabel", "brute_force_labelling", "oracle", None),
        ("prodlabel.engine", "is_nice", "graph.components", None),
        ("prodlabel.engine", "connected_components", "graph.components", None),
        ("prodlabel.engine", "ComponentView", "graph.view", "_view"),
        ("prodlabel.engine", "build_valid_partition", "partition", "_parts"),
        ("prodlabel.engine", "run_upward_pass", "upward", "_swaps"),
        ("prodlabel.engine", "run_repair_pass", "repair", "_repair"),
        ("prodlabel.engine", "find_conflicts", "labelling.verify", None),
        ("prodlabel._kernels", "search_first_proper", None, "_search"),
    )

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.absent: list[str] = []     # wrapped names the package lacks
        self.broken: set[str] = set()   # counters whose hook no longer fits
        self._stack: list[float] = []   # child time of each open span
        self._saved: list[tuple[object, str, object]] = []
        # Captured before __enter__ wraps it, so counting is not traced.
        self._find_conflicts = getattr(importlib.import_module("prodlabel"), "find_conflicts", None)

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def __enter__(self) -> "Tracer":
        self.absent = []
        for modname, attr, layer, hook in self.TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{attr}")
                continue
            names = [a for a in dir(module) if a.startswith(attr[:-1])] if attr.endswith("*") else [attr]
            names = [a for a in names if callable(getattr(module, a, None))]
            if not names:
                self.absent.append(f"{modname}.{attr}")
            hook = getattr(self, hook) if hook else None
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, fn, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _wrap(self, layer, fn, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                stack.append(0.0)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    child = stack.pop()
                    self.calls[layer] += 1
                    self.self_s[layer] += elapsed - child
                    if stack:
                        stack[-1] += elapsed
            if hook is not None:
                self._count(hook, args, result)
            return result

        return traced

    def _count(self, hook, args, result) -> None:
        start = perf_counter()
        try:
            hook(args, result)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError):
            self.broken.add(hook.__name__.strip("_"))
        finally:
            if self._stack:
                self._stack[-1] += perf_counter() - start

    # Counter hooks: read arguments and return values after a span closes.

    def _parts(self, args, result):
        self.counters["partition.parts"] += result.t

    def _swaps(self, args, result):
        self.counters["upward.swaps"] += result.swaps

    def _view(self, args, result):
        self.counters["graph.view.edges_scanned"] += args[0].m

    def _oracle_k(self, args, result):
        self.counters[f"oracle.k.{result}"] += 1

    def _search(self, args, result):
        self.counters["oracle.searches"] += 1

    def _repair(self, args, result):
        self.counters["repair.components"] += len(result.component_vertices)
        for case, count in result.tally.items():
            self.counters[f"repair.case.{case}"] += count
        g, _, upward_labelling = args[:3]
        self.counters["repair.conflicts_in"] += len(self._find_conflicts(g, upward_labelling))
