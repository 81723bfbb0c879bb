"""Tests of the pipeline benchmark itself: python -m pytest pipebench -q"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def bench(workload: str, seed: int, trace: int) -> dict:
    with redirect_stdout(io.StringIO()):
        return run.run(workload, seed, seconds=0.3, trace=trace, scale=0.02)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    result = bench(workload, seed=3, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_with_the_same_seed(workload):
    deterministic = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
    first, second = (bench(workload, seed=11, trace=1)["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in deterministic} == {k: second[k]["value"] for k in deterministic}
    assert first["engine.calls"]["value"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    make = WORKLOADS[workload].make_pool
    first, second = make(random.Random(5), 0.02), make(random.Random(5), 0.02)
    assert first == second
    assert first != make(random.Random(6), 0.02)
    for n, edges in first:
        assert gen.is_nice(n, edges)
        assert all(0 <= u < v < n for u, v in edges)
        assert len(set(edges)) == len(edges)


def test_generator_sizes():
    n, edges = gen.tree_plus_chords(random.Random(1), 500, 1500)
    assert n == 500 and len(edges) == 1500
    n, edges = gen.many_components(random.Random(1), 40)
    assert 120 <= n <= 320 and gen.is_nice(n, edges)
    assert not gen.is_nice(4, [(0, 1), (2, 3)]) and gen.is_nice(3, [(0, 1), (1, 2)])


def test_checks_reject_wrong_outputs():
    n, edges = 3, [(0, 1), (1, 2)]                  # path 0-1-2
    assert check.check_labels(n, edges, [2, 2]) is None
    assert check.check_labels(n, edges, [1, 2]) == "1 edges join equal products"
    assert "outside" in check.check_labels(n, edges, [2, 4])
    good = "0 1 2\n1 2 2\n\n0 1 0\n1 2 0\n2 1 0\n"
    assert check.check_cli_output(n, edges, good) is None
    assert "reports" in check.check_cli_output(n, edges, good.replace("2 1 0", "2 0 1"))
    assert "does not match" in check.check_cli_output(n, edges, good.replace("1 2 2", "0 2 2"))
    k4 = gen.complete(4)
    labels = [1, 1, 1, 1, 2, 3]
    assert check.check_labels(*k4, labels) is None
    assert check.check_oracle(*k4, 3, labels, labels) is None
    assert "complete graph" in check.check_oracle(*k4, 2, labels, labels)
    assert "needed only" in check.check_oracle(n, edges, 3, [2, 2], [2, 2])
    assert "witness: label 3" in check.check_oracle(n, edges, 2, [2, 3], [2, 2])


def test_tracer_survives_missing_names_and_changed_results():
    sys.path.insert(0, str(HERE.parent / "src"))
    import prodlabel
    from tracing import Tracer

    class Renamed(Tracer):
        TARGETS = Tracer.TARGETS + (
            ("prodlabel.engine", "NoSuchView", "graph.view", "_view"),
            ("prodlabel._no_such_module", "search_first_proper", None, "_search"),
            ("prodlabel.engine", "is_nice", "graph.components", "_parts"),  # returns no .t
        )

    original = prodlabel.label_graph
    tracer = Renamed()
    with tracer:
        prodlabel.label_graph(prodlabel.Graph(*gen.complete(4)))
    assert prodlabel.label_graph is original
    assert tracer.absent == ["prodlabel.engine.NoSuchView", "prodlabel._no_such_module.search_first_proper"]
    assert tracer.broken == {"parts"}
    assert tracer.calls["engine"] == 1 and tracer.counters["partition.parts"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "small-stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
