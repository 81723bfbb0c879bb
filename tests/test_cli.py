import io
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import prodlabel.cli
import prodlabel.engine
import prodlabel.graph
from prodlabel import InvariantViolation, parse_graph
from prodlabel.cli import main
from prodlabel.engine import random_nice_graph

from test_partition import BROKEN_STARTS, break_greedy_start

K3 = "0 1\n0 2\n1 2\n"
K2 = "0 1\n"
P3 = "0 1\n1 2\n"
P5 = "0 1\n1 2\n2 3\n3 4\n"
K3_DIMACS = "c triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def broken(g):
    raise InvariantViolation("vertex 0 in part 3 ended with profile (0,0)")


def unverified(g):
    """The real labelling, reported as failing verification."""
    report = prodlabel.engine.label_graph(g)
    report.conflicts = [0]
    return report


def assert_repro(tmp_path, err, content):
    """``label`` named its repro file and saved the input graph in it."""
    assert "wrote label_fail.edges" in err
    saved = (tmp_path / "label_fail.edges").read_text()
    assert parse_graph(saved, "auto") == parse_graph(content, "auto")


class TestLabelCommand:
    def test_k3(self, tmp_path, capsys):
        path = write(tmp_path, "k3.edges", K3)
        code, out, _ = run_cli(capsys, "label", path)
        assert code == 0
        labelling, products = out.split("\n\n")
        assert labelling.splitlines() == ["0 1 1", "0 2 3", "1 2 2"]
        assert products.splitlines() == ["0 0 1", "1 1 0", "2 1 1"]

    def test_not_nice_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "k2.edges", K2)
        code, _, err = run_cli(capsys, "label", path)
        assert code == 2
        assert "not nice" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "label", "no_such_file.edges")
        assert code == 1

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "bad.edges", "0 zero\n")
        code, _, err = run_cli(capsys, "label", path)
        assert code == 1
        assert "line 1" in err

    def test_dimacs_input(self, tmp_path, capsys):
        path = write(tmp_path, "k3.col", K3_DIMACS)
        code, out, _ = run_cli(capsys, "label", path)
        assert code == 0
        assert out.splitlines()[0] == "0 1 1"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(K3))
        code, out, _ = run_cli(capsys, "label", "-")
        assert code == 0 and out.startswith("0 1 1")

    def test_out_file(self, tmp_path, capsys):
        path = write(tmp_path, "k3.edges", K3)
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "label", path, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("0 1 1")

    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "k3.edges", K3)
        target = tmp_path / "missing_dir" / "out.txt"
        code, out, err = run_cli(capsys, "label", path, "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("cannot write output: [Errno 2]")

    def test_too_many_edges_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(prodlabel.graph, "MAX_EDGES", 2)
        path = write(tmp_path, "k3.edges", K3)
        code, out, err = run_cli(capsys, "label", path)
        assert code == 1 and out == ""
        assert err == "input error: line 3: more than the limit of 2 edges\n"

    @pytest.mark.parametrize("content, stats", [
        (P5, {"repair.case.hub-2-many": 1, "repair.components": 1, "repair.conflicts_in": 4}),
        ("n 3\n", {}),
    ], ids=["p5", "edgeless"])
    def test_stats_one_json_line_on_stderr(self, tmp_path, capsys, content, stats):
        path = write(tmp_path, "g.edges", content)
        code, plain, _ = run_cli(capsys, "label", path)
        code_stats, out, err = run_cli(capsys, "label", path, "--stats")
        assert code == code_stats == 0 and out == plain
        assert err == json.dumps(stats, sort_keys=True) + "\n"

    def test_huge_declared_count_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "huge.edges", "n 99999999999\n0 1\n1 2\n")
        code, out, err = run_cli(capsys, "label", path)
        assert code == 1 and out == ""
        assert "exceeds the limit" in err

    def test_superscript_header_exit_1(self, tmp_path, capsys):
        # "²".isdigit() holds but int("²") raises ValueError.
        path = tmp_path / "sup.edges"
        path.write_text("n \u00b2\n0 1\n1 2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "label", str(path))
        assert code == 1 and out == ""
        assert err == "input error: line 1: malformed header, expected 'n <count>'\n"

    def test_underscore_id_exit_1(self, tmp_path, capsys):
        # int("1_0") is 10; an id must be ASCII digits only.
        path = write(tmp_path, "underscore.edges", "0 1\n0 1_0\n")
        code, out, err = run_cli(capsys, "label", path)
        assert code == 1 and out == ""
        assert err == "input error: line 2: malformed number '1_0'\n"

    def test_internal_error_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(prodlabel.cli, "label_graph", broken)
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, "k3.edges", K3)
        code, out, err = run_cli(capsys, "label", path)
        assert code == 3 and out == ""
        assert err.startswith("internal error: vertex 0")
        assert "Traceback" not in err
        assert_repro(tmp_path, err, K3)

    @pytest.mark.parametrize("name", sorted(BROKEN_STARTS))
    def test_broken_start_exit_3(self, tmp_path, capsys, monkeypatch, name):
        # A start that breaks one property; the builder's own validity checks
        # must report it as a broken construction.
        break_greedy_start(monkeypatch, name)
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, "p5.edges", P5)
        code, out, err = run_cli(capsys, "label", path)
        assert code == 3 and out == ""
        assert err.startswith("internal error:") and BROKEN_STARTS[name][1] in err
        assert "Traceback" not in err
        assert_repro(tmp_path, err, P5)

    def test_checker_runs_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(checker):
            def wrapper(g, l):
                calls.append(g)
                return checker(g, l)
            return wrapper

        for module in (prodlabel.engine, prodlabel.cli):
            monkeypatch.setattr(module, "find_conflicts", counted(module.find_conflicts))
        path = write(tmp_path, "k3.edges", K3)
        code, _, _ = run_cli(capsys, "label", path)
        assert code == 0 and len(calls) == 1

    def test_failed_verification_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(prodlabel.cli, "label_graph", unverified)
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, "k3.edges", K3)
        code, out, err = run_cli(capsys, "label", path)
        assert code == 3 and out == ""
        assert "labelling failed verification" in err
        assert_repro(tmp_path, err, K3)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "k3.edges", K3)
        _, out1, _ = run_cli(capsys, "label", path)
        _, out2, _ = run_cli(capsys, "label", path)
        assert out1 == out2


class TestVerifyCommand:
    def test_good_labelling(self, tmp_path, capsys):
        g = write(tmp_path, "k3.edges", K3)
        l = write(tmp_path, "k3.labels", "0 1 1\n0 2 3\n1 2 2\n")
        code, out, _ = run_cli(capsys, "verify", g, l)
        assert code == 0 and out == "ok\n"

    def test_conflicts_exit_3(self, tmp_path, capsys):
        g = write(tmp_path, "p3.edges", P3)
        l = write(tmp_path, "p3.labels", "0 1 1\n1 2 1\n")
        code, out, _ = run_cli(capsys, "verify", g, l)
        assert code == 3
        assert out.count("conflict") == 2

    def test_missing_edge_exit_1(self, tmp_path, capsys):
        g = write(tmp_path, "p3.edges", P3)
        l = write(tmp_path, "p3.labels", "0 1 2\n")
        code, _, err = run_cli(capsys, "verify", g, l)
        assert code == 1
        assert "no label" in err

    def test_bad_label_exit_1(self, tmp_path, capsys):
        g = write(tmp_path, "p3.edges", P3)
        l = write(tmp_path, "p3.labels", "0 1 5\n1 2 1\n")
        code, _, err = run_cli(capsys, "verify", g, l)
        assert code == 1

    def test_label_output_verifies(self, tmp_path, capsys):
        g = write(tmp_path, "k3.edges", K3)
        out_file = str(tmp_path / "labels.txt")
        run_cli(capsys, "label", g, "--out", out_file)
        labels_only = "".join(
            line + "\n" for line in open(out_file).read().split("\n\n")[0].splitlines())
        l = write(tmp_path, "roundtrip.labels", labels_only)
        code, _, _ = run_cli(capsys, "verify", g, l)
        assert code == 0


class TestOracleCommand:
    def test_k3(self, tmp_path, capsys):
        path = write(tmp_path, "k3.edges", K3)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and out == "chi_P = 3\n"

    def test_p3(self, tmp_path, capsys):
        path = write(tmp_path, "p3.edges", P3)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and out == "chi_P = 2\n"

    def test_k2_exceeds_kmax(self, tmp_path, capsys):
        path = write(tmp_path, "k2.edges", K2)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and out == "chi_P > 3\n"
        # Labels with a prime factor above 13.
        code, out, _ = run_cli(capsys, "oracle", path, "--kmax", "17")
        assert code == 0 and out == "chi_P > 17\n"

    def test_bound_exit_1(self, tmp_path, capsys):
        edges = "".join(f"{i} {i + 1}\n" for i in range(17))
        path = write(tmp_path, "long.edges", edges)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and out == "chi_P = 3\n"

    @pytest.mark.parametrize("content", ["n 3\n", P3], ids=["edgeless", "path"])
    def test_kmax_zero_exit_1(self, tmp_path, capsys, content):
        path = write(tmp_path, "g.edges", content)
        code, out, err = run_cli(capsys, "oracle", path, "--kmax", "0")
        assert code == 1 and out == ""
        assert "k_max must be positive" in err

    def test_budget_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(prodlabel.engine, "ORACLE_NODE_BUDGET", 1000)
        path = write(tmp_path, "k2.edges", K2)
        code, out, err = run_cli(capsys, "oracle", path, "--kmax", "1000000")
        assert code == 1 and out == ""
        assert "budget" in err and "Traceback" not in err


class TestFuzzCommand:
    def test_small_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "25", "--n", "12",
                               "--p", "0.3", "--seed", "5")
        assert code == 0
        assert "25/25 ok" in out

    def test_single_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "1", "--n", "1")
        assert code == 0 and "1/1 ok" in out

    def test_deterministic_summary(self, capsys, tmp_path, monkeypatch):
        # The trials' stats records, summed, as one JSON line.
        monkeypatch.chdir(tmp_path)
        args = ("fuzz", "--trials", "30", "--n", "14", "--p", "0.4", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        stats = Counter()
        for seed in range(9, 39):
            stats.update(prodlabel.engine.label_graph(random_nice_graph(14, 0.4, seed)).stats)
        assert stats["repair.components"] > 0
        assert out1 == out2 == "30/30 ok\n" + json.dumps(stats, sort_keys=True) + "\n"

    def test_too_many_vertex_pairs_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--trials", "1", "--n", "2897")
        assert code == 1 and out == ""
        assert err == "error: n = 2897 has more than the limit of 4194304 vertex pairs\n"

    def test_failed_verification_counts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(prodlabel.cli, "label_graph", unverified)
        code, out, err = run_cli(capsys, "fuzz", "--trials", "1", "--n", "6", "--p", "0.5")
        assert code == 3 and "0/1 ok" in out
        assert "trial 0 FAILED" in err and (tmp_path / "fuzz_fail_0.edges").exists()

    def test_unwritable_repro_does_not_stop_the_run(self, capsys, tmp_path, monkeypatch):
        # A directory in the repro file's place: open() fails even for root,
        # which permission bits would not stop.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(prodlabel.cli, "label_graph", broken)
        (tmp_path / "fuzz_fail_0.edges").mkdir()
        code, out, err = run_cli(capsys, "fuzz", "--trials", "3", "--n", "6", "--p", "0.5")
        assert code == 3 and "0/3 ok" in out
        assert "cannot write fuzz_fail_0.edges:" in err
        assert "trial 2 FAILED" in err and (tmp_path / "fuzz_fail_2.edges").is_file()

    def test_zero_trials_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--trials", "0")
        assert code == 1


def run_fresh(code: str, *flags: str) -> str:
    """What ``code`` prints in a fresh interpreter that finds the package
    under test first on its path."""
    src = os.path.dirname(os.path.dirname(prodlabel.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_imports_only_the_standard_library():
    """A fresh interpreter that imports the package and its CLI loads no
    module from outside the standard library."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import prodlabel, prodlabel.cli\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - sys.stdlib_module_names - {'prodlabel'}))\n")
    assert run_fresh(code) == "[]\n"


def test_cold_start_skips_dataclasses_and_inspect():
    """Importing the CLI and labelling the triangle with a pendant loads
    neither ``dataclasses`` nor ``inspect``, which pulls in ``ast``,
    ``dis`` and ``tokenize`` as well.  ``-S`` leaves out the ``site``
    module, so no installed ``.pth`` file can load them first."""
    code = ("import sys\n"
            "import prodlabel.cli\n"
            "g = prodlabel.Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])\n"
            "assert prodlabel.label_graph(g).verified\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    assert run_fresh(code, "-S") == "[]\n"
