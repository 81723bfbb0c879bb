import errno
import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import prodlabel.cli
import prodlabel.engine
import prodlabel.graph
import prodlabel.oracle
from prodlabel import InvariantViolation, parse_graph
from prodlabel.cli import main
from prodlabel.oracle import random_nice_graph

from test_partition import BROKEN_STARTS, break_greedy_start

K3 = "0 1\n0 2\n1 2\n"
K2 = "0 1\n"
P3 = "0 1\n1 2\n"
P5 = "0 1\n1 2\n2 3\n3 4\n"
K3_DIMACS = "c triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
# The oracle visits 1,120 search nodes on K10.
K10 = "".join(f"{i} {j}\n" for i in range(10) for j in range(i + 1, 10))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(data: bytes):
    """A stdin over ``data``, set up as a C locale sets it up: UTF-8 text
    with ``surrogateescape``, and the bytes under it in ``.buffer``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


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
    assert parse_graph(saved) == parse_graph(content)


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
        assert code == 1 and err.startswith("input error: cannot read no_such_file.edges: [Errno 2]")

    def test_file_not_utf8_exit_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"\xff0 1\n1 2\n")
        code, out, err = run_cli(capsys, "label", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"input error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")

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
        monkeypatch.setattr(sys, "stdin", stdin_of(K3.encode()))
        code, out, _ = run_cli(capsys, "label", "-")
        assert code == 0 and out.startswith("0 1 1")

    def test_stdin_not_utf8_exit_1(self, capsys, monkeypatch):
        # Read by the rule a file is read by, not by the locale's text layer.
        monkeypatch.setattr(sys, "stdin", stdin_of(b"\xff0 1\n1 2\n"))
        code, out, err = run_cli(capsys, "label", "-")
        assert code == 1 and out == ""
        assert err.startswith("input error: cannot read -: 'utf-8' codec can't decode byte 0xff")

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
        # The final labels are counted once: label_graph's verdict recount,
        # whose counts the product report prints.  find_conflicts counts
        # through labelling.degree_counts too.
        calls = []

        def counted(count):
            def wrapper(g, l):
                calls.append(g)
                return count(g, l)
            return wrapper

        for module in (prodlabel.labelling, prodlabel.engine, prodlabel.cli):
            if hasattr(module, "degree_counts"):
                monkeypatch.setattr(module, "degree_counts", counted(module.degree_counts))
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

    def test_both_inputs_from_stdin_exit_1(self, capsys, monkeypatch):
        # Nothing is read: a second read of stdin would find it empty.
        monkeypatch.setattr(sys, "stdin", stdin_of(P3.encode()))
        code, out, err = run_cli(capsys, "verify", "-", "-")
        assert code == 1 and out == ""
        assert err == "input error: only one input can come from stdin\n"
        assert sys.stdin.read() == P3

    def test_labelling_from_stdin(self, tmp_path, capsys, monkeypatch):
        g = write(tmp_path, "k3.edges", K3)
        monkeypatch.setattr(sys, "stdin", stdin_of(b"0 1 1\n0 2 3\n1 2 2\n"))
        assert run_cli(capsys, "verify", g, "-") == (0, "ok\n", "")

    def test_label_output_verifies(self, tmp_path, capsys):
        g = write(tmp_path, "k3.edges", K3)
        out_file = str(tmp_path / "labels.txt")
        run_cli(capsys, "label", g, "--out", out_file)
        labels_only = "".join(
            line + "\n" for line in Path(out_file).read_text().split("\n\n")[0].splitlines())
        l = write(tmp_path, "roundtrip.labels", labels_only)
        code, _, _ = run_cli(capsys, "verify", g, l)
        assert code == 0

    @pytest.mark.parametrize("content", [K3, "0 1\n1 2\n2 3\n3 4\n", "n 3\n"],
                             ids=["k3", "p5", "edgeless"])
    def test_whole_label_output_verifies(self, tmp_path, capsys, content):
        # The product report after the blank line is not read as labels.
        g = write(tmp_path, "g.edges", content)
        out_file = str(tmp_path / "out.txt")
        assert run_cli(capsys, "label", g, "--out", out_file)[0] == 0
        assert "\n\n" in "\n" + Path(out_file).read_text()
        code, out, err = run_cli(capsys, "verify", g, out_file)
        assert (code, out, err) == (0, "ok\n", "")


class TestOracleCommand:
    def test_k3(self, tmp_path, capsys):
        path = write(tmp_path, "k3.edges", K3)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and out == "chi_P = 3\n"

    def test_p3(self, tmp_path, capsys):
        path = write(tmp_path, "p3.edges", P3)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and out == "chi_P = 2\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", stdin_of(K3.encode()))
        assert run_cli(capsys, "oracle", "-") == (0, "chi_P = 3\n", "")

    def test_k2_needs_more_than_three(self, tmp_path, capsys):
        path = write(tmp_path, "k2.edges", K2)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and out == "chi_P > 3\n"

    def test_path_17_needs_three(self, tmp_path, capsys):
        edges = "".join(f"{i} {i + 1}\n" for i in range(17))
        path = write(tmp_path, "long.edges", edges)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0 and out == "chi_P = 3\n"

    def test_internal_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # An InvariantViolation that no command catches reaches main's own
        # handler: exit 3, one line on stderr, no traceback.
        monkeypatch.setattr(prodlabel.oracle, "brute_force_min_k", broken)
        path = write(tmp_path, "k3.edges", K3)
        code, out, err = run_cli(capsys, "oracle", path)
        assert (code, out) == (3, "")
        assert err == "internal error: vertex 0 in part 3 ended with profile (0,0)\n"

    def test_budget_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(prodlabel.oracle, "ORACLE_NODE_BUDGET", 1000)
        path = write(tmp_path, "k10.edges", K10)
        code, out, err = run_cli(capsys, "oracle", path)
        assert code == 1 and out == ""
        assert "budget" in err and "Traceback" not in err

    def test_not_nice_answers_at_once(self, tmp_path, capsys):
        # K20 beside an isolated edge: no labelling exists, and the oracle
        # says so without a search (searched, it ran out of budget).
        k20 = "".join(f"{i} {j}\n" for i in range(20) for j in range(i + 1, 20))
        path = write(tmp_path, "g.edges", k20 + "20 21\n")
        assert run_cli(capsys, "oracle", path) == (0, "chi_P > 3\n", "")


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


@pytest.mark.parametrize("argv", [
    ["label", "-"], ["verify", "-", "k3.edges"], ["verify", "k3.edges", "-"], ["oracle", "-"],
], ids=["label", "verify-graph", "verify-labelling", "oracle"])
def test_closed_stdin_exit_1(tmp_path, capsys, monkeypatch, argv):
    # The interpreter sets sys.stdin to None when file descriptor 0 is closed.
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "k3.edges", K3)
    monkeypatch.setattr(sys, "stdin", None)
    assert run_cli(capsys, *argv) == (1, "", "input error: cannot read -: stdin is closed\n")


def test_usage_errors_exit_1(capsys):
    # argparse's own exit code 2 would read as "graph not nice".
    for argv in (["label"], ["bogus"], ["oracle", "--kmax", "3", "-"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "usage: prodlabel" in err, argv
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "usage: prodlabel" in out


def test_output_errors_exit_1(tmp_path, capsys, monkeypatch):
    class Full(io.StringIO):  # stdout on a full disk
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.chdir(tmp_path)
    k3 = write(tmp_path, "k3.edges", K3)
    labels = write(tmp_path, "k3.labels", "0 1 1\n0 2 3\n1 2 2\n")
    commands = (["label", k3], ["verify", k3, labels], ["oracle", k3], ["fuzz", "--trials", "2"])
    monkeypatch.setattr(sys, "stdout", Full())
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "cannot write output: [Errno 28] No space left on device\n"), argv
    monkeypatch.setattr(sys, "stdout", None)  # stdout closed, as by >&-
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "cannot write output: stdout is closed\n"), argv
    assert run_cli(capsys, "label", k3, "--out", "k3.out")[:2] == (0, "")
    assert (tmp_path / "k3.out").read_text().startswith("0 1 ")


def fresh_env() -> dict:
    """The environment of a fresh interpreter that finds the package under
    test first on its path."""
    src = os.path.dirname(os.path.dirname(prodlabel.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_fresh(code: str, *flags: str) -> str:
    """What ``code`` prints in a fresh interpreter."""
    result = subprocess.run([sys.executable, *flags, "-c", code], env=fresh_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exit_1(tmp_path):
    """With stdout block-buffered on a full device, the failed flush inside
    main is reported once, and the interpreter's own flush at exit does not
    fail again on the bytes left in the buffer (which would print "Exception
    ignored" and exit 120)."""
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    graph = write(tmp_path, "p5.edges", P5)
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "prodlabel.cli", "label", graph],
                                env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert (result.returncode, result.stderr) == (
        1, "cannot write output: [Errno 28] No space left on device\n")


def test_imports_only_the_standard_library():
    """A fresh interpreter that imports the package and its CLI loads no
    module from outside the standard library."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import prodlabel, prodlabel.cli\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - sys.stdlib_module_names - {'prodlabel'}))\n")
    assert run_fresh(code) == "[]\n"


def test_cold_start_skips_dataclasses_and_inspect(tmp_path):
    """Importing the CLI and labelling the triangle with a pendant, in the
    library and by ``label --out`` on its canonical text, loads neither
    ``dataclasses`` nor ``inspect``, which pulls in ``ast``, ``dis`` and
    ``tokenize`` as well.  Nor does it load the oracle, the line readers,
    ``json``, ``random`` or ``bisect``: the first access to
    ``prodlabel.brute_force_min_k`` loads the oracle and keeps the name.
    ``-S`` leaves out the ``site`` module, so no installed ``.pth`` file
    can load any of them first."""
    graph, out = str(tmp_path / "g.edges"), str(tmp_path / "g.out")
    write(tmp_path, "g.edges", "n 4\n0 1\n0 2\n1 2\n2 3\n")
    code = ("import sys\n"
            "import prodlabel.cli\n"
            "g = prodlabel.Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])\n"
            "assert prodlabel.label_graph(g).verified\n"
            f"assert prodlabel.cli.main(['label', {graph!r}, '--out', {out!r}]) == 0\n"
            "print(sorted({'dataclasses', 'inspect', 'prodlabel.oracle', 'prodlabel.readers',\n"
            "              'json', 'random', 'bisect'} & set(sys.modules)))\n"
            "prodlabel.brute_force_min_k\n"
            "print('prodlabel.oracle' in sys.modules, 'brute_force_min_k' in vars(prodlabel))\n")
    assert run_fresh(code, "-S") == "[]\nTrue True\n"


# Each way out of main: (argv, exit code), run in a directory holding the
# files these argvs name.
EXITS = {
    "label": (["label", "k3"], 0),
    "label-missing": (["label", "missing"], 1),
    "label-parse-error": (["label", "bad"], 1),
    "label-not-nice": (["label", "k2"], 2),
    "label-internal": (["label", "k3"], 3),
    "verify-conflicts": (["verify", "p3", "p3.labels"], 3),
    "oracle-budget": (["oracle", "k10"], 1),
    "fuzz": (["fuzz", "--trials", "3", "--n", "8"], 0),
    "usage-error": (["label"], 1),
    "help": (["--help"], 0),
}
EXIT_FILES = {"k3": K3, "k2": K2, "k10": K10, "p3": P3, "bad": "0 zero\n", "p3.labels": "0 1 1\n1 2 1\n"}


class TestCollectorPause:
    """``main`` runs each command with the cyclic collector paused and
    gives the caller back the state it had, on every way out."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("name", EXITS)
    def test_state_restored(self, tmp_path, capsys, monkeypatch, collecting, name):
        monkeypatch.chdir(tmp_path)
        for file, content in EXIT_FILES.items():
            write(tmp_path, file, content)
        if name == "label-internal":
            monkeypatch.setattr(prodlabel.cli, "label_graph", broken)
        if name == "oracle-budget":
            monkeypatch.setattr(prodlabel.oracle, "ORACLE_NODE_BUDGET", 1000)
        argv, expected = EXITS[name]
        assert run_cli(capsys, *argv)[0] == expected
        assert gc.isenabled() == collecting

    def test_state_restored_after_uncaught_exception(self, tmp_path, monkeypatch, collecting):
        def crash(g):
            raise RuntimeError("crash")

        monkeypatch.setattr(prodlabel.cli, "label_graph", crash)
        path = write(tmp_path, "k3.edges", K3)
        with pytest.raises(RuntimeError, match="crash"):
            main(["label", path])
        assert gc.isenabled() == collecting

    def test_paused_inside_the_command(self, tmp_path, capsys, monkeypatch, collecting):
        seen = []

        def recording(g):
            seen.append(gc.isenabled())
            return prodlabel.engine.label_graph(g)

        monkeypatch.setattr(prodlabel.cli, "label_graph", recording)
        path = write(tmp_path, "k3.edges", K3)
        assert run_cli(capsys, "label", path)[0] == 0
        assert seen == [False]


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, monkeypatch):
    """What makes the pause safe: with the collector off, nothing a command
    leaves behind is kept alive by a reference cycle."""
    monkeypatch.chdir(tmp_path)
    k3, k2 = write(tmp_path, "k3.edges", K3), write(tmp_path, "k2.edges", K2)
    labels = str(tmp_path / "k3.out")
    real, raised = prodlabel.engine.label_graph, []

    def first_raises(g):
        if not raised:
            raised.append(g)
            raise RuntimeError("trial crash")
        return real(g)

    commands = [  # (argv, label_graph in place of the real one, exit code)
        (["label", k3, "--stats"], None, 0),
        (["label", k3, "--out", labels], None, 0),
        (["verify", k3, labels], None, 0),
        (["oracle", k3], None, 0),
        (["fuzz", "--trials", "3", "--n", "8"], first_raises, 3),
        (["label", k2], None, 2),
        (["label", "missing.edges"], None, 1),
        (["label", k3], broken, 3),
    ]
    run_cli(capsys, "label", k3)  # warm-up: caches, lazy imports
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for argv, label_graph, expected in commands:
            monkeypatch.setattr(prodlabel.cli, "label_graph", label_graph or real)
            assert run_cli(capsys, *argv)[0] == expected, argv
            assert gc.collect() == 0, argv
    finally:
        if was:
            gc.enable()
