"""Tests for the command-line interface.

Most cases call ``main()`` in-process for speed and capture stdout with
capsys; one subprocess test proves the module entry point works from a
cold interpreter.  Exit codes are part of the contract:

    0  success / graphs equivalent
    1  graphs not equivalent, or a rule audit failure
    2  unreadable input (parse error, missing file, bytes that are not
       UTF-8), bad command-line arguments, or a refused matrix output
    3  semantically invalid input (bad group, unreduced graph, ...)
    4  malformed gate script
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stabgraph import (
    StabilizerGraph,
    circuit_from_graph,
    format_circuit,
    format_graph,
    parse_circuit,
    parse_generator_matrix,
    parse_graph,
    stabilizer_check,
    statevector_from_circuit,
    statevector_from_graph,
    states_equal_up_to_global_phase,
)
from stabgraph import cli
from stabgraph.cli import main, parse_script, ScriptError
from stabgraph.oracle import MAX_QUBITS

G = StabilizerGraph.build

BELL_MATRIX = "+XX\n+ZZ\n"
BELL_GRAPH = "nodes 2\nnode 0 solid\nnode 1 hollow\nedge 0 1\n"


@pytest.fixture
def bell_graph_file(tmp_path):
    p = tmp_path / "bell.graph"
    p.write_text(BELL_GRAPH)
    return str(p)


@pytest.fixture
def bell_matrix_file(tmp_path):
    p = tmp_path / "bell.mat"
    p.write_text(BELL_MATRIX)
    return str(p)


# Inputs of the pinned conversions, in each --from format: Bell, GHZ, a
# seeded n=12 graph with loops, signs and hollow nodes
# (``helpers.sparse_graph(12, 3, 0.3)``) with its circuit and its
# matrix, a scrambled matrix of the same state (rows mixed by products and
# shuffled), and one input per format that is rejected.
CONVERT_INPUTS = {
    ("bell", "matrix"): BELL_MATRIX,
    ("bell", "graph"): BELL_GRAPH,
    ("bell", "circuit"): "qubits 2\nCZ 0 1\nH 1\n",
    ("ghz", "matrix"): "+XXX\n+ZZI\n+IZZ\n",
    ("ghz", "graph"): "nodes 3\nnode 0 solid\nnode 1 hollow\nnode 2 hollow\nedge 0 1\nedge 0 2\n",
    ("ghz", "circuit"): "qubits 3\nCZ 0 1\nCZ 0 2\nH 1\nH 2\n",
    ("n12", "graph"): (
        "nodes 12\n"
        "node 0 hollow neg\n"
        "node 1 solid loop neg\n"
        "node 2 hollow\n"
        "node 3 solid loop neg\n"
        "node 4 solid\n"
        "node 5 hollow\n"
        "node 6 hollow\n"
        "node 7 solid\n"
        "node 8 hollow neg\n"
        "node 9 hollow loop\n"
        "node 10 solid neg\n"
        "node 11 hollow\n"
        "edge 0 2\n"
        "edge 0 3\n"
        "edge 0 4\n"
        "edge 1 10\n"
        "edge 2 7\n"
        "edge 2 10\n"
        "edge 2 11\n"
        "edge 3 6\n"
        "edge 3 9\n"
        "edge 3 10\n"
        "edge 4 6\n"
        "edge 4 8\n"
        "edge 5 10\n"
        "edge 6 7\n"
        "edge 6 8\n"
        "edge 6 11\n"
        "edge 7 8\n"
    ),
    ("n12", "circuit"): (
        "qubits 12\n"
        "CZ 0 2\n"
        "CZ 0 3\n"
        "CZ 0 4\n"
        "CZ 1 10\n"
        "CZ 2 7\n"
        "CZ 2 10\n"
        "CZ 2 11\n"
        "CZ 3 6\n"
        "CZ 3 9\n"
        "CZ 3 10\n"
        "CZ 4 6\n"
        "CZ 4 8\n"
        "CZ 5 10\n"
        "CZ 6 7\n"
        "CZ 6 8\n"
        "CZ 6 11\n"
        "CZ 7 8\n"
        "Z 0\n"
        "Z 1\n"
        "Z 3\n"
        "Z 8\n"
        "Z 10\n"
        "S 1\n"
        "S 3\n"
        "S 9\n"
        "H 0\n"
        "H 2\n"
        "H 5\n"
        "H 6\n"
        "H 8\n"
        "H 9\n"
        "H 11\n"
    ),
    ("n12", "matrix"): (
        "-ZIXZZIIIIIII\n"
        "-IYIIIIIIIIZI\n"
        "+XIZIIIIZIIZX\n"
        "-XIIYIIXIIXZI\n"
        "+XIIIXIXIXIII\n"
        "+IIIIIZIIIIZI\n"
        "+IIIZZIZZXIIX\n"
        "+IIXIIIXXXIII\n"
        "-IIIIZIXZZIII\n"
        "-IIIZIIIIIYII\n"
        "-IZXZIXIIIIXI\n"
        "+IIXIIIXIIIIZ\n"
    ),
    ("n12 scrambled", "matrix"): (
        "-YZXYZXIXXXYI\n"
        "+IIIZZIZZXIIX\n"
        "+ZXIZIYZZXIXX\n"
        "-ZXXZIXYYIIYX\n"
        "+XIIIXIXIXIII\n"
        "-ZIXIIIZZXIIX\n"
        "+ZZYYIXZXIZXI\n"
        "-IIXZIIXIIYIZ\n"
        "-IZIZZXIYYIXI\n"
        "+IIIIIZIIIIZI\n"
        "-YZXYIXXYYXYI\n"
        "+XIZZZZZIXIII\n"
    ),
    ("invalid", "matrix"): "+XI\n+ZI\n",
    ("invalid", "graph"): "nodes 2\nnode 0 solid\nnode 1 solid\nedge 0 2\n",
    ("invalid", "circuit"): "qubits 2\nCZ 0 0\n",
}

# The first 16 hex digits of the sha256 of stdout of each valid input
# converted to each --to format: every one of them exits 0 and writes
# nothing to stderr.
CONVERT_PINNED = {
    ("bell", "matrix", "matrix"): "82a6dada7e9dcc3d",
    ("bell", "matrix", "graph"): "a049e9395388db65",
    ("bell", "matrix", "circuit"): "f910e44c441d9667",
    ("bell", "matrix", "dot"): "bc1148629379a9df",
    ("bell", "graph", "matrix"): "82a6dada7e9dcc3d",
    ("bell", "graph", "graph"): "a049e9395388db65",
    ("bell", "graph", "circuit"): "f910e44c441d9667",
    ("bell", "graph", "dot"): "bc1148629379a9df",
    ("bell", "circuit", "matrix"): "82a6dada7e9dcc3d",
    ("bell", "circuit", "graph"): "a049e9395388db65",
    ("bell", "circuit", "circuit"): "f910e44c441d9667",
    ("bell", "circuit", "dot"): "bc1148629379a9df",
    ("ghz", "matrix", "matrix"): "a92f7f55eb85b8ee",
    ("ghz", "matrix", "graph"): "328ccad6881d82a7",
    ("ghz", "matrix", "circuit"): "5dd677615d44a85b",
    ("ghz", "matrix", "dot"): "be8422ef44964be0",
    ("ghz", "graph", "matrix"): "9d57ed47feb754cc",
    ("ghz", "graph", "graph"): "328ccad6881d82a7",
    ("ghz", "graph", "circuit"): "5dd677615d44a85b",
    ("ghz", "graph", "dot"): "be8422ef44964be0",
    ("ghz", "circuit", "matrix"): "9d57ed47feb754cc",
    ("ghz", "circuit", "graph"): "328ccad6881d82a7",
    ("ghz", "circuit", "circuit"): "5dd677615d44a85b",
    ("ghz", "circuit", "dot"): "be8422ef44964be0",
    ("n12", "graph", "matrix"): "ee138fbfe84c6f17",
    ("n12", "graph", "graph"): "ad55b0f7f6cdd7bf",
    ("n12", "graph", "circuit"): "f94becf5bf24d80d",
    ("n12", "graph", "dot"): "ea2478e6ce05c7d9",
    ("n12", "circuit", "matrix"): "ee138fbfe84c6f17",
    ("n12", "circuit", "graph"): "ad55b0f7f6cdd7bf",
    ("n12", "circuit", "circuit"): "f94becf5bf24d80d",
    ("n12", "circuit", "dot"): "ea2478e6ce05c7d9",
    ("n12", "matrix", "matrix"): "ee138fbfe84c6f17",
    ("n12", "matrix", "graph"): "7918d805384514d1",
    ("n12", "matrix", "circuit"): "87f2ca77bc188692",
    ("n12", "matrix", "dot"): "24d327dc2bcd5105",
    ("n12 scrambled", "matrix", "matrix"): "b0ebd132d0ae3b56",
    ("n12 scrambled", "matrix", "graph"): "7918d805384514d1",
    ("n12 scrambled", "matrix", "circuit"): "87f2ca77bc188692",
    ("n12 scrambled", "matrix", "dot"): "24d327dc2bcd5105",
}
# The exit code and stderr of each rejected input, whatever --to says.
CONVERT_ERRORS = {
    "matrix": (3, "invalid input: rows 0 and 1 anticommute\n"),
    "graph": (2, "parse error: line 4, column 8: node id 2 out of range for nodes 2\n"),
    "circuit": (2, "parse error: line 2, column 4: CZ qubits must differ\n"),
}


class TestConvert:
    @pytest.mark.parametrize("dst", ["matrix", "graph", "circuit", "dot"])
    @pytest.mark.parametrize("state, src", list(CONVERT_INPUTS))
    def test_output_is_pinned(self, tmp_path, capsys, state, src, dst):
        path = tmp_path / "input.txt"
        path.write_text(CONVERT_INPUTS[state, src])
        rc = main(["convert", "--from", src, "--to", dst, "-i", str(path)])
        out, err = capsys.readouterr()
        if state == "invalid":
            assert (rc, err) == CONVERT_ERRORS[src] and out == ""
        else:
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            assert (rc, digest, err) == (0, CONVERT_PINNED[state, src, dst], "")

    def test_matrix_to_graph(self, bell_matrix_file, capsys):
        rc = main(["convert", "--from", "matrix", "--to", "graph", "-i", bell_matrix_file])
        assert rc == 0
        assert parse_graph(capsys.readouterr().out) == G(
            2, edges=[(0, 1)], hollow=[1]
        )

    def test_graph_to_circuit(self, bell_graph_file, capsys):
        rc = main(["convert", "--from", "graph", "--to", "circuit", "-i", bell_graph_file])
        assert rc == 0
        assert capsys.readouterr().out == "qubits 2\nCZ 0 1\nH 1\n"

    def test_circuit_to_matrix_preserves_state(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text("qubits 2\nCZ 0 1\nH 1\n")
        rc = main(["convert", "--from", "circuit", "--to", "matrix", "-i", str(src)])
        assert rc == 0
        m = parse_generator_matrix(capsys.readouterr().out)
        v = statevector_from_circuit(parse_circuit(src.read_text()))
        assert stabilizer_check(v, m.rows)

    def test_same_format_normalizes(self, tmp_path, capsys):
        src = tmp_path / "g.graph"
        src.write_text("nodes 1\n\nnode   0   solid\n")
        rc = main(["convert", "--from", "graph", "--to", "graph", "-i", str(src)])
        assert rc == 0
        assert capsys.readouterr().out == "nodes 1\nnode 0 solid\n"

    def test_dot_output(self, bell_graph_file, capsys):
        rc = main(["convert", "--from", "graph", "--to", "dot", "-i", bell_graph_file])
        assert rc == 0
        assert capsys.readouterr().out.startswith("graph stabilizer {")

    def test_output_file(self, bell_matrix_file, tmp_path):
        dst = tmp_path / "out.graph"
        rc = main(
            [
                "convert", "--from", "matrix", "--to", "graph",
                "-i", bell_matrix_file, "-o", str(dst),
            ]
        )
        assert rc == 0
        assert parse_graph(dst.read_text()) == G(2, edges=[(0, 1)], hollow=[1])

    def test_parse_error_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.mat"
        src.write_text("+XQ\n")
        assert main(["convert", "--from", "matrix", "--to", "graph", "-i", str(src)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(
            ["convert", "--from", "matrix", "--to", "graph", "-i", "/nonexistent.mat"]
        ) == 2

    def test_undecodable_bytes_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bin.graph"
        src.write_bytes(b"nodes 1\nnode 0 \xff\xfe solid\n")
        assert main(["reduce", "-i", str(src)]) == 2
        err = capsys.readouterr().err
        assert "unreadable input" in err and "Traceback" not in err

    def test_huge_node_count_exits_2(self, tmp_path, capsys):
        src = tmp_path / "huge.graph"
        src.write_text("nodes 100000000")
        assert main(["reduce", "-i", str(src)]) == 2
        err = capsys.readouterr().err
        assert "larger than the number of lines" in err and len(err) < 200

    @pytest.mark.parametrize("count", ["1048577", "99999999999999999999"])
    def test_qubit_count_above_the_cap_exits_2(self, tmp_path, capsys, count):
        src = tmp_path / "huge.circ"
        src.write_text(f"qubits {count}\n")
        assert main(["convert", "--from", "circuit", "--to", "graph", "-i", str(src)]) == 2
        msg = f"line 1, column 8: qubit count {count} is above the limit of 1048576"
        assert capsys.readouterr().err == f"parse error: {msg}\n"

    def test_qubit_count_at_the_cap_is_read(self, tmp_path, capsys):
        src = tmp_path / "cap.circ"
        src.write_text("qubits 1048576\n")
        assert main(["convert", "--from", "circuit", "--to", "circuit", "-i", str(src)]) == 0
        assert capsys.readouterr().out == "qubits 1048576\n"

    @pytest.mark.parametrize("src_fmt", ["circuit", "graph"])
    def test_matrix_output_above_the_cap_exits_2(self, tmp_path, capsys, src_fmt):
        n = cli.MAX_MATRIX_QUBITS + 1
        src = tmp_path / "wide.txt"
        g = StabilizerGraph.empty(n)
        src.write_text(format_circuit(circuit_from_graph(g)) if src_fmt == "circuit"
                       else format_graph(g))
        out = tmp_path / "wide.mat"
        argv = ["convert", "--from", src_fmt, "--to", "matrix", "-i", str(src), "-o", str(out)]
        assert main(argv) == 2
        err = "refused: a matrix of 4097 qubits is above the limit of 4096\n"
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_the_largest_circuit_is_refused_quickly(self, tmp_path, capsys):
        src = tmp_path / "huge.circ"
        src.write_text("qubits 1048576\n")
        t0 = time.perf_counter()
        assert main(["convert", "--from", "circuit", "--to", "matrix", "-i", str(src)]) == 2
        # Refused on the parsed count, before a graph or matrix is built.
        assert time.perf_counter() - t0 < 5.0
        assert "above the limit of 4096" in capsys.readouterr().err

    def test_matrix_output_at_the_cap_is_written(self, tmp_path, capsys, monkeypatch):
        # The real cap (4096 qubits) takes seconds, so a smaller one stands in.
        monkeypatch.setattr(cli, "MAX_MATRIX_QUBITS", 3)
        src = tmp_path / "ghz.graph"
        src.write_text(format_graph(G(3, edges=[(0, 1), (0, 2)], hollow=[1, 2])))
        assert main(["convert", "--from", "graph", "--to", "matrix", "-i", str(src)]) == 0
        assert capsys.readouterr().out == "+XXX\n+ZZI\n+ZIZ\n"
        src.write_text(format_graph(StabilizerGraph.empty(4)))
        assert main(["convert", "--from", "graph", "--to", "matrix", "-i", str(src)]) == 2

    def test_invalid_group_exits_3(self, tmp_path, capsys):
        src = tmp_path / "anti.mat"
        src.write_text("+XI\n+ZI\n")
        assert main(["convert", "--from", "matrix", "--to", "graph", "-i", str(src)]) == 3

    def test_million_letter_row_exits_3_quickly(self, tmp_path, capsys):
        src = tmp_path / "wide.mat"
        src.write_text("+" + "XZ" * 500_000 + "\n")
        t0 = time.perf_counter()
        rc = main(["convert", "--from", "matrix", "--to", "graph", "-i", str(src)])
        assert time.perf_counter() - t0 < 5.0  # linear decode: well under 0.1 s
        assert rc == 3
        assert capsys.readouterr().err == "invalid input: expected 1000000 rows, got 1\n"


class TestApply:
    def test_script_on_bell(self, bell_graph_file, capsys):
        rc = main(["apply", "-i", bell_graph_file, "--script", "H:0 CZ:0,1"])
        assert rc == 0
        out = parse_graph(capsys.readouterr().out)
        # H then CZ undoes the Bell ladder's tail: back to |+>|+>... the
        # state is checked, not the drawing.
        assert states_equal_up_to_global_phase(
            statevector_from_graph(out), statevector_from_graph(G(2))
        )

    def test_reduced_flag_keeps_reduced_output(self, bell_graph_file, capsys):
        rc = main(
            ["apply", "-i", bell_graph_file, "--script", "S:0 H:1", "--reduced"]
        )
        assert rc == 0
        parse_graph(capsys.readouterr().out)

    def test_reduced_flag_rejects_unreduced_input(self, tmp_path):
        src = tmp_path / "g.graph"
        src.write_text("nodes 1\nnode 0 hollow loop\n")
        rc = main(["apply", "-i", str(src), "--script", "H:0", "--reduced"])
        assert rc == 3

    def test_bad_script_exits_4(self, bell_graph_file, capsys):
        assert main(["apply", "-i", bell_graph_file, "--script", "H:0 T:1"]) == 4
        assert main(["apply", "-i", bell_graph_file, "--script", "CZ:1,1"]) == 4
        assert main(["apply", "-i", bell_graph_file, "--script", "H:9"]) == 4
        assert main(["apply", "-i", bell_graph_file, "--script", "H:\u0661"]) == 4
        assert main(["apply", "-i", bell_graph_file, "--script", "H:" + "9" * 5000]) == 4
        assert main(["apply", "-i", bell_graph_file, "--script", "CZ:" + "1" * 5000 + ",0"]) == 4


class TestReduce:
    def test_reduces(self, tmp_path, capsys):
        src = tmp_path / "g.graph"
        src.write_text("nodes 1\nnode 0 hollow loop\n")
        rc = main(["reduce", "-i", str(src)])
        assert rc == 0
        out = parse_graph(capsys.readouterr().out)
        assert out == G(1, loops=[0], neg=[0])


class TestEquiv:
    def test_equivalent_drawings_exit_0(self, tmp_path, capsys):
        a = tmp_path / "a.graph"
        b = tmp_path / "b.graph"
        a.write_text("nodes 2\nnode 0 solid\nnode 1 hollow\nedge 0 1\n")
        b.write_text("nodes 2\nnode 0 hollow\nnode 1 solid\nedge 0 1\n")
        assert main(["equiv", str(a), str(b)]) == 0
        assert "not" not in capsys.readouterr().out

    def test_different_states_exit_1(self, tmp_path, capsys):
        a = tmp_path / "a.graph"
        b = tmp_path / "b.graph"
        a.write_text("nodes 1\nnode 0 hollow\n")
        b.write_text("nodes 1\nnode 0 hollow neg\n")
        assert main(["equiv", str(a), str(b)]) == 1
        assert "not equivalent" in capsys.readouterr().out

    def test_size_mismatch_exits_3(self, tmp_path):
        a = tmp_path / "a.graph"
        b = tmp_path / "b.graph"
        a.write_text("nodes 1\nnode 0 solid\n")
        b.write_text("nodes 2\nnode 0 solid\nnode 1 solid\n")
        assert main(["equiv", str(a), str(b)]) == 3


class TestVerify:
    def test_small_audit_passes(self, capsys):
        rc = main(["verify", "--n", "4", "--cases", "24", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        for tag in ("T1", "T(iv)", "T(x)", "E1", "E(ii)"):
            assert tag in out
        assert "FAIL" not in out


    def test_cases_below_one_is_rejected_with_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "4", "--cases", "-5"])
        assert exc.value.code == 2
        assert "--cases" in capsys.readouterr().err

    def test_n_below_one_is_rejected_with_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "0", "--cases", "4"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_n_above_the_oracle_cap_exits_2_before_any_audit(self, capsys, monkeypatch):
        def no_audit(**kwargs):
            raise AssertionError("the audit must not start")

        monkeypatch.setattr(cli, "audit_rules", no_audit)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", str(MAX_QUBITS + 1), "--cases", str(MAX_QUBITS + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err and f"dense-simulation cap of {MAX_QUBITS}" in err


class TestScriptParsing:
    def test_tokens(self):
        assert parse_script("H:0 CZ:0,1 S:1", 2) == [
            ("H", (0,)),
            ("CZ", (0, 1)),
            ("S", (1,)),
        ]

    def test_empty_script_is_empty(self):
        assert parse_script("", 2) == []
        assert parse_script("   ", 2) == []

    @pytest.mark.parametrize(
        "script",
        [
            "H:x", "CZ:0", "CZ:1,1", "H:5", "Q:0", "H:0,1",
            # Non-ASCII digits, and indices with more digits than int() reads.
            "H:\u0661", "CZ:0,\u0661",
            pytest.param("H:" + "9" * 5000, id="H:9x5000"),
            pytest.param("CZ:0," + "1" * 5000, id="CZ:0,1x5000"),
        ],
    )
    def test_rejects(self, script):
        with pytest.raises(ScriptError):
            parse_script(script, 2)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "stabgraph.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "convert" in proc.stdout and "equiv" in proc.stdout


class TestCachedParser:
    """``main`` reuses one parser per process.  Each call below must match,
    byte for byte, a fresh interpreter given the same arguments, whatever
    ran before it in this process."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps usage text to the terminal width; pin it for both
        # sides of the comparison.
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def in_process(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out.encode(), err.encode()

    @staticmethod
    def fresh(argv):
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "stabgraph.cli", *argv], capture_output=True, env=env
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_a_rejected_flag_leaves_no_trace(self, tmp_path, capsys):
        src = tmp_path / "g.graph"
        src.write_text("nodes 2\nnode 0 hollow loop\nnode 1 solid\nedge 0 1\n")
        script = ["--script", "H:0 CZ:0,1 S:1"]
        reduced = ["apply", "-i", str(src), *script, "--reduced"]
        got = self.in_process(reduced, capsys)
        assert got[0] == 3 and got == self.fresh(reduced)
        here, there = tmp_path / "here.graph", tmp_path / "there.graph"
        general = ["apply", "-i", str(src), *script]
        got = self.in_process(general + ["-o", str(here)], capsys)
        assert got == self.fresh(general + ["-o", str(there)])
        assert got[0] == 0
        assert here.read_bytes() == there.read_bytes()

    def test_an_argparse_rejection_leaves_no_trace(self, capsys):
        bad = ["verify", "--n", str(MAX_QUBITS + 1)]
        got = self.in_process(bad, capsys)
        assert got[0] == 2 and got == self.fresh(bad)
        good = ["verify", "--n", "2", "--cases", "1"]
        got = self.in_process(good, capsys)
        # One case per family leaves rules unexercised, which exits 1.
        assert got[1].startswith(b"rule") and got == self.fresh(good)

    def test_defaults_come_back_after_a_given_value(self, capsys):
        first = ["verify", "--n", "2", "--cases", "1"]
        assert self.in_process(first, capsys) == self.fresh(first)
        default = ["verify", "--cases", "1"]
        got = self.in_process(default, capsys)
        assert got == self.fresh(default)
        assert got == self.in_process(["verify", "--cases", "1", "--n", "6"], capsys)

    def test_a_later_monkeypatch_still_takes_effect(self, capsys, monkeypatch):
        main(["verify", "--n", "2", "--cases", "1"])
        calls = []

        def fake_audit(**kwargs):
            calls.append(kwargs)
            return []

        monkeypatch.setattr(cli, "audit_rules", fake_audit)
        assert main(["verify", "--n", "3", "--cases", "2", "--seed", "5"]) == 0
        assert calls == [{"max_n": 3, "graphs": 2, "seed": 5}]
