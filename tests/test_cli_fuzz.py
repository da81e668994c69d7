"""Hostile input for the command-line interface.

Every run of ``main``, whatever its arguments and files, must end with one
of the documented exit codes (0-4) and no traceback: argparse's own
``SystemExit`` counts as its code, and no other exception may escape.  The
inputs are bounded: files of at most 2 KB, near-valid texts of at most 6
qubits, scripts of at most 16 tokens, and ``verify`` at ``--n`` <= 4 with
``--cases`` <= 2, so no example runs long.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabgraph import (
    circuit_from_graph,
    format_circuit,
    format_generator_matrix,
    format_graph,
    generator_matrix_from_graph,
    random_graph,
    to_reduced,
)
from stabgraph.cli import main

EXIT_CODES = {0, 1, 2, 3, 4}
COMMANDS = ("convert", "apply", "reduce", "equiv", "verify")
FORMATS = ("graph", "matrix", "circuit", "dot") * 3 + ("", "GRAPH", "json")
# Pieces of the three formats and of the script grammar, and a few others.
WORDS = (
    "nodes", "node", "edge", "solid", "hollow", "loop", "neg", "qubits", "CZ",
    "H", "S", "Z", "X", "+", "-", "I", "Y", "0", "1", "2", "5", "6", "7", "-1",
    "99999999999999999999", "\u0663", "#", "\t", " ", "\x00", "\u00a0",
)
SCRIPT_GATES = ("H", "S", "Z", "CZ", "X", "h", "")
SCRIPT_IDS = ("0", "1", "2", "3", "5", "6", "-1", "007", "99999999999999999999", "\u0663", "a", "")


def _valid_text(kind: str, n: int, seed: int, reduced: bool) -> str:
    g = random_graph(n, seed)
    if reduced:
        g = to_reduced(g)
    if kind == "matrix":
        return format_generator_matrix(generator_matrix_from_graph(g))
    if kind == "circuit":
        return format_circuit(circuit_from_graph(g))
    return format_graph(g)


@st.composite
def near_valid_text(draw, kind: str) -> str:
    """A ``kind`` text (graph, matrix or circuit) of 1-6 qubits with up to
    4 edits."""
    text = _valid_text(
        kind, draw(st.integers(1, 6)), draw(st.integers(0, 10**6)), draw(st.booleans())
    )
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 4)))):
        at = draw(st.sampled_from(range(max(len(lines), 1))))
        edit = draw(st.sampled_from(("drop", "copy", "word", "chars", "swap")))
        if not lines:
            lines.append(draw(st.sampled_from(WORDS)))
        elif edit == "drop":
            del lines[at]
        elif edit == "copy":
            lines.insert(at, lines[at])
        elif edit == "word":
            words = lines[at].split()
            words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(WORDS)))
            lines[at] = " ".join(words) + "\n"
        elif edit == "chars":
            line = lines[at]
            cut = draw(st.integers(0, len(line)))
            lines[at] = line[:cut] + draw(st.text(max_size=4)) + line[cut + 1 :]
        else:
            other = draw(st.sampled_from(range(len(lines))))
            lines[at], lines[other] = lines[other], lines[at]
    return "".join(lines)


@st.composite
def file_bytes(draw, kind: str) -> bytes:
    """A near-valid text of format ``kind`` (two times in three), random
    bytes, or loose format words."""
    branch = draw(st.sampled_from(("text", "text", "text", "text", "bytes", "words")))
    if branch == "bytes":
        return draw(st.binary(max_size=2048))
    if branch == "words":
        return " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=64))).encode("utf-8")
    return draw(near_valid_text(kind)).encode("utf-8")[:2048]


@st.composite
def script(draw) -> str:
    """Up to 16 tokens: half the scripts use only qubits 0 and 1 in well
    formed tokens, which every input of two or more qubits takes."""
    if draw(st.booleans()):
        clean = ("H:0", "S:0", "Z:0", "H:1", "S:1", "Z:1", "CZ:0,1", "CZ:1,0")
        return " ".join(draw(st.lists(st.sampled_from(clean), max_size=16)))
    tokens = []
    for _ in range(draw(st.integers(0, 16))):
        gate = draw(st.sampled_from(SCRIPT_GATES))
        ids = draw(st.lists(st.sampled_from(SCRIPT_IDS), min_size=1, max_size=3))
        sep = draw(st.sampled_from((",", ":", ";")))
        tokens.append(f"{gate}:{sep.join(ids)}" if draw(st.booleans()) else draw(st.text(max_size=6)))
    return " ".join(tokens)


def _verify_args(draw) -> list[str]:
    # Either a small bounded run, or values argparse refuses before any run.
    size = draw(st.sampled_from(("1", "2", "3", "4", "0", "-1", "13", "x", "")))
    cases = draw(st.sampled_from(("1", "2", "0", "-3", "x", "")))
    seed = draw(st.sampled_from(("0", "7", "-5", "99999999999999999999", "x")))
    return ["--n", size, "--cases", cases, "--seed", seed]


@st.composite
def argv(draw, paths: dict) -> tuple[list[str], str]:
    """Arguments from each subcommand's grammar, or loose tokens after a
    subcommand, and the format the input files should be near.  ``paths``
    maps a role to a path: "a" and "b" are input files, "missing" does not
    exist, "dir" is a directory, "out" is where an output may go."""
    path = st.sampled_from(("a", "a", "a", "b", "b", "missing", "dir")).map(paths.get)
    out = st.one_of(st.just([]), st.sampled_from(("out", "dir", "missing")).map(lambda r: ["-o", paths[r]]))
    command = draw(st.sampled_from(COMMANDS * 3 + ("", "bogus")))
    if draw(st.integers(0, 7)) == 0:
        loose = st.one_of(
            st.sampled_from(("-i", "-o", "--from", "--to", "--script", "--reduced", "--n",
                             "--cases", "--seed", "-h", "--", "-")),
            st.sampled_from(FORMATS), path, st.text(max_size=8),
        )
        args = [command] + draw(st.lists(loose, max_size=8))
        if command == "verify":
            # The last value of an option wins, so the run stays bounded.
            args += ["--n", "2", "--cases", "1"]
        return args, "graph"
    if command == "convert":
        src = draw(st.sampled_from(FORMATS))
        args = ["convert", "--from", src, "--to", draw(st.sampled_from(FORMATS)), "-i", draw(path)]
        return args + draw(out), src if src in ("matrix", "circuit") else "graph"
    if command == "apply":
        flag = ["--reduced"] if draw(st.booleans()) else []
        return ["apply", "-i", draw(path), "--script", draw(script())] + flag + draw(out), "graph"
    if command == "reduce":
        return ["reduce", "-i", draw(path)] + draw(out), "graph"
    if command == "equiv":
        return ["equiv", draw(path), draw(path)], "graph"
    if command == "verify":
        return ["verify"] + _verify_args(draw), "graph"
    return [command] + draw(st.lists(st.text(max_size=8), max_size=4)), "graph"


def run(args: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of one in-process ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse: bad arguments or --help
            code = exc.code
    return code, err.getvalue()


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_every_run_ends_with_a_documented_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {role: str(root / role) for role in ("a", "b", "missing", "out")}
        paths["dir"] = tmp
        args, kind = data.draw(argv(paths), label="argv")
        for role in ("a", "b"):
            Path(paths[role]).write_bytes(data.draw(file_bytes(kind), label=role))
        code, err = run(args)
    assert code in EXIT_CODES, (args, code, err)
    assert "Traceback" not in err, (args, err)
