"""Golden digests of the command line's outputs on a seeded corpus.

Every request of ``corpus()`` runs through ``cli.main`` in this one
process, from a working directory that holds its input files under
relative names, so no record holds a temporary path.  A request's record
is its exit code and the first 16 hex digits of the SHA-256 of its
stdout, its stderr and its output file ("-" when it writes none), as
``test_cli.TestConvert`` pins its outputs.  ``golden_digests.txt`` holds
the records, one line each: a change to any output byte, exit code or
error message on the corpus changes a record.

The corpus runs at n in ``ORDER``, from 1 to 256, on both sides of
``graph._WALK_BELOW`` (32 rows) and ``pauli._PACKED_AT`` (32 qubits),
with rows above ``graph._bits``' unpack point.  The test starts from an
empty node-name table (``textio._NODE_NAMES``), and the order runs
small-n requests after large ones, so they read a table grown past
their n.  At each n it holds: ``apply`` under both rule families on
``helpers.random_word`` words; ``reduce``; ``equiv`` on an equal pair and
on a sign-flipped pair; ``convert`` for every format pair; and seeded
mutants of the graph, circuit, matrix and script texts, each rejected by
the reference parser of ``helpers`` (exit 2, or 4 for scripts).  One
``verify --n 4`` runs at the end.

Regenerate the file, only when an output is meant to change, with::

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
from pathlib import Path

from helpers import (
    parse_circuit_reference,
    parse_graph_reference,
    parse_script_reference,
    random_word,
    scrambled_group,
    sparse_graph,
)
from stabgraph import (
    ParseError,
    circuit_from_graph,
    flip_sign,
    format_circuit,
    format_generator_matrix,
    format_graph,
    to_reduced,
)
from stabgraph import textio
from stabgraph.cli import ScriptError, main

GOLDEN = Path(__file__).with_name("golden_digests.txt")

# Each large size is followed by smaller ones.
ORDER = (12, 256, 1, 64, 2, 33, 3, 32, 5, 31)

FORMATS = ("matrix", "graph", "circuit")
# Tokens a mutant puts in place of one of a text's tokens.
BAD_TOKENS = ("x", "-1", "00", "007", "١", "²", "edge", "node", "hollow", "loop", "neg", "CZ")
BAD_SCRIPT_TOKENS = (
    "H:", "CZ:0,0", "CZ:1", "X:0", "S:-1", "Z:١", "CZ:0,", "H:00", "h:0", "CZ:1,0,2"
)
MUTANTS = 3


def _word_text(word) -> str:
    return " ".join(f"{gate}:{','.join(map(str, targets))}" for gate, targets in word)


def _mutate_lines(text: str, n: int, rng: random.Random) -> str:
    """``text`` with one seeded defect: a token replaced, a line doubled,
    dropped or with its tokens reversed, or a stray line added."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    op = rng.randrange(5)
    if op == 0:
        toks = lines[k].split()
        t = rng.randrange(len(toks))
        toks[t] = rng.choice(BAD_TOKENS + (str(n), str(n + 7), str(10**20)))
        lines[k] = " ".join(toks)
    elif op == 1:
        lines.insert(k, lines[k])
    elif op == 2:
        del lines[k]
    elif op == 3:
        lines[k] = " ".join(reversed(lines[k].split()))
    else:
        lines.insert(k, rng.choice(("nod 0 solid", "edge 0", "H 0 1", "node 0 solid neg neg")))
    return "\n".join(lines) + "\n"


def _mutate_matrix(text: str, rng: random.Random) -> str:
    """``text`` with one seeded defect in a row: a bad letter or sign, a
    letter dropped, or no letters at all."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    row = lines[k]
    op = rng.randrange(4)
    c = rng.randrange(1, len(row))
    if op == 0:
        lines[k] = row[:c] + rng.choice("QxI١") + row[c + 1 :]
        if lines[k][c] == "I":  # a valid letter: make the row one too long
            lines[k] += "X"
    elif op == 1:
        lines[k] = rng.choice("*XZ") + row[1:]
    elif op == 2:
        lines[k] = row[:c] + row[c + 1 :]
    else:
        lines[k] = row[0]
    return "\n".join(lines) + "\n"


def _mutate_script(script: str, n: int, rng: random.Random) -> str:
    toks = script.split()
    k = rng.randrange(len(toks))
    toks[k] = rng.choice(BAD_SCRIPT_TOKENS + (f"H:{n}", f"CZ:0,{n + 3}", f"S:{10**20}"))
    return " ".join(toks)


def _rejected(parse, text: str, *args) -> bool:
    try:
        parse(text, *args)
    except (ParseError, ScriptError):
        return True
    return False


def _mutants(mutate, reference, text: str, rng: random.Random):
    """Up to ``MUTANTS`` seeded mutants of ``text`` that ``reference`` rejects."""
    out = []
    for _ in range(20 * MUTANTS):
        if len(out) == MUTANTS:
            break
        mutant = mutate(text, rng)
        if reference is None or _rejected(reference, mutant):
            out.append(mutant)
    return out


def _requests_at(n: int):
    """(name, argv, input files) of the corpus's requests at n."""
    rng = random.Random(1000 + n)
    tag = f"n{n:03d}"
    p = min(1.0, 6 / max(n - 1, 1))
    g = sparse_graph(n, n, p)
    r = sparse_graph(n, n + 1, p, reduced=True)
    reduced = to_reduced(g)
    solid = [j for j in range(n) if not reduced.hollow[j]] or [0]
    flipped = flip_sign(reduced, solid[len(solid) // 2])
    texts = {
        "graph": format_graph(g),
        "matrix": format_generator_matrix(scrambled_group(n, n)),
        "circuit": format_circuit(circuit_from_graph(g)),
    }
    files = {
        "g.graph": texts["graph"],
        "r.graph": format_graph(r),
        "reduced.graph": format_graph(reduced),
        "flipped.graph": format_graph(flipped),
        "g.matrix": texts["matrix"],
        "g.circuit": texts["circuit"],
    }
    word = _word_text(random_word(rng, n, 48))
    out = "out.txt"
    apply = ["apply", "--script", word, "-i"]
    yield f"{tag}/apply-general", apply + ["g.graph", "-o", out], files
    yield f"{tag}/apply-reduced", apply + ["r.graph", "--reduced", "-o", out], files
    yield f"{tag}/apply-reduced-unreduced-input", apply + ["g.graph", "--reduced"], files
    yield f"{tag}/reduce", ["reduce", "-i", "g.graph", "-o", out], files
    yield f"{tag}/equiv-equal", ["equiv", "g.graph", "reduced.graph"], files
    yield f"{tag}/equiv-sign-flipped", ["equiv", "g.graph", "flipped.graph"], files
    for src in FORMATS:
        for dst in FORMATS + ("dot",):
            argv = ["convert", "--from", src, "--to", dst, "-i", f"g.{src}", "-o", out]
            yield f"{tag}/convert-{src}-{dst}", argv, files
    def lines(text, rng):
        return _mutate_lines(text, n, rng)

    mutants = {
        "graph": _mutants(lines, parse_graph_reference, texts["graph"], rng),
        "circuit": _mutants(lines, parse_circuit_reference, texts["circuit"], rng),
        "matrix": _mutants(_mutate_matrix, None, texts["matrix"], rng),
    }
    for fmt, texts_ in mutants.items():
        for k, text in enumerate(texts_):
            argv = ["convert", "--from", fmt, "--to", "graph", "-i", "bad.txt"]
            yield f"{tag}/mutant-{fmt}-{k}", argv, {"bad.txt": text}
    scripts = _mutants(
        lambda t, rng: _mutate_script(t, n, rng),
        lambda t: parse_script_reference(t, n),
        word,
        rng,
    )
    for k, script in enumerate(scripts):
        argv = ["apply", "-i", "g.graph", "--script", script]
        yield f"{tag}/mutant-script-{k}", argv, files


def corpus():
    for n in ORDER:
        yield from _requests_at(n)
    yield "verify-n4", ["verify", "--n", "4"], {}


def _digest(data: str | None) -> str:
    if data is None:
        return "-"
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def records(workdir: Path) -> list[str]:
    """The record line of each corpus request, each run in ``workdir``."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        lines = []
        for name, argv, files in corpus():
            for path, text in files.items():
                Path(path).write_text(text, encoding="utf-8")
            Path("out.txt").unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            produced = Path("out.txt")
            file_text = produced.read_text(encoding="utf-8") if produced.exists() else None
            for stream in (out.getvalue(), err.getvalue(), file_text or ""):
                if str(workdir) in stream:
                    raise AssertionError(f"{name}: output holds the working directory")
            digests = " ".join(map(_digest, (out.getvalue(), err.getvalue(), file_text)))
            lines.append(f"{name} {rc} {digests}")
        return lines
    finally:
        os.chdir(here)


def test_every_record_is_the_golden_one(tmp_path, monkeypatch):
    monkeypatch.setattr(textio, "_NODE_NAMES", ([], {}))
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = records(tmp_path)
    assert [line.split()[0] for line in got] == [line.split()[0] for line in expected]
    changed = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not changed, f"{len(changed)} record(s) changed, first: {changed[0]}"


def test_the_corpus_covers_every_outcome():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    codes = {}
    for line in expected:
        name, rc = line.split()[:2]
        codes.setdefault(name.split("/")[-1].rstrip("-0123456789"), set()).add(int(rc))
    assert codes["mutant-graph"] == codes["mutant-circuit"] == codes["mutant-matrix"] == {2}
    assert codes["mutant-script"] == {4}
    assert codes["equiv-equal"] == {0} and codes["equiv-sign-flipped"] == {1}
    assert 3 in codes["apply-reduced-unreduced-input"]
    assert len(expected) == len(set(line.split()[0] for line in expected))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        sys.stdout.write("".join(line + "\n" for line in records(Path(d))))
