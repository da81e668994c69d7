"""Differential and fuzz tests for the text parsers.

``parse_graph`` and ``parse_circuit`` split a line with ``str.split()`` and
compute a token's column only when they raise.  They are held to the
regex-token parsers they replaced (``tests/helpers.py``) on mutated
formatter output: both must return equal objects, or raise the same
exception class with the same text, line and column.

``parse_generator_matrix`` and ``cli.parse_script`` are fuzzed with text
biased towards their own tokens: whatever the text, a parser either returns
an object whose formatted text parses back to it and is a fixed point, or
raises one of its documented errors.
"""

from __future__ import annotations

import contextlib
import functools
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_circuit_reference, parse_graph_reference, parse_script_reference
from stabgraph import (
    InvariantError,
    ParseError,
    StabilizerGraph,
    circuit_from_graph,
    format_circuit,
    format_generator_matrix,
    format_graph,
    generator_matrix_from_graph,
    parse_circuit,
    parse_generator_matrix,
    parse_graph,
    random_graph,
)
from stabgraph import textio
from stabgraph.cli import ScriptError, parse_script

# Separators that split a line (str.isspace) and, for all but the tab, the
# space and U+3000, also end it (str.splitlines).
WHITESPACE = ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000", "\r\n", " "]
# Characters that are digits to str.isdigit (or to int()) but not ASCII.
ODD_DIGITS = ["²", "١", "٣"]
FLAG_WORDS = ["loop", "neg", "solid", "hollow"]


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # compared, never swallowed: any class must match
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


# The size of a node-name table grown past every n these tests use (at
# most 4098), so that it holds their out-of-range ids.
GROWN = 5000


@functools.cache
def _grown_table(size):
    """The node-name table as it is after growing from empty to ``size``;
    ``_node_names`` never changes a table it returned, so it can be shared."""
    with mock.patch.object(textio, "_NODE_NAMES", ([], {})):
        return textio._node_names(size)


@contextlib.contextmanager
def node_names(grown):
    """Run the block with a fresh node-name table (``grown`` 0), or with
    one that earlier calls grew to ``grown`` names."""
    with mock.patch.object(textio, "_NODE_NAMES", _grown_table(grown)):
        yield


# --- mutations of formatter output -----------------------------------------


def _insert_whitespace(draw, text):
    pos = draw(st.integers(0, len(text)))
    return text[:pos] + draw(st.sampled_from(WHITESPACE)) + text[pos:]


def _blank_line(draw, text):
    lines = text.split("\n")
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join(lines)


def _reorder_lines(draw, text):
    return "\n".join(draw(st.permutations(text.split("\n"))))


def _duplicate_line(draw, text):
    lines = text.split("\n")
    k = draw(st.integers(0, len(lines) - 1))
    lines.insert(draw(st.integers(0, len(lines))), lines[k])
    return "\n".join(lines)


def _delete_line(draw, text):
    lines = text.split("\n")
    del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines)


def _leading_zeros(draw, text):
    runs = [m.start() for m in re.finditer(r"[0-9]+", text)]
    if not runs:
        return text
    pos = draw(st.sampled_from(runs))
    # 5000 zeros are more digits than int() converts by default.
    return text[:pos] + "0" * draw(st.sampled_from([1, 3, 5000])) + text[pos:]


def _other_number(draw, text):
    runs = list(re.finditer(r"[0-9]+", text))
    if not runs:
        return text
    run = draw(st.sampled_from(runs))
    return text[: run.start()] + str(draw(st.integers(0, 50))) + text[run.end() :]


def _odd_digit(draw, text):
    digits = [m.start() for m in re.finditer(r"[0-9]", text)]
    if not digits:
        return text
    pos = draw(st.sampled_from(digits))
    return text[:pos] + draw(st.sampled_from(ODD_DIGITS)) + text[pos + 1 :]


def _line_endings(draw, text):
    """End every line with the same one of the other line breaks."""
    return text.replace("\n", draw(st.sampled_from(["\r", "\r\n", "\x0b", "\x1c", "\x85", "\u2028"])))


def _flags(draw, text):
    """Append a flag word, or one of the line's own flags, to a node line, or
    permute its tokens after the id (the fill and the flags)."""
    lines = text.split("\n")
    nodes = [k for k, line in enumerate(lines) if line.startswith("node ")] or [0]
    k = draw(st.sampled_from(nodes))
    toks = lines[k].split(" ")
    if draw(st.booleans()):
        toks.append(draw(st.sampled_from(FLAG_WORDS + toks[3:])))
    else:
        toks[2:] = draw(st.permutations(toks[2:]))
    lines[k] = " ".join(toks)
    return "\n".join(lines)


def _truncate(draw, text):
    return text[: draw(st.integers(0, len(text)))]


def _junk(draw, text):
    pos = draw(st.integers(0, len(text)))
    return text[:pos] + draw(st.text(min_size=1, max_size=3)) + text[pos:]


MUTATIONS = [
    _insert_whitespace,
    _line_endings,
    _blank_line,
    _reorder_lines,
    _duplicate_line,
    _delete_line,
    _leading_zeros,
    _other_number,
    _odd_digit,
    _flags,
    _truncate,
    _junk,
]


@st.composite
def mutated(draw, texts):
    """A text from ``texts`` after up to four random mutations."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 4))):
        text = draw(st.sampled_from(MUTATIONS))(draw, text)
    return text


def _formatted(format_text, max_n):
    """``format_text`` of a random graph on 1..max_n nodes."""
    return st.builds(
        lambda n, seed: format_text(random_graph(n, seed)),
        st.integers(1, max_n),
        st.integers(0, 10**6),
    )


GRAPH_TEXT = mutated(_formatted(format_graph, 40))
CIRCUIT_TEXT = mutated(_formatted(lambda g: format_circuit(circuit_from_graph(g)), 40))


class TestAgainstRegexTokenParsers:
    @settings(max_examples=400, deadline=None)
    @given(GRAPH_TEXT)
    def test_parse_graph(self, text):
        # Once with a fresh node-name table, and once with one grown past n.
        for grown in (0, GROWN):
            with node_names(grown):
                assert _outcome(parse_graph, text) == _outcome(parse_graph_reference, text)

    @settings(max_examples=400, deadline=None)
    @given(CIRCUIT_TEXT)
    def test_parse_circuit(self, text):
        assert _outcome(parse_circuit, text) == _outcome(parse_circuit_reference, text)

    @settings(max_examples=400, deadline=None)
    @given(GRAPH_TEXT)
    def test_a_parsed_graph_passes_the_constructor_checks(self, text):
        # parse_graph builds its result unchecked: what it accepts must be
        # what the public constructor would build, and pass _validate.
        try:
            g = parse_graph(text)
        except ParseError:
            return
        assert g == StabilizerGraph(g.n, g.hollow, g.loop, g.neg, g.adj)
        g._validate()

    def test_pinned_mutations(self):
        # Mutated texts with known outcomes: the comparison above covers
        # parsed graphs and errors alike.
        text = format_graph(random_graph(3, 1))
        spaced = text.replace(" ", "\u3000\t")
        assert _outcome(parse_graph, spaced)[0] == "ok"
        odd = text.replace("node 1", "node ١")
        want = (ParseError, "line 3, column 6: node id must be a non-negative integer, got '١'", 3, 6)
        assert _outcome(parse_graph, odd) == _outcome(parse_graph_reference, odd) == want
        no_first = "".join(line for line in text.splitlines(True) if not line.startswith("node 0 "))
        want = (ParseError, "line 1, column 1: missing node line(s) for 1 id(s): 0", 1, 1)
        assert _outcome(parse_graph, no_first) == want

    def test_qubit_count_cap(self):
        # A circuit header alone could ask for any number of qubits; the
        # count is capped at 2**20 before anything is allocated.
        at_cap = "qubits 1048576\n"
        assert _outcome(parse_circuit, at_cap) == _outcome(parse_circuit_reference, at_cap)
        assert parse_circuit(at_cap).n == 1 << 20
        for count in ("1048577", "99999999999999999999"):
            text = f"qubits {count}\n"
            msg = f"line 1, column 8: qubit count {count} is above the limit of 1048576"
            want = (ParseError, msg, 1, 8)
            assert _outcome(parse_circuit, text) == _outcome(parse_circuit_reference, text) == want

    def test_str_split_and_the_token_regex_agree_on_every_code_point(self):
        # parse_graph tokenizes with str.split() and finds a token's column
        # with re.finditer(r"\S+"); the two must cut at the same characters.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert every.split() == [m.group() for m in re.finditer(r"\S+", every)]


# --- the bulk checks and the line walker ------------------------------------

G = StabilizerGraph.build
# int() converts at most 4300 digits, on the Pythons that limit it.
FOUR_THOUSAND_DIGITS = "0" * 4299 + "1"
TOO_MANY_DIGITS = (
    "line 3, column 6: node id has too many digits (4301)"
    if hasattr(sys, "get_int_max_str_digits")
    else "line 3, column 6: node id 1 out of range for nodes 1"
)

# (text, the graph parse_graph returns, or the message of its ParseError).
# parse_graph checks a graph text's lines in bulk; only when those checks
# reject it does the line walker run, to name the first defect.
PINNED_GRAPH_TEXTS = {
    "interleaved node and edge lines": (
        "nodes 3\nedge 0 2\nnode 2 hollow\nnode 0 solid loop\nedge 1 2\nnode 1 solid neg\n",
        G(3, edges=[(0, 2), (1, 2)], hollow=[2], loops=[0], neg=[1]),
    ),
    "edges out of order": (
        "nodes 3\nnode 0 solid\nnode 1 solid\nnode 2 solid\nedge 1 2\nedge 0 2\nedge 0 1\n",
        G(3, edges=[(0, 1), (0, 2), (1, 2)]),
    ),
    "flags in the order neg loop": (
        "nodes 1\nnode 0 hollow neg loop\n",
        G(1, hollow=[0], loops=[0], neg=[0]),
    ),
    "a repeated flag": (
        "nodes 2\nnode 0 solid loop neg loop\nnode 1 solid\n",
        "line 2, column 23: bad or repeated node flag 'loop'",
    ),
    "more flags than a node can have": (
        "nodes 1\nnode 0 solid loop neg neg\n",
        "line 2, column 23: bad or repeated node flag 'neg'",
    ),
    "a 4300-digit id": (
        f"nodes 2\nnode 0 solid\nnode {FOUR_THOUSAND_DIGITS} solid\n",
        G(2),
    ),
    "a 4301-digit id": (
        f"nodes 1\nnode 0 solid\nnode 0{FOUR_THOUSAND_DIGITS} solid\n",
        TOO_MANY_DIGITS,
    ),
    "an edge line with 2 tokens": (
        "nodes 2\nnode 0 solid\nnode 1 solid\nedge 0\n",
        "line 4, column 1: edge line must be 'edge <i> <j>'",
    ),
    "an edge line with 4 tokens": (
        "nodes 2\nnode 0 solid\nnode 1 solid\nedge 0 1 1\n",
        "line 4, column 1: edge line must be 'edge <i> <j>'",
    ),
    "CRLF line breaks": (
        "nodes 2\r\nnode 0 solid\r\nnode 1 hollow\r\nedge 0 1\r\n",
        G(2, edges=[(0, 1)], hollow=[1]),
    ),
    "U+2028 line breaks": (
        "nodes 2\u2028node 0 solid\u2028node 1 hollow\u2028edge 0 1",
        G(2, edges=[(0, 1)], hollow=[1]),
    ),
    "ids with leading zeros": (
        "nodes 2\nnode 00 solid\nnode 01 hollow\nedge 000 1\n",
        G(2, edges=[(0, 1)], hollow=[1]),
    ),
    "a header with an extra token": (
        "nodes 2 3\nnode 0 solid\nnode 1 solid\n",
        "line 1, column 9: header must be exactly 'nodes <n>'",
    ),
    "a line of another kind": (
        "nodes 1\nnode 0 solid\nvertex 0\n",
        "line 3, column 1: expected 'node' or 'edge', got 'vertex'",
    ),
    "a node line with no fill": (
        "nodes 1\nnode 0\n",
        "line 2, column 1: node line needs an id and a fill",
    ),
    "a bad fill": (
        "nodes 1\nnode 0 shaded\n",
        "line 2, column 8: fill must be 'solid' or 'hollow', got 'shaded'",
    ),
    "a missing node line": (
        "nodes 3\nnode 0 solid\nnode 2 solid\n",
        "line 1, column 1: missing node line(s) for 1 id(s): 1",
    ),
    "a duplicate node line": (
        "nodes 2\nnode 1 solid\nnode 1 hollow\n",
        "line 3, column 6: duplicate node line for id 1",
    ),
    "a node id out of range": (
        "nodes 2\nnode 0 solid\nnode 2 solid\n",
        "line 3, column 6: node id 2 out of range for nodes 2",
    ),
    "a digit int() reads but the format does not": (
        "nodes 2\nnode 0 solid\nnode 1 solid\nedge 0 \u0661\n",
        "line 4, column 8: node id must be a non-negative integer, got '\u0661'",
    ),
    "a signed id": (
        "nodes 2\nnode 0 solid\nnode +1 solid\n",
        "line 3, column 6: node id must be a non-negative integer, got '+1'",
    ),
    "edge endpoints out of order": (
        "nodes 2\nnode 0 solid\nnode 1 solid\nedge 1 0\n",
        "line 4, column 6: edge endpoints must satisfy i < j, got 1 0",
    ),
    "an edge endpoint out of range": (
        "nodes 2\nnode 0 solid\nnode 1 solid\nedge 0 2\n",
        "line 4, column 8: node id 2 out of range for nodes 2",
    ),
    "a duplicate edge spelled with leading zeros": (
        "nodes 3\nnode 0 solid\nnode 1 solid\nnode 2 solid\nedge 0 1\nedge 1 2\nedge 00 01\n",
        "line 7, column 6: duplicate edge 0 1",
    ),
}


def _walker_spy():
    """Patch ``textio._walk_graph`` with a wrapper that records its calls."""
    calls = []

    def spy(lines, n):
        calls.append(n)
        return real(lines, n)

    real = textio._walk_graph
    return calls, mock.patch.object(textio, "_walk_graph", spy)


class TestBulkGraphChecks:
    @pytest.mark.parametrize("name", list(PINNED_GRAPH_TEXTS))
    def test_pinned_texts(self, name):
        text, want = PINNED_GRAPH_TEXTS[name]
        # Once with a fresh node-name table, and once with one grown past n.
        for grown in (0, GROWN):
            calls, spy = _walker_spy()
            with spy, node_names(grown):
                got = _outcome(parse_graph, text)
            assert got == _outcome(parse_graph_reference, text)
            if isinstance(want, StabilizerGraph):
                assert got == ("ok", want)
                assert not calls
            else:
                assert got[:2] == (ParseError, want)
                # A bad header is named before the body is read at all.
                assert len(calls) == (name != "a header with an extra token")

    @settings(max_examples=300, deadline=None)
    @given(GRAPH_TEXT)
    def test_the_walker_never_reads_a_text_the_bulk_checks_accept(self, text):
        calls, spy = _walker_spy()
        with spy:
            got = _outcome(parse_graph, text)
        if got[0] == "ok":
            assert not calls

    @pytest.mark.parametrize(
        "defect",
        [None, "shuffled", "duplicate edge", "duplicate node", "node id out of range"],
    )
    def test_a_text_of_several_batches(self, defect):
        # Lines are checked in batches; ids and edges must still be
        # distinct across them, and a defect in a later batch is found.
        rng = random.Random(3)
        n = 3000
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2000)}
        hollow = [j for j in range(n) if rng.random() < 0.5]
        g = G(n, edges=sorted(edges), hollow=hollow, loops=hollow[::3], neg=hollow[::2])
        lines = format_graph(g).splitlines()
        assert len(lines) > 1 + textio._BATCH_LINES
        if defect == "shuffled":
            body = lines[1:]
            rng.shuffle(body)
            lines[1:] = body
        elif defect == "duplicate edge":
            lines.append(lines[n + 1])  # the first edge again, in the last batch
        elif defect == "duplicate node":
            lines.append(lines.pop(n))  # node n-1 moves to the last batch...
            lines[-1] = lines[1]  # ...as a second line for node 0
        elif defect == "node id out of range":
            lines.append(f"edge 0 {n}")
        text = "\n".join(lines) + "\n"
        want = _outcome(parse_graph_reference, text)
        # Once with a fresh node-name table, and once with one grown past
        # n, which holds the out-of-range id.
        for grown in (0, GROWN):
            calls, spy = _walker_spy()
            with spy, node_names(grown):
                got = _outcome(parse_graph, text)
            assert got == want
            assert (got == ("ok", g)) == (defect in (None, "shuffled"))
            assert len(calls) == (got[0] != "ok")

    def test_a_text_only_the_bulk_checks_reject_is_an_invariant_error(self):
        text = format_graph(random_graph(5, 2))
        with mock.patch.object(textio, "_graph_in_bulk", lambda *args: None):
            with pytest.raises(InvariantError, match="bulk graph checks rejected"):
                parse_graph(text)


# --- fuzzing the matrix and script parsers ----------------------------------


def _format_script(gates):
    return " ".join(f"{name}:{','.join(map(str, targets))}" for name, targets in gates)


def _random_text(pieces, separators):
    """Pieces of a format and arbitrary characters, joined by its separators."""
    item = st.one_of(st.sampled_from(pieces), st.text(max_size=3))
    parts = st.lists(st.tuples(item, st.sampled_from(separators)), max_size=8)
    return parts.map(lambda parts: "".join(a + b for a, b in parts))


_GATE = st.one_of(
    st.tuples(st.sampled_from("HSZ"), st.tuples(st.integers(0, 3))),
    st.tuples(st.just("CZ"), st.tuples(st.integers(0, 3), st.integers(0, 3))),
)
MATRIX_TEXT = st.one_of(
    mutated(
        _formatted(lambda g: format_generator_matrix(generator_matrix_from_graph(g)), 6)
    ),
    _random_text(["+", "-", "−", "X", "Y", "Z", "I", "+XX", "+ZZ", "+Q"], ["", "\n", "\r\n", " "]),
)
SCRIPT_TEXT = st.one_of(
    mutated(st.lists(_GATE, max_size=6).map(_format_script)),
    _random_text(
        ["H:", "CZ:", "0", "1", "00", "4096", ",", ":", "H:0", "CZ:0,1", "١"],
        ["", " ", "\t", "\u3000"],
    ),
)


class TestScriptIdTable:
    """``parse_script`` reads ids from ``textio``'s node-name table of the
    names ``str(j)``, grown to the ids below n and below the script's
    length, and sends any other token to the token regex."""

    @pytest.mark.parametrize("grown", [0, GROWN], ids=["fresh", "grown"])
    @pytest.mark.parametrize("n", [1, 12, 4096, 4098])
    @pytest.mark.parametrize("text", [
        "H:0", "S:00", "Z:011", "H:11", "H:12", "CZ:0,11", "CZ:11,0", "CZ:3,3", "CZ:03,3",
        "CZ:0,12", "CZ:12,0", "CZ:1,2,3", "CZ:1", "CZ:,1", "CZ:1,", "H:1:2", "H:", "h:1",
        "X:1", "CZ:", "H:+1", "H:-1", "H: 1", "H:١", "H:1٣", "H:" + "9" * 5000,
        "H:4095", "H:4096", "H:4097", "H:04096", "CZ:4096,4095", "CZ:4097,4096",
        "CZ:4096,4096", "S:0 CZ:0,1 Z:1 CZ:1,0",
    ], ids=lambda t: t if len(t) < 40 else f"{t[:6]}...({len(t)} characters)")
    def test_same_as_the_token_walker(self, text, n, grown):
        # A fresh table, or one that earlier calls grew past n.
        with node_names(grown):
            assert _outcome(lambda t: parse_script(t, n), text) == _outcome(
                lambda t: parse_script_reference(t, n), text
            )

    def test_the_table_grows_to_the_ids_a_script_may_read(self, monkeypatch):
        monkeypatch.setattr(textio, "_NODE_NAMES", ([], {}))
        assert parse_script("H:0 H:6", 1000) == [("H", (0,)), ("H", (6,))]
        table = textio._NODE_NAMES
        names, ids = table
        assert len(names) == len(ids) == len("H:0 H:6")  # capped by the script's length
        assert parse_script("H:0", 2) == [("H", (0,))]
        assert textio._NODE_NAMES is table  # never shrinks
        parse_script("H:0 " * 100, 50)  # capped by n
        # Growing binds a new pair and leaves the one a reader holds whole.
        assert len(names) == len(ids) == 7
        assert textio._NODE_NAMES == ([str(j) for j in range(50)], {str(j): j for j in range(50)})


class TestFuzzedParsers:
    @settings(max_examples=200, deadline=None)
    @given(MATRIX_TEXT)
    def test_generator_matrix_parses_to_a_fixed_point_or_raises_value_error(self, text):
        try:
            mat = parse_generator_matrix(text)
        except ValueError:  # ParseError is a ValueError
            return
        out = format_generator_matrix(mat)
        assert parse_generator_matrix(out) == mat
        assert format_generator_matrix(parse_generator_matrix(out)) == out

    @settings(max_examples=200, deadline=None)
    @given(SCRIPT_TEXT, st.integers(1, 4))
    def test_script_parses_to_a_fixed_point_or_raises_script_error(self, text, n):
        # Every text also reads as the regex token walker reads it: the
        # same gates, or the same ScriptError message.
        got = _outcome(lambda t: parse_script(t, n), text)
        assert got == _outcome(lambda t: parse_script_reference(t, n), text)
        if got[0] is ScriptError:
            return
        gates = got[1]
        out = _format_script(gates)
        assert parse_script(out, n) == gates
        assert _format_script(parse_script(out, n)) == out
