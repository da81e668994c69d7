"""Tests for the text formats: parsing, formatting and diagnostics.

Formatting output is pinned byte-for-byte so the CLI stays stable;
parse errors are checked for exact line/column coordinates, since those
diagnostics are part of the interface.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    format_generator_matrix_reference,
    format_graph_reference,
    from_label_reference,
    label_reference,
    scrambled_group,
    sparse_graph,
)
from stabgraph import (
    GeneratorMatrix,
    ParseError,
    StabilizerGraph,
    circuit_from_graph,
    format_circuit,
    format_generator_matrix,
    format_graph,
    generator_matrix_from_graph,
    graph_from_generator_matrix,
    graph_to_dot,
    graphs_equivalent,
    parse_circuit,
    parse_generator_matrix,
    parse_graph,
    random_graph,
    to_canonical_form,
)

G = StabilizerGraph.build

BELL_GRAPH_TEXT = """\
nodes 2
node 0 solid
node 1 hollow
edge 0 1
"""

DECORATED_GRAPH_TEXT = """\
nodes 3
node 0 solid
node 1 solid loop neg
node 2 hollow neg
edge 0 1
edge 0 2
"""


class TestGeneratorMatrixFormat:
    def test_round_trip(self):
        m = parse_generator_matrix("+XX\n+ZZ\n")
        assert [r.label() for r in m.rows] == ["+XX", "+ZZ"]
        assert format_generator_matrix(m) == "+XX\n+ZZ\n"

    def test_accepts_unicode_minus_and_blank_lines(self):
        m = parse_generator_matrix("\n−Z\n\n")
        assert m.rows[0].label() == "-Z"

    def test_sign_column_diagnostics(self):
        with pytest.raises(ParseError) as err:
            parse_generator_matrix("+XX\n*ZZ\n")
        assert "line 2, column 1" in str(err.value)

    def test_letter_column_diagnostics(self):
        with pytest.raises(ParseError) as err:
            parse_generator_matrix("+XQ\n")
        assert "line 1, column 3" in str(err.value)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_generator_matrix("+XX\n+Z\n")

    def test_semantic_errors_are_plain_value_errors(self):
        # Anticommuting rows parse fine; the group validation rejects
        # them without parser coordinates.
        with pytest.raises(ValueError) as err:
            parse_generator_matrix("+XI\n+ZI\n")
        assert not isinstance(err.value, ParseError)
        with pytest.raises(ValueError) as err2:
            parse_generator_matrix("+XX\n")  # one row on two qubits
        assert not isinstance(err2.value, ParseError)


class TestMatrixRowsMatchThePerLetterReferences:
    """The parser and formatter go through pauli's whole-row codec; the
    references in tests/helpers.py read and write one letter at a time."""

    def test_identity_labelled_rows(self):
        mats = [scrambled_group(n, seed=n) for n in range(1, 71)]
        mats.append(generator_matrix_from_graph(sparse_graph(1024, 1, 4 / 1023)))
        for mat in mats:
            text = "".join(label_reference(r) + "\n" for r in mat.rows)
            assert format_generator_matrix(mat) == text
            assert parse_generator_matrix(text).rows == tuple(
                map(from_label_reference, text.splitlines())
            )

    def test_each_column_is_written_as_its_qubit(self):
        # Column c of a canonical form is qubit qubit_of_column[c], so the
        # text must draw the input's state even where the reduction moved
        # columns (23 of these 120 matrices).
        moved = 0
        for n in (3, 4, 6, 8):
            for seed in range(30):
                mat = scrambled_group(n, seed)
                canon, _ = to_canonical_form(mat)
                moved += canon.qubit_of_column != tuple(range(n))
                text = format_generator_matrix(canon)
                assert text == format_generator_matrix_reference(canon)
                back = graph_from_generator_matrix(parse_generator_matrix(text))
                assert graphs_equivalent(back, graph_from_generator_matrix(mat))
        assert moved == 23

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1, column 1: no generator rows"),
            ("\n \n", "line 1, column 1: no generator rows"),
            ("+XX\n*ZZ\n", "line 2, column 1: row must start with '+' or '-', got '*'"),
            ("x\n", "line 1, column 1: row must start with '+' or '-', got 'x'"),
            ("  +\n", "line 1, column 4: row has a sign but no Pauli letters"),
            ("+XX\n+Z\n", "line 2, column 2: expected 2 letters, got 1"),
            ("+Y\n−XΣ\n", "line 2, column 2: expected 1 letters, got 2"),
            ("+XQ\n", "line 1, column 3: bad Pauli letter 'Q'"),
            (" −Xé\n", "line 1, column 4: bad Pauli letter 'é'"),
            ("+X x\n", "line 1, column 3: bad Pauli letter ' '"),
            ("\t-ZZ\n-Zq\n", "line 2, column 3: bad Pauli letter 'q'"),
        ],
    )
    def test_every_parser_message(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_generator_matrix(text)
        assert str(err.value) == message


class TestHostileMatrixText:
    """A matrix row is decoded in time linear in its length."""

    def test_million_letter_row_is_rejected_quickly(self):
        width = 1_000_000
        text = "+" + "XYZI" * (width // 4) + "\n"
        t0 = time.perf_counter()
        with pytest.raises(ValueError) as err:
            parse_generator_matrix(text)
        elapsed = time.perf_counter() - t0
        assert not isinstance(err.value, ParseError)
        assert str(err.value) == f"expected {width} rows, got 1"
        # The linear decode takes well under 0.1 s; a per-letter shift
        # into a growing integer took seconds.
        assert elapsed < 5.0

    @pytest.mark.parametrize("bad", ["q", "é", " ", "x"])
    def test_bad_letter_deep_in_a_long_row_keeps_its_column(self, bad):
        text = "\n  +" + "XYZI" * 75_000 + bad + "Q" + "Z" * 10 + "\n"
        with pytest.raises(ParseError) as err:
            parse_generator_matrix(text)
        # Sign at column 3 of line 2, letter i at column 4 + i.
        assert (err.value.line, err.value.column) == (2, 4 + 300_000)
        assert f"bad Pauli letter {bad!r}" in str(err.value)

    def test_wide_matrix_round_trips(self):
        mat = generator_matrix_from_graph(random_graph(300, seed=3))
        assert parse_generator_matrix(format_generator_matrix(mat)) == mat


class TestGraphFormat:
    def test_golden_bell(self):
        g = G(2, edges=[(0, 1)], hollow=[1])
        assert format_graph(g) == BELL_GRAPH_TEXT
        assert parse_graph(BELL_GRAPH_TEXT) == g

    def test_golden_decorated(self):
        g = G(3, edges=[(0, 1), (0, 2)], hollow=[2], loops=[1], neg=[1, 2])
        assert format_graph(g) == DECORATED_GRAPH_TEXT
        assert parse_graph(DECORATED_GRAPH_TEXT) == g

    def test_flag_order_is_free_after_fill(self):
        assert parse_graph("nodes 1\nnode 0 solid neg loop\n") == G(
            1, loops=[0], neg=[0]
        )
        assert parse_graph("nodes 1\nnode 0 solid loop neg\n") == G(
            1, loops=[0], neg=[0]
        )

    @settings(max_examples=150)
    @given(st.integers(0, 10**6), st.integers(1, 8))
    def test_round_trip(self, seed, n):
        g = random_graph(n, seed)
        assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize("code", range(8))
    def test_each_decoration_alone_matches_the_per_node_reference(self, code):
        # Code bits: 1 hollow, 2 loop, 4 neg.
        on = [[0] if code >> b & 1 else [] for b in range(3)]
        g = G(1, hollow=on[0], loops=on[1], neg=on[2])
        assert format_graph(g) == format_graph_reference(g)
        assert parse_graph(format_graph(g)) == g

    def test_every_decoration_in_one_graph_matches_the_per_node_reference(self):
        # Node j carries code j (bits 1 hollow, 2 loop, 4 neg), on a path.
        nodes = [[j for j in range(8) if j >> b & 1] for b in range(3)]
        g = G(8, edges=[(j, j + 1) for j in range(7)], hollow=nodes[0], loops=nodes[1], neg=nodes[2])
        assert format_graph(g) == format_graph_reference(g)
        assert format_graph(g).splitlines()[1:9] == [
            "node 0 solid",
            "node 1 hollow",
            "node 2 solid loop",
            "node 3 hollow loop",
            "node 4 solid neg",
            "node 5 hollow neg",
            "node 6 solid loop neg",
            "node 7 hollow loop neg",
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 40))
    def test_random_graphs_match_the_per_node_reference(self, seed, n):
        g = random_graph(n, seed)
        assert format_graph(g).encode() == format_graph_reference(g).encode()

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("nodes x\n", "line 1"),
            ("node 0 solid\n", "line 1"),                  # missing header
            ("nodes 1\nnode 0 solid\nnode 0 solid\n", "line 3"),
            ("nodes 2\nnode 0 solid\n", "missing node"),   # undeclared node
            ("nodes 1\nnode 0 shaded\n", "line 2"),
            ("nodes 1\nnode 0 solid loop loop\n", "line 2"),
            ("nodes 2\nnode 0 solid\nnode 1 solid\nedge 1 0\n", "line 4"),
            ("nodes 2\nnode 0 solid\nnode 1 solid\nedge 0 0\n", "line 4"),
            (
                "nodes 2\nnode 0 solid\nnode 1 solid\nedge 0 1\nedge 0 1\n",
                "line 5",
            ),
            ("nodes 2\nnode 0 solid\nnode 1 solid\nedge 0 2\n", "line 4"),
            ("nodes 1\nnode 5 solid\n", "line 2"),
        ],
    )
    def test_diagnostics(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert fragment in str(err.value)


class TestHostileGraphText:
    """Inputs whose cost would otherwise grow with a number they declare."""

    def test_node_count_above_line_count_is_rejected_before_allocating(self):
        # Each node needs its own line, so 15 bytes cannot declare 10^8
        # nodes; the parser must say so without building n-length lists.
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="larger than the number of lines") as err:
                parse_graph("nodes 100000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert err.value.line == 1 and err.value.column == 7

    @pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\u2028", "\x1c"])
    def test_every_line_ending_counts_toward_the_bound(self, sep):
        text = sep.join(["nodes 2", "node 0 solid", "node 1 hollow"])
        assert parse_graph(text) == G(2, hollow=[1])

    def test_tightest_text_still_parses(self):
        # n node lines, a header and no final newline: n + 1 lines.
        text = "nodes 3\n" + "".join(f"node {j} solid\n" for j in range(3))
        assert parse_graph(text.rstrip("\n")) == G(3)

    def test_missing_ids_are_capped_in_the_message(self):
        n = 5000
        with pytest.raises(ParseError) as err:
            parse_graph(f"nodes {n}" + "\n" * n)
        msg = str(err.value)
        assert "missing node line(s) for 5000 id(s): 0, 1, 2" in msg
        assert msg.endswith("8, 9 and 4990 more")
        assert len(msg) < 200

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("nodes \u00b2\n", "must be a non-negative integer"),  # a digit int() rejects
            ("nodes " + "9" * 5000 + "\n", "node count"),
            ("nodes 1\nnode " + "1" * 5000 + " solid\n", "node id"),
        ],
    )
    def test_odd_integer_tokens_are_parse_errors(self, text, fragment):
        # 5000 digits is beyond int()'s default conversion limit on the
        # Pythons that have one; either way the token is a ParseError.
        with pytest.raises(ParseError, match=fragment):
            parse_graph(text)


class TestCircuitFormat:
    def test_golden(self):
        c = circuit_from_graph(G(2, edges=[(0, 1)], hollow=[1]))
        assert format_circuit(c) == "qubits 2\nCZ 0 1\nH 1\n"
        assert parse_circuit("qubits 2\nCZ 0 1\nH 1\n") == c

    def test_cz_operand_order_is_normalized(self):
        assert parse_circuit("qubits 2\nCZ 1 0\n") == parse_circuit(
            "qubits 2\nCZ 0 1\n"
        )

    def test_layers_print_in_gate_order(self):
        g = G(3, edges=[(0, 1), (0, 2)], hollow=[2], loops=[1], neg=[0])
        text = format_circuit(circuit_from_graph(g))
        assert text == "qubits 3\nCZ 0 1\nCZ 0 2\nZ 0\nS 1\nH 2\n"

    @settings(max_examples=150)
    @given(st.integers(0, 10**6), st.integers(1, 8))
    def test_round_trip(self, seed, n):
        c = circuit_from_graph(random_graph(n, seed))
        assert parse_circuit(format_circuit(c)) == c

    @pytest.mark.parametrize(
        "text",
        [
            "CZ 0 1\n",                        # missing header
            "qubits 2\nCX 0 1\n",              # unknown gate
            "qubits 2\nCZ 0 0\n",              # equal operands
            "qubits 2\nCZ 0 1\nCZ 1 0\n",      # duplicate pair
            "qubits 2\nH 0\nH 0\n",            # duplicate single
            "qubits 2\nH 2\n",                 # out of range
            "qubits 2\nH 0 1\n",               # wrong arity
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_circuit(text)


class TestDot:
    def test_golden_bell(self):
        g = G(2, edges=[(0, 1)], hollow=[1])
        assert graph_to_dot(g) == (
            "graph stabilizer {\n"
            "  node [shape=circle];\n"
            "  0 [style=filled, fillcolor=black, fontcolor=white];\n"
            "  1;\n"
            "  0 -- 1;\n"
            "}\n"
        )

    def test_decorations_render(self):
        g = G(3, edges=[(0, 1), (0, 2)], hollow=[2], loops=[1], neg=[1, 2])
        dot = graph_to_dot(g)
        assert '1 [style=filled, fillcolor=black, fontcolor=white, label="1−"]' in dot
        assert '2 [label="2−"]' in dot
        assert "1 -- 1;" in dot  # loop drawn as a self-edge

    def test_edge_count(self):
        g = G(4, edges=[(0, 1), (2, 3)], loops=[1])
        dot = graph_to_dot(g)
        assert dot.count(" -- ") == 3  # two edges plus one loop
