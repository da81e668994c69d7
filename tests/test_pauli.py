"""Tests for the signed-Pauli layer: products, conjugation, canonical form.

The ground truth throughout is dense linear algebra from
``tests/helpers.py``; every bit-twiddled result is compared against an
explicit matrix product at least once, and the small cases are swept
exhaustively.
"""

from __future__ import annotations

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import from_label_reference, gate_unitary, label_reference, pauli_matrix
from stabgraph import (
    GeneratorMatrix,
    PauliString,
    canonical_blocks,
    conjugate,
    format_generator_matrix,
    generator_matrix_from_graph,
    graph_from_generator_matrix,
    left_rank,
    multiply,
    permute_qubits,
    random_graph,
    skew_product,
    to_canonical_form,
)

LABELS_1 = ["I", "X", "Y", "Z"]


def all_paulis(n: int):
    for letters in itertools.product(LABELS_1, repeat=n):
        for sign in (1, -1):
            yield PauliString.from_label(("+" if sign > 0 else "-") + "".join(letters))


class TestPauliString:
    def test_label_round_trip(self):
        for p in all_paulis(2):
            assert PauliString.from_label(p.label()) == p

    def test_identity(self):
        p = PauliString.identity(3)
        assert p.label() == "+III"
        assert (p.x, p.z, p.sign) == (0, 0, 1)

    def test_letters(self):
        p = PauliString.from_label("-IXYZ")
        assert [p.letter(q) for q in range(4)] == ["I", "X", "Y", "Z"]
        assert p.sign == -1

    @pytest.mark.parametrize("j", [2, 7, -1])
    def test_letter_rejects_a_qubit_out_of_range(self, j):
        p = PauliString.from_label("+XZ")
        with pytest.raises(ValueError, match=rf"^qubit {j} out of range for n=2$"):
            p.letter(j)

    def test_letter_reads_the_qubit_as_a_node_id(self):
        p = PauliString.from_label("+XZ")
        assert p.letter(np.int64(1)) == "Z"
        with pytest.raises(ValueError, match=r"^qubit must be an integer, got 1.0$"):
            p.letter(1.0)

    def test_y_is_exactly_y(self):
        # The stored convention must make the (x=1, z=1) string the true
        # Pauli Y, not iXZ or -iXZ.
        p = PauliString(1, 1, 1, 1)
        assert np.allclose(pauli_matrix(p), np.array([[0, -1j], [1j, 0]]))

    def test_rejects_bad_sign_and_masks(self):
        with pytest.raises(ValueError):
            PauliString(1, 0, 0, 2)
        with pytest.raises(ValueError):
            PauliString(1, 2, 0, 1)
        with pytest.raises(ValueError):
            PauliString.from_label("+Q")

    def test_numpy_n_acts_like_a_python_int(self):
        # 1 << np.int64(70) overflows, so the x range test once rejected
        # a valid mask.
        got = PauliString(np.int64(70), 1 << 69, 0)
        assert type(got.n) is int
        assert got == PauliString(70, 1 << 69, 0)
        with pytest.raises(ValueError, match="n must be an integer"):
            PauliString(2.0, 0, 0)

    def test_numpy_masks_are_stored_as_python_ints(self):
        # Numpy masks once reached the mask arithmetic: a product past bit
        # 63 overflowed, and ``bit_count``/``bit_length`` were missing.
        p = PauliString(70, np.uint64(1 << 63), np.int64(5), np.int8(-1))
        assert (type(p.x), type(p.z), type(p.sign)) == (int, int, int)
        assert p == PauliString(70, 1 << 63, 5, -1)
        q = PauliString(70, 1 << 69, 0)
        assert multiply(p, q) == PauliString(70, (1 << 63) | (1 << 69), 5, -1)
        z63 = PauliString(70, 0, 1 << 63)
        assert skew_product(PauliString(70, np.uint64(1 << 63), 0), z63) == 1
        zs = [np.uint64(1 << q) if q < 64 else 1 << q for q in range(70)]
        got = GeneratorMatrix(70, tuple(PauliString(70, 0, z) for z in zs))
        assert got == GeneratorMatrix(70, tuple(PauliString(70, 0, 1 << q) for q in range(70)))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, 1.0, 0), "x must be an integer, got 1.0"),
            ((2, 0, "1"), "z must be an integer, got '1'"),
            ((2, 0, 0, 1.0), "sign must be an integer, got 1.0"),
            ((2, 0, 0, "-1"), "sign must be an integer, got '-1'"),
        ],
    )
    def test_rejects_masks_and_signs_that_are_not_integers(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PauliString(*args)


_P = PauliString.from_label


@pytest.mark.parametrize(
    "call, args, message",
    [
        (PauliString, (2, 0, 4, 1), "z mask 0x4 out of range for n=2"),
        (skew_product, (_P("+X"), _P("+XX")), "size mismatch: 1 vs 2"),
        (multiply, (_P("+X"), _P("+XX")), "size mismatch: 1 vs 2"),
        (permute_qubits, (_P("+XY"), (1, 1)), "perm is not a permutation of the qubits"),
        (GeneratorMatrix, (0, ()), "need at least one qubit, got n=0"),
        (GeneratorMatrix, (1, (_P("+XX"),)), "row +XX has 2 qubits, expected 1"),
    ],
    ids=["z-mask", "skew_product", "multiply", "permute_qubits", "matrix-n", "matrix-row"],
)
def test_input_checks(call, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


def random_rows(seed: int):
    """Random signed rows at n = 1..70, a few per size, then two at n=1024."""
    rng = random.Random(seed)
    for n in [*range(1, 71)] * 4 + [1024, 1024]:
        yield PauliString(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))


class TestIXYZCodec:
    """Labels go through pauli's whole-row codec; the references in
    tests/helpers.py read and write one letter at a time."""

    def test_label_and_from_label_match_the_per_letter_references(self):
        for p in random_rows(seed=15):
            label = p.label()
            assert label == label_reference(p)
            assert PauliString.from_label(label) == from_label_reference(label) == p
            assert PauliString.from_label(label[1:]) == from_label_reference(label[1:])
            if p.n <= 70:
                assert "".join(map(p.letter, range(p.n))) == label[1:]

    @pytest.mark.parametrize(
        "label, message",
        [
            ("", "empty Pauli label"),
            ("+", "need at least one qubit, got n=0"),
            ("-", "need at least one qubit, got n=0"),
            ("+XQ", "bad Pauli letter 'Q' in '+XQ'"),
            ("−X", "bad Pauli letter '−' in '−X'"),
            ("-X−Y", "bad Pauli letter '−' in '-X−Y'"),
            ("+xz", "bad Pauli letter 'x' in '+xz'"),
            ("+Xé", "bad Pauli letter 'é' in '+Xé'"),
            ("IXYZq", "bad Pauli letter 'q' in 'IXYZq'"),
            ("X\n", "bad Pauli letter '\\n' in 'X\\n'"),
            (" X", "bad Pauli letter ' ' in ' X'"),
        ],
    )
    def test_from_label_messages(self, label, message):
        for parse in (PauliString.from_label, from_label_reference):
            with pytest.raises(ValueError) as err:
                parse(label)
            assert str(err.value) == message


class TestSkewProduct:
    def test_single_qubit_table(self):
        x = PauliString.from_label("+X")
        z = PauliString.from_label("+Z")
        y = PauliString.from_label("+Y")
        assert skew_product(x, z) == 1
        assert skew_product(x, y) == 1
        assert skew_product(x, x) == 0

    def test_matches_commutator_of_matrices(self):
        for p, q in itertools.product(all_paulis(2), repeat=2):
            mp, mq = pauli_matrix(p), pauli_matrix(q)
            commutes = np.allclose(mp @ mq, mq @ mp)
            assert skew_product(p, q) == (0 if commutes else 1)


class TestMultiply:
    def test_frozen_products(self):
        xx = PauliString.from_label("+XX")
        zz = PauliString.from_label("+ZZ")
        assert multiply(xx, zz).label() == "-YY"
        assert multiply(zz, xx).label() == "-YY"
        assert multiply(xx, xx).label() == "+II"

    def test_anticommuting_product_raises(self):
        # The product of anticommuting strings carries a factor of i,
        # which a sign-only representation cannot hold.
        with pytest.raises(ValueError):
            multiply(PauliString.from_label("+X"), PauliString.from_label("+Z"))

    def test_matches_matrix_product_exhaustively(self):
        for n in (1, 2):
            for p, q in itertools.product(all_paulis(n), repeat=2):
                if skew_product(p, q):
                    continue
                r = multiply(p, q)
                assert np.allclose(pauli_matrix(r), pauli_matrix(p) @ pauli_matrix(q))

    @given(st.integers(0, 10**6))
    def test_commutes_within_a_stabilizer_group(self, seed):
        mat = generator_matrix_from_graph(random_graph(4, seed))
        rows = mat.rows
        for p, q in itertools.combinations(rows, 2):
            assert multiply(p, q) == multiply(q, p)


class TestConjugate:
    @pytest.mark.parametrize("gate", ["H", "S", "Z"])
    def test_single_qubit_gates_match_dense(self, gate):
        u = gate_unitary(1, gate, 0)
        for p in all_paulis(1):
            out = conjugate(p, gate, 0)
            assert np.allclose(pauli_matrix(out), u @ pauli_matrix(p) @ u.conj().T)

    def test_cz_matches_dense_exhaustively(self):
        u = gate_unitary(2, "CZ", 0, 1)
        for p in all_paulis(2):
            out = conjugate(p, "CZ", 0, 1)
            assert np.allclose(pauli_matrix(out), u @ pauli_matrix(p) @ u.conj().T)

    def test_frozen_images(self):
        assert conjugate(PauliString.from_label("+X"), "H", 0).label() == "+Z"
        assert conjugate(PauliString.from_label("+X"), "S", 0).label() == "+Y"
        assert conjugate(PauliString.from_label("+X"), "Z", 0).label() == "-X"
        assert conjugate(PauliString.from_label("+XI"), "CZ", 0, 1).label() == "+XZ"

    def test_embedded_target_matches_dense(self):
        # A gate on qubit 1 of 3 must leave the flanking qubits alone.
        p = PauliString.from_label("-XYZ")
        for gate in ("H", "S", "Z"):
            u = gate_unitary(3, gate, 1)
            out = conjugate(p, gate, 1)
            assert np.allclose(pauli_matrix(out), u @ pauli_matrix(p) @ u.conj().T)

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            conjugate(PauliString.identity(1), "T", 0)

    @pytest.mark.parametrize(
        "gate, targets, message",
        [
            ("T", (0,), "unknown gate"),
            ("H", (0, 1), "takes 1 target"),
            ("CZ", (0,), "takes 2 target"),
            ("S", (2,), "target 2 out of range"),
            ("CZ", (0, -1), "target -1 out of range"),
            ("CZ", (1, 1), "must differ"),
            ("Z", ("1",), "node id must be an integer"),
        ],
    )
    def test_every_argument_check(self, gate, targets, message):
        with pytest.raises(ValueError, match=message):
            conjugate(PauliString.from_label("+XY"), gate, *targets)

    def test_numpy_targets_act_like_python_ints(self):
        p = PauliString.from_label("-XYZ")
        for gate, targets in [("H", (2,)), ("S", (1,)), ("Z", (0,)), ("CZ", (2, 0))]:
            want = conjugate(p, gate, *targets)
            assert conjugate(p, gate, *map(np.int64, targets)) == want


class TestPermuteQubits:
    def test_relabels_letters(self):
        p = PauliString.from_label("-XYZ")
        out = permute_qubits(p, (2, 0, 1))  # qubit c -> position perm[c]
        assert out.label() == "-YZX"

    def test_round_trip_with_inverse(self):
        perm = (3, 1, 0, 2)
        inv = tuple(perm.index(c) for c in range(4))
        p = PauliString.from_label("+XZYI")
        assert permute_qubits(permute_qubits(p, perm), inv) == p

    def test_numpy_perm_acts_like_python_ints(self):
        p = PauliString(100, (1 << 99) | 5, 1 << 70, -1)
        perm = np.arange(100)[::-1]
        assert permute_qubits(p, perm) == permute_qubits(p, perm.tolist())
        with pytest.raises(ValueError, match="node id must be an integer"):
            permute_qubits(PauliString.from_label("+XZ"), (1.0, 0.0))


class TestGeneratorMatrix:
    def test_rejects_anticommuting_rows(self):
        rows = (PauliString.from_label("+X"), PauliString.from_label("+Z"))
        with pytest.raises(ValueError):
            GeneratorMatrix(1, rows)

    def test_rejects_dependent_rows(self):
        # Same symplectic vector twice (signs differ) and an identity row
        # are both rank-deficient over GF(2).
        with pytest.raises(ValueError):
            GeneratorMatrix(
                2, (PauliString.from_label("+XX"), PauliString.from_label("-XX"))
            )
        with pytest.raises(ValueError):
            GeneratorMatrix(
                2, (PauliString.from_label("+XX"), PauliString.from_label("+II"))
            )

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(2, (PauliString.from_label("+XX"),))

    def test_rejects_bad_permutation(self):
        rows = (PauliString.from_label("+XX"), PauliString.from_label("+ZZ"))
        with pytest.raises(ValueError):
            GeneratorMatrix(2, rows, (0, 0))

    def test_default_column_labels(self):
        rows = (PauliString.from_label("+XX"), PauliString.from_label("+ZZ"))
        assert GeneratorMatrix(2, rows).qubit_of_column == (0, 1)

    def test_numpy_labels_are_stored_as_python_ints(self):
        # Labels past 63 once overflowed int64 shifts in the formatter and
        # the converter, and an ndarray left the frozen matrix unhashable.
        n = 70
        rows = tuple(PauliString(n, 0, 1 << q) for q in range(n))
        labels = np.arange(n)[::-1]
        got = GeneratorMatrix(n, rows, labels)
        want = GeneratorMatrix(n, rows, tuple(labels.tolist()))
        assert got == want and hash(got) == hash(want)
        assert all(type(q) is int for q in got.qubit_of_column)
        assert format_generator_matrix(got) == format_generator_matrix(want)
        assert graph_from_generator_matrix(got) == graph_from_generator_matrix(want)

    def test_numpy_n_acts_like_a_python_int(self):
        rows = (PauliString.from_label("+XX"), PauliString.from_label("+ZZ"))
        got = GeneratorMatrix(np.int64(2), rows)
        assert type(got.n) is int
        assert got == GeneratorMatrix(2, rows)

    def test_rows_are_stored_as_a_tuple(self):
        rows = [PauliString.from_label("+XX"), PauliString.from_label("+ZZ")]
        got = GeneratorMatrix(2, rows)
        want = GeneratorMatrix(2, tuple(rows))
        assert type(got.rows) is tuple
        assert got == want and hash(got) == hash(want)

    def test_rejects_float_labels(self):
        rows = (PauliString.from_label("+XX"), PauliString.from_label("+ZZ"))
        with pytest.raises(ValueError, match="qubit label must be an integer"):
            GeneratorMatrix(2, rows, (0.0, 1.0))

    @pytest.mark.parametrize("bad", ["+X", (1, 0, 1), None])
    def test_rejects_rows_that_are_not_pauli_strings(self, bad):
        rows = (PauliString.from_label("+XX"), bad)
        message = f"row 1 must be a PauliString, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeneratorMatrix(2, rows)
        with pytest.raises(ValueError, match="^row 0 must be a PauliString"):
            GeneratorMatrix(1, [bad])


class TestCanonicalForm:
    def test_bell_is_already_canonical(self):
        mat = GeneratorMatrix(
            2, (PauliString.from_label("+ZZ"), PauliString.from_label("+XX"))
        )
        canon, rank = to_canonical_form(mat)
        assert [r.label() for r in canon.rows] == ["+XX", "+ZZ"]
        assert rank == 1
        assert left_rank(canon) == 1

    def test_ghz(self):
        rows = tuple(
            PauliString.from_label(s) for s in ("+XXX", "+ZZI", "+ZIZ")
        )
        canon, rank = to_canonical_form(GeneratorMatrix(3, rows))
        assert [r.label() for r in canon.rows] == ["+XXX", "+ZZI", "+ZIZ"]
        assert rank == 1

    def test_rank_zero_single_qubit(self):
        canon, rank = to_canonical_form(
            GeneratorMatrix(1, (PauliString.from_label("-Z"),))
        )
        assert rank == 0
        assert [r.label() for r in canon.rows] == ["-Z"]

    def test_block_structure_on_scrambled_groups(self):
        # Scramble a valid group with row products and a shuffle, then
        # demand the exact block pattern back out.
        rng = random.Random(11)
        for trial in range(60):
            n = 1 + trial % 6
            mat = generator_matrix_from_graph(random_graph(n, seed=trial))
            rows = list(mat.rows)
            for _ in range(2 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    rows[i] = multiply(rows[i], rows[j])
            rng.shuffle(rows)
            scrambled = GeneratorMatrix(n, tuple(rows))
            canon, rank = to_canonical_form(scrambled)
            a, b = canonical_blocks(canon, rank)
            assert len(a) == rank and len(b) == rank
            # B symmetric: bit j of row i equals bit i of row j.
            for i in range(rank):
                for j in range(rank):
                    assert (b[i] >> j) & 1 == (b[j] >> i) & 1
            assert left_rank(canon) == rank == left_rank(scrambled)

    @pytest.mark.parametrize(
        "rank, message",
        [
            (4, "rank 4 out of range for n=3"),
            (-1, "rank -1 out of range for n=3"),
            (3.0, "rank must be an integer, got 3.0"),
            ("1", "rank must be an integer, got '1'"),
        ],
    )
    def test_blocks_reject_a_rank_outside_0_to_n(self, rank, message):
        rows = tuple(PauliString.from_label(s) for s in ("+XXX", "+ZZI", "+ZIZ"))
        canon, _ = to_canonical_form(GeneratorMatrix(3, rows))
        with pytest.raises(ValueError, match=f"^{message}$"):
            canonical_blocks(canon, rank)
        assert canonical_blocks(canon, np.int64(1)) == canonical_blocks(canon, 1)

    def test_preserves_the_group(self):
        # Canonical rows must generate the same group: every canonical
        # row is a product of input rows and vice versa.  We check it at
        # the state level in the conversion tests; here we check the
        # rows still commute pairwise and stay independent.
        mat = generator_matrix_from_graph(random_graph(5, seed=99))
        canon, _ = to_canonical_form(mat)
        GeneratorMatrix(5, canon.rows, canon.qubit_of_column)  # revalidates


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_canonical_form_idempotent(seed, n):
    mat = generator_matrix_from_graph(random_graph(n, seed))
    canon, rank = to_canonical_form(mat)
    again, rank2 = to_canonical_form(
        GeneratorMatrix(n, canon.rows)
    )
    assert rank == rank2
    assert [r.label() for r in again.rows] == [r.label() for r in canon.rows]
