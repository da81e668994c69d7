"""Differential tests: the packed (x, z, sign) row path against references.

``pauli`` runs the canonical form and the conjugations on packed integer
rows, and ``convert`` reads the graph straight off the canonical rows.
``tests/helpers.py`` keeps the PauliString-per-step versions they replaced,
which conjugate every row and solve the signs; here both run on the same
inputs and must agree exactly: rows, signs, ``qubit_of_column``, rank, the
output graph, and every error message.  From ``pauli._PACKED_AT`` qubits
on, the canonical rows come from the XOR-only kernel
``_canonical_rows_packed``; its in-tree reference is the row-product loop
``_canonical_rows_by_products``, and the two are compared directly, on
both sides of the cutoff.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    canonical_blocks_reference,
    closed_form_reference,
    col_swap_reference,
    conjugate_reference,
    every_graph,
    generator_matrix_error_reference,
    graph_from_generator_matrix_reference,
    multiply_reference,
    run_under_python_O,
    to_canonical_form_reference,
)
from stabgraph import (
    GeneratorMatrix,
    InvariantError,
    PauliString,
    StabilizerGraph,
    canonical_blocks,
    circuit_from_graph,
    format_generator_matrix,
    format_graph,
    parse_generator_matrix,
    conjugate,
    generator_matrix_from_graph,
    generators_from_circuit,
    graph_from_generator_matrix,
    left_rank,
    multiply,
    random_graph,
    to_canonical_form,
)
from stabgraph import cli, convert, pauli
from stabgraph.graph import _bits


def all_paulis(n: int):
    for letters in itertools.product("IXYZ", repeat=n):
        for sign in "+-":
            yield PauliString.from_label(sign + "".join(letters))


def scrambled_matrix(n: int, seed: int, hollow_p: float, reduced: bool) -> GeneratorMatrix:
    """Generators of a random graph, mixed by row products, with random
    signs, a random qubit order, shuffled rows and a random column labelling.

    With ``hollow_p`` near 1 and ``reduced`` the x part has low rank (hollow
    rows of a reduced graph have no x bits); with ``hollow_p == 0`` it is full.
    """
    rng = random.Random(seed)
    hollow = [rng.random() < hollow_p for _ in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3 and not (reduced and hollow[i] and hollow[j])
    ]
    g = StabilizerGraph.build(
        n,
        edges=edges,
        hollow=[j for j in range(n) if hollow[j]],
        loops=[j for j in range(n) if rng.random() < 0.5 and not (reduced and hollow[j])],
        neg=[j for j in range(n) if rng.random() < 0.5],
    )
    rows = list(closed_form_reference(g))
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i] = multiply_reference(rows[i], rows[j])
    order = list(range(n))
    rng.shuffle(order)

    def moved(mask: int) -> int:
        return sum(1 << order[c] for c in range(n) if (mask >> c) & 1)

    rows = [PauliString(n, moved(r.x), moved(r.z), rng.choice((1, -1))) for r in rows]
    rng.shuffle(rows)
    labels = list(range(n))
    rng.shuffle(labels)
    return GeneratorMatrix(n, tuple(rows), tuple(labels))


def assert_same_as_reference(mat: GeneratorMatrix) -> None:
    canon, rank = to_canonical_form(mat)
    ref, ref_rank = to_canonical_form_reference(mat)
    assert rank == ref_rank == left_rank(mat)
    assert [r.label() for r in canon.rows] == [r.label() for r in ref.rows]
    assert canon.qubit_of_column == ref.qubit_of_column
    assert canon == ref
    assert graph_from_generator_matrix(mat) == graph_from_generator_matrix_reference(mat)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(0, 2**32),
    st.sampled_from([0.0, 0.5, 0.9]),
    st.booleans(),
)
def test_matrix_to_graph_matches_reference(n, seed, hollow_p, reduced):
    assert_same_as_reference(scrambled_matrix(n, seed, hollow_p, reduced))


@pytest.mark.parametrize(
    "seed, hollow_p, reduced", [(1, 0.0, False), (2, 0.5, False), (3, 0.9, True)]
)
def test_matrix_to_graph_matches_reference_at_n256(seed, hollow_p, reduced):
    mat = scrambled_matrix(256, seed, hollow_p, reduced)
    assert_same_as_reference(mat)


def test_low_and_full_x_rank_are_both_drawn():
    ranks = {left_rank(scrambled_matrix(40, s, 0.9, True)) for s in range(5)}
    assert max(ranks) < 20
    assert left_rank(scrambled_matrix(40, 0, 0.0, False)) == 40


class TestProductsAndConjugations:
    def test_multiply_matches_reference_on_every_small_pair(self):
        for n in (1, 2):
            for p, q in itertools.product(all_paulis(n), repeat=2):
                try:
                    want = multiply_reference(p, q)
                except ValueError as err:
                    with pytest.raises(ValueError) as got:
                        multiply(p, q)
                    assert str(got.value) == str(err)
                else:
                    assert multiply(p, q) == want

    def test_conjugate_matches_reference_on_every_small_input(self):
        for n in (1, 2):
            gates = [(g, (t,)) for g in "HSZ" for t in range(n)]
            if n == 2:
                gates += [("CZ", (0, 1)), ("CZ", (1, 0))]
            for p in all_paulis(n):
                for gate, targets in gates:
                    assert conjugate(p, gate, *targets) == conjugate_reference(
                        p, gate, *targets
                    )

    @settings(max_examples=60)
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_closed_form_matches_reference(self, seed, n):
        g = random_graph(n, seed)
        want = closed_form_reference(g)
        assert generators_from_circuit(circuit_from_graph(g)) == want
        assert generator_matrix_from_graph(g).rows == want


def flip_bit(p: PauliString, c: int, in_x: bool) -> PauliString:
    """p with bit c of its x part (or of its z part) flipped."""
    if in_x:
        return PauliString(p.n, p.x ^ (1 << c), p.z, p.sign)
    return PauliString(p.n, p.x, p.z ^ (1 << c), p.sign)


def matrix_error(n: int, rows) -> str | None:
    try:
        GeneratorMatrix(n, tuple(rows))
    except ValueError as err:
        return str(err)
    return None


class TestMatrixChecks:
    def test_pinned_messages(self):
        three = [PauliString.from_label(s) for s in ("+XII", "+IXI", "+ZII")]
        assert matrix_error(3, three) == "rows 0 and 2 anticommute"
        last = [PauliString.from_label(s) for s in ("+XXI", "+ZZI", "+XIZ")]
        assert matrix_error(3, last) == "rows 1 and 2 anticommute"
        twice = [PauliString.from_label(s) for s in ("+XX", "-XX")]
        assert matrix_error(2, twice) == "rows are not independent"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 130), st.integers(0, 2**32))
    @example(63, 1)
    @example(64, 2)
    @example(65, 3)
    @example(128, 4)
    @example(129, 5)
    def test_random_rows_get_the_reference_message(self, n, seed):
        rng = random.Random(seed)
        rows = [
            PauliString(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
            for _ in range(n)
        ]
        assert matrix_error(n, rows) == generator_matrix_error_reference(n, rows)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 130), st.integers(0, 2**32))
    @example(63, 1)
    @example(64, 2)
    @example(65, 3)
    @example(128, 4)
    @example(129, 5)
    def test_one_flipped_bit_gets_the_reference_message(self, n, seed):
        rng = random.Random(seed)
        rows = list(generator_matrix_from_graph(random_graph(n, seed)).rows)
        i, c = rng.randrange(n), rng.randrange(n)
        rows[i] = flip_bit(rows[i], c, rng.random() < 0.5)
        assert matrix_error(n, rows) == generator_matrix_error_reference(n, rows)


def assert_kernel_is_the_row_loop(mat: GeneratorMatrix) -> None:
    """The packed kernel's rows, signs and pivots are the row loop's."""
    assert pauli._canonical_rows_packed(mat) == pauli._canonical_rows_by_products(mat)


def parity_rows_reference(p, q) -> list:
    """Row i has bit j set when |p_i & q_j| is odd, pair by pair."""
    return [sum(((a & b).bit_count() & 1) << j for j, b in enumerate(q)) for a in p]


def as_ints(packed) -> list:
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class TestPackedKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_matrix_of_the_exhaustive_tests(self, n):
        # Below the cutoff, where _canonical_rows itself runs the row loop.
        assert n < pauli._PACKED_AT
        for g in every_graph(n):
            mat = generator_matrix_from_graph(g)
            assert_kernel_is_the_row_loop(mat)
            assert_kernel_is_the_row_loop(to_canonical_form(mat)[0])

    @pytest.mark.parametrize("hollow_p", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n", [31, 32, 63, 64, 65, 127, 128, 129, 256])
    def test_scrambled_matrices_across_word_boundaries(self, n, hollow_p):
        assert_kernel_is_the_row_loop(scrambled_matrix(n, n, hollow_p, hollow_p == 0.9))

    @pytest.mark.parametrize("n", [5, 64, 100])
    def test_all_z_matrix(self, n):
        # x-rank 0: no row has an x bit, and every key is a z key.
        rng = random.Random(n)
        zs = [1 << i for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            zs[i] ^= zs[j]
        mat = GeneratorMatrix(n, [PauliString(n, 0, z, rng.choice((1, -1))) for z in zs])
        assert pauli._canonical_rows_packed(mat)[1] == 0
        assert_kernel_is_the_row_loop(mat)

    def test_the_cutoff_picks_the_path(self, monkeypatch):
        ran = []
        for name in ("_canonical_rows_packed", "_canonical_rows_by_products"):
            real = getattr(pauli, name)
            monkeypatch.setattr(
                pauli, name, lambda m, real=real, name=name: ran.append((m.n, name)) or real(m)
            )
        cut = pauli._PACKED_AT
        for n in (cut - 1, cut):
            pauli._canonical_rows(scrambled_matrix(n, 0, 0.5, False))
        assert ran == [(cut - 1, "_canonical_rows_by_products"), (cut, "_canonical_rows_packed")]

    def test_a_convert_builds_the_commutation_parities_once(self, monkeypatch, tmp_path):
        # The constructor keeps the C it checked, and the kernel reads it;
        # only a _trusted matrix, which skips the constructor, builds its own.
        mat = scrambled_matrix(256, 1, 0.5, False)
        src, out = tmp_path / "in.mat", tmp_path / "out.graph"
        src.write_text(format_generator_matrix(mat))
        real, calls = pauli._commutation_parities, []
        monkeypatch.setattr(
            pauli, "_commutation_parities", lambda xs, zs, n: calls.append(n) or real(xs, zs, n)
        )
        argv = ["convert", "--from", "matrix", "--to", "graph", "-i", str(src), "-o", str(out)]
        assert cli.main(argv) == 0
        assert calls == [256]
        trusted = GeneratorMatrix._trusted(mat.n, mat.rows, mat.qubit_of_column)
        assert trusted._comm is None
        assert pauli._canonical_rows(trusted) == pauli._canonical_rows(mat)
        assert calls == [256, 256]
        parsed = parse_generator_matrix(src.read_text())
        assert out.read_text() == format_graph(graph_from_generator_matrix_reference(parsed))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_parities_match_pairwise_bit_counts(self, n, monkeypatch):
        rng = random.Random(n)
        p = [rng.getrandbits(n) for _ in range(n + 2)]
        q = [rng.getrandbits(n) for _ in range(n)]
        # Three rows a chunk, so that chunk boundaries fall inside p.
        monkeypatch.setattr(pauli, "_CHUNK_BYTES", 3 * 8 * len(q))
        got = pauli._parities(pauli._words(p, n), pauli._words(q, n))
        assert got.shape == (len(p), -(-n // 64))
        assert as_ints(got) == parity_rows_reference(p, q)

    def test_parities_temporaries_stay_within_the_chunk(self):
        rng = random.Random(3)
        n = 1024
        p, q = (pauli._words([rng.getrandbits(n) for _ in range(n)], n) for _ in "pq")
        tracemalloc.start()
        try:
            out = pauli._parities(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The result, a transposed copy of q and a few chunk-sized arrays.
        assert peak <= out.nbytes + q.nbytes + 4 * pauli._CHUNK_BYTES
        assert out.nbytes + q.nbytes < 2 * pauli._CHUNK_BYTES < p.nbytes * 8

    @pytest.mark.parametrize("n", [1, 9, 64, 130])
    def test_first_asymmetry_in_blocks(self, n, monkeypatch):
        monkeypatch.setattr(pauli, "_CHUNK_BYTES", 8 * n)  # blocks of 8 rows
        rng = random.Random(n)
        for trial in range(30):
            rows = [0] * n
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.5:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            for _ in range(trial % 3):
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i] ^= 1 << j
            want = next(
                ((i, j) for i in range(n) for j in range(n) if (rows[i] >> j ^ rows[j] >> i) & 1),
                None,
            )
            assert pauli._first_asymmetry(pauli._words(rows, n)) == want


def trusted_64_bent(case: str) -> GeneratorMatrix:
    """A valid n=64 matrix with one row replaced, built without checks: by a
    copy of another row (``repeated``) or by itself with one more x bit,
    which makes it anticommute with some rows (``anticommuting``)."""
    mat = generator_matrix_from_graph(random_graph(64, 7))
    rows = list(mat.rows)
    if case == "repeated":
        rows[40] = rows[3]
    else:
        rows[40] = flip_bit(rows[40], 2, True)
    return GeneratorMatrix._trusted(64, tuple(rows), mat.qubit_of_column)


class TestKernelErrors:
    """``_trusted`` matrices skip the constructor's checks; the packed kernel
    must still refuse rows that are dependent or do not commute."""

    def test_repeated_row(self):
        mat = trusted_64_bent("repeated")
        assert mat.n >= pauli._PACKED_AT
        for run in (pauli._canonical_rows, to_canonical_form, graph_from_generator_matrix):
            with pytest.raises(ValueError, match="^rows are not an independent commuting set$"):
                run(mat)

    def test_anticommuting_pair(self):
        mat = trusted_64_bent("anticommuting")
        want = generator_matrix_error_reference(64, mat.rows)
        assert want is not None and want.endswith("anticommute")
        for run in (pauli._canonical_rows, to_canonical_form, graph_from_generator_matrix):
            with pytest.raises(ValueError) as err:
                run(mat)
            assert str(err.value) == want

    def test_both_under_python_O(self):
        proc = run_under_python_O(
            """
            import sys
            from stabgraph import GeneratorMatrix, PauliString, pauli, random_graph
            from stabgraph import generator_matrix_from_graph
            if sys.flags.optimize < 1:
                sys.exit("not running under -O")
            mat = generator_matrix_from_graph(random_graph(64, 7))
            rows = list(mat.rows)
            r = rows[40]
            bent = {
                "repeated": rows[3],
                "anticommuting": PauliString(64, r.x ^ 1 << 2, r.z, r.sign),
            }
            for case, row in bent.items():
                bad = tuple(rows[:40] + [row] + rows[41:])
                try:
                    pauli._canonical_rows(GeneratorMatrix._trusted(64, bad, mat.qubit_of_column))
                except ValueError as exc:
                    print("raised:", case, exc)
                else:
                    sys.exit("no error for " + case)
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert "raised: repeated rows are not an independent commuting set" in proc.stdout
        want = generator_matrix_error_reference(64, trusted_64_bent("anticommuting").rows)
        assert f"raised: anticommuting {want}" in proc.stdout


CANONICAL_MESSAGES = {
    "left block is not the identity",
    "upper-right z block is not zero",
    "lower x block is not zero",
    "lower-right z block is not the identity",
    "lower-left z block is not A^T",
    "B block is not symmetric",
}


def test_canonical_shape_messages_match_reference():
    """Flip one bit of a canonical matrix: the mask-based shape check must
    give the reference's verdict and message, and every message occurs."""
    seen = set()
    rng = random.Random(5)
    for trial in range(400):
        n = 2 + trial % 7
        canon, rank = to_canonical_form(scrambled_matrix(n, trial, 0.5, trial % 2 == 0))
        rows = list(canon.rows)
        i, c = rng.randrange(n), rng.randrange(n)
        rows[i] = flip_bit(rows[i], c, rng.random() < 0.5)
        # The shape check reads only n and rows, so no group validation here.
        bent = SimpleNamespace(n=n, rows=tuple(rows))
        try:
            want = canonical_blocks_reference(bent, rank)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                canonical_blocks(bent, rank)
            assert str(got.value) == str(err)
            seen.add(str(err).partition(": ")[2] or str(err))
        else:
            assert canonical_blocks(bent, rank) == want
    assert seen == CANONICAL_MESSAGES


def swap_rule_layout(n: int, rows, pivots: int, qubit_of_column):
    """Rows indexed by pivot column, laid out by the swap rule with the
    reference's column swap: the c-th x-pivot column swaps with column c,
    and its row with row c.  Returns the rows and ``qubit_of_column``."""
    rows = [PauliString(n, *r) for r in rows]
    perm = list(qubit_of_column)
    for c, p in enumerate(p for p in range(n) if (pivots >> p) & 1):
        rows[c], rows[p] = rows[p], rows[c]
        col_swap_reference(rows, perm, c, p)
    return rows, perm


@pytest.mark.parametrize(
    "n, seeds", [(40, range(6)), (256, range(1))], ids=["n40", "n256"]
)
@pytest.mark.parametrize(
    "hollow_p, reduced", [(0.9, True), (0.0, False)], ids=["low-rank", "full-rank"]
)
def test_rows_are_indexed_by_their_pivot_column(n, seeds, hollow_p, reduced):
    """``_canonical_rows`` moves no column: row c pivots on column c, on x
    for an x-pivot column and on z for any other, and the swap rule lays the
    rows out as the reference reduction, which moves columns as it goes."""
    for seed in seeds:
        mat = scrambled_matrix(n, seed, hollow_p, reduced)
        rows, pivots = pauli._canonical_rows(mat)
        rest = ((1 << n) - 1) ^ pivots
        assert len(rows) == n
        for c, (x, z, _) in enumerate(rows):
            if (pivots >> c) & 1:
                assert x & pivots == 1 << c
                assert not z & rest
            else:
                assert x == 0
                assert z & rest == 1 << c
        layout, perm = swap_rule_layout(n, rows, pivots, mat.qubit_of_column)
        ref, rank = to_canonical_form_reference(mat)
        assert pivots.bit_count() == rank
        assert tuple(layout) == ref.rows
        assert tuple(perm) == ref.qubit_of_column


def test_reproduction_check_catches_every_bent_canonical_shape(monkeypatch):
    """The converter reads the graph off the canonical rows, node c off the
    row that pivots on column c, and keeps one check, that the graph's
    closed form reproduces them.  Bend the rows it reads by one x bit, z bit
    or sign: a bent set of the wrong shape must raise, and any other must
    come back as a graph whose generators are the bent rows, relabelled to
    the original qubits."""
    rng = random.Random(11)
    outcomes = {"raised": 0, "reproduced": 0}
    for trial in range(2000):
        n = 2 + trial % 9
        mat = scrambled_matrix(n, trial, 0.5, trial % 2 == 0)
        rows, pivots = pauli._canonical_rows(mat)
        i, c = rng.randrange(n), rng.randrange(n)
        x, z, sign = rows[i]
        kind = rng.randrange(3)
        if kind == 0:
            x ^= 1 << c
        elif kind == 1:
            z ^= 1 << c
        else:
            sign = -sign
        bent = rows[:i] + [(x, z, sign)] + rows[i + 1 :]
        monkeypatch.setattr(convert, "_canonical_rows", lambda m, b=bent: (b, pivots))
        layout, _ = swap_rule_layout(n, bent, pivots, mat.qubit_of_column)
        shape = SimpleNamespace(n=n, rows=tuple(layout))
        try:
            canonical_blocks_reference(shape, pivots.bit_count())
        except ValueError:
            with pytest.raises((InvariantError, ValueError)):
                graph_from_generator_matrix(mat)
            outcomes["raised"] += 1
            continue

        perm = mat.qubit_of_column

        def moved(mask: int) -> int:
            return sum(1 << perm[b] for b in _bits(mask))

        want = [None] * n
        for col, (bx, bz, bs) in enumerate(bent):
            want[perm[col]] = PauliString(n, moved(bx), moved(bz), bs)
        assert closed_form_reference(graph_from_generator_matrix(mat)) == tuple(want)
        outcomes["reproduced"] += 1
    # Both branches are exercised in bulk.
    assert min(outcomes.values()) >= 500, outcomes
