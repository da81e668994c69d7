"""Tests for the dense statevector reference implementation.

The oracle must itself be trustworthy, so it is pinned here against
hand-written amplitudes, against the kron-built unitaries from
``tests/helpers.py`` — a third, entirely independent construction — and,
amplitude by amplitude, against the gate-by-gate circuit run kept there
as the reference for the layer-by-layer one.  The batched kernel's rows
are held, bit for bit, to the one-state body it replaced.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    gate_images_by_table,
    gate_unitary,
    pauli_matrix,
    random_circuit,
    statevector_by_unitaries,
    statevector_gate_by_gate,
    statevector_layer_by_layer,
)
from stabgraph import (
    GraphFormCircuit,
    PauliString,
    StabilizerGraph,
    Statevector,
    apply_gate_dense,
    apply_pauli,
    circuit_from_graph,
    is_reduced,
    random_graph,
    random_reduced_graph,
    stabilizer_check,
    statevector_from_circuit,
    statevector_from_graph,
    states_equal_up_to_global_phase,
)
import stabgraph
from stabgraph import oracle
from stabgraph.oracle import _index_bits, _pair_products, gate_images, graph_amplitudes

G = StabilizerGraph.build
INV_SQRT2 = 1 / np.sqrt(2.0)
TOL = 1e-9


def max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest amplitude-wise distance: an exact comparison, no phase freedom."""
    assert a.shape == b.shape
    return float(np.max(np.abs(a - b)))


class TestStatevectorType:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Statevector(np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize(
        "amps",
        [[np.nan, 0], [1, np.nan], [np.inf, 0], [0, -np.inf], [complex(0, np.nan), 1]],
    )
    def test_rejects_nan_and_inf(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            Statevector(np.array(amps, dtype=complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Statevector(np.array([1.0, 0, 0], dtype=complex))

    def test_qubit_count_cap(self):
        with pytest.raises(ValueError):
            statevector_from_graph(StabilizerGraph.empty(13))


class TestGraphStates:
    def test_plus_state(self):
        v = statevector_from_graph(G(1))
        assert np.allclose(v.amps, [INV_SQRT2, INV_SQRT2])

    def test_zero_and_one(self):
        assert np.allclose(statevector_from_graph(G(1, hollow=[0])).amps, [1, 0])
        assert np.allclose(
            statevector_from_graph(G(1, hollow=[0], neg=[0])).amps, [0, 1]
        )

    def test_loop_gives_s_plus(self):
        v = statevector_from_graph(G(1, loops=[0]))
        assert np.allclose(v.amps, [INV_SQRT2, INV_SQRT2 * 1j])

    def test_qubit_zero_is_the_most_significant_bit(self):
        # |1> on qubit 0 and |+> on qubit 1: weight must sit on the
        # upper half of the amplitude vector.
        v = statevector_from_graph(G(2, hollow=[0], neg=[0]))
        assert np.allclose(v.amps, [0, 0, INV_SQRT2, INV_SQRT2])

    def test_bell(self):
        v = statevector_from_graph(G(2, edges=[(0, 1)], hollow=[1]))
        assert np.allclose(v.amps, [INV_SQRT2, 0, 0, INV_SQRT2])

    def test_ghz(self):
        v = statevector_from_graph(G(3, edges=[(0, 1), (0, 2)], hollow=[1, 2]))
        expect = np.zeros(8)
        expect[0] = expect[7] = INV_SQRT2
        assert np.allclose(v.amps, expect)

    def test_graph_and_circuit_routes_agree(self):
        for seed in range(40):
            g = random_graph(4, seed)
            assert np.allclose(
                statevector_from_graph(g).amps,
                statevector_from_circuit(circuit_from_graph(g)).amps,
            )


class TestLayerByLayerCircuit:
    """``statevector_from_circuit`` runs the diagonal layers in one pass and
    the Hadamards as Kronecker factors; it must agree amplitude by amplitude,
    global phase included, with a gate-by-gate run and with the product of
    kron-built unitaries."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2**32))
    def test_matches_gate_by_gate_and_kron_product(self, n, seed):
        c = random_circuit(n, seed)
        amps = statevector_from_circuit(c).amps
        assert max_gap(amps, statevector_gate_by_gate(c)) <= TOL
        assert max_gap(amps, statevector_by_unitaries(c)) <= TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_gate_by_gate_at_the_cap(self, seed):
        # A 2^12-square complex matrix is 256 MB, so at the cap the
        # gate-by-gate run is the only reference.
        c = random_circuit(12, seed)
        assert max_gap(statevector_from_circuit(c).amps, statevector_gate_by_gate(c)) <= TOL

    def test_every_hadamard_and_phase_layer_counts(self):
        # All Hadamards and no phase, then each single layer on its own.
        n = 5
        full = frozenset(range(n))
        empty = frozenset()
        pairs = frozenset((a, b) for a in range(n) for b in range(a + 1, n))
        for cz, z, s, h in (
            (empty, empty, empty, full),
            (pairs, empty, empty, empty),
            (empty, full, empty, empty),
            (empty, empty, full, empty),
            (pairs, full, full, full),
        ):
            c = GraphFormCircuit(n, cz=cz, z_set=z, s_set=s, h_set=h)
            assert max_gap(statevector_from_circuit(c).amps, statevector_by_unitaries(c)) <= TOL

    def test_index_bit_table_is_read_only_and_shared(self):
        bits = _index_bits(3)
        assert bits is _index_bits(3)
        assert bits.shape == (8, 3) and not bits.flags.writeable
        # Qubit 0 is the most significant bit of the index.
        assert bits[0b110].tolist() == [1, 1, 0]
        assert bits[0b001].tolist() == [0, 0, 1]
        with pytest.raises(ValueError):
            bits[0, 0] = 1


def _graph_of(c: GraphFormCircuit) -> StabilizerGraph:
    return G(c.n, edges=c.cz, hollow=c.h_set, loops=c.s_set, neg=c.z_set)


class TestBatchedKernel:
    """``graph_amplitudes`` computes a whole batch of graph states at once;
    each row must equal, bit for bit, the one-state layer-by-layer body it
    replaced (``helpers.statevector_layer_by_layer``), and, to the
    tolerance, the gate-by-gate run, whose arithmetic differs."""

    @staticmethod
    def batch(n: int, seed: int) -> list:
        circuits = [random_circuit(n, seed * 16 + k) for k in range(6)]
        full, empty = frozenset(range(n)), frozenset()
        pairs = frozenset((a, b) for a in range(n) for b in range(a + 1, n))
        # All nodes hollow, no node hollow, and everything at once.
        circuits.append(GraphFormCircuit(n, cz=empty, z_set=empty, s_set=empty, h_set=full))
        circuits.append(GraphFormCircuit(n, cz=pairs, z_set=full, s_set=full, h_set=empty))
        circuits.append(GraphFormCircuit(n, cz=pairs, z_set=full, s_set=full, h_set=full))
        return circuits

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rows_equal_the_one_state_body_bit_for_bit(self, n):
        circuits = self.batch(n, n)
        rows = graph_amplitudes([_graph_of(c) for c in circuits])
        assert rows.shape == (len(circuits), 1 << n)
        for c, row in zip(circuits, rows):
            assert np.array_equal(row, statevector_layer_by_layer(c))
            assert max_gap(row, statevector_gate_by_gate(c)) <= TOL

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_a_batch_of_one_is_the_one_state_call(self, n):
        for c in self.batch(n, 0)[-4:]:
            (row,) = graph_amplitudes([_graph_of(c)])
            assert np.array_equal(row, statevector_layer_by_layer(c))
            assert np.array_equal(row, statevector_from_circuit(c).amps)
            assert np.array_equal(row, statevector_from_graph(_graph_of(c)).amps)

    def test_rows_do_not_depend_on_their_batch(self):
        graphs = [random_graph(6, s) for s in range(10)]
        graphs += [random_reduced_graph(6, s) for s in range(10)]
        rows = graph_amplitudes(graphs)
        for g, row in zip(graphs, rows):
            assert np.array_equal(row, graph_amplitudes([g])[0])
        assert np.array_equal(graph_amplitudes(graphs[::-1]), rows[::-1])

    def test_mixed_sizes_are_rejected(self):
        with pytest.raises(ValueError, match="share n"):
            graph_amplitudes([random_graph(3, 0), random_graph(4, 0)])

    def test_an_empty_batch_is_rejected(self):
        with pytest.raises(ValueError, match="at least one graph"):
            graph_amplitudes([])

    def test_above_the_cap_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds the dense-simulation cap"):
            graph_amplitudes([StabilizerGraph.empty(13)])

    def test_a_corrupted_row_fails_the_norm_check(self, monkeypatch):
        # A factor table whose every Hadamard factor is bent off unitary;
        # mask 0, the identity, is left alone.
        real = oracle._hadamard_products

        def bent_table(k):
            table = real(k).copy()
            table[1:] *= 1.001
            return table

        v = statevector_from_graph(random_graph(4, 0))
        hollow = [G(4, edges=[(0, 1)], hollow=[k], neg=[2]) for k in range(4)]
        monkeypatch.setattr(oracle, "_hadamard_products", bent_table)
        with pytest.raises(ValueError, match="not normalized"):
            graph_amplitudes(hollow)
        with pytest.raises(ValueError, match="not normalized"):
            gate_images(v.amps, [("S", (0,)), ("H", (1,)), ("CZ", (1, 2))])

    def test_the_norm_check_survives_python_O(self):
        code = (
            "import numpy as np\n"
            "from stabgraph import oracle, StabilizerGraph\n"
            "g = StabilizerGraph.build(3, hollow=[1])\n"
            "v = oracle.statevector_from_graph(g)\n"
            "real = oracle._hadamard_products\n"
            "def bad(k):\n"
            "    table = real(k).copy()\n"
            "    table[1:, 0, 0] = np.nan\n"
            "    return table\n"
            "oracle._hadamard_products = bad\n"
            "for call in (lambda: oracle.graph_amplitudes([g, g]),\n"
            "             lambda: oracle.gate_images(v.amps, [('H', (2,))])):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print('raised:', exc)\n"
        )
        src = str(Path(stabgraph.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["raised: state is not normalized"] * 2

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_hollow_mask_matches_the_butterflies(self, n):
        # Every hollow mask at n <= 8 and seeded ones above, each over a
        # random CZ/Z/S layer: the Kronecker factors must give the
        # butterfly reference's rows exactly.
        rng = np.random.default_rng(n)
        masks = range(1 << n) if n <= 8 else [0, (1 << n) - 1, *rng.integers(1 << n, size=14)]
        circuits = []
        for k, mask in enumerate(masks):
            c = random_circuit(n, 1000 * n + k)
            hollow = frozenset(q for q in range(n) if int(mask) >> q & 1)
            circuits.append(GraphFormCircuit(n, c.cz, c.z_set, c.s_set, hollow))
        rows = graph_amplitudes([_graph_of(c) for c in circuits])
        for c, row in zip(circuits, rows):
            assert np.array_equal(row, statevector_layer_by_layer(c))

    def test_hadamard_table_is_read_only_and_shared(self):
        table = oracle._hadamard_products(2)
        assert table is oracle._hadamard_products(2)
        assert table.shape == (4, 4, 4) and not table.flags.writeable
        h, eye = np.array([[1, 1], [1, -1]]), np.eye(2)
        # Bit q of the mask is qubit q, the q-th most significant index bit.
        for mask, factor in ((0, np.kron(eye, eye)), (1, np.kron(h, eye)),
                             (2, np.kron(eye, h)), (3, np.kron(h, h))):
            assert np.array_equal(table[mask], factor)
        assert np.array_equal(oracle._hadamard_products(0), [[[1]]])
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1

    def test_pair_table_is_read_only_and_shared(self):
        table = _pair_products(3)
        assert table is _pair_products(3)
        assert table.shape == (6, 8) and not table.flags.writeable
        # Rows are the pairs (0,0) (0,1) (0,2) (1,1) (1,2) (2,2).
        assert table[:, 0b110].tolist() == [1, 1, 0, 1, 0, 0]
        assert table[:, 0b101].tolist() == [1, 0, 1, 0, 0, 1]
        with pytest.raises(ValueError):
            table[0, 0] = 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_gate_images_equal_the_table_body_bit_for_bit(self, n):
        v = statevector_from_graph(random_graph(n, 100 + n))
        gates = [(gate, (q,)) for q in range(n) for gate in ("H", "S", "Z")]
        gates += [("CZ", (a, b)) for a in range(n) for b in range(n) if a != b]
        assert np.array_equal(gate_images(v.amps, gates), gate_images_by_table(v.amps, gates))

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_gate_images_are_the_one_gate_calls(self, n):
        v = statevector_from_graph(random_graph(n, n))
        gates = [(gate, (q,)) for q in range(n) for gate in ("H", "S", "Z")]
        gates += [("CZ", (a, b)) for a in range(n) for b in range(n) if a != b]
        images = gate_images(v.amps, gates)
        assert images.shape == (len(gates), 1 << n)
        for (gate, targets), row in zip(gates, images):
            assert np.array_equal(row, apply_gate_dense(v, gate, *targets).amps)
            if n <= 4:
                expect = gate_unitary(n, gate, *targets) @ v.amps
                assert max_gap(row, expect) <= TOL


class TestApplyGateDense:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_gate_and_target_entrywise(self, n):
        for seed in range(3):
            v = statevector_from_graph(random_graph(n, seed))
            for gate in ("H", "S", "Z"):
                for q in range(n):
                    expect = gate_unitary(n, gate, q) @ v.amps
                    assert max_gap(apply_gate_dense(v, gate, q).amps, expect) <= TOL
            for a in range(n):
                for b in range(n):
                    if a != b:
                        expect = gate_unitary(n, "CZ", a, b) @ v.amps
                        got = apply_gate_dense(v, "CZ", a, b).amps
                        assert max_gap(got, expect) <= TOL

    def test_input_state_is_left_alone(self):
        v = statevector_from_graph(random_graph(4, 3))
        before = v.amps.copy()
        for gate, targets in (("H", (1,)), ("S", (2,)), ("Z", (0,)), ("CZ", (1, 3))):
            apply_gate_dense(v, gate, *targets)
        assert np.array_equal(v.amps, before)

    def test_rejects_equal_cz_targets(self):
        v = statevector_from_graph(G(2))
        with pytest.raises(ValueError, match="must differ"):
            apply_gate_dense(v, "CZ", 1, 1)

    @pytest.mark.parametrize("gate", ["H", "S", "Z"])
    def test_single_qubit_against_kron(self, gate):
        for seed in range(10):
            g = random_graph(3, seed)
            v = statevector_from_graph(g)
            for q in range(3):
                expect = gate_unitary(3, gate, q) @ v.amps
                assert np.allclose(apply_gate_dense(v, gate, q).amps, expect)

    def test_cz_against_kron(self):
        for seed in range(10):
            v = statevector_from_graph(random_graph(3, seed))
            for a in range(3):
                for b in range(3):
                    if a != b:
                        expect = gate_unitary(3, "CZ", a, b) @ v.amps
                        assert np.allclose(
                            apply_gate_dense(v, "CZ", a, b).amps, expect
                        )

    @pytest.mark.parametrize(
        "gate, targets, message",
        [
            ("T", (0,), "unknown gate"),
            ("H", (0, 1), "takes 1 target"),
            ("CZ", (0,), "takes 2 target"),
            ("S", (2,), "target 2 out of range"),
            ("CZ", (0, -1), "target -1 out of range"),
            ("CZ", (1, 1), "must differ"),
        ],
    )
    def test_every_argument_check(self, gate, targets, message):
        v = statevector_from_graph(G(2))
        with pytest.raises(ValueError, match=message):
            apply_gate_dense(v, gate, *targets)
        with pytest.raises(ValueError, match=message):
            gate_images(v.amps, [("H", (0,)), (gate, targets)])

    def test_numpy_targets_act_like_python_ints(self):
        v = statevector_from_graph(random_graph(3, 7))
        gates = [("H", (2,)), ("S", (1,)), ("Z", (0,)), ("CZ", (2, 0))]
        numpy_gates = [(gate, tuple(map(np.uint8, t))) for gate, t in gates]
        assert np.array_equal(gate_images(v.amps, numpy_gates), gate_images(v.amps, gates))
        with pytest.raises(ValueError, match="node id must be an integer"):
            gate_images(v.amps, [("S", ("1",))])

    def test_rejects_unknown_gate(self):
        v = statevector_from_graph(G(1))
        with pytest.raises(ValueError):
            apply_gate_dense(v, "T", 0)


class TestApplyPauli:
    def test_against_dense_matrix(self):
        for label in ("+X", "-Y", "+Z"):
            p = PauliString.from_label(label)
            for amps in ([1, 0], [0, 1], [INV_SQRT2, INV_SQRT2 * 1j]):
                v = Statevector(np.array(amps, dtype=complex))
                expect = pauli_matrix(p) @ v.amps
                assert np.allclose(apply_pauli(v, p).amps, expect)

    def test_multi_qubit_string(self):
        p = PauliString.from_label("-XZY")
        v = statevector_from_graph(random_graph(3, seed=5))
        assert np.allclose(apply_pauli(v, p).amps, pauli_matrix(p) @ v.amps)

    @settings(max_examples=60)
    @given(st.integers(0, 10**6))
    def test_pauli_squares_to_identity(self, seed):
        import random as _random

        rng = _random.Random(seed)
        n = rng.randrange(1, 5)
        p = PauliString(
            n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1))
        )
        v = statevector_from_graph(random_graph(n, seed))
        assert np.allclose(apply_pauli(apply_pauli(v, p), p).amps, v.amps)


class TestComparisons:
    def test_global_phase_is_ignored(self):
        v = statevector_from_graph(G(2, edges=[(0, 1)]))
        w = Statevector(v.amps * np.exp(0.37j))
        assert states_equal_up_to_global_phase(v, w)

    def test_orthogonal_states_differ(self):
        assert not states_equal_up_to_global_phase(
            statevector_from_graph(G(1, hollow=[0])),
            statevector_from_graph(G(1, hollow=[0], neg=[0])),
        )

    def test_tolerance_is_honoured(self):
        v = statevector_from_graph(G(1))
        w = Statevector(np.array([np.sqrt(1 - 1e-4), np.sqrt(1e-4)], dtype=complex))
        assert not states_equal_up_to_global_phase(v, w)
        assert states_equal_up_to_global_phase(v, w, tol=0.5)

    def test_stabilizer_check_rejects_a_nan_difference(self, monkeypatch):
        v = statevector_from_graph(G(1))
        # A NaN amplitude never compares greater than the tolerance.
        nan_image = SimpleNamespace(amps=np.array([np.nan, INV_SQRT2]))
        monkeypatch.setattr(oracle, "apply_pauli", lambda v, g: nan_image)
        assert not stabilizer_check(v, [PauliString.from_label("+X")])

    def test_stabilizer_check(self):
        v = statevector_from_graph(G(2, edges=[(0, 1)], hollow=[1]))
        good = [PauliString.from_label("+XX"), PauliString.from_label("+ZZ")]
        bad = [PauliString.from_label("-XX")]
        assert stabilizer_check(v, good)
        assert not stabilizer_check(v, bad)


class TestRandomGraphs:
    def test_deterministic_in_the_seed(self):
        assert random_graph(5, 123) == random_graph(5, 123)
        assert random_graph(5, 123) != random_graph(5, 124)

    @pytest.mark.parametrize("sampler", [random_graph, random_reduced_graph])
    @pytest.mark.parametrize("bad", [2.0, "3", None])
    def test_rejects_n_that_is_not_an_integer(self, sampler, bad):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {bad!r}$"):
            sampler(bad, 0)

    def test_takes_numpy_n(self):
        assert random_graph(np.int64(5), 3) == random_graph(5, 3)
        assert random_reduced_graph(np.uint8(5), 3) == random_reduced_graph(5, 3)

    def test_reduced_sampler_is_reduced(self):
        for seed in range(120):
            assert is_reduced(random_reduced_graph(4, seed))

    def test_samplers_cover_decorations(self):
        seen_hollow = seen_loop = seen_neg = False
        for seed in range(40):
            g = random_graph(4, seed)
            seen_hollow |= any(g.hollow)
            seen_loop |= any(g.loop)
            seen_neg |= any(g.neg)
        assert seen_hollow and seen_loop and seen_neg


_ONE_QUBIT = Statevector(np.array([1.0, 0.0], dtype=complex))


@pytest.mark.parametrize(
    "call, args, message",
    [
        (apply_pauli, (_ONE_QUBIT, PauliString.from_label("+XX")),
         "size mismatch: state has 1 qubits, operator 2"),
        (states_equal_up_to_global_phase,
         (_ONE_QUBIT, Statevector(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))),
         "size mismatch: 1 vs 2"),
        (random_graph, (0, 1), "need at least one node, got n=0"),
        (statevector_from_circuit, (GraphFormCircuit(13, (), (), (), ()),),
         "n=13 exceeds the dense-simulation cap of 12"),
    ],
    ids=["apply_pauli", "states_equal", "random_graph", "circuit-cap"],
)
def test_input_checks(call, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)
