"""Tests for the three-layer preparation circuit and its generators.

The closed-form generator reading and the gate-by-gate conjugation
reading are kept as two genuinely separate code paths; their exact
agreement (including signs) is the main invariant here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgraph import (
    GraphFormCircuit,
    StabilizerGraph,
    circuit_from_graph,
    generators_by_conjugation,
    generators_from_circuit,
    graph_from_circuit,
    random_graph,
    stabilizer_check,
    statevector_from_circuit,
)


class TestCircuitType:
    def test_rejects_unordered_cz_pairs(self):
        with pytest.raises(ValueError):
            GraphFormCircuit(2, frozenset({(1, 0)}), frozenset(), frozenset(), frozenset())

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError):
            GraphFormCircuit(2, frozenset(), frozenset({2}), frozenset(), frozenset())

    def test_rejects_cz_on_equal_qubits(self):
        with pytest.raises(ValueError):
            GraphFormCircuit(2, frozenset({(1, 1)}), frozenset(), frozenset(), frozenset())


    @pytest.mark.parametrize(
        "args, message",
        [
            ((2.0, (), (), (), ()), "n must be an integer"),
            (("2", (), (), (), ()), "n must be an integer"),
            ((2, (), {1.0}, (), ()), "node id must be an integer"),
            ((2, (), (), (), {"1"}), "node id must be an integer"),
            ((2, {(0, 1.0)}, (), (), ()), "node id must be an integer"),
        ],
    )
    def test_rejects_ids_that_are_not_integers(self, args, message):
        with pytest.raises(ValueError, match=message):
            GraphFormCircuit(*args)

    def test_stores_python_ints_in_frozensets(self):
        # Lists and sets are taken as given and stored as frozensets, so
        # the frozen circuit hashes; numpy ids become Python ints.
        want = GraphFormCircuit(
            2, frozenset({(0, 1)}), frozenset(), frozenset({1}), frozenset()
        )
        got = GraphFormCircuit(2, [(0, 1)], set(), {1}, set())
        assert got == want and hash(got) == hash(want)
        assert all(type(field) is frozenset for field in (got.cz, got.z_set, got.s_set, got.h_set))
        c = GraphFormCircuit(np.int64(3), [(np.int64(0), np.int64(2))], [np.int64(1)], (), ())
        assert type(c.n) is int and c.n == 3
        assert all(type(q) is int for pair in c.cz for q in pair)
        assert [type(q) for q in c.z_set] == [int]
        empty = frozenset()
        assert c == GraphFormCircuit(3, frozenset({(0, 2)}), frozenset({1}), empty, empty)

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_qubit(self, n):
        with pytest.raises(ValueError, match=f"^need at least one qubit, got n={n}$"):
            GraphFormCircuit(n, (), (), (), ())


class TestGraphCircuitBijection:
    def test_bell_graph_circuit(self):
        g = StabilizerGraph.build(2, edges=[(0, 1)], hollow=[1])
        c = circuit_from_graph(g)
        assert c.cz == frozenset({(0, 1)})
        assert c.h_set == frozenset({1})
        assert c.z_set == frozenset() and c.s_set == frozenset()

    def test_decorations_map_to_layers(self):
        g = StabilizerGraph.build(3, edges=[(0, 1)], hollow=[2], loops=[0], neg=[1])
        c = circuit_from_graph(g)
        assert c.s_set == {0}      # loop -> S
        assert c.z_set == {1}      # sign -> Z
        assert c.h_set == {2}      # hollow -> terminal H
        assert c.cz == {(0, 1)}

    @settings(max_examples=150)
    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_round_trip(self, seed, n):
        g = random_graph(n, seed)
        assert graph_from_circuit(circuit_from_graph(g)) == g
        c = circuit_from_graph(g)
        assert circuit_from_graph(graph_from_circuit(c)) == c


class TestGenerators:
    @pytest.mark.parametrize(
        "kwargs, label",
        [
            ({}, "+X"),                                  # plain solid
            ({"hollow": [0]}, "+Z"),                     # terminal H
            ({"loops": [0]}, "+Y"),                      # S twist
            ({"neg": [0]}, "-X"),                        # Z sign
            ({"hollow": [0], "neg": [0]}, "-Z"),
            ({"loops": [0], "hollow": [0]}, "-Y"),       # loop + hollow
        ],
    )
    def test_single_node_table(self, kwargs, label):
        g = StabilizerGraph.build(1, **kwargs)
        (gen,) = generators_from_circuit(circuit_from_graph(g))
        assert gen.label() == label

    def test_bell_generators(self):
        g = StabilizerGraph.build(2, edges=[(0, 1)], hollow=[1])
        gens = generators_from_circuit(circuit_from_graph(g))
        assert [p.label() for p in gens] == ["+XX", "+ZZ"]

    def test_neighbor_letter_depends_on_neighbor_fill(self):
        # A solid neighbor contributes Z, a hollow neighbor contributes X.
        g = StabilizerGraph.build(2, edges=[(0, 1)])
        gens = generators_from_circuit(circuit_from_graph(g))
        assert [p.label() for p in gens] == ["+XZ", "+ZX"]

    @settings(max_examples=150)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_two_readings_agree_exactly(self, seed, n):
        c = circuit_from_graph(random_graph(n, seed))
        assert generators_from_circuit(c) == generators_by_conjugation(c)

    @settings(max_examples=60)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_generators_stabilize_the_circuit_state(self, seed, n):
        c = circuit_from_graph(random_graph(n, seed))
        v = statevector_from_circuit(c)
        assert stabilizer_check(v, generators_from_circuit(c))
