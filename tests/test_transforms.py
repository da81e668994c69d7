"""Tests for the gate rewrite rules.

Each rule tag gets at least one frozen input/output pair (checked
graph-exactly) plus a dense-simulation soundness property.  The frozen
outputs were cross-checked against the statevector oracle before being
written down here; the oracle checks in this file keep them honest.
"""

from __future__ import annotations

import collections
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_sequence_reference,
    decorations,
    keeps_the_suspect_rule,
    random_word,
    sparse_graph,
)
from stabgraph import (
    InvariantError,
    StabilizerGraph,
    apply_E1,
    apply_Ei,
    apply_Eii,
    apply_cz,
    apply_cz_reduced,
    apply_gate_dense,
    apply_local,
    apply_local_reduced,
    apply_sequence,
    classify_cz_reduced,
    classify_local,
    classify_local_reduced,
    expand_gate,
    flip_sign,
    graphs_equivalent,
    is_reduced,
    neighbors,
    random_graph,
    random_reduced_graph,
    statevector_from_graph,
    states_equal_up_to_global_phase,
    to_reduced,
)
from stabgraph import equivalence, graph, transforms

G = StabilizerGraph.build


def assert_sound(g_in, g_out, gate, *targets):
    """The rewrite must act on the state exactly as the dense gate."""
    assert states_equal_up_to_global_phase(
        statevector_from_graph(g_out),
        apply_gate_dense(statevector_from_graph(g_in), gate, *targets),
    )


class TestClassification:
    def test_general_local(self):
        g = G(2, edges=[(0, 1)], hollow=[0], loops=[1])
        assert classify_local(g, "H", 1) == "T1"
        assert classify_local(g, "S", 1) == "T2"
        assert classify_local(g, "S", 0) == "T3"
        assert classify_local(G(1, hollow=[0], loops=[0]), "S", 0) == "T4"
        assert classify_local(g, "Z", 1) == "T5"
        assert classify_local(g, "Z", 0) == "T6"

    def test_reduced_local(self):
        g = G(3, edges=[(0, 1), (0, 2)], hollow=[1], loops=[2])
        assert classify_local_reduced(G(1), "H", 0) == "T(i)"
        assert classify_local_reduced(g, "H", 2) == "T(ii)"
        assert classify_local_reduced(g, "H", 0) == "T(iii)"
        assert classify_local_reduced(
            G(2, edges=[(0, 1)], hollow=[1], loops=[0]), "H", 0
        ) == "T(iv)"
        assert classify_local_reduced(g, "H", 1) == "T(v)"
        assert classify_local_reduced(g, "S", 0) == "T(vi)"
        assert classify_local_reduced(g, "S", 1) == "T(vii)"
        # Z needs no reduced variant: the general rules already preserve
        # reduced form.
        assert classify_local_reduced(g, "Z", 0) == "T5"
        assert classify_local_reduced(g, "Z", 1) == "T6"

    def test_reduced_cz(self):
        assert classify_cz_reduced(G(2), 0, 1) == "T(viii)"
        assert classify_cz_reduced(G(2, hollow=[1]), 0, 1) == "T(ix)"
        assert classify_cz_reduced(G(2, hollow=[0, 1]), 0, 1) == "T(x)"

    def test_rejects_unknown_gate(self):
        with pytest.raises(ValueError):
            classify_local(G(1), "CX", 0)

    @pytest.mark.parametrize("gate", ["CX", "CZ", "h"])
    def test_reduced_rejects_unknown_gate(self, gate):
        with pytest.raises(ValueError, match=f"^not a single-node gate: '{gate}'$"):
            classify_local_reduced(G(1), gate, 0)


class TestGeneralLocalRules:
    def test_t1_hadamard_on_loop_free_flips_fill(self):
        g = G(2, edges=[(0, 1)])
        out = apply_local(g, "H", 0)
        assert out == G(2, edges=[(0, 1)], hollow=[0])
        assert_sound(g, out, "H", 0)

    def test_t2_phase_gate_on_solid_advances_loop(self):
        g = G(1)
        out = apply_local(g, "S", 0)
        assert out == G(1, loops=[0])
        out2 = apply_local(out, "S", 0)
        assert out2 == G(1, neg=[0])  # loop cleared, sign flipped
        assert_sound(out, out2, "S", 0)

    def test_t3_phase_gate_on_hollow(self):
        g = G(2, edges=[(0, 1)], hollow=[0])
        out = apply_local(g, "S", 0)
        assert out == G(2, edges=[(0, 1)], hollow=[0], loops=[1])
        assert_sound(g, out, "S", 0)

    def test_t3_negative_hollow_also_flips_neighbor_signs(self):
        g = G(2, edges=[(0, 1)], hollow=[0], neg=[0])
        out = apply_local(g, "S", 0)
        assert out == G(2, edges=[(0, 1)], hollow=[0], loops=[1], neg=[0, 1])
        assert_sound(g, out, "S", 0)

    def test_t4_phase_gate_on_hollow_loop(self):
        g = G(2, edges=[(0, 1)], hollow=[0], loops=[0])
        out = apply_local(g, "S", 0)
        assert out == G(2, edges=[(0, 1)], loops=[1], neg=[1])
        assert_sound(g, out, "S", 0)

    def test_t4_sign_condition_reads_the_original_sign(self):
        g = G(2, edges=[(0, 1)], hollow=[0], loops=[0], neg=[0])
        out = apply_local(g, "S", 0)
        assert out == G(2, edges=[(0, 1)], loops=[1], neg=[0])
        assert_sound(g, out, "S", 0)

    def test_t5_z_on_solid_flips_own_sign(self):
        g = G(1)
        out = apply_local(g, "Z", 0)
        assert out == G(1, neg=[0])
        assert_sound(g, out, "Z", 0)

    def test_t6_z_on_hollow_flips_neighbor_signs(self):
        g = G(2, edges=[(0, 1)], hollow=[0], loops=[0])
        out = apply_local(g, "Z", 0)
        assert out == G(2, edges=[(0, 1)], hollow=[0], loops=[0], neg=[0, 1])
        assert_sound(g, out, "Z", 0)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(["H", "S", "Z"]))
    def test_sound_on_random_graphs(self, seed, n, gate):
        g = random_graph(n, seed)
        for j in range(n):
            assert_sound(g, apply_local(g, gate, j), gate, j)


class TestReducedLocalRules:
    def test_tvi_phase_gate_on_solid_adds_a_loop(self):
        g = G(2, edges=[(0, 1)], hollow=[1])
        out = apply_local_reduced(g, "S", 0)
        assert out == G(2, edges=[(0, 1)], hollow=[1], loops=[0])

    def test_tii_hadamard_on_solid_loop(self):
        g = G(2, edges=[(0, 1)], loops=[0])
        out = apply_local_reduced(g, "H", 0)
        assert out == G(2, edges=[(0, 1)], loops=[0, 1], neg=[0, 1])
        assert_sound(g, out, "H", 0)

    def test_tiii_hadamard_on_solid_with_hollow_neighbor(self):
        g = G(3, edges=[(0, 1), (0, 2), (1, 2)], hollow=[1])
        out = apply_local_reduced(g, "H", 0)
        assert out == G(3, edges=[(0, 1), (0, 2), (1, 2)], neg=[2])
        assert_sound(g, out, "H", 0)

    def test_tiii_sign_conditions_are_memoized(self):
        # Both sign clauses read the pre-rewrite signs; evaluating the
        # second after the first has fired gives a different (wrong)
        # graph, which the dense check would reject.
        g = G(3, edges=[(0, 1), (0, 2), (1, 2)], hollow=[1], neg=[0, 1])
        out = apply_local_reduced(g, "H", 0)
        assert out == G(3, edges=[(0, 1), (0, 2), (1, 2)], neg=[0, 1, 2])
        assert_sound(g, out, "H", 0)

    def test_tiv_hadamard_on_solid_loop_with_hollow_neighbor(self):
        g = G(3, edges=[(0, 1), (0, 2)], hollow=[1, 2], loops=[0])
        out = apply_local_reduced(g, "H", 0)
        assert out == G(3, edges=[(0, 1), (1, 2)], hollow=[2], loops=[1])
        assert_sound(g, out, "H", 0)

    def test_tv_tvii_on_hollow_nodes(self):
        g = G(2, edges=[(0, 1)], hollow=[1])
        s_out = apply_local_reduced(g, "S", 1)  # T(vii)
        assert s_out == G(2, edges=[(0, 1)], hollow=[1], loops=[0])
        h_out = apply_local_reduced(g, "H", 1)  # T(v)
        assert h_out == G(2, edges=[(0, 1)])
        assert_sound(g, s_out, "S", 1)
        assert_sound(g, h_out, "H", 1)

    def test_ti_hadamard_on_plain_solid_flips_fill(self):
        g = G(1)
        out = apply_local_reduced(g, "H", 0)
        assert out == G(1, hollow=[0])
        assert_sound(g, out, "H", 0)

    def test_hollow_choice_defaults_to_lowest_index(self):
        # T(iii) consumes the lowest hollow neighbor: it is E(ii) from
        # node 1, then H.
        g = G(3, edges=[(0, 1), (0, 2)], hollow=[1, 2])
        default = apply_local_reduced(g, "H", 0)
        explicit = apply_local(apply_Eii(g, 1, 0), "H", 0)
        assert default == explicit

    def test_any_hollow_choice_is_sound(self):
        # Every other hollow neighbor is the same composition from that
        # neighbor; the rule itself is the one from the lowest.
        g = G(4, edges=[(0, 1), (0, 2), (0, 3)], hollow=[1, 2, 3], neg=[2])
        for choice in (1, 2, 3):
            out = apply_local(apply_Eii(g, choice, 0), "H", 0)
            assert is_reduced(out)
            assert_sound(g, out, "H", 0)
            if choice == 1:
                assert apply_local_reduced(g, "H", 0) == out

    def test_rejects_solid_hollow_choice(self):
        # The consumed neighbor is not a parameter; a solid one is refused
        # by the E move that would consume it.
        g = G(3, edges=[(0, 1), (0, 2)], hollow=[1])
        with pytest.raises(TypeError):
            apply_local_reduced(g, "H", 0, hollow_choice=2)
        with pytest.raises(ValueError):
            apply_Eii(g, 2, 0)

    def test_rejects_unreduced_input(self):
        g = G(1, hollow=[0], loops=[0])
        with pytest.raises(ValueError):
            apply_local_reduced(g, "H", 0)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(["H", "S", "Z"]))
    def test_sound_and_closed_on_random_reduced_graphs(self, seed, n, gate):
        g = random_reduced_graph(n, seed)
        for j in range(n):
            out = apply_local_reduced(g, gate, j)
            assert is_reduced(out)
            assert_sound(g, out, gate, j)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(["H", "S", "Z"]))
    def test_agrees_with_general_rules_up_to_equivalence(self, seed, n, gate):
        g = random_reduced_graph(n, seed)
        for j in range(n):
            via_general = to_reduced(apply_local(g, gate, j))
            via_reduced = apply_local_reduced(g, gate, j)
            assert graphs_equivalent(via_general, via_reduced)


    def test_each_rule_is_its_e_move_prelude_then_a_general_rule(self):
        # T(ii) is E1 then H; T(iii) and T(iv) are E(ii) and E(i) from the
        # lowest hollow neighbor, then H, and the same composition from any
        # hollow neighbor k is reduced and sound; every other rule is the
        # general one.
        seen = set()
        for n in range(1, 8):
            for seed in range(40):
                g = random_reduced_graph(n, 7919 * n + seed)
                for gate, j in itertools.product("HSZ", range(n)):
                    rule = classify_local_reduced(g, gate, j)
                    seen.add(rule)
                    if rule == "T(ii)":
                        derived = [apply_local(apply_E1(g, j), "H", j)]
                    elif rule in ("T(iii)", "T(iv)"):
                        move = apply_Eii if rule == "T(iii)" else apply_Ei
                        derived = [
                            apply_local(move(g, k, j), "H", j)
                            for k in sorted(neighbors(g, j))
                            if g.hollow[k]
                        ]
                    else:
                        derived = [apply_local(g, gate, j)]
                    assert apply_local_reduced(g, gate, j) == derived[0], rule
                    for want in derived:
                        assert is_reduced(want), rule
                        assert_sound(g, want, gate, j)
        assert seen == {"T(i)", "T(ii)", "T(iii)", "T(iv)", "T(v)", "T(vi)", "T(vii)", "T5", "T6"}


class TestReducedCZRules:
    def test_tviii_toggles_the_edge(self):
        g = G(2)
        out = apply_cz_reduced(g, 0, 1)
        assert out == G(2, edges=[(0, 1)])
        assert apply_cz_reduced(out, 0, 1) == g
        assert_sound(g, out, "CZ", 0, 1)

    @pytest.mark.parametrize(
        "connected, hollow_neg, expect_solid_neg",
        [
            (False, False, False),
            (False, True, True),   # disconnected: flip iff hollow negative
            (True, False, True),   # connected: flip unless hollow negative
            (True, True, False),
        ],
    )
    def test_tix_sign_table(self, connected, hollow_neg, expect_solid_neg):
        g = G(
            2,
            edges=[(0, 1)] if connected else [],
            hollow=[1],
            neg=[1] if hollow_neg else [],
        )
        out = apply_cz_reduced(g, 0, 1)
        assert out.neg[0] == expect_solid_neg
        assert out.neg[1] == hollow_neg
        assert out.adj == g.adj  # N(hollow) \ {solid} is empty here
        assert_sound(g, out, "CZ", 0, 1)

    def test_tix_toggles_solid_against_other_hollow_neighbors(self):
        g = G(3, edges=[(1, 2)], hollow=[1])
        out = apply_cz_reduced(g, 0, 1)
        assert set(out.edges()) == {(1, 2), (0, 2)}
        assert_sound(g, out, "CZ", 0, 1)

    def test_tx_two_hollow_nodes(self):
        g = G(4, edges=[(0, 2), (1, 2), (0, 3)], hollow=[0, 1])
        out = apply_cz_reduced(g, 0, 1)
        assert out == G(
            4,
            edges=[(0, 2), (0, 3), (1, 2), (2, 3)],
            hollow=[0, 1],
            neg=[2],
        )
        assert_sound(g, out, "CZ", 0, 1)

    def test_tx_negative_decision_node_cancels_the_flip(self):
        g = G(4, edges=[(0, 2), (1, 2), (0, 3)], hollow=[0, 1], neg=[0])
        out = apply_cz_reduced(g, 0, 1)
        assert out == G(
            4,
            edges=[(0, 2), (0, 3), (1, 2), (2, 3)],
            hollow=[0, 1],
            neg=[0],
        )
        assert_sound(g, out, "CZ", 0, 1)

    def test_rejects_equal_targets(self):
        with pytest.raises(ValueError):
            apply_cz_reduced(G(2), 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_sound_and_closed_on_random_reduced_graphs(self, seed, n):
        g = random_reduced_graph(n, seed)
        for j in range(n):
            for k in range(j + 1, n):
                out = apply_cz_reduced(g, j, k)
                assert is_reduced(out)
                assert_sound(g, out, "CZ", j, k)


def _swap(g, hollow, solid):
    """Swap the fills of a hollow node and a solid neighbor: E(i) when the
    solid node has a loop, E(ii) when it has none."""
    return (apply_Ei if g.loop[solid] else apply_Eii)(g, hollow, solid)


def _derivation_graphs():
    """Seeded reduced graphs: every pair of nodes at n = 2..8, and 48
    pairs of each fill pattern at n = 16, 64 and 256."""
    for n in range(2, 9):
        for seed in range(240):
            g = random_reduced_graph(n, 1009 * n + seed)
            yield g, itertools.permutations(range(n), 2)
    for n, graphs in ((16, 12), (64, 4), (256, 2)):
        for seed in range(graphs):
            g = sparse_graph(n, 257 * n + seed, 6 / (n - 1), reduced=True)
            rng = random.Random(seed)
            solid = [j for j in range(n) if not g.hollow[j]]
            hollow = [j for j in range(n) if g.hollow[j]]
            pairs = [(rng.choice(solid), rng.choice(hollow)) for _ in range(48)]
            pairs += [tuple(rng.sample(hollow, 2)) for _ in range(48)]
            yield g, pairs


class TestCZDerivations:
    """T(ix) is T(viii) between fill swaps, and T(x) is T(ix) between fill
    swaps, as the paper derives them; each identity holds bit for bit, in
    both orders of the pair."""

    def test_tix_is_tviii_between_swaps(self):
        # Solid j, hollow k, m the lowest neighbor of k other than j:
        # swap k to m, CZ two solid nodes, swap back.  With no such m,
        # the CZ flips j's sign exactly when the j-k edge differs from k's.
        reached = collections.Counter()
        for g, pairs in _derivation_graphs():
            for j, k in pairs:
                if g.hollow[j] or not g.hollow[k]:
                    continue
                others = neighbors(g, k) - {j}
                if others:
                    m = min(others)
                    swapped = _swap(g, k, m)
                    assert classify_cz_reduced(swapped, j, k) == "T(viii)"
                    want = _swap(apply_cz_reduced(swapped, j, k), m, k)
                    case = "derived"
                elif g.has_edge(j, k) != g.neg[k]:
                    want, case = flip_sign(g, j), "flip"
                else:
                    want, case = g, "fixed"
                assert apply_cz_reduced(g, j, k) == want, (g, j, k)
                assert apply_cz_reduced(g, k, j) == want, (g, j, k)
                reached[case] += 1
        assert min(reached[case] for case in ("derived", "flip", "fixed")) >= 100, reached

    def test_tx_is_tix_between_swaps(self):
        # Hollow j and k, l the lowest neighbor of j: swap j to l, apply
        # T(ix) to the solid j and the hollow k, swap back.  With no such
        # l, the CZ is Z on k exactly when j is negative.
        reached = collections.Counter()
        for g, pairs in _derivation_graphs():
            for j, k in pairs:
                if not (g.hollow[j] and g.hollow[k]):
                    continue
                if neighbors(g, j):
                    l = min(neighbors(g, j))
                    swapped = _swap(g, j, l)
                    assert classify_cz_reduced(swapped, j, k) == "T(ix)"
                    want = _swap(apply_cz_reduced(swapped, j, k), l, j)
                    case = "derived"
                elif g.neg[j]:
                    want, case = apply_local(g, "Z", k), "flip"
                else:
                    want, case = g, "fixed"
                assert apply_cz_reduced(g, j, k) == want, (g, j, k)
                assert apply_cz_reduced(g, k, j) == want, (g, j, k)
                reached[case] += 1
        assert min(reached[case] for case in ("derived", "flip", "fixed")) >= 100, reached


class TestGeneralCZ:
    def test_reduces_first(self):
        g = G(2, edges=[(0, 1)], hollow=[0], loops=[0])
        out = apply_cz(g, 0, 1)
        assert out == G(2, loops=[0, 1], neg=[0, 1])
        assert_sound(g, out, "CZ", 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_sound_on_arbitrary_graphs(self, seed, n):
        g = random_graph(n, seed)
        out = apply_cz(g, 0, n - 1)
        assert is_reduced(out)
        assert_sound(g, out, "CZ", 0, n - 1)


class TestSequences:
    def test_phase_gate_has_order_four(self):
        g = G(1)
        assert apply_sequence(g, [("S", (0,))] * 4) == g

    def test_bell_preparation(self):
        # H on both, CZ, then H on the target spells CNOT(0 -> 1) after
        # an initial H — the textbook Bell ladder.
        g = G(2, hollow=[0, 1])  # |00>
        out = apply_sequence(
            g,
            [("H", (0,)), ("H", (1,)), ("CZ", (0, 1)), ("H", (1,))],
            reduced=True,
        )
        assert states_equal_up_to_global_phase(
            statevector_from_graph(out),
            statevector_from_graph(G(2, edges=[(0, 1)], hollow=[1])),
        )

    def test_reduced_flag_rejects_unreduced_input(self):
        g = G(1, hollow=[0], loops=[0])
        with pytest.raises(ValueError):
            apply_sequence(g, [("H", (0,))], reduced=True)

    def test_rejects_malformed_items(self):
        with pytest.raises(ValueError):
            apply_sequence(G(2), [("CZ", (0,))])

    def test_bare_int_target_is_accepted(self):
        # ("H", 0) is shorthand for ("H", (0,)); a bare int on a
        # two-target gate still trips the arity check.
        assert apply_sequence(G(1), [("H", 0)]) == apply_sequence(G(1), [("H", (0,))])
        with pytest.raises(ValueError, match="2 target"):
            apply_sequence(G(2), [("CZ", 0)])

    def test_numpy_targets_act_like_python_ints(self):
        # A bare numpy id is the one-target shorthand too, and a tuple of
        # numpy ids is a tuple of node ids.
        g = G(3, edges=[(0, 1)], loops=[0], neg=[2])
        word = [("S", 1), ("CZ", (0, 2)), ("H", (2,)), ("Z", 0)]
        want = apply_sequence(g, word)
        for kind in (np.int64, np.uint8):
            numpy_word = [("S", kind(1)), ("CZ", (kind(0), kind(2))),
                          ("H", (kind(2),)), ("Z", kind(0))]
            assert apply_sequence(g, numpy_word) == want
        with pytest.raises(ValueError, match="node id must be an integer"):
            apply_sequence(g, [("S", 1.0)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_random_word_soundness(self, seed, n):
        import random as _random

        rng = _random.Random(seed)
        g = random_graph(n, seed)
        v = statevector_from_graph(g)
        gates = []
        for _ in range(rng.randrange(1, 8)):
            gate = rng.choice(["H", "S", "Z", "CZ"])
            if gate == "CZ":
                j, k = rng.sample(range(n), 2)
                gates.append(("CZ", (j, k)))
            else:
                gates.append((gate, (rng.randrange(n),)))
        out = apply_sequence(g, gates)
        for gate, targets in gates:
            v = apply_gate_dense(v, gate, *targets)
        assert states_equal_up_to_global_phase(statevector_from_graph(out), v)


def _outcome(apply, g, word, reduced):
    """The graph ``apply`` returns, or the type and message it raises."""
    try:
        return apply(g, word, reduced)
    except (ValueError, InvariantError) as exc:
        return type(exc), str(exc)


def _fresh(g: StabilizerGraph) -> StabilizerGraph:
    """``g`` with every node suspect (suspect mask -1)."""
    return StabilizerGraph._trusted(g.n, g.hollow_mask, g.loop_mask, g.neg_mask, g.adj)


def _check_word(g: StabilizerGraph, word: list, reduced: bool):
    """``apply_sequence`` equals the one-gate loop, bit for bit, from a
    graph with every node suspect and from one whose mask a check has
    shrunk to its offenders, and its result's mask keeps its rule; returns
    the loop's outcome."""
    want = _outcome(apply_sequence_reference, _fresh(g), word, reduced)
    known = _fresh(g)
    is_reduced(known)
    for src in (_fresh(g), known):
        got = _outcome(apply_sequence, src, word, reduced)
        assert got == want, (word, reduced)
        if isinstance(got, StabilizerGraph):
            assert keeps_the_suspect_rule(got)
    return want


class TestWordKernel:
    """``apply_sequence`` runs a word on one ``_Masks``; the reference is
    the loop of one-gate public calls that each return a new graph."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_graph(self, n):
        rng = random.Random(n)
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                for g in decorations(n, list(edges)):
                    word = random_word(rng, n, rng.randrange(1, 5))
                    for reduced in (False, True):
                        _check_word(g, word, reduced)

    @pytest.mark.parametrize("n", [12, 64, 256, 1024])
    @pytest.mark.parametrize("input_reduced", [True, False])
    def test_seeded_long_words(self, n, input_reduced):
        rng = random.Random(n)
        g = sparse_graph(n, n, 2 / (n - 1), reduced=input_reduced)
        word = random_word(rng, n, 256)
        for reduced in (False, True):
            want = _check_word(g, word, reduced)
            if input_reduced or not reduced:  # the word ran to its end
                assert isinstance(want, StabilizerGraph)
            else:
                assert want == (ValueError, "graph is not reduced")

    def test_a_general_word_makes_at_most_two_full_scans(self, monkeypatch):
        # The suspect mask goes from gate to gate, so only the first check
        # of the input and the final rescan look at every node; the other
        # checks look at the nodes written since the last one.
        n = 1024
        g = sparse_graph(n, n, 2 / (n - 1), reduced=True)
        word = random_word(random.Random(n), n, 256)
        want = apply_sequence_reference(g, word)
        real, full = graph._offenders, (1 << n) - 1
        widths = []

        def counted(g, nodes):
            widths.append(nodes & full == full)
            return real(g, nodes)

        for module in (graph, transforms, equivalence):
            monkeypatch.setattr(module, "_offenders", counted)
        assert apply_sequence(_fresh(g), word) == want
        assert sum(widths) <= 2 < len(widths)

    def test_bad_target_in_gate_0_wins_over_an_unreduced_input(self):
        g = G(2, hollow=[0], loops=[0])
        word = [("H", (5,)), ("S", (0,))]
        with pytest.raises(ValueError, match=r"^target 5 out of range for n=2$"):
            apply_sequence(g, word, reduced=True)
        assert _outcome(apply_sequence, g, word, True) == _outcome(
            apply_sequence_reference, g, word, True
        )
        # One gate later, the unreduced input is reported first.
        late = [("S", (0,)), ("H", (5,))]
        with pytest.raises(ValueError, match=r"^graph is not reduced$"):
            apply_sequence(g, late, reduced=True)


class TestExpandGate:
    def test_native_gates_pass_through(self):
        assert expand_gate("H", 3) == [("H", (3,))]
        assert expand_gate("CZ", 0, 1) == [("CZ", (0, 1))]

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            expand_gate("H", 0, 1)
        with pytest.raises(ValueError):
            expand_gate("X", 0, 1)

    def test_x_expansion_flips_a_computational_qubit(self):
        g = G(1, hollow=[0])  # |0>
        out = apply_sequence(g, expand_gate("X", 0))
        assert out == G(1, hollow=[0], neg=[0])  # |1>

    def test_sdg_inverts_s(self):
        g = random_graph(4, seed=7)
        out = apply_sequence(g, expand_gate("SDG", 2) + expand_gate("S", 2))
        assert states_equal_up_to_global_phase(
            statevector_from_graph(g), statevector_from_graph(out)
        )

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            expand_gate("T", 0)

    @pytest.mark.parametrize(
        "gate, targets, message",
        [
            ("CZ", (0,), "CZ takes 2 target(s), got 1"),
            ("H", (0, 1), "H takes 1 target(s), got 2"),
            ("T", (0,), "unknown gate 'T'"),
            ("T", (0, 1), "unknown gate 'T'"),
        ],
    )
    def test_same_message_as_apply_sequence(self, gate, targets, message):
        """One check of the gate name and arity serves both entry points."""
        with pytest.raises(ValueError) as expanded:
            expand_gate(gate, *targets)
        with pytest.raises(ValueError) as applied:
            apply_sequence(random_graph(3, seed=1), [(gate, targets)])
        assert str(expanded.value) == str(applied.value) == message
