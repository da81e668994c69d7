"""Tests for the state-preserving rewrites and the equivalence decider.

The decider is constructive: reduce both graphs, then walk the hollow
sets together until they agree.  Its verdicts are compared against the
brute-force statevector overlap throughout.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decorations, decorations_reference
from stabgraph import (
    StabilizerGraph,
    apply_E1,
    apply_E2,
    apply_Ei,
    apply_Eii,
    graphs_equivalent,
    is_reduced,
    random_graph,
    random_reduced_graph,
    simplify_pair,
    statevector_from_graph,
    states_equal_up_to_global_phase,
    to_reduced,
)

G = StabilizerGraph.build


def assert_same_state(g1, g2):
    assert states_equal_up_to_global_phase(
        statevector_from_graph(g1), statevector_from_graph(g2)
    )


class TestE1:
    def test_isolated_hollow_loop(self):
        g = G(1, hollow=[0], loops=[0])
        out = apply_E1(g, 0)
        assert out == G(1, loops=[0], neg=[0])
        assert_same_state(g, out)

    def test_isolated_solid_loop(self):
        g = G(1, loops=[0])
        out = apply_E1(g, 0)
        assert out == G(1, hollow=[0], loops=[0], neg=[0])
        assert_same_state(g, out)

    def test_requires_a_loop(self):
        with pytest.raises(ValueError):
            apply_E1(G(1), 0)

    def test_keeps_the_loop(self):
        g = G(3, edges=[(0, 1), (1, 2)], loops=[1], neg=[2])
        out = apply_E1(g, 1)
        assert out.loop[1]
        assert out.hollow[1] != g.hollow[1]
        assert_same_state(g, out)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_preserves_state_everywhere(self, seed, n):
        g = random_graph(n, seed)
        for j in range(n):
            if g.loop[j]:
                assert_same_state(g, apply_E1(g, j))


class TestE2:
    def test_bell_drawings(self):
        g = G(2, edges=[(0, 1)], hollow=[1])
        out = apply_E2(g, 0, 1)
        assert out == G(2, edges=[(0, 1)], hollow=[0])
        assert_same_state(g, out)

    def test_sign_conditions_read_original_signs(self):
        # With both endpoints negative, evaluating the second condition
        # after the first flip would cancel everything; the correct
        # update leaves both nodes negative.
        g = G(2, edges=[(0, 1)], neg=[0, 1])
        out = apply_E2(g, 0, 1)
        assert out == G(2, edges=[(0, 1)], hollow=[0, 1], neg=[0, 1])
        assert_same_state(g, out)

    def test_requires_an_edge(self):
        with pytest.raises(ValueError):
            apply_E2(G(2), 0, 1)

    def test_rejects_loops_on_either_end(self):
        with pytest.raises(ValueError):
            apply_E2(G(2, edges=[(0, 1)], loops=[0]), 0, 1)
        with pytest.raises(ValueError):
            apply_E2(G(2, edges=[(0, 1)], loops=[1]), 0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_preserves_state_everywhere(self, seed, n):
        g = random_graph(n, seed)
        for j in range(n):
            for k in range(j + 1, n):
                if g.has_edge(j, k) and not g.loop[j] and not g.loop[k]:
                    assert_same_state(g, apply_E2(g, j, k))


class TestReducedMoves:
    def test_ei_matches_two_e1_moves(self):
        # The loop-carrying fill swap factors exactly into E1 at the solid
        # end followed by E1 at the (now looped) hollow end: checked on
        # every (hollow, looped solid) edge of every reduced graph, n <= 4.
        count = 0
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for chosen in itertools.product((False, True), repeat=len(pairs)):
                edges = list(itertools.compress(pairs, chosen))
                for g in decorations(n, edges, reduced=True):
                    for j, k in itertools.permutations(range(n), 2):
                        if g.hollow[j] and g.loop[k] and g.has_edge(j, k):
                            assert apply_Ei(g, j, k) == apply_E1(apply_E1(g, k), j)
                            count += 1
        assert count == 38_120

    def test_decorations_match_the_constructor_enumeration(self):
        # decorations() builds from masks with _trusted; the reference
        # builds every graph through the public constructor.
        for n in range(1, 4):
            pairs = list(itertools.combinations(range(n), 2))
            for chosen in itertools.product((False, True), repeat=len(pairs)):
                edges = list(itertools.compress(pairs, chosen))
                for reduced in (False, True):
                    got = list(decorations(n, edges, reduced=reduced))
                    assert got == list(decorations_reference(n, edges, reduced=reduced))
                    assert all(type(g) is StabilizerGraph for g in got)

    def test_ei_swaps_fills_and_stays_reduced(self):
        g = G(2, edges=[(0, 1)], hollow=[0], loops=[1])
        out = apply_Ei(g, 0, 1)
        assert out.hollow == (False, True)
        assert is_reduced(out)
        assert_same_state(g, out)

    def test_eii_swaps_fills_without_loops(self):
        g = G(2, edges=[(0, 1)], hollow=[1])
        out = apply_Eii(g, 1, 0)
        assert out == G(2, edges=[(0, 1)], hollow=[0])
        assert_same_state(g, out)

    def test_preconditions(self):
        g = G(2, edges=[(0, 1)], hollow=[0])
        with pytest.raises(ValueError):
            apply_Eii(g, 1, 0)  # arguments swapped: 1 is solid
        with pytest.raises(ValueError):
            apply_Eii(G(2, hollow=[0]), 0, 1)  # no edge
        with pytest.raises(ValueError):
            apply_Ei(g, 0, 1)  # solid end has no loop
        with pytest.raises(ValueError):
            apply_Eii(G(2, edges=[(0, 1)], hollow=[0], loops=[1]), 0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_reduced_moves_preserve_state_and_form(self, seed, n):
        g = random_reduced_graph(n, seed)
        for j in range(n):
            for k in range(n):
                if j == k or not g.hollow[j] or g.hollow[k]:
                    continue
                if not g.has_edge(j, k):
                    continue
                out = (apply_Ei if g.loop[k] else apply_Eii)(g, j, k)
                assert is_reduced(out)
                assert sum(out.hollow) == sum(g.hollow)
                assert_same_state(g, out)


NOT_REDUCED = G(2, edges=[(0, 1)], hollow=[0, 1])


@pytest.mark.parametrize(
    "move, args, message",
    [
        (apply_Ei, (NOT_REDUCED, 0, 1), "graph is not reduced"),
        (apply_Eii, (NOT_REDUCED, 0, 1), "graph is not reduced"),
        # A node is never both hollow and solid, nor its own neighbor.
        (apply_Eii, (G(2, edges=[(0, 1)], hollow=[0]), 0, 0),
         "expected hollow node 0 and solid node 0"),
        (apply_E2, (G(2, edges=[(0, 1)]), 1, 1), "nodes 1 and 1 are not connected"),
        (simplify_pair, (G(2), NOT_REDUCED), "inputs must be reduced"),
    ],
    ids=["Ei", "Eii", "Eii-one-node", "E2-one-node", "simplify_pair"],
)
def test_input_checks(move, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        move(*args)


class TestToReduced:
    def test_already_reduced_is_untouched(self):
        g = G(2, edges=[(0, 1)], hollow=[1], loops=[0])
        assert to_reduced(g) == g

    def test_frozen_example(self):
        g = G(3, edges=[(0, 1)], hollow=[0, 1], loops=[0])
        out = to_reduced(g)
        assert out == G(3, edges=[(0, 1)], loops=[1])
        assert_same_state(g, out)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_output_reduced_hollow_monotone_state_kept(self, seed, n):
        g = random_graph(n, seed)
        out = to_reduced(g)
        assert is_reduced(out)
        assert sum(out.hollow) <= sum(g.hollow)
        assert_same_state(g, out)

    def test_idempotent(self):
        for seed in range(80):
            out = to_reduced(random_graph(5, seed))
            assert to_reduced(out) == out


class TestSimplifyPair:
    def test_aligns_bell_drawings(self):
        a = G(2, edges=[(0, 1)], hollow=[1])
        b = G(2, edges=[(0, 1)], hollow=[0])
        sa, sb = simplify_pair(a, b)
        assert sa == sb == G(2, edges=[(0, 1)], hollow=[0])

    def test_requires_matching_sizes(self):
        with pytest.raises(ValueError):
            simplify_pair(G(1), G(2))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_no_connected_disagreement_survives(self, seed, n):
        g1 = random_reduced_graph(n, seed)
        g2 = random_reduced_graph(n, seed + 10**7)
        s1, s2 = simplify_pair(g1, g2)
        assert is_reduced(s1) and is_reduced(s2)
        assert_same_state(g1, s1)
        assert_same_state(g2, s2)
        for a in range(n):
            for b in range(n):
                if s1.hollow[a] and not s2.hollow[a]:
                    if s2.hollow[b] and not s1.hollow[b]:
                        assert not (s1.has_edge(a, b) or s2.has_edge(a, b))


class TestGraphsEquivalent:
    def test_accepts_redrawn_bell(self):
        assert graphs_equivalent(
            G(2, edges=[(0, 1)], hollow=[1]), G(2, edges=[(0, 1)], hollow=[0])
        )

    def test_rejects_different_states(self):
        assert not graphs_equivalent(G(1, hollow=[0]), G(1, hollow=[0], neg=[0]))
        assert not graphs_equivalent(G(1), G(1, hollow=[0]))

    def test_sign_matters(self):
        assert not graphs_equivalent(
            G(2, edges=[(0, 1)], hollow=[1]),
            G(2, edges=[(0, 1)], hollow=[1], neg=[0]),
        )

    def test_requires_matching_sizes(self):
        with pytest.raises(ValueError):
            graphs_equivalent(G(1), G(2))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_agrees_with_the_statevector(self, seed, n):
        g1 = random_graph(n, seed)
        g2 = random_graph(n, seed + 1)
        truth = states_equal_up_to_global_phase(
            statevector_from_graph(g1), statevector_from_graph(g2)
        )
        assert graphs_equivalent(g1, g2) == truth

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_accepts_rewrite_walks(self, seed, n, steps):
        # A graph is always equivalent to anything reachable from it by
        # state-preserving moves.
        rng = random.Random(seed)
        g = random_graph(n, seed)
        h = g
        for _ in range(steps):
            moves = [("E1", (j,)) for j in range(n) if h.loop[j]]
            moves += [
                ("E2", (j, k))
                for j in range(n)
                for k in range(j + 1, n)
                if h.has_edge(j, k) and not h.loop[j] and not h.loop[k]
            ]
            if not moves:
                break
            kind, args = rng.choice(moves)
            h = apply_E1(h, *args) if kind == "E1" else apply_E2(h, *args)
        assert graphs_equivalent(g, h)
