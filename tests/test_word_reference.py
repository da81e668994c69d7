"""Whole gate words against tableau propagation, at any n.

``helpers.word_image_rows`` conjugates the input's closed-form rows
through a word, gate by gate, and ``helpers.first_row_outside`` names the
first of them outside the output's stabilizer group.  Neither shares code
with the rewrite rules, so this checks ``apply_sequence`` far above the
dense oracle's cap of n = 12:

* the reference agrees with the oracle where both run;
* seeded words on reduced sparse graphs at n = 16, 64 and 256, under the
  reduced and the general rules, all pass;
* six mutants that leave every output reduced, so that no invariant
  check sees them, fail it at n = 64 with no oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from stabgraph import (
    apply_gate_dense,
    apply_sequence,
    flip_sign,
    random_graph,
    states_equal_up_to_global_phase,
    statevector_from_graph,
)
from stabgraph import equivalence, transforms

WORD_LENGTH = 256


def _input(n: int, seed: int):
    return helpers.sparse_graph(n, seed, 6 / (n - 1), reduced=True)


def _outside(g, word, reduced: bool):
    """The reference's verdict on ``apply_sequence`` of ``word`` on ``g``."""
    return helpers.first_row_outside(
        helpers.word_image_rows(g, word), apply_sequence(g, word, reduced=reduced)
    )


@pytest.mark.parametrize("n", [2, 3, 5])
def test_reference_agrees_with_the_oracle(n):
    # The engine's output draws the word's image; the same output with one
    # sign flipped draws an orthogonal state.  The reference must say so
    # exactly when the dense oracle does.
    rng = random.Random(n)
    for seed in range(40):
        g = random_graph(n, seed)
        word = helpers.random_word(rng, n, 12)
        want = statevector_from_graph(g)
        for gate, targets in word:
            want = apply_gate_dense(want, gate, *targets)
        rows = helpers.word_image_rows(g, word)
        out = apply_sequence(g, word)
        for candidate in (out, flip_sign(out, rng.randrange(n)), random_graph(n, seed + 1)):
            same = states_equal_up_to_global_phase(want, statevector_from_graph(candidate))
            assert (helpers.first_row_outside(rows, candidate) is None) == same


@pytest.mark.parametrize("n", [16, 64])
@settings(max_examples=16, deadline=None)
@given(graph_seed=st.integers(0, 2**32), word_seed=st.integers(0, 2**32))
def test_words_in_both_modes(n, graph_seed, word_seed):
    g = _input(n, graph_seed)
    word = helpers.random_word(random.Random(word_seed), n, WORD_LENGTH)
    for reduced in (True, False):
        assert _outside(g, word, reduced) is None


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_words_at_n256(seed):
    g = _input(256, seed)
    word = helpers.random_word(random.Random(seed), 256, WORD_LENGTH)
    for reduced in (True, False):
        assert _outside(g, word, reduced) is None


def _tx_without_the_k_sign_flip(real):
    # T(x) flips j's neighbors when k is negative; neither target's row or
    # sign changes, so undoing that flip afterwards is the body without it.
    def mutant(m, rule, j, k):
        both_hollow = m.hollow_mask >> j & m.hollow_mask >> k & 1
        real(m, rule, j, k)
        if both_hollow and m.neg_mask >> k & 1:
            m.neg_mask ^= m.adj[j]
    return mutant


def _tviii_with_a_stray_flip(real):
    # T(viii) toggles the edge and writes no sign, so any sign flip is stray.
    def mutant(m, rule, j, k):
        both_solid = not (m.hollow_mask >> j & 1 or m.hollow_mask >> k & 1)
        real(m, rule, j, k)
        if both_solid:
            m.neg_mask ^= 1 << j
    return mutant


def _tix_without_the_solid_flip(real):
    # T(ix) toggles edges between the solid node and the hollow node's other
    # neighbors, which changes neither the pair's edge nor the hollow node's
    # sign, so the flip's condition reads the same before the body as within
    # it, and undoing the flip afterwards is the body without it.
    def mutant(m, rule, j, k):
        hollow_mask = m.hollow_mask
        solid, hollow = (j, k) if hollow_mask >> k & 1 else (k, j)
        one_hollow = (hollow_mask >> j & 1) != (hollow_mask >> k & 1)
        flips = (m.adj[solid] >> hollow & 1) != (m.neg_mask >> hollow & 1)
        real(m, rule, j, k)
        if one_hollow and flips:
            m.neg_mask ^= 1 << solid
    return mutant


def _e2_without_the_common_flip(real):
    # The common neighbors hold neither node, so the flips that read their
    # signs are the same whether the common flip came first or not at all.
    def mutant(m, j, k):
        real(m, j, k)
        m.neg_mask ^= m.adj[j] & m.adj[k]
    return mutant


def _t3_without_the_sign_flip(real):
    # The body flips j's neighbors when j is negative, and writes neither
    # j's sign nor its row's own bit, so undoing that flip afterwards is the
    # body without it.
    def mutant(m, j):
        real(m, j)
        if m.neg_mask >> j & 1:
            m.neg_mask ^= m.adj[j]
    return mutant


def _ei_with_a_stray_flip(real):
    # The E(i) branch of the one hollow-marker swap, with the node it
    # filled negated afterwards.
    def mutant(m, hollow, solid):
        looped = m.loop_mask >> solid & 1
        real(m, hollow, solid)
        if looped:
            m.neg_mask ^= 1 << hollow
    return mutant


BOTH_MODES = (True, False)


@pytest.mark.parametrize("modules, name, mutate, modes", [
    ((transforms,), "_cz", _tx_without_the_k_sign_flip, BOTH_MODES),
    ((transforms,), "_cz", _tviii_with_a_stray_flip, BOTH_MODES),
    ((transforms,), "_cz", _tix_without_the_solid_flip, BOTH_MODES),
    ((equivalence,), "_e2_core", _e2_without_the_common_flip, BOTH_MODES),
    ((equivalence, transforms), "_t3", _t3_without_the_sign_flip, BOTH_MODES),
    ((equivalence, transforms), "_swap", _ei_with_a_stray_flip, (True,)),
], ids=["T(x)", "T(viii)", "T(ix)", "E2", "T3", "E(i)"])
def test_mutants_are_caught_at_n64(monkeypatch, modules, name, mutate, modes):
    # Each mutant runs in words on the word's one _Masks, in the modes
    # listed: the three CZ rules in every CZ of their fill pattern (the
    # body ``_cz``, which the word and the one-gate functions share), E2 in
    # the T(iii) prelude and in the general CZ's reduction, the T3 body,
    # which every module that binds it gets, in S on a hollow node and in
    # every E1, and the E(i) swap in the T(iv) prelude, which only reduced
    # words run.  A clean word passes (the test above), so a row outside
    # is the mutant's.
    mutant = mutate(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, mutant)
    caught = [
        _outside(_input(64, seed), helpers.random_word(random.Random(seed), 64, WORD_LENGTH),
                 reduced) is not None
        for seed in range(4)
        for reduced in modes
    ]
    assert all(caught), caught
