"""Closed-form group membership against the paper's decider at any n.

``circuit._outside_group(g1, g2)`` names the first closed-form generator
of g2 outside g1's stabilizer group, and ``circuit._same_state``, which
the CLI's ``equiv`` runs, checks the rows of the graph with fewer edges
that way.  Above the dense oracle's cap the reference is
``graphs_equivalent``, which shares no code with them: on seeded sparse
graphs and their reduced forms at n = 16..1024, both must give the same
verdict, in either argument order, on pairs known by construction:

* an E1/E2 walk of a graph draws its state;
* a gate word followed by its inverse draws its state;
* a sign flip at node j applies a Pauli that anticommutes with g_j, so
  the states are orthogonal, and row j is the only row outside.
"""

from __future__ import annotations

import random

import pytest

import helpers
from stabgraph import (
    apply_E1,
    apply_E2,
    apply_sequence,
    flip_sign,
    graphs_equivalent,
    to_reduced,
)
from stabgraph import circuit
from stabgraph.circuit import _closed_form_rows, _outside_group, _same_state

SIZES = (16, 64, 256, 1024)
SEEDS = (1, 2, 3)

# S^-1 = S^3; H, Z and CZ are their own inverses.
INVERSE = {"H": ["H"], "S": ["S"] * 3, "Z": ["Z"], "CZ": ["CZ"]}


def closed_form_rows(g):
    return _closed_form_rows(g.hollow_mask, g.loop_mask, g.neg_mask, g.adj)


@pytest.fixture(scope="module", params=[(n, seed) for n in SIZES for seed in SEEDS],
                ids=lambda p: f"n{p[0]}-seed{p[1]}")
def drawings(request):
    """A sparse mean-degree-6 graph and its reduced form, which is dense."""
    n, seed = request.param
    g = helpers.sparse_graph(n, seed, 6 / (n - 1))
    return n, seed, (g, to_reduced(g))


def e_walk(g, rng, moves=8):
    """``moves`` seeded E1/E2 moves: E1 at a looped node, else E2 along an
    edge to a loop-free neighbor."""
    done = 0
    while done < moves:
        j = rng.randrange(g.n)
        if g.loop_mask >> j & 1:
            g = apply_E1(g, j)
        else:
            free = g.adj[j] & ~g.loop_mask
            if not free:
                continue
            g = apply_E2(g, j, rng.choice(list(helpers.bits_reference(free))))
        done += 1
    return g


def assert_verdict(g1, g2, expect):
    assert _same_state(g1, g2) is _same_state(g2, g1) is expect
    assert graphs_equivalent(g1, g2) is expect


def test_e_walks_draw_the_same_state(drawings):
    n, seed, bases = drawings
    rng = random.Random(seed)
    for g in bases:
        assert_verdict(g, e_walk(g, rng), True)


def test_a_word_then_its_inverse_draws_the_same_state(drawings):
    n, seed, bases = drawings
    rng = random.Random(seed)
    for g in bases:
        word = helpers.random_word(rng, n, 32)
        undo = [(inv, t) for gate, t in reversed(word) for inv in INVERSE[gate]]
        assert_verdict(g, apply_sequence(g, word + undo), True)


def test_a_sign_flip_is_named_by_its_row(drawings):
    n, seed, bases = drawings
    rng = random.Random(seed)
    for g in bases:
        j = rng.randrange(n)
        h = flip_sign(g, j)
        assert_verdict(g, h, False)
        # Every other row is shared, so row j of the checked graph is the
        # witness, whichever way round.
        assert _outside_group(g, h) == closed_form_rows(h)[j]
        assert _outside_group(h, g) == closed_form_rows(g)[j]


def test_the_sparser_graphs_rows_are_checked(monkeypatch):
    sparse = helpers.sparse_graph(256, 1, 6 / 255)
    dense = to_reduced(sparse)
    hollow = dense.hollow_mask
    # One product per bit of each row's index set in the dense group.
    cheap = sum(
        ((x & ~hollow) | (z & hollow)).bit_count() for x, z, _ in closed_form_rows(sparse)
    )
    calls = []
    multiply = circuit._multiply

    def counting(p, q):
        calls.append(None)
        return multiply(p, q)

    monkeypatch.setattr(circuit, "_multiply", counting)
    for g1, g2 in ((sparse, dense), (dense, sparse)):
        calls.clear()
        assert _same_state(g1, g2)
        assert len(calls) == cheap
    calls.clear()
    assert _outside_group(sparse, dense) is None
    assert len(calls) > 10 * cheap

