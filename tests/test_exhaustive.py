"""The paper's claims, checked on every decorated graph with at most 3 nodes.

There are 8, 128 and 4096 decorated graphs on 1, 2 and 3 nodes.  The
dense oracle splits them into classes of equal states, and each claim is
checked against that partition as a whole:

* the class count is the number of n-qubit stabilizer states,
  2^n * prod_k (2^k + 1) (Aaronson-Gottesman, quant-ph/0406196);
* the canonical drawing, graph -> generator matrix -> graph, is one
  graph per class and differs between classes;
* ``graphs_equivalent`` is true within a class and false across classes;
* so is closed-form group membership (``circuit._outside_group``), and
  each generator it names as outside the group is one the dense oracle
  shows does not fix the other graph's state;
* the E1/E2 moves connect exactly the graphs of one class.

Every graph is also held to the per-node reference of reducedness by the
full-width scan ``graph._offenders(g, -1)``.

The matrices that ``generator_matrix_from_graph`` and
``to_canonical_form`` build without the public check are passed through
the public ``GeneratorMatrix`` constructor here, which must accept them,
and so are the oracle's random graphs through ``StabilizerGraph``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest

import helpers
from helpers import every_graph
from stabgraph import (
    GeneratorMatrix,
    StabilizerGraph,
    apply_E1,
    apply_E2,
    generator_matrix_from_graph,
    graph_from_generator_matrix,
    graphs_equivalent,
    is_reduced,
    random_graph,
    random_reduced_graph,
    to_canonical_form,
)
from stabgraph.circuit import _closed_form_rows, _outside_group
from stabgraph.graph import _offenders
from stabgraph.oracle import graph_amplitudes, stabilizer_check, statevector_from_graph
from stabgraph.pauli import PauliString

SIZES = (1, 2, 3)


def stabilizer_state_count(n: int) -> int:
    return 2**n * math.prod(2**k + 1 for k in range(1, n + 1))


def state_keys(graphs) -> list[bytes]:
    """An exact key per graph's state, equal exactly for equal states.

    Every amplitude of a stabilizer state is 0 or i^k / sqrt(2)^m for one
    m, so dividing by the first non-zero amplitude leaves 0, +-1 or +-i.
    Those are rounded to integers, after checking they are close to them.
    """
    amps = graph_amplitudes(graphs)
    first = amps[np.arange(len(amps)), np.argmax(np.abs(amps) > 1e-6, axis=1)]
    unit = amps / first[:, None]
    parts = np.stack([unit.real, unit.imag], axis=-1)
    rounded = np.rint(parts)
    assert np.abs(parts - rounded).max() < 1e-6
    return [row.tobytes() for row in rounded.astype(np.int8)]


@functools.cache
def classes(n: int) -> tuple[list, dict]:
    """Every decorated graph on n nodes, and its state classes as a map
    from key to the list of member indices."""
    graphs = list(every_graph(n))
    by_key: dict = {}
    for k, key in enumerate(state_keys(graphs)):
        by_key.setdefault(key, []).append(k)
    return graphs, by_key


def canon(g):
    return graph_from_generator_matrix(generator_matrix_from_graph(g))


@pytest.mark.parametrize("n", SIZES)
def test_every_state_is_counted_once(n):
    graphs, by_key = classes(n)
    assert len(graphs) == 8**n * 2 ** (n * (n - 1) // 2)
    assert len(set(graphs)) == len(graphs)
    assert [not _offenders(g, -1) for g in graphs] == list(map(helpers.is_reduced_per_node, graphs))
    assert len(by_key) == stabilizer_state_count(n) == {1: 6, 2: 60, 3: 1080}[n]


@pytest.mark.parametrize("n", SIZES)
def test_canonical_drawing_is_one_graph_per_state(n):
    graphs, by_key = classes(n)
    drawings = []
    for members in by_key.values():
        drawn = {canon(graphs[k]) for k in members}
        assert len(drawn) == 1
        drawings += drawn
    assert len(set(drawings)) == len(by_key)


@pytest.mark.parametrize("n", SIZES)
def test_trusted_matrices_pass_the_public_check(n):
    graphs, _ = classes(n)
    for g in graphs:
        mat = generator_matrix_from_graph(g)
        assert GeneratorMatrix(g.n, mat.rows) == mat
        out, _ = to_canonical_form(mat)
        assert GeneratorMatrix(out.n, out.rows, out.qubit_of_column) == out


@pytest.mark.parametrize("n", [16, 64, 256])
def test_trusted_matrices_pass_the_public_check_at_larger_n(n):
    for seed in range(2):
        mat = generator_matrix_from_graph(random_graph(n, seed))
        assert GeneratorMatrix(n, mat.rows) == mat
        for source in (mat, helpers.scrambled_group(n, seed)):
            out, _ = to_canonical_form(source)
            assert GeneratorMatrix(n, out.rows, out.qubit_of_column) == out


def test_random_graphs_pass_the_public_check():
    for n in range(1, 40):
        for seed in range(10):
            for g in (random_graph(n, seed), random_reduced_graph(n, seed)):
                assert StabilizerGraph(n, g.hollow, g.loop, g.neg, g.adj) == g
            assert is_reduced(StabilizerGraph(n, g.hollow, g.loop, g.neg, g.adj))


@pytest.mark.parametrize("n", SIZES)
def test_decider_matches_the_state_classes(n):
    graphs, by_key = classes(n)
    firsts = [members[0] for members in by_key.values()]
    for members in by_key.values():
        for a, b in itertools.product(members, repeat=2):
            assert graphs_equivalent(graphs[a], graphs[b])
    # One cross-class pair per class: its first member against the next
    # class's first member.
    for a, b in zip(firsts, firsts[1:] + firsts[:1]):
        assert not graphs_equivalent(graphs[a], graphs[b])


def closed_form_rows(g):
    return _closed_form_rows(g.hollow_mask, g.loop_mask, g.neg_mask, g.adj)


@pytest.mark.parametrize("n", SIZES)
def test_group_membership_matches_the_state_classes(n):
    graphs, by_key = classes(n)
    firsts = [members[0] for members in by_key.values()]
    for members in by_key.values():
        for a, b in itertools.product(members, repeat=2):
            assert _outside_group(graphs[a], graphs[b]) is None
    # Every graph against the next class's first member, which takes in
    # the decider's cross-class pair of each first member.
    for c, members in enumerate(by_key.values()):
        g2 = graphs[firsts[(c + 1) % len(firsts)]]
        for a in members:
            witness = _outside_group(graphs[a], g2)
            assert witness in closed_form_rows(g2)
            v = statevector_from_graph(graphs[a])
            assert not stabilizer_check(v, [PauliString(n, *witness)])


def e_moves(g):
    """Every E1 and E2 move that applies to g."""
    for j in range(g.n):
        if g.loop_mask >> j & 1:
            yield apply_E1(g, j)
    for j, k in g.edges():
        if not (g.loop_mask >> j | g.loop_mask >> k) & 1:
            yield apply_E2(g, j, k)


@pytest.mark.parametrize("n", SIZES)
def test_e_move_orbits_are_the_state_classes(n):
    graphs, by_key = classes(n)
    index = {g: k for k, g in enumerate(graphs)}
    parent = list(range(len(graphs)))

    def root(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for k, g in enumerate(graphs):
        for out in e_moves(g):
            parent[root(index[out])] = root(k)
    orbits: dict = {}
    for k in range(len(graphs)):
        orbits.setdefault(root(k), []).append(k)
    assert sorted(map(sorted, orbits.values())) == sorted(map(sorted, by_key.values()))
