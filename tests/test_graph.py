"""Tests for the decorated-graph data type and its primitive moves.

Local complementation and its edge variant are pure adjacency surgery,
so most checks here are combinatorial; the state-level soundness of the
moves is covered by the rewrite-rule tests and the acceptance suite.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import adjacency_masks
from stabgraph import (
    StabilizerGraph,
    advance_loop,
    flip_fill,
    flip_sign,
    is_reduced,
    local_complement,
    local_complement_edge,
    local_complement_edge_step3,
    neighbors,
    random_graph,
)


def edge_set(g: StabilizerGraph) -> set:
    return set(g.edges())


class TestConstruction:
    def test_build_round_trips_fields(self):
        g = StabilizerGraph.build(
            3, edges=[(0, 1), (1, 2)], hollow=[2], loops=[0], neg=[1]
        )
        assert g.n == 3
        assert g.hollow == (False, False, True)
        assert g.loop == (True, False, False)
        assert g.neg == (False, True, False)
        assert edge_set(g) == {(0, 1), (1, 2)}
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)

    def test_empty(self):
        g = StabilizerGraph.empty(2)
        assert edge_set(g) == set()
        assert not any(g.hollow) and not any(g.loop) and not any(g.neg)

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            StabilizerGraph(2, (False,) * 2, (False,) * 2, (False,) * 2, (2, 0))

    def test_rejects_diagonal_adjacency(self):
        # Loops live in the ``loop`` field, never on the diagonal.
        with pytest.raises(ValueError):
            StabilizerGraph(1, (False,), (False,), (False,), (1,))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            StabilizerGraph(2, (False,), (False,) * 2, (False,) * 2, (0, 0))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises((ValueError, IndexError)):
            StabilizerGraph.build(2, edges=[(0, 2)])

    def test_numpy_bool_flags_are_stored_as_bool(self):
        g = StabilizerGraph(
            2, (np.True_, np.False_), (np.False_, np.True_), (np.False_,) * 2, (2, 1)
        )
        assert g == StabilizerGraph.build(2, edges=[(0, 1)], hollow=[0], loops=[1])
        for flags in (g.hollow, g.loop, g.neg):
            assert all(type(f) is bool for f in flags)
        assert is_reduced(g)

    def test_int_flags_are_stored_as_bool(self):
        g = StabilizerGraph(2, [1, 0], (0, 0), (0, 1), (0, 0))
        assert g.hollow == (True, False) and g.neg == (False, True)
        assert all(type(f) is bool for f in g.hollow + g.loop + g.neg)
        assert hash(g) == hash(StabilizerGraph.build(2, hollow=[0], neg=[1]))

    @pytest.mark.parametrize("bad", ["1", "solid", 2, -1, None, 0.5])
    @pytest.mark.parametrize("field", ["hollow", "loop", "neg"])
    def test_rejects_flags_that_are_not_0_or_1(self, field, bad):
        flags = {"hollow": (False,) * 2, "loop": (False,) * 2, "neg": (False,) * 2}
        flags[field] = (False, bad)
        with pytest.raises(ValueError, match=rf"{field}\[1\] must be 0 or 1"):
            StabilizerGraph(2, flags["hollow"], flags["loop"], flags["neg"], (0, 0))

    def test_numpy_int_rows_and_n_are_stored_as_int(self):
        g = StabilizerGraph(
            np.int64(2), (False,) * 2, (False,) * 2, (False,) * 2,
            (np.int64(2), np.uint8(1)),
        )
        assert g == StabilizerGraph.build(2, edges=[(0, 1)])
        assert type(g.n) is int and all(type(row) is int for row in g.adj)
        assert hash(g) == hash(StabilizerGraph.build(2, edges=[(0, 1)]))
        assert is_reduced(g)

    def test_adjacency_list_is_stored_as_tuple(self):
        g = StabilizerGraph(2, (False,) * 2, (False,) * 2, (False,) * 2, [2, 1])
        assert g.adj == (2, 1)

    @pytest.mark.parametrize("bad", [2.0, "2", None, 1.5])
    def test_rejects_rows_that_are_not_integers(self, bad):
        f = (False,) * 2
        with pytest.raises(ValueError, match=r"adjacency row 0 must be an integer"):
            StabilizerGraph(2, f, f, f, (bad, 1))

    @pytest.mark.parametrize("bad", [2.0, "2", None])
    def test_rejects_n_that_is_not_an_integer(self, bad):
        f = (False,) * 2
        with pytest.raises(ValueError, match=r"n must be an integer"):
            StabilizerGraph(bad, f, f, f, (2, 1))

    def test_trusted_constructor_stays_unchecked(self):
        # Rewrites only ever write Python bools; the private constructor
        # takes the tuples as they are.
        flags = (np.True_, 1)
        rows = (np.int64(0), np.int64(0))
        g = StabilizerGraph._trusted(2, flags, flags, flags, rows)
        assert g.hollow is flags and g.adj is rows

    def test_graphs_hash_and_compare(self):
        a = StabilizerGraph.build(2, edges=[(0, 1)])
        b = StabilizerGraph.build(2, edges=[(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != flip_fill(a, 0)


class TestPredicates:
    def test_neighbors(self):
        g = StabilizerGraph.build(4, edges=[(0, 1), (0, 3)])
        assert neighbors(g, 0) == {1, 3}
        assert neighbors(g, 2) == set()

    def test_is_reduced_accepts_hollow_solid_mix(self):
        g = StabilizerGraph.build(3, edges=[(0, 1), (0, 2)], hollow=[1, 2])
        assert is_reduced(g)

    def test_is_reduced_rejects_hollow_loop(self):
        g = StabilizerGraph.build(1, hollow=[0], loops=[0])
        assert not is_reduced(g)

    def test_is_reduced_rejects_hollow_hollow_edge(self):
        g = StabilizerGraph.build(2, edges=[(0, 1)], hollow=[0, 1])
        assert not is_reduced(g)

    def test_solid_loops_are_fine(self):
        assert is_reduced(StabilizerGraph.build(1, loops=[0]))


class TestDecorationMoves:
    def test_flip_fill(self):
        g = StabilizerGraph.empty(2)
        assert flip_fill(g, 1).hollow == (False, True)
        assert flip_fill(flip_fill(g, 1), 1) == g

    def test_flip_sign(self):
        g = StabilizerGraph.empty(1)
        assert flip_sign(g, 0).neg == (True,)
        assert flip_sign(flip_sign(g, 0), 0) == g

    def test_advance_loop_has_period_four(self):
        # no loop -> loop -> no loop, sign flipped -> loop, sign flipped
        # -> back to the start.
        g = StabilizerGraph.empty(1)
        seen = [g]
        for _ in range(4):
            seen.append(advance_loop(seen[-1], 0))
        assert seen[1].loop == (True,) and seen[1].neg == (False,)
        assert seen[2].loop == (False,) and seen[2].neg == (True,)
        assert seen[3].loop == (True,) and seen[3].neg == (True,)
        assert seen[4] == g


class TestLocalComplement:
    def test_star_becomes_complete(self):
        star = StabilizerGraph.build(4, edges=[(0, 1), (0, 2), (0, 3)])
        out = local_complement(star, 0)
        assert edge_set(out) == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        }

    def test_ignores_decorations(self):
        g = StabilizerGraph.build(3, edges=[(0, 1), (0, 2)], hollow=[1], neg=[2])
        out = local_complement(g, 0)
        assert out.hollow == g.hollow and out.neg == g.neg and out.loop == g.loop

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_involution(self, seed, n):
        g = random_graph(n, seed)
        for j in range(n):
            assert local_complement(local_complement(g, j), j).adj == g.adj


class TestLocalComplementEdge:
    def test_requires_distinct_nodes(self):
        g = StabilizerGraph.build(2, edges=[(0, 1)])
        with pytest.raises(ValueError):
            local_complement_edge(g, 1, 1)

    def test_two_node_edge_is_fixed(self):
        g = StabilizerGraph.build(2, edges=[(0, 1)])
        assert local_complement_edge(g, 0, 1).adj == g.adj

    def test_path_transfer(self):
        # 1 - 0 - 2 complemented along (0, 1) moves the pendant.
        g = StabilizerGraph.build(3, edges=[(0, 1), (0, 2)])
        out = local_complement_edge(g, 0, 1)
        assert edge_set(out) == {(0, 1), (1, 2)}

    def test_matches_three_fold_composition_on_connected_pairs(self):
        # For an existing edge (j, k) the one-shot update must agree with
        # complementing j, k, j in sequence (and k, j, k).  The identity
        # genuinely needs the edge: without it the one-shot form inserts
        # (j, k) and the compositions do not.
        for n in (2, 3, 4):
            for mask in range(1 << (n * (n - 1) // 2)):
                pairs = list(itertools.combinations(range(n), 2))
                edges = [e for b, e in enumerate(pairs) if (mask >> b) & 1]
                g = StabilizerGraph.build(n, edges=edges)
                for j, k in edges:
                    direct = local_complement_edge(g, j, k).adj
                    jkj = local_complement(
                        local_complement(local_complement(g, j), k), j
                    ).adj
                    kjk = local_complement(
                        local_complement(local_complement(g, k), j), k
                    ).adj
                    assert direct == jkj == kjk

    def test_disconnected_pair_gains_the_edge(self):
        g = StabilizerGraph.empty(2)
        out = local_complement_edge(g, 0, 1)
        assert edge_set(out) == {(0, 1)}


class TestStep3:
    def test_toggles_cross_group_pairs(self):
        # Decision nodes 0, 1; node 2 sees only 0, node 3 sees only 1,
        # node 4 sees both.  Cross pairs among {2}, {3}, {4} all toggle.
        g = StabilizerGraph.build(
            5, edges=[(0, 2), (0, 4), (1, 3), (1, 4)]
        )
        out = local_complement_edge_step3(g, 0, 1)
        assert edge_set(out) == {
            (0, 2), (0, 4), (1, 3), (1, 4),
            (2, 3), (2, 4), (3, 4),
        }

    def test_idempotent_composition(self):
        g = StabilizerGraph.build(4, edges=[(0, 2), (1, 3), (2, 3)])
        twice = local_complement_edge_step3(
            local_complement_edge_step3(g, 0, 1), 0, 1
        )
        assert twice.adj == g.adj

    def test_exhaustive_definition_check(self):
        # Reference implementation straight from the definition.
        for mask in range(1 << 6):
            pairs = list(itertools.combinations(range(4), 2))
            edges = [e for b, e in enumerate(pairs) if (mask >> b) & 1]
            g = StabilizerGraph.build(4, edges=edges)
            out = local_complement_edge_step3(g, 0, 1)
            expect = set(g.edges())
            groups = {}
            for v in range(2, 4):
                nj, nk = g.has_edge(0, v), g.has_edge(1, v)
                if nj or nk:
                    groups[v] = (nj, nk)
            for u, v in itertools.combinations(sorted(groups), 2):
                if groups[u] != groups[v]:
                    expect ^= {(u, v)}
            assert edge_set(out) == expect
