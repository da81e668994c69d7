"""Tests for the decorated-graph data type and its primitive moves.

Local complementation and its edge variant are pure adjacency surgery,
so most checks here are combinatorial; the state-level soundness of the
moves is covered by the rewrite-rule tests and the acceptance suite.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import adjacency_masks
from stabgraph import (
    GraphFormCircuit,
    StabilizerGraph,
    advance_loop,
    apply_cz,
    apply_cz_reduced,
    apply_E1,
    apply_E2,
    apply_Ei,
    apply_Eii,
    apply_local,
    apply_local_reduced,
    apply_sequence,
    classify_cz_reduced,
    classify_local,
    classify_local_reduced,
    flip_fill,
    flip_sign,
    graph_from_circuit,
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

    @pytest.mark.parametrize("bad", [2.0, "2", None])
    def test_empty_rejects_n_that_is_not_an_integer(self, bad):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {bad!r}$"):
            StabilizerGraph.empty(bad)

    def test_empty_takes_numpy_n(self):
        assert StabilizerGraph.empty(np.int64(2)) == StabilizerGraph.empty(2)

    def test_trusted_constructor_stays_unchecked(self):
        # Rewrites only ever write Python ints; the private constructor
        # takes the masks and rows as they are, even a bit at or above n.
        hollow = np.int64(1)
        rows = (np.int64(0), np.int64(0))
        g = StabilizerGraph._trusted(2, hollow, 4, 0, rows)
        assert g.hollow_mask is hollow and g.loop_mask == 4 and g.adj is rows

    def test_graphs_hash_and_compare(self):
        a = StabilizerGraph.build(2, edges=[(0, 1)])
        b = StabilizerGraph.build(2, edges=[(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != flip_fill(a, 0)


def _check_build(n: int, edges: list, hollow: list, loops: list, neg: list) -> None:
    """``build`` gives the graph the public constructor gives for the same
    flags and rows: equal, with the same hash, repr and ``is_reduced``."""
    built = StabilizerGraph.build(n, edges=edges, hollow=hollow, loops=loops, neg=neg)
    flags = [tuple(j in set(ids) for j in range(n)) for ids in (hollow, loops, neg)]
    public = StabilizerGraph(n, *flags, adjacency_masks(n, edges))
    assert built == public and hash(built) == hash(public)
    assert repr(built) == repr(public)
    assert is_reduced(built) == is_reduced(public)


class TestBuild:
    """``build`` checks its own ids and builds with ``_trusted``."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_graph_matches_the_public_constructor(self, n):
        def subsets(items):
            return [list(c) for r in range(len(items) + 1)
                    for c in itertools.combinations(items, r)]

        for edges in subsets(list(itertools.combinations(range(n), 2))):
            for hollow, loops, neg in itertools.product(subsets(list(range(n))), repeat=3):
                _check_build(n, edges, hollow, loops, neg)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_seeded_graphs_match_the_public_constructor(self, n):
        rng = random.Random(n)
        for _ in range(3):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 6 / n]
            ids = [[j for j in range(n) if rng.random() < 0.5] for _ in range(3)]
            _check_build(n, edges, *ids)
            # Repeated ids and both orientations of an edge set one bit each.
            _check_build(n, edges + [(j, i) for i, j in edges], *(2 * s for s in ids))

    @pytest.mark.parametrize(
        "n, kwargs, message",
        [
            (3, {"edges": [(1, 1)]}, "self edge at node 1"),
            (3, {"edges": [(0, 3)]}, "edge (0, 3) out of range"),
            (3, {"edges": [(-1, 2)]}, "edge (-1, 2) out of range"),
            (3, {"edges": [(0, 1, 2)]}, "too many values to unpack (expected 2)"),
            (3, {"hollow": [3]}, "hollow index 3 out of range"),
            (3, {"loops": [-1]}, "loops index -1 out of range"),
            (3, {"neg": [5]}, "neg index 5 out of range"),
            # Edges are read first, then hollow, loops and neg, then n.
            (3, {"edges": [(0, 3)], "hollow": [3]}, "edge (0, 3) out of range"),
            (3, {"hollow": [1], "neg": [7], "loops": [9]}, "loops index 9 out of range"),
            (0, {}, "need at least one node, got n=0"),
            (0, {"edges": [(0, 1)]}, "edge (0, 1) out of range"),
            (0, {"edges": [(0, 0)]}, "self edge at node 0"),
            (0, {"neg": [0]}, "neg index 0 out of range"),
            (-2, {}, "need at least one node, got n=-2"),
        ],
    )
    def test_error_messages(self, n, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StabilizerGraph.build(n, **kwargs)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_needs_a_node(self, n):
        with pytest.raises(ValueError, match=f"^need at least one node, got n={n}$"):
            StabilizerGraph.empty(n)


class TestFlagMasks:
    """The three masks are the stored fields; the flag tuples are views."""

    def test_repr_is_pinned(self):
        g = StabilizerGraph.build(3, edges=[(0, 1)], hollow=[2], loops=[0])
        assert repr(g) == (
            "StabilizerGraph(n=3, hollow=(False, False, True), loop=(True, False, False), "
            "neg=(False, False, False), adj=(2, 1, 0))"
        )

    def test_fields_are_n_the_three_masks_and_adj(self):
        names = [f.name for f in dataclasses.fields(StabilizerGraph)]
        assert names == ["n", "hollow_mask", "loop_mask", "neg_mask", "adj"]

    @pytest.mark.parametrize("name", ["hollow", "loop", "neg"])
    def test_views_are_cached_read_only_bool_tuples(self, name):
        built = StabilizerGraph.build(4, edges=[(0, 3)], hollow=[1], loops=[2], neg=[3])
        for g in (built, local_complement(flip_sign(built, 0), 3)):
            view = getattr(g, name)
            assert type(view) is tuple and len(view) == 4
            assert all(type(f) is bool for f in view)
            assert getattr(g, name) is view
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, view)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, f"{name}_mask", 0)

    def test_views_at_one_node(self):
        g = StabilizerGraph.build(1, hollow=[0], neg=[0])
        assert (g.hollow, g.loop, g.neg) == ((True,), (False,), (True,))
        assert (g.hollow_mask, g.loop_mask, g.neg_mask) == (1, 0, 1)

    def test_views_at_node_1023(self):
        g = flip_fill(advance_loop(StabilizerGraph.empty(1024), 1023), 1023)
        assert g.hollow_mask == g.loop_mask == 1 << 1023 and g.neg_mask == 0
        assert g.hollow == g.loop == (False,) * 1023 + (True,)
        assert g.neg == (False,) * 1024


def _node_id_calls(n: int, a: int, b: int) -> list:
    """(name, graph, call, node ids) for every public rewrite or classifier
    that takes node ids; each call is valid for the ids a and b."""
    general = StabilizerGraph.build(n, edges=[(a, b)], loops=[a], neg=[b])
    loop_free = StabilizerGraph.build(n, edges=[(a, b)], neg=[a])
    looped = StabilizerGraph.build(n, edges=[(a, b)], hollow=[a], loops=[b])
    plain = StabilizerGraph.build(n, edges=[(a, b)], hollow=[a])
    return [
        ("neighbors", general, neighbors, (a,)),
        ("has_edge", general, StabilizerGraph.has_edge, (a, b)),
        ("local_complement", general, local_complement, (a,)),
        ("local_complement_edge", general, local_complement_edge, (a, b)),
        ("local_complement_edge_step3", general, local_complement_edge_step3, (a, b)),
        ("advance_loop", general, advance_loop, (a,)),
        ("flip_fill", general, flip_fill, (a,)),
        ("flip_sign", general, flip_sign, (b,)),
        ("classify_local", general, lambda g, j: classify_local(g, "S", j), (a,)),
        ("apply_local", general, lambda g, j: apply_local(g, "S", j), (a,)),
        ("classify_local_reduced", looped,
         lambda g, j: classify_local_reduced(g, "H", j), (b,)),
        ("apply_local_reduced", looped,
         lambda g, j, k: apply_local_reduced(g, "H", j, hollow_choice=k), (b, a)),
        ("classify_cz_reduced", plain, classify_cz_reduced, (a, b)),
        ("apply_cz_reduced", plain, apply_cz_reduced, (a, b)),
        ("apply_cz", general, apply_cz, (a, b)),
        ("apply_sequence", general,
         lambda g, j, k: apply_sequence(g, [("S", (j,)), ("CZ", (j, k))]), (a, b)),
        ("apply_E1", general, apply_E1, (a,)),
        ("apply_E2", loop_free, apply_E2, (a, b)),
        ("apply_Ei", looped, apply_Ei, (a, b)),
        ("apply_Eii", plain, apply_Eii, (a, b)),
    ]


class TestNodeIds:
    """Node ids are checked once, at the public entry points: anything
    ``operator.index`` takes is a node id, and nothing else is."""

    @pytest.mark.parametrize("n, a, b", [(3, 1, 2), (128, 5, 100)])
    def test_numpy_ids_act_like_python_ints(self, n, a, b):
        for name, g, call, ids in _node_id_calls(n, a, b):
            for kind in (np.int64, np.uint8, np.intp):
                assert call(g, *map(kind, ids)) == call(g, *ids), (name, kind)

    @pytest.mark.parametrize("bad", [float, str])
    def test_other_ids_raise_value_error(self, bad):
        for name, g, call, ids in _node_id_calls(3, 1, 2):
            for at in range(len(ids)):
                wrong = ids[:at] + (bad(ids[at]),) + ids[at + 1 :]
                with pytest.raises(ValueError, match="node id must be an integer"):
                    call(g, *wrong)

    @pytest.mark.parametrize("i, j, bad", [(0, 100, 100), (100, 0, 100), (0, -1, -1), (-1, 0, -1)])
    def test_has_edge_rejects_ids_out_of_range(self, i, j, bad):
        g = StabilizerGraph.build(3, edges=[(0, 1)])
        with pytest.raises(ValueError, match=f"^node {bad} out of range for n=3$"):
            g.has_edge(i, j)

    def test_build_reads_numpy_ids_like_python_ints(self):
        # Bit 70 is past int64: the ids must become Python ints before a shift.
        a, b = np.int64(0), np.int64(70)
        want = StabilizerGraph.build(100, edges=[(0, 70)], hollow=[70], loops=[0], neg=[70])
        got = StabilizerGraph.build(np.int64(100), edges=[(a, b)], hollow=[b], loops=[a], neg=[b])
        assert got == want and type(got.n) is int
        assert all(type(row) is int for row in got.adj)
        c = GraphFormCircuit(100, frozenset({(a, b)}), frozenset({b}), frozenset(), frozenset())
        assert graph_from_circuit(c) == StabilizerGraph.build(100, edges=[(0, 70)], neg=[70])

    @pytest.mark.parametrize(
        "n, kwargs, message",
        [
            (3, {"edges": [(0, 2.0)]}, "node id"),
            (3, {"edges": [("0", 2)]}, "node id"),
            (3, {"hollow": [1.0]}, "node id"),
            (3, {"neg": [None]}, "node id"),
            (2.0, {}, "n"),
        ],
    )
    def test_build_rejects_other_ids_with_value_error(self, n, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message} must be an integer"):
            StabilizerGraph.build(n, **kwargs)


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
