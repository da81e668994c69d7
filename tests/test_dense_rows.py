"""Whole-row operations, held to per-bit references.

``graph._bits`` unpacks a dense row at C speed and loops over a sparse one;
the E moves and the gate rules run on flag bitmasks (``graph._Masks``), with
T4 and T(ii)-T(iv) written as E moves followed by T1 or T2; ``edges()`` and
``format_graph`` list each row's upper neighbors in one go; the constructor
checks symmetry against the transpose.  Each is compared here, exactly, with
the one-bit-at-a-time version in ``helpers``, on sparse graphs, on dense
ones, and on the dense reduced form of a mean-degree-6 graph at n=1024.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RULE_REFERENCES,
    adjacency_error_reference,
    bits_reference,
    e1_reference,
    e2_reference,
    run_reference,
    edges_reference,
    ei_reference,
    every_graph,
    flag_mask_reference,
    format_graph_reference,
    graph_to_dot_reference,
    is_reduced_per_node,
    keeps_the_suspect_rule,
    sparse_graph,
    to_reduced_restart_scan,
)
from stabgraph import (
    InvariantError,
    StabilizerGraph,
    apply_E1,
    apply_E2,
    apply_Ei,
    apply_Eii,
    apply_cz_reduced,
    apply_local,
    apply_local_reduced,
    classify_cz_reduced,
    classify_local,
    classify_local_reduced,
    is_reduced,
    random_graph,
    to_reduced,
)
from stabgraph import graph
from stabgraph.graph import _UNPACK_AT, _Masks, _bits
from stabgraph.textio import format_graph, graph_to_dot, parse_graph

SIZES = (1, 7, 8, 9, 63, 64, 65, 1024)


def _mean_degree_6(n: int, seed: int) -> StabilizerGraph:
    return sparse_graph(n, seed, 6 / (n - 1))


@pytest.fixture(scope="module")
def dense_reduced():
    """The reduced form of a mean-degree-6 graph at n=1024: ~200 times the
    input's edges, with most rows far above the unpack threshold."""
    g = _mean_degree_6(1024, 6)
    r = to_reduced(g)
    assert len(r.edges()) > 50 * len(g.edges())
    return g, r


def _graphs():
    """Sparse and dense graphs on both sides of the unpack threshold."""
    for n in (1, 2, 9, 16, 64, 256):
        yield sparse_graph(n, n, 0.05)
        yield random_graph(n, n)
        yield to_reduced(random_graph(n, n + 1))


class TestBits:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_the_per_bit_loop_around_the_switch(self, n):
        rng = random.Random(n)
        masks = [0, (1 << n) - 1]
        for count in (_UNPACK_AT - 1, _UNPACK_AT, _UNPACK_AT + 1):
            if count <= n:
                masks.append(sum(1 << b for b in rng.sample(range(n), count)))
                # The same count packed at the top, where a short byte
                # string or a wrong bit order goes wrong first.
                masks.append(sum(1 << (n - 1 - b) for b in range(count)))
        for mask in masks:
            got = _bits(mask)
            assert type(got) is list and all(type(b) is int for b in got)
            assert got == list(bits_reference(mask)), hex(mask)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**1100))
    def test_matches_the_per_bit_loop(self, mask):
        assert _bits(mask) == list(bits_reference(mask))


class TestFormatters:
    def test_edges_and_text_match_the_per_bit_versions(self):
        for g in _graphs():
            assert g.edges() == edges_reference(g)
            assert format_graph(g) == format_graph_reference(g)
            assert graph_to_dot(g) == graph_to_dot_reference(g)

    def test_dense_reduced_form_at_n_1024(self, dense_reduced):
        _, r = dense_reduced
        assert r.edges() == edges_reference(r)
        text = format_graph(r)
        assert text == format_graph_reference(r)
        assert graph_to_dot(r) == graph_to_dot_reference(r)
        assert parse_graph(text) == r


def _corrupt(adj: list, n: int, rng: random.Random, kind: str) -> None:
    j = rng.randrange(n)
    if kind == "high":
        adj[j] |= 1 << (n + rng.randrange(3))
    elif kind == "negative":
        # Random low bits: neighbors read a negative row in two's complement.
        adj[j] = -rng.randrange(1, 2 << n)
    elif kind == "diagonal":
        adj[j] |= 1 << j
    elif n >= 2:  # one-sided: toggle (j, k) in row j only
        k = rng.choice([k for k in range(n) if k != j])
        adj[j] ^= 1 << k


class TestValidation:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 80),
        st.integers(0, 2**32),
        st.sampled_from((0.05, 0.3, 0.7)),
        st.lists(st.sampled_from(("high", "negative", "diagonal", "one_sided")), max_size=3),
    )
    def test_same_error_as_the_edge_by_edge_check(self, n, seed, p, kinds):
        rng = random.Random(seed)
        adj = list(sparse_graph(n, seed, p).adj)
        for kind in kinds:
            _corrupt(adj, n, rng, kind)
        want = adjacency_error_reference(adj, n)
        flags = (False,) * n
        if want is None:
            StabilizerGraph(n, flags, flags, flags, tuple(adj))
        else:
            with pytest.raises(ValueError) as err:
                StabilizerGraph(n, flags, flags, flags, tuple(adj))
            assert str(err.value) == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_row_walk_and_the_transpose_agree(self, monkeypatch, n):
        # Below graph._WALK_BELOW rows _symmetric_block walks the rows;
        # from it on it compares the transpose.  On every n <= 3 graph's
        # rows, and those rows with each kind of defect, both routes give
        # the same verdict, on the whole matrix and on each block of rows
        # that _valid_rewrite checks, and _adjacency_error names the same
        # first defect on each route, the reference's.
        assert n < graph._WALK_BELOW
        rng = random.Random(n)
        matrices = {g.adj for g in every_graph(n)}
        for adj in sorted(matrices):
            cases = [list(adj)]
            for kind in ("high", "negative", "diagonal", "one_sided"):
                cases.append(list(adj))
                _corrupt(cases[-1], n, rng, kind)
            for rows in cases:
                want = adjacency_error_reference(rows, n)
                blocks = [(range(n), rows)]
                for written in range(1, 1 << n):
                    ids = _bits(written)
                    blocks.append((ids, [rows[j] & written for j in ids]))
                verdicts = []
                with monkeypatch.context() as patch:
                    for cutoff in (n + 1, 0):  # the walk, then the transpose
                        patch.setattr(graph, "_WALK_BELOW", cutoff)
                        verdicts.append(
                            [graph._symmetric_block(ids, block, rows, n) for ids, block in blocks]
                        )
                        assert graph._adjacency_error(rows, n) == want
                assert verdicts[0] == verdicts[1]
                assert verdicts[0][0] == (want is None)

    def test_every_kind_of_defect_is_reached(self):
        # The property above is only as strong as the errors it provokes.
        seen = set()
        rng = random.Random(0)
        for kind in ("high", "negative", "diagonal", "one_sided"):
            for n in (2, 9, 64):
                adj = list(random_graph(n, n).adj)
                _corrupt(adj, n, rng, kind)
                seen.add(adjacency_error_reference(adj, n).split(" ")[0])
        assert seen == {"adjacency", "node"}

    def test_one_sided_edges_whose_codes_cancel_in_a_sum(self):
        # (0, 1) only in row 0 and (3, 2) only in row 3: the codes j*n + k
        # of the rows and those of their transpose have the same sum.
        n = 64
        adj = list(random_graph(n, 5).adj)
        adj[0] |= 1 << 1
        adj[1] &= ~1
        adj[3] |= 1 << 2
        adj[2] &= ~(1 << 3)
        flags = (False,) * n
        with pytest.raises(ValueError) as err:
            StabilizerGraph(n, flags, flags, flags, tuple(adj))
        assert str(err.value) == adjacency_error_reference(adj, n)
        assert str(err.value) == "adjacency is not symmetric at (0, 1)"

    @pytest.mark.parametrize("n", [1, 12, 300])
    def test_a_rejection_the_row_walk_cannot_name_is_an_invariant_error(
        self, monkeypatch, n
    ):
        # On the transpose route, which the cutoff set to 0 takes at every
        # n, the transpose check is the only verdict on a valid matrix; the
        # row walk runs only to name a defect, and finding none means the
        # two checks disagree.  Here the transpose route rejects every
        # matrix: on the walk route, which the cutoff above n takes, the
        # same graph builds.
        g = random_graph(n, n)
        walk_or_reject = graph._symmetric_block

        def transpose_rejects(ids, rows, adj, n):
            return len(rows) < graph._WALK_BELOW and walk_or_reject(ids, rows, adj, n)

        monkeypatch.setattr(graph, "_symmetric_block", transpose_rejects)
        monkeypatch.setattr(graph, "_WALK_BELOW", n + 1)
        assert StabilizerGraph(g.n, g.hollow, g.loop, g.neg, g.adj) == g
        monkeypatch.setattr(graph, "_WALK_BELOW", 0)
        with pytest.raises(InvariantError, match="transpose check"):
            StabilizerGraph(g.n, g.hollow, g.loop, g.neg, g.adj)

    def test_dense_reduced_form_at_n_1024(self, dense_reduced):
        _, r = dense_reduced
        flags = (False,) * r.n
        adj = list(r.adj)
        StabilizerGraph(r.n, flags, flags, flags, tuple(adj))
        k = _bits(adj[700])[-1]
        adj[700] ^= 1 << k
        with pytest.raises(ValueError) as err:
            StabilizerGraph(r.n, flags, flags, flags, tuple(adj))
        assert str(err.value) == adjacency_error_reference(adj, r.n)


def _check_suspects(out: StabilizerGraph, ref: StabilizerGraph) -> None:
    """The engine's suspect mask keeps its rule and lies inside the
    reference's: the source's mask plus the nodes the reference wrote."""
    assert not out._suspect & ~ref._suspect
    assert keeps_the_suspect_rule(out)


def _check_move(out: StabilizerGraph, ref: StabilizerGraph) -> None:
    assert out == ref
    _check_suspects(out, ref)
    assert is_reduced(out) == is_reduced_per_node(out)


def _e_moves(g: StabilizerGraph, rng: random.Random, count: int):
    """Up to ``count`` E1 and E2 moves, and E(i)/E(ii) moves when ``g`` is
    reduced, each with the list-based reference body it must match."""
    loops = [j for j in range(g.n) if g.loop[j]]
    for j in rng.sample(loops, min(count, len(loops))):
        yield apply_E1, e1_reference, (j,)
    pairs = [(j, k) for j, k in g.edges() if not g.loop[j] and not g.loop[k]]
    for j, k in rng.sample(pairs, min(count, len(pairs))):
        yield apply_E2, e2_reference, (j, k)
    if not g._suspect:  # known to be reduced
        for rule, body, want_loop in ((apply_Ei, ei_reference, True), (apply_Eii, e2_reference, False)):
            pairs = [
                (h, s)
                for h, s in (p for e in g.edges() for p in (e, e[::-1]))
                if g.hollow[h] and not g.hollow[s] and g.loop[s] == want_loop
            ]
            for h, s in rng.sample(pairs, min(count, len(pairs))):
                yield rule, body, (h, s)


class TestEMoves:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("dense", [False, True])
    def test_match_the_list_based_bodies(self, n, dense):
        p = 0.5 if dense else 6 / (n - 1)
        g = sparse_graph(n, 7 * n, p)
        r = to_reduced(g)
        assert r == to_reduced_restart_scan(g)
        fresh = StabilizerGraph(n, r.hollow, r.loop, r.neg, r.adj)
        # Reduced forms of dense graphs keep few hollow nodes, so E(i) and
        # E(ii) also run on a graph drawn reduced with hollow nodes to spare.
        drawn = sparse_graph(n, 7 * n + 1, p, reduced=True)
        assert is_reduced(r) and is_reduced(drawn)
        rng = random.Random(n)
        kinds = set()
        for src in (g, fresh, r, drawn):
            for rule, body, nodes in _e_moves(src, rng, 4):
                _check_move(rule(src, *nodes), run_reference(src, body, *nodes))
                kinds.add(rule)
        assert kinds == {apply_E1, apply_E2, apply_Ei, apply_Eii}

    def test_dense_reduced_form_at_n_1024(self, dense_reduced):
        g, r = dense_reduced
        assert r == to_reduced_restart_scan(g)
        assert r._suspect == 0 and is_reduced_per_node(r)
        kinds = set()
        for rule, body, nodes in _e_moves(r, random.Random(1), 1):
            _check_move(rule(r, *nodes), run_reference(r, body, *nodes))
            kinds.add(rule)
        assert kinds == {apply_E1, apply_E2, apply_Ei, apply_Eii}


GATE_TAGS = set(RULE_REFERENCES)


def _sample(rng: random.Random, items: list, count: int) -> list:
    return rng.sample(items, min(count, len(items)))


def _gate_rules(g: StabilizerGraph, rng: random.Random, count: int):
    """(tag, output, reference output) for up to ``count`` targets of each
    gate rule that applies to ``g``; the reduced rules only when ``g`` is
    reduced, T(iii) and T(iv) as the rule (its lowest hollow neighbor) and
    as the E-move composition from every hollow neighbor of the target, and
    the CZ rules on both orders of a pair."""
    n = g.n
    for gate in "HSZ":
        by_tag: dict = {}
        for j in range(n):
            by_tag.setdefault(classify_local(g, gate, j), []).append(j)
        for tag, nodes in by_tag.items():
            for j in _sample(rng, nodes, count):
                yield tag, apply_local(g, gate, j), run_reference(g, RULE_REFERENCES[tag], j)
    if not is_reduced(g):
        return
    for gate in "HSZ":
        by_tag = {}
        for j in range(n):
            by_tag.setdefault(classify_local_reduced(g, gate, j), []).append(j)
        for tag, nodes in by_tag.items():
            body = RULE_REFERENCES[tag]
            for j in _sample(rng, nodes, count):
                if tag not in ("T(iii)", "T(iv)"):
                    yield tag, apply_local_reduced(g, gate, j), run_reference(g, body, j)
                    continue
                choices = [k for k in _bits(g.adj[j]) if g.hollow[k]]
                yield tag, apply_local_reduced(g, gate, j), run_reference(g, body, j, choices[0])
                move = apply_Eii if tag == "T(iii)" else apply_Ei
                for k in choices:
                    yield tag, apply_local(move(g, k, j), "H", j), run_reference(g, body, j, k)
    solid = [j for j in range(n) if not g.hollow[j]]
    hollow = [j for j in range(n) if g.hollow[j]]
    for group_a, group_b in ((solid, solid), (solid, hollow), (hollow, solid), (hollow, hollow)):
        if not (group_a and group_b) or len(set(group_a + group_b)) < 2:
            continue
        for _ in range(count):
            j = rng.choice(group_a)
            k = rng.choice([b for b in group_b if b != j])
            tag = classify_cz_reduced(g, j, k)
            yield tag, apply_cz_reduced(g, j, k), run_reference(g, RULE_REFERENCES[tag], j, k)


def _fields(g: StabilizerGraph) -> tuple:
    return g.hollow_mask, g.loop_mask, g.neg_mask


def _check_rule(tag: str, out: StabilizerGraph, ref: StabilizerGraph) -> None:
    assert out == ref, tag
    _check_suspects(out, ref)
    assert _fields(out) == tuple(map(flag_mask_reference, (out.hollow, out.loop, out.neg))), tag


class TestGateRules:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("dense", [False, True])
    def test_match_the_list_based_bodies(self, n, dense):
        p = 0.5 if dense else 6 / (n - 1)
        g = sparse_graph(n, 11 * n, p)
        r = to_reduced(g)
        drawn = sparse_graph(n, 11 * n + 1, p, reduced=True)
        fresh = StabilizerGraph(n, r.hollow, r.loop, r.neg, r.adj)
        rng = random.Random(n)
        tags = set()
        # ``g`` and ``fresh`` come with every node suspect, and the general
        # rules on them keep that; on ``r`` and ``drawn``, known to be
        # reduced, they must carry just the nodes they wrote.
        for src in (g, fresh, r, drawn):
            for tag, out, ref in _gate_rules(src, rng, 2):
                _check_rule(tag, out, ref)
                tags.add(tag)
        assert tags == GATE_TAGS

    def test_every_hollow_choice_is_reached(self):
        # T(iii) and T(iv) are the rules that consume a hollow neighbor:
        # the property above must try more than one for each.
        r = sparse_graph(16, 5, 0.4, reduced=True)
        assert is_reduced(r)
        tags = [tag for tag, _, _ in _gate_rules(r, random.Random(0), 16)]
        for tag in ("T(iii)", "T(iv)"):
            targets = [j for j in range(16) if classify_local_reduced(r, "H", j) == tag]
            choices = [len([k for k in _bits(r.adj[j]) if r.hollow[k]]) for j in targets]
            # The rule, then the composition from every hollow neighbor of
            # every target.
            assert tags.count(tag) == sum(1 + c for c in choices)
            assert max(choices) >= 2

    def test_dense_reduced_form_at_n_1024(self, dense_reduced):
        _, r = dense_reduced
        tags = set()
        for tag, out, ref in _gate_rules(r, random.Random(2), 1):
            _check_rule(tag, out, ref)
            tags.add(tag)
        # T4 needs a hollow node with a loop, which no reduced graph has.
        assert tags == GATE_TAGS - {"T4"}


def _classes(rng: random.Random, n: int) -> tuple[int, int, int]:
    """Three disjoint node masks: each node joins one of them, or none."""
    masks = [0, 0, 0, 0]
    for l in range(n):
        masks[rng.randrange(4)] |= 1 << l
    return masks[0], masks[1], masks[2]


def _check_toggle_between(m: _Masks, p: int, q: int, r: int) -> None:
    """Apply ``toggle_between(p, q, r)`` to ``m`` and hold it, bit for bit in
    ``adj`` and ``rows``, to one ``toggle_edge`` per cross-class pair on a
    copy.  The pairs record their ends only, so a class that is the only
    non-empty one is in ``rows`` for the primitive alone."""
    ref = _Masks(StabilizerGraph.empty(m.n))
    ref.adj, ref.rows = list(m.adj), m.rows
    for x, y in ((p, q), (p, r), (q, r)):
        for i in bits_reference(x):
            for l in bits_reference(y):
                ref.toggle_edge(i, l)
    m.toggle_between(p, q, r)
    lone = p | q | r if sum(map(bool, (p, q, r))) == 1 else 0
    assert m.adj == ref.adj
    assert m.rows == ref.rows | lone


class TestMaskState:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(0, 2**32),
        st.lists(
            st.tuples(
                st.sampled_from((
                    "complement", "complement_edge", "toggle_edge",
                    "between", "fill", "loop", "advance", "sign",
                )),
                st.integers(0, 2**16),
                st.integers(0, 2**16),
            ),
            max_size=4,
        ),
        st.booleans(),
    )
    def test_freeze_carries_the_verdict_of_any_writes(self, n, seed, writes, reduced):
        # The E moves are a few such writes; whatever the writes and the
        # source were, the suspect mask freeze() carries (the source's
        # offenders plus the written nodes) must keep its rule, so that
        # is_reduced, which looks inside the mask only, is right.
        r = sparse_graph(n, seed, 0.3, reduced=reduced)
        assert is_reduced(r) == is_reduced_per_node(r)
        assert r._suspect == sum(1 << j for j in range(n) if r.hollow[j] and (
            r.loop[j] or any(r.hollow[k] for k in bits_reference(r.adj[j]))))
        m = _Masks(r)
        for kind, a, b in writes:
            j, k = a % n, b % n
            if kind == "complement":
                m.local_complement(j)
            elif kind == "complement_edge" and j != k:
                m.local_complement_edge(j, k)
            elif kind == "toggle_edge" and j != k:
                m.toggle_edge(j, k)
            elif kind == "between":
                _check_toggle_between(m, *_classes(random.Random(a << 17 | b), n))
            elif kind == "fill":
                m.hollow_mask ^= 1 << j
            elif kind == "loop":
                m.loop_mask ^= 1 << j
            elif kind == "advance":
                m.advance(1 << j)
            elif kind == "sign":
                m.neg_mask ^= 1 << j
        changed = sum(1 << l for l in range(n) if m.adj[l] != r.adj[l])
        assert not changed & ~m.rows
        written = m.rows | (m.hollow_mask ^ r.hollow_mask) | (m.loop_mask ^ r.loop_mask)
        out = m.freeze()
        out._validate()
        assert out._suspect == r._suspect | written
        assert keeps_the_suspect_rule(out)
        assert is_reduced(out) == is_reduced_per_node(out)
        assert _fields(out) == tuple(map(flag_mask_reference, (out.hollow, out.loop, out.neg)))

    def test_toggle_between_on_dense_reduced_rows(self, dense_reduced):
        _, r = dense_reduced
        p, q, s = _classes(random.Random(1024), r.n)
        assert min(map(int.bit_count, (p, q, s))) >= _UNPACK_AT
        _check_toggle_between(_Masks(r), p, q, s)


class TestToReducedShortcut:
    def test_reduced_input_with_unknown_verdict_is_returned_as_is(self):
        # A new graph has every node suspect; the check clears the mask.
        r = sparse_graph(40, 3, 0.1, reduced=True)
        assert r._suspect == -1
        assert to_reduced(r) is r
        assert r._suspect == 0
