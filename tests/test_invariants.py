"""Structural validity and the reduced invariant along the trusted path.

Rewrites build their results with the unchecked ``StabilizerGraph._trusted``
constructor, so these tests stand in for the validation that used to run
on every internal step: every public rewrite must return a graph that
passes the full ``_validate()``.  They also pin the bitmask ``is_reduced``
and the worklist ``to_reduced`` to per-node and restart-scan references,
hold the suspect mask that every rewrite leaves to its rule (every hollow
node with a loop, and an end of every hollow-hollow edge, is in it) by a
per-node reference, and check that a broken rule
raises ``InvariantError`` even under ``python -O`` and maps to exit code 3
on the command line.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    flag_mask_reference,
    is_reduced_per_node,
    keeps_the_suspect_rule,
    random_word,
    run_under_python_O,
    sparse_graph,
    to_reduced_restart_scan,
)
from stabgraph import (
    InvariantError,
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
    classify_cz_reduced,
    classify_local,
    classify_local_reduced,
    flip_fill,
    flip_sign,
    is_reduced,
    local_complement,
    local_complement_edge,
    random_graph,
    simplify_pair,
    to_reduced,
)
from stabgraph import equivalence, graph, transforms
from stabgraph.cli import main

GATE_TAGS = {
    "T1", "T2", "T3", "T4", "T5", "T6",
    "T(i)", "T(ii)", "T(iii)", "T(iv)", "T(v)", "T(vi)", "T(vii)",
    "T(viii)", "T(ix)", "T(x)",
}
OTHER_REWRITES = {
    "E1", "E2", "E(i)", "E(ii)",
    "local_complement", "local_complement_edge",
    "advance_loop", "flip_fill", "flip_sign", "to_reduced", "simplify_pair",
}


def _rewrites(g: StabilizerGraph, r: StabilizerGraph, rng: random.Random):
    """(name, output) for one application of every rewrite that applies.

    ``g`` is any graph and ``r`` a reduced graph of the same size.  Each
    gate tag is applied at a node (or pair) chosen by ``rng`` among those
    where it applies.
    """
    n = g.n
    for gate in transforms.LOCAL_GATES:
        by_tag: dict = {}
        for j in range(n):
            by_tag.setdefault(classify_local(g, gate, j), []).append(j)
        for tag, nodes in by_tag.items():
            yield tag, apply_local(g, gate, rng.choice(nodes))
        by_tag = {}
        for j in range(n):
            by_tag.setdefault(classify_local_reduced(r, gate, j), []).append(j)
        for tag, nodes in by_tag.items():
            yield tag, apply_local_reduced(r, gate, rng.choice(nodes))
    if n >= 2:
        solid = [j for j in range(n) if not r.hollow[j]]
        hollow = [j for j in range(n) if r.hollow[j]]
        for group_a, group_b in ((solid, solid), (solid, hollow), (hollow, hollow)):
            pairs = [(a, b) for a in group_a for b in group_b if a < b or group_a is not group_b]
            if pairs:
                j, k = rng.choice(pairs)
                yield classify_cz_reduced(r, j, k), apply_cz_reduced(r, j, k)
        j, k = rng.sample(range(n), 2)
        yield "apply_cz", apply_cz(g, j, k)
        yield "local_complement_edge", local_complement_edge(g, j, k)
    loops = [j for j in range(n) if g.loop[j]]
    if loops:
        yield "E1", apply_E1(g, rng.choice(loops))
    e2 = [(j, k) for j, k in g.edges() if not g.loop[j] and not g.loop[k]]
    if e2:
        yield "E2", apply_E2(g, *rng.choice(e2))
    for name, rule, want_loop in (("E(i)", apply_Ei, True), ("E(ii)", apply_Eii, False)):
        pairs = [
            (h, s)
            for h, s in (p for e in r.edges() for p in (e, e[::-1]))
            if r.hollow[h] and not r.hollow[s] and r.loop[s] == want_loop
        ]
        if pairs:
            yield name, rule(r, *rng.choice(pairs))
    j = rng.randrange(n)
    yield "local_complement", local_complement(g, j)
    yield "advance_loop", advance_loop(g, j)
    yield "flip_fill", flip_fill(g, j)
    yield "flip_sign", flip_sign(g, j)
    reduced = to_reduced(g)
    yield "to_reduced", reduced
    yield from zip(("simplify_pair",) * 2, simplify_pair(reduced, r))


@st.composite
def graph_pairs(draw, max_n=64):
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32))
    p = draw(st.sampled_from((0.05, 0.15, 0.5)))
    return (
        sparse_graph(n, seed, p),
        sparse_graph(n, seed + 1, p, reduced=True),
        random.Random(seed),
    )


class TestTrustedRewritesStayValid:
    @settings(max_examples=60, deadline=None)
    @given(graph_pairs())
    def test_every_public_rewrite_passes_full_validation(self, drawn):
        g, r, rng = drawn
        for name, out in _rewrites(g, r, rng):
            assert out.n == g.n, name
            out._validate()

    def test_the_rewrite_list_reaches_every_rule(self):
        # The property above is only as strong as its coverage.
        seen = set()
        for seed in range(12):
            n = 6 + seed % 5
            g = sparse_graph(n, seed, 0.4)
            r = sparse_graph(n, seed + 100, 0.4, reduced=True)
            seen |= {name for name, _ in _rewrites(g, r, random.Random(seed))}
        assert seen >= GATE_TAGS | OTHER_REWRITES

    def test_apply_sequence_validates_its_result(self, monkeypatch):
        # A rule that corrupts the adjacency is caught once, at the end.
        def asymmetric(m, j):
            m.adj[j] ^= 1 << ((j + 1) % m.n)

        monkeypatch.setattr(transforms, "_t2", asymmetric)
        g = StabilizerGraph.empty(3)
        with pytest.raises(ValueError, match="not symmetric"):
            transforms.apply_sequence(g, [("S", (0,)), ("H", (1,))])

    def test_trusted_graphs_compare_and_hash_like_checked_ones(self):
        g = StabilizerGraph.build(3, edges=[(0, 1)], hollow=[2], loops=[0])
        masks = map(flag_mask_reference, (g.hollow, g.loop, g.neg))
        t = StabilizerGraph._trusted(g.n, *masks, g.adj)
        assert t == g and hash(t) == hash(g) and repr(t) == repr(g)


class TestReducedVerdictCache:
    @settings(max_examples=60, deadline=None)
    @given(graph_pairs())
    def test_cached_verdicts_match_the_per_node_reference(self, drawn):
        g, r, rng = drawn
        # Check the sources first, as the reduced rules' pre-checks do, so
        # that their masks shrink to their offenders; a rewrite's result
        # then carries those plus the nodes it wrote, and is_reduced looks
        # at that mask only.
        is_reduced(g)
        is_reduced(r)
        for src in (g, r):
            for name, out in _rewrites(src, r, rng):
                assert keeps_the_suspect_rule(out), name
                assert is_reduced(out) == is_reduced_per_node(out), name

    def test_rewrites_of_a_reduced_graph_carry_both_verdicts(self):
        # The property above is only as strong as the masks are narrow:
        # make sure every rewrite of a source known to be reduced leaves a
        # mask of the nodes it wrote, not every node, and that both
        # verdicts come out of such masks.
        verdicts: dict = {}
        for seed in range(12):
            n = 6 + seed % 5
            r = sparse_graph(n, seed + 100, 0.4, reduced=True)
            assert is_reduced(r) and r._suspect == 0
            for name, out in _rewrites(r, r, random.Random(seed)):
                assert 0 <= out._suspect < 1 << n, name
                verdicts.setdefault(name, set()).add(is_reduced(out))
        # T4 needs a hollow node with a loop, which no reduced graph has.
        assert set(verdicts) >= (GATE_TAGS - {"T4"}) | OTHER_REWRITES
        assert {True, False} <= set().union(*verdicts.values())

    def test_to_reduced_returns_a_graph_known_to_be_reduced_as_is(self):
        r = sparse_graph(40, 3, 0.1, reduced=True)
        assert is_reduced(r)
        assert to_reduced(r) is r

    def test_cached_verdict_leaves_eq_hash_and_repr_alone(self):
        g = StabilizerGraph.build(3, edges=[(0, 1)], hollow=[2], loops=[0])
        assert is_reduced(g)
        out = apply_local_reduced(g, "H", 1)
        assert out._suspect == 0
        for cached in (g, out):
            fresh = StabilizerGraph(cached.n, cached.hollow, cached.loop, cached.neg, cached.adj)
            assert fresh._suspect == -1
            assert cached == fresh and hash(cached) == hash(fresh)
            assert repr(cached) == repr(fresh)
        assert "_suspect" not in {f.name for f in dataclasses.fields(StabilizerGraph)}

    @pytest.mark.parametrize("reduced", [True, False])
    def test_apply_sequence_rescans_its_result(self, monkeypatch, reduced):
        # A settle() that drops the nodes a rewrite wrote lets a broken rule
        # past the per-gate post-check; the final full scan still catches it.
        monkeypatch.setattr(graph._Masks, "settle", lambda m: None)
        monkeypatch.setattr(transforms, "_t2", _break_t2)
        g = StabilizerGraph.empty(2)
        assert is_reduced(g)  # so that the word starts with no suspect
        with pytest.raises(InvariantError, match="clash outside the suspect mask"):
            transforms.apply_sequence(g, [("S", (0,))], reduced=reduced)

    def test_apply_sequence_rejects_a_flag_bit_at_or_above_n(self, monkeypatch):
        # The per-gate rules never look above n; the final validation does.
        def sign_past_the_end(m, j):
            m.neg_mask ^= 1 << m.n

        monkeypatch.setattr(transforms, "_t2", sign_past_the_end)
        with pytest.raises(ValueError, match=r"neg mask has bits at or above n=2"):
            transforms.apply_sequence(StabilizerGraph.empty(2), [("S", (0,))])

    @pytest.mark.parametrize("reduced", [True, False])
    def test_a_hollow_bit_at_n_is_reported_by_the_final_validation(
        self, monkeypatch, reduced
    ):
        # The fill bit joins the suspect mask, but _offenders looks at
        # nodes only; a bit at or above n is no node, so it is left to the
        # final validation instead of indexing past the rows.
        def fill_past_the_end(m, j):
            m.hollow_mask ^= 1 << m.n

        monkeypatch.setattr(transforms, "_t2", fill_past_the_end)
        g = StabilizerGraph.empty(3)
        assert is_reduced(g)
        with pytest.raises(ValueError, match=r"hollow mask has bits at or above n=3"):
            transforms.apply_sequence(g, [("S", (0,))], reduced=reduced)

    def test_apply_sequence_rejects_unreduced_input_with_an_empty_word(self):
        g = StabilizerGraph.build(1, hollow=[0], loops=[0])
        with pytest.raises(ValueError, match="not reduced"):
            transforms.apply_sequence(g, [], reduced=True)
        assert transforms.apply_sequence(g, []) is g


def _half_edge(m, j):
    # S that writes one half of the edge j - (j + 1) and nothing else.
    m.adj[j] ^= 1 << (j + 1) % m.n


def _diagonal(m, j):
    m.adj[j] ^= 1 << j


def _loop_at_n(m, j):
    m.loop_mask ^= 1 << m.n


def _frozen(monkeypatch) -> list:
    """Record every graph ``_Masks.freeze`` returns from now on."""
    real, out = graph._Masks.freeze, []

    def freeze(m):
        out.append(real(m))
        return out[-1]

    monkeypatch.setattr(graph._Masks, "freeze", freeze)
    return out


class TestWrittenRowsCheck:
    """A word's end check looks at the rows the word wrote, and on any
    failure the full ``_validate()`` names the defect."""

    @pytest.mark.parametrize(
        "body, word, message",
        [
            # Row 0 is written, row 1 is not.
            (_half_edge, [("S", (0,))], "adjacency is not symmetric at (0, 1)"),
            # Both rows are written: the CZ writes rows 1 and 2, the S row 0.
            (_half_edge, [("CZ", (1, 2)), ("S", (0,))], "adjacency is not symmetric at (0, 1)"),
            (_diagonal, [("H", (1,)), ("S", (2,))], "node 2 has a diagonal adjacency entry"),
            (_loop_at_n, [("S", (0,))], "loop mask has bits at or above n=4"),
        ],
    )
    @pytest.mark.parametrize("reduced", [True, False])
    def test_a_broken_rule_gets_the_full_message(
        self, monkeypatch, body, word, message, reduced
    ):
        monkeypatch.setattr(transforms, "_t2", body)
        frozen = _frozen(monkeypatch)
        g = StabilizerGraph.empty(4)
        with pytest.raises(ValueError) as err:
            transforms.apply_sequence(g, word, reduced=reduced)
        assert str(err.value) == message
        (out,) = frozen
        assert not graph._valid_rewrite(out, g)
        with pytest.raises(ValueError) as full:
            out._validate()
        assert str(full.value) == message

    def test_a_broken_move_inside_a_general_cz(self, monkeypatch):
        # The CZ reduces the word's graph in place first; an E2 that also
        # writes one half of an edge to a node no gate writes is caught
        # at the end of the word.
        real, calls = equivalence._e2_core, []

        def broken(m, j, k):
            real(m, j, k)
            m.adj[j] ^= 1 << 4
            calls.append((j, k))

        monkeypatch.setattr(equivalence, "_e2_core", broken)
        frozen = _frozen(monkeypatch)
        g = StabilizerGraph.build(5, edges=[(0, 1)], hollow=[0, 1])
        with pytest.raises(ValueError) as err:
            transforms.apply_sequence(g, [("CZ", (2, 3))])
        assert calls == [(0, 1)]
        assert str(err.value) == "adjacency is not symmetric at (0, 4)"
        (out,) = frozen
        with pytest.raises(ValueError) as full:
            out._validate()
        assert str(full.value) == str(err.value)

    def test_written_rows_check_under_python_O(self):
        proc = run_under_python_O(
            """
            import sys
            from stabgraph import StabilizerGraph, transforms
            def broken(m, j):
                m.adj[j] ^= 1 << (j + 1) % m.n
            transforms._t2 = broken
            if sys.flags.optimize < 1:
                sys.exit("not running under -O")
            for reduced in (True, False):
                try:
                    transforms.apply_sequence(
                        StabilizerGraph.empty(4), [("CZ", (1, 2)), ("S", (0,))], reduced=reduced
                    )
                except ValueError as exc:
                    print("raised:", reduced, exc)
                else:
                    sys.exit("the end-of-word check did not fire")
            """
        )
        assert proc.returncode == 0, proc.stderr
        for reduced in (True, False):
            assert f"raised: {reduced} adjacency is not symmetric at (0, 1)" in proc.stdout

    def test_a_rejection_the_full_check_accepts_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(transforms, "_valid_rewrite", lambda out, g: False)
        with pytest.raises(InvariantError, match="written-rows check"):
            transforms.apply_sequence(StabilizerGraph.empty(3), [("S", (0,))])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 70),
        st.integers(0, 2**32),
        st.sampled_from((0.05, 0.3)),
        st.lists(
            st.sampled_from(("edge", "same", "high", "negative", "diagonal", "half", "flag")),
            max_size=4,
        ),
    )
    def test_agrees_with_the_full_check(self, n, seed, p, changes):
        # Rows are rewritten as a rule would (every write a new object),
        # validly or not, and the verdict must be the full check's.
        rng = random.Random(seed)
        g = sparse_graph(n, seed, p)
        adj = list(g.adj)
        masks = [g.hollow_mask, g.loop_mask, g.neg_mask]
        for change in changes:
            j, k = rng.randrange(n), rng.randrange(n)
            if change == "edge" and j != k:  # both halves: still valid
                adj[j] ^= 1 << k
                adj[k] ^= 1 << j
            elif change == "same":  # a new object with the same value
                adj[j] = int(str(adj[j]))
            elif change == "high":
                adj[j] |= 1 << (n + rng.randrange(3))
            elif change == "negative":
                adj[j] = -1 - adj[j]
            elif change == "diagonal":
                adj[j] ^= 1 << j
            elif change == "half" and j != k:
                adj[j] ^= 1 << k
            elif change == "flag":
                masks[k % 3] |= 1 << (n + rng.randrange(2))
        out = StabilizerGraph._trusted(n, *masks, tuple(adj))
        try:
            out._validate()
        except ValueError:
            valid = False
        else:
            valid = True
        assert graph._valid_rewrite(out, g) == valid


def _perturbed(n: int, seed: int, kind: str) -> StabilizerGraph:
    """A reduced graph, then (maybe) one change that can break reducedness.

    The change lands on the last nodes, where a mask built in the wrong
    bit order or of the wrong width goes wrong first.
    """
    g = sparse_graph(n, seed, 0.3, reduced=True)
    hollow, loops = list(g.hollow), list(g.loop)
    edges = set(g.edges())
    last = n - 1
    if kind == "hollow_loop":
        hollow[last] = loops[last] = True
    elif kind == "hollow_edge" and n >= 2:
        hollow[last] = hollow[last - 1] = True
        edges.add((last - 1, last))
    elif kind == "flip_fill":
        hollow[last] = not hollow[last]
    return StabilizerGraph.build(
        n,
        edges=edges,
        hollow=[j for j in range(n) if hollow[j]],
        loops=[j for j in range(n) if loops[j]],
        neg=[j for j in range(n) if g.neg[j]],
    )


class TestBitmaskIsReduced:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 70),
        st.integers(0, 2**32),
        st.sampled_from(("none", "hollow_loop", "hollow_edge", "flip_fill")),
    )
    def test_agrees_with_per_node_reference(self, n, seed, kind):
        g = _perturbed(n, seed, kind)
        assert is_reduced(g) == is_reduced_per_node(g)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 17, 63, 65])
    @pytest.mark.parametrize("kind", ["none", "hollow_loop", "hollow_edge"])
    def test_byte_boundaries(self, n, kind):
        g = _perturbed(n, 7 * n, kind)
        assert is_reduced(g) == is_reduced_per_node(g)
        if kind == "hollow_loop" or (kind == "hollow_edge" and n >= 2):
            assert not is_reduced(g)


class TestWorklistToReduced:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_restart_scan_on_dense_graphs(self, n, seed):
        g = random_graph(n, 1000 * n + seed)
        assert to_reduced(g) == to_reduced_restart_scan(g)

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("p", [0.02, 0.1])
    def test_matches_restart_scan_on_sparse_graphs(self, n, p):
        g = sparse_graph(n, n, p)
        assert to_reduced(g) == to_reduced_restart_scan(g)

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("p", [0.3, 0.6])
    def test_matches_restart_scan_from_a_narrow_suspect_mask(self, n, p):
        # A checked graph's mask holds only the nodes written since the
        # check, so clashes also run from those to hollow nodes outside
        # it: the E2 worklist must start from all of them, or its moves
        # come in another order (which changes the result now and then).
        rng = random.Random(n)
        for seed in range(200):
            g = sparse_graph(n, seed, p, reduced=True)
            assert is_reduced(g)
            for _ in range(rng.randrange(1, 8)):
                g = apply_local(g, rng.choice("HSZ"), rng.randrange(n))
            assert 0 <= g._suspect < 1 << n
            assert to_reduced(g) == to_reduced_restart_scan(g)


def _break_t2(m, j):
    # S on a solid node that leaves it hollow with a loop: not reduced.
    m.hollow_mask |= 1 << j
    m.loop_mask |= 1 << j


def _break_t2_edge(m, j):
    # S on a solid node that joins hollow nodes 1 and 2, leaving j itself
    # alone: not reduced.
    m.toggle_edge(1, 2)


class TestInvariantError:
    def test_reduced_rule_post_check_raises(self, monkeypatch):
        monkeypatch.setattr(transforms, "_t2", _break_t2)
        with pytest.raises(InvariantError, match=r"T\(vi\)"):
            apply_local_reduced(StabilizerGraph.empty(2), "S", 0)

    def test_to_reduced_check_raises(self, monkeypatch):
        # An E2 that does nothing leaves the hollow-hollow edge in place.
        monkeypatch.setattr(equivalence, "_e2_core", lambda m, j, k: None)
        g = StabilizerGraph.build(2, edges=[(0, 1)], hollow=[0, 1])
        with pytest.raises(InvariantError):
            to_reduced(g)

    def test_simplify_pair_termination_guard_raises(self, monkeypatch):
        monkeypatch.setattr(equivalence, "_swap", lambda m, h, s: None)
        a = StabilizerGraph.build(2, edges=[(0, 1)], hollow=[0])
        b = StabilizerGraph.build(2, edges=[(0, 1)], hollow=[1])
        with pytest.raises(InvariantError, match="terminate"):
            simplify_pair(a, b)

    def test_cli_maps_it_to_exit_3_without_traceback(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(transforms, "_t2", _break_t2)
        src = tmp_path / "g.graph"
        src.write_text("nodes 2\nnode 0 solid\nnode 1 solid\n")
        assert main(["apply", "-i", str(src), "--script", "S:0", "--reduced"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "invariant" in err

    def test_adj_write_post_check_raises(self, monkeypatch):
        monkeypatch.setattr(transforms, "_t2", _break_t2_edge)
        g = StabilizerGraph.build(3, hollow=[1, 2])
        with pytest.raises(InvariantError, match=r"T\(vi\)"):
            apply_local_reduced(g, "S", 0)

    @pytest.mark.parametrize("k, cz, reduced", [
        *(pytest.param(k, False, True, id=str(k)) for k in (0, 1, 5, 13)),
        *(
            pytest.param(k, True, reduced, id=f"CZ-{mode}-{k}")
            for mode, reduced in (("reduced", True), ("general", False))
            for k in (0, 1, 5, 13)
        ),
    ])
    def test_word_post_check_names_the_rule_at_gate_k(self, monkeypatch, k, cz, reduced):
        # The word runs in place on one _Masks; the post-check after every
        # reduced-rule gate and every CZ must still catch a body (_general,
        # or _cz at the k-th CZ) that breaks the invariant at gate k.  A
        # general-rule CZ first reduces the word's _Masks in place, so its
        # rule is that of the reduced state.
        r = sparse_graph(12, 5, 0.3, reduced=True)
        word = random_word(random.Random(k), 12, 60 if cz else 40)
        at = [i for i, (gate, _) in enumerate(word) if (gate == "CZ") == cz][k]
        before = transforms.apply_sequence(r, word[:at], reduced=reduced)
        gate, targets = word[at]
        if cz:
            seam, tag = "_cz", classify_cz_reduced(to_reduced(before), *targets)
        else:
            seam, tag = "_general", classify_local_reduced(before, gate, *targets)
        real, calls = getattr(transforms, seam), []

        def broken(m, rule, j, *rest):
            real(m, rule, j, *rest)
            if len(calls) == k:  # the (first) target comes out hollow with a loop
                m.hollow_mask |= 1 << j
                m.loop_mask |= 1 << j
            calls.append(j)

        monkeypatch.setattr(transforms, seam, broken)
        with pytest.raises(InvariantError, match=rf"^rule {re.escape(tag)} broke"):
            transforms.apply_sequence(r, word, reduced=reduced)
        assert len(calls) == k + 1

    def test_word_post_check_under_python_O(self):
        proc = run_under_python_O(
            """
            import sys
            from stabgraph import InvariantError, StabilizerGraph, transforms
            real, calls = transforms._t2, []
            def broken(m, j):
                real(m, j)
                if len(calls) == 2:
                    m.hollow_mask |= 1 << j
                    m.loop_mask |= 1 << j
                calls.append(j)
            transforms._t2 = broken
            if sys.flags.optimize < 1:
                sys.exit("not running under -O")
            word = [("S", (0,)), ("CZ", (0, 1)), ("S", (1,)), ("H", (2,)), ("S", (0,))]
            try:
                transforms.apply_sequence(StabilizerGraph.empty(3), word, reduced=True)
            except InvariantError as exc:
                print("raised at call", len(calls), exc)
            else:
                sys.exit("the post-check did not fire")
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert "raised at call 3 rule T(vi) broke the reduced invariant" in proc.stdout

    def test_word_rescan_under_python_O(self):
        # With a settle() that drops what each rewrite wrote, the per-gate
        # post-checks see nothing; the final full scan of the word still
        # raises under -O, under both rule families.
        proc = run_under_python_O(
            """
            import sys
            from stabgraph import InvariantError, StabilizerGraph, graph, is_reduced, transforms
            def broken(m, j):
                m.hollow_mask |= 1 << j
                m.loop_mask |= 1 << j
            transforms._t2 = broken
            graph._Masks.settle = lambda m: None
            if sys.flags.optimize < 1:
                sys.exit("not running under -O")
            g = StabilizerGraph.empty(2)
            if not is_reduced(g):  # no suspect left when the word starts
                sys.exit("the empty graph is not reduced")
            for reduced in (True, False):
                try:
                    transforms.apply_sequence(g, [("S", (0,))], reduced=reduced)
                except InvariantError as exc:
                    print("raised:", reduced, exc)
                else:
                    sys.exit("the final rescan did not fire")
            """
        )
        assert proc.returncode == 0, proc.stderr
        for reduced in (True, False):
            assert f"raised: {reduced} a rule left a clash outside the suspect mask" in proc.stdout

    def test_check_survives_python_O(self):
        proc = run_under_python_O(
            """
            import sys
            from stabgraph import InvariantError, StabilizerGraph, transforms
            def broken(m, j):
                m.hollow_mask |= 1 << j
                m.loop_mask |= 1 << j
            transforms._t2 = broken
            if sys.flags.optimize < 1:
                sys.exit("not running under -O")
            try:
                transforms.apply_local_reduced(StabilizerGraph.empty(2), "S", 0)
            except InvariantError as exc:
                print("raised:", exc)
            else:
                sys.exit("the post-check did not fire")
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert "raised: rule T(vi) broke the reduced invariant" in proc.stdout

    def test_adj_write_check_survives_python_O(self):
        proc = run_under_python_O(
            """
            import sys
            from stabgraph import InvariantError, StabilizerGraph, transforms
            def broken(m, j):
                m.toggle_edge(1, 2)
            transforms._t2 = broken
            if sys.flags.optimize < 1:
                sys.exit("not running under -O")
            try:
                transforms.apply_local_reduced(StabilizerGraph.build(3, hollow=[1, 2]), "S", 0)
            except InvariantError as exc:
                print("raised:", exc)
            else:
                sys.exit("the post-check did not fire")
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert "raised: rule T(vi) broke the reduced invariant" in proc.stdout

    def test_pair_check_under_python_O(self):
        # An E(ii) that also gives the node it makes hollow a loop leaves
        # a graph that is not reduced; simplify_pair's one check of its
        # results must raise, also under -O.
        proc = run_under_python_O(
            """
            import sys
            from stabgraph import InvariantError, StabilizerGraph, equivalence, simplify_pair
            real = equivalence._e2_core
            def broken(m, j, k):
                before = m.hollow_mask
                real(m, j, k)
                m.loop_mask |= m.hollow_mask & ~before
            equivalence._e2_core = broken
            if sys.flags.optimize < 1:
                sys.exit("not running under -O")
            a = StabilizerGraph.build(2, edges=[(0, 1)], hollow=[0])
            b = StabilizerGraph.build(2, edges=[(0, 1)], hollow=[1])
            try:
                simplify_pair(a, b)
            except InvariantError as exc:
                print("raised:", exc)
            else:
                sys.exit("the pair check did not fire")
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert "raised: pair simplification left a graph that is not reduced" in proc.stdout
