"""Acceptance suite: the package's headline guarantees.

One test per criterion.  Each test prints a single summary line
(bypassing capture, so it always appears in the pytest output) and then
asserts, so a red run shows both the verdict line and the detail.

The overlap tolerance everywhere is the default 1e-9 of
``states_equal_up_to_global_phase``.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import numpy as np

from helpers import decorations, random_edge_sets, scrambled_group
from stabgraph.oracle import DEFAULT_TOL, gate_images, graph_amplitudes
from stabgraph import (
    GeneratorMatrix,
    StabilizerGraph,
    apply_E1,
    apply_E2,
    apply_Ei,
    apply_Eii,
    apply_cz_reduced,
    apply_gate_dense,
    apply_local,
    apply_local_reduced,
    canonical_blocks,
    circuit_from_graph,
    classify_cz_reduced,
    classify_local,
    classify_local_reduced,
    format_circuit,
    generator_matrix_from_graph,
    generators_by_conjugation,
    generators_from_circuit,
    graph_from_generator_matrix,
    graphs_equivalent,
    is_reduced,
    left_rank,
    local_complement,
    local_complement_edge,
    parse_generator_matrix,
    permute_qubits,
    random_graph,
    random_reduced_graph,
    stabilizer_check,
    statevector_from_circuit,
    statevector_from_graph,
    states_equal_up_to_global_phase,
    to_canonical_form,
    to_reduced,
)

GATE_TAGS = (
    "T1", "T2", "T3", "T4", "T5", "T6",
    "T(i)", "T(ii)", "T(iii)", "T(iv)", "T(v)", "T(vi)", "T(vii)",
    "T(viii)", "T(ix)", "T(x)",
)


def report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def rewrite_is_sound(g_in, g_out, gate, *targets) -> bool:
    return states_equal_up_to_global_phase(
        statevector_from_graph(g_out),
        apply_gate_dense(statevector_from_graph(g_in), gate, *targets),
    )


def test_criterion_1_gate_rule_soundness(capsys):
    """Every gate rewrite matches the dense gate on the statevector.

    Coverage: all decorations of 3 random edge sets per size for n <= 4
    (both the general and the reduced rule families), plus 1000 random
    graphs at n in 5..8.  Budget: under two minutes.
    """
    t0 = time.perf_counter()
    cases = Counter()
    failures = []

    def check(g, rewrites, reduced):
        # One batched pass per graph: the states of all its outputs, and
        # the images of its own state under every gate, compared row by
        # row with the overlap of states_equal_up_to_global_phase.
        outs = graph_amplitudes([out for _, out, _ in rewrites])
        images = gate_images(statevector_from_graph(g).amps, [gt for _, _, gt in rewrites])
        overlaps = np.abs(np.einsum("ij,ij->i", outs.conj(), images))
        for (tag, out, (gate, targets)), overlap in zip(rewrites, overlaps):
            ok = overlap >= 1.0 - DEFAULT_TOL and (not reduced or is_reduced(out))
            cases[tag] += 1
            if not ok:
                failures.append((tag, g, gate, targets if gate == "CZ" else targets[0]))

    def check_general(g):
        check(g, [
            (classify_local(g, gate, j), apply_local(g, gate, j), (gate, (j,)))
            for gate in ("H", "S", "Z")
            for j in range(g.n)
        ], reduced=False)

    def check_reduced(g):
        local = [
            (classify_local_reduced(g, gate, j), apply_local_reduced(g, gate, j), (gate, (j,)))
            for gate in ("H", "S", "Z")
            for j in range(g.n)
        ]
        cz = [
            (classify_cz_reduced(g, j, k), apply_cz_reduced(g, j, k), ("CZ", (j, k)))
            for j in range(g.n)
            for k in range(j + 1, g.n)
        ]
        check(g, local + cz, reduced=True)

    for n in range(1, 5):
        for edges in random_edge_sets(n, count=3, seed=n):
            for g in decorations(n, edges):
                check_general(g)
            for g in decorations(n, edges, reduced=True):
                check_reduced(g)

    graphs = 0
    for n in range(5, 9):
        for i in range(125):
            check_general(random_graph(n, seed=1_000_000 * n + i))
            check_reduced(random_reduced_graph(n, seed=1_000_000 * n + i))
            graphs += 2

    elapsed = time.perf_counter() - t0
    missing = [t for t in GATE_TAGS if cases[t] < 1000]
    ok = not failures and not missing and graphs >= 1000 and elapsed < 120
    report(
        capsys,
        "C1 gate-rule soundness",
        ok,
        f"{sum(cases.values())} rewrites, {len(failures)} failures, "
        f"min tag count {min(cases[t] for t in GATE_TAGS)}, {elapsed:.1f}s",
    )


def test_criterion_2_equivalence_rule_invariance(capsys):
    """E1, E2, E(i), E(ii) preserve the state on 1000+ instances each."""
    t0 = time.perf_counter()
    counts = Counter()
    failures = []
    target = 1000
    seed = 0
    while min(counts[r] for r in ("E1", "E2", "E(i)", "E(ii)")) < target:
        n = 1 + seed % 8
        g = random_graph(n, seed)
        v = statevector_from_graph(g)
        for j in range(n):
            if g.loop[j] and counts["E1"] < target:
                out = apply_E1(g, j)
                counts["E1"] += 1
                if not states_equal_up_to_global_phase(statevector_from_graph(out), v):
                    failures.append(("E1", g, j))
        for j in range(n):
            for k in range(j + 1, n):
                if (
                    g.has_edge(j, k)
                    and not g.loop[j]
                    and not g.loop[k]
                    and counts["E2"] < target
                ):
                    out = apply_E2(g, j, k)
                    counts["E2"] += 1
                    if not states_equal_up_to_global_phase(
                        statevector_from_graph(out), v
                    ):
                        failures.append(("E2", g, (j, k)))
        rg = random_reduced_graph(n, seed)
        rv = statevector_from_graph(rg)
        for j in range(n):
            for k in range(n):
                if j == k or not rg.hollow[j] or rg.hollow[k]:
                    continue
                if not rg.has_edge(j, k):
                    continue
                rule = "E(i)" if rg.loop[k] else "E(ii)"
                if counts[rule] >= target:
                    continue
                out = (apply_Ei if rg.loop[k] else apply_Eii)(rg, j, k)
                counts[rule] += 1
                if not (
                    is_reduced(out)
                    and states_equal_up_to_global_phase(
                        statevector_from_graph(out), rv
                    )
                ):
                    failures.append((rule, rg, (j, k)))
        seed += 1
        assert seed < 100_000, "instance quota unreachable"

    elapsed = time.perf_counter() - t0
    ok = not failures
    report(
        capsys,
        "C2 equivalence-rule invariance",
        ok,
        f"counts {dict(counts)}, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_3_decision_procedure(capsys):
    """graphs_equivalent agrees with the statevector on 10^4 pairs.

    9000 independent random pairs plus 1000 pairs made equivalent by a
    random walk of state-preserving rewrites; no false verdict allowed
    in either direction.
    """
    t0 = time.perf_counter()
    false_pos = false_neg = 0
    true_equal_random = 0

    for i in range(9000):
        n = 1 + i % 6
        g1 = random_graph(n, seed=2 * i)
        g2 = random_graph(n, seed=2 * i + 1)
        decided = graphs_equivalent(g1, g2)
        truth = states_equal_up_to_global_phase(
            statevector_from_graph(g1), statevector_from_graph(g2)
        )
        if decided and not truth:
            false_pos += 1
        if truth and not decided:
            false_neg += 1
        true_equal_random += truth

    walk_failures = 0
    for i in range(1000):
        n = 1 + i % 6
        rng = random.Random(10_000 + i)
        g = random_graph(n, seed=777_000 + i)
        h = g
        for _ in range(rng.randrange(1, 7)):
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
        if not graphs_equivalent(g, h):
            walk_failures += 1

    elapsed = time.perf_counter() - t0
    ok = false_pos == 0 and false_neg == 0 and walk_failures == 0
    report(
        capsys,
        "C3 decision procedure",
        ok,
        f"10000 pairs, {false_pos} false positives, "
        f"{false_neg + walk_failures} false negatives, "
        f"{true_equal_random} random pairs truly equal, {elapsed:.1f}s",
    )


def test_criterion_4_reduction_guarantees(capsys):
    """to_reduced lands in reduced form without raising hollow count;
    the fill-swap rewrites preserve the hollow count exactly."""
    t0 = time.perf_counter()
    bad_reduced = bad_monotone = bad_swap = 0
    swaps = 0

    for i in range(10_000):
        n = 1 + i % 8
        g = random_graph(n, seed=555_000 + i)
        out = to_reduced(g)
        if not is_reduced(out):
            bad_reduced += 1
        if sum(out.hollow) > sum(g.hollow):
            bad_monotone += 1
        for j in range(n):
            for k in range(n):
                if j == k or not out.hollow[j] or out.hollow[k]:
                    continue
                if not out.has_edge(j, k):
                    continue
                moved = (apply_Ei if out.loop[k] else apply_Eii)(out, j, k)
                swaps += 1
                if sum(moved.hollow) != sum(out.hollow):
                    bad_swap += 1

    elapsed = time.perf_counter() - t0
    ok = bad_reduced == bad_monotone == bad_swap == 0 and swaps >= 1000
    report(
        capsys,
        "C4 reduction guarantees",
        ok,
        f"10000 graphs, {swaps} fill swaps, "
        f"{bad_reduced}/{bad_monotone}/{bad_swap} violations, {elapsed:.1f}s",
    )


def test_criterion_5_generator_dual_path(capsys):
    """Closed-form generators equal the conjugation-derived ones, signs
    included, and stabilize the simulated circuit state."""
    t0 = time.perf_counter()
    mismatches = stab_failures = 0
    total = 1000
    for i in range(total):
        n = 1 + i % 5
        c = circuit_from_graph(random_graph(n, seed=31_000 + i))
        closed = generators_from_circuit(c)
        conjugated = generators_by_conjugation(c)
        if closed != conjugated:
            mismatches += 1
        if not stabilizer_check(statevector_from_circuit(c), closed):
            stab_failures += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and stab_failures == 0
    report(
        capsys,
        "C5 generator dual path",
        ok,
        f"{total} circuits, {mismatches} mismatches, "
        f"{stab_failures} stabilizer failures, {elapsed:.1f}s",
    )


def test_criterion_6_canonical_form(capsys):
    """Row reduction reaches the exact block pattern with symmetric B on
    1000 scrambled groups, preserving commutation and the state."""
    t0 = time.perf_counter()
    bad = 0
    for i in range(1000):
        n = 1 + i % 8
        source_graph = random_graph(n, seed=47_000 + i)
        mat = scrambled_group(n, seed=47_000 + i)
        canon, rank = to_canonical_form(mat)
        try:
            a_block, b_block = canonical_blocks(canon, rank)
        except ValueError:
            bad += 1
            continue
        symmetric = all(
            (b_block[r] >> c) & 1 == (b_block[c] >> r) & 1
            for r in range(rank)
            for c in range(rank)
        )
        # Rows must still be a valid group (pairwise commuting,
        # independent): the constructor revalidates.
        GeneratorMatrix(n, canon.rows, canon.qubit_of_column)
        # And they must still fix the original state, after undoing the
        # column relabelling.
        rows_on_qubits = [
            permute_qubits(r, canon.qubit_of_column) for r in canon.rows
        ]
        state_ok = stabilizer_check(
            statevector_from_graph(source_graph), rows_on_qubits
        )
        if not (symmetric and state_ok and left_rank(canon) == rank):
            bad += 1
    elapsed = time.perf_counter() - t0
    report(
        capsys,
        "C6 canonical form",
        bad == 0,
        f"1000 groups, {bad} violations, {elapsed:.1f}s",
    )


def test_criterion_7_local_complementation_algebra(capsys):
    """LC is an involution; along every existing edge the one-shot
    edge complementation equals both three-step compositions.

    Exhaustive over all graphs with n <= 5.  The identity is stated for
    edges: on a disconnected pair the one-shot form inserts the edge
    and the compositions do not, so pairs without an edge are excluded
    by construction.
    """
    t0 = time.perf_counter()
    bad_involution = bad_edge = 0
    graphs = edges_checked = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for b, e in enumerate(pairs) if (mask >> b) & 1]
            g = StabilizerGraph.build(n, edges=edges)
            graphs += 1
            for j in range(n):
                if local_complement(local_complement(g, j), j).adj != g.adj:
                    bad_involution += 1
            for j, k in edges:
                direct = local_complement_edge(g, j, k).adj
                jkj = local_complement(
                    local_complement(local_complement(g, j), k), j
                ).adj
                kjk = local_complement(
                    local_complement(local_complement(g, k), j), k
                ).adj
                edges_checked += 1
                if not (direct == jkj == kjk):
                    bad_edge += 1
    elapsed = time.perf_counter() - t0
    ok = bad_involution == 0 and bad_edge == 0
    report(
        capsys,
        "C7 local-complementation algebra",
        ok,
        f"{graphs} graphs, {edges_checked} edges, "
        f"{bad_involution}+{bad_edge} violations, {elapsed:.1f}s",
    )


def test_criterion_8_bell_and_ghz_fixtures(capsys):
    """The full pipeline reproduces the Bell and GHZ states exactly."""
    t0 = time.perf_counter()
    ok = True
    notes = []

    bell = parse_generator_matrix("+XX\n+ZZ\n")
    bell_graph = graph_from_generator_matrix(bell)
    ok &= bell_graph == StabilizerGraph.build(2, edges=[(0, 1)], hollow=[1])
    bell_circuit = circuit_from_graph(bell_graph)
    ok &= format_circuit(bell_circuit) == "qubits 2\nCZ 0 1\nH 1\n"
    bell_state = statevector_from_circuit(bell_circuit)
    target = np.zeros(4, dtype=complex)
    target[0] = target[3] = 1 / np.sqrt(2.0)
    overlap = abs(np.vdot(bell_state.amps, target))
    ok &= overlap >= 1 - 1e-9
    notes.append(f"bell overlap {overlap:.12f}")
    ok &= stabilizer_check(bell_state, generator_matrix_from_graph(bell_graph).rows)
    ok &= graphs_equivalent(
        bell_graph, StabilizerGraph.build(2, edges=[(0, 1)], hollow=[0])
    )

    ghz = parse_generator_matrix("+XXX\n+ZZI\n+ZIZ\n")
    ghz_graph = graph_from_generator_matrix(ghz)
    ok &= ghz_graph == StabilizerGraph.build(
        3, edges=[(0, 1), (0, 2)], hollow=[1, 2]
    )
    ghz_state = statevector_from_circuit(circuit_from_graph(ghz_graph))
    target = np.zeros(8, dtype=complex)
    target[0] = target[7] = 1 / np.sqrt(2.0)
    overlap = abs(np.vdot(ghz_state.amps, target))
    ok &= overlap >= 1 - 1e-9
    notes.append(f"ghz overlap {overlap:.12f}")
    ok &= stabilizer_check(ghz_state, ghz.rows)

    elapsed = time.perf_counter() - t0
    report(
        capsys,
        "C8 worked fixtures",
        bool(ok),
        f"{', '.join(notes)}, {elapsed:.2f}s",
    )
