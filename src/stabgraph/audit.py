"""Randomized soundness audit: every rewrite rule against the simulator.

For gate rules the check is that rewriting the graph and then reading its
state equals applying the dense gate to the original state, up to global
phase.  For equivalence rules the check is that the state does not move at
all.  The audit is the glue between the rewrite engine and the oracle and
deliberately knows nothing about how either side works.  The audit runs
on pairs of a general and a reduced graph of the same n.  It collects
the rewrites of both graphs of a pair first, each tagged with its
source, then computes the two source states and all of the rewrites' in
one oracle pass of bounded batches, and decides every check in one
vectorized overlap per batch against its own source's expected row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import equivalence, transforms
from .graph import StabilizerGraph, _node_id, is_reduced, neighbors
from .oracle import DEFAULT_TOL, gate_images, graph_amplitudes
from .oracle import random_graph, random_reduced_graph

GATE_RULES = (
    "T1", "T2", "T3", "T4", "T5", "T6",
    "T(i)", "T(ii)", "T(iii)", "T(iv)", "T(v)", "T(vi)", "T(vii)",
    "T(viii)", "T(ix)", "T(x)",
)
EQUIV_RULES = ("E1", "E2", "E(i)", "E(ii)")
ALL_RULES = GATE_RULES + EQUIV_RULES


@dataclass
class RuleReport:
    rule: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.cases > 0 and self.failures == 0


# The most amplitudes one oracle batch holds: a pair's checks run in
# chunks of at most this many (but never fewer rows than the pair's two
# sources, which share the first chunk), so the audit's working memory
# is a few 128 KB arrays at every n.  Measured on a 2-core Xeon:
# `verify --n 8` ran as fast as with 2^14 or 2^15 (arrays that fit in
# cache), and at n = 12 two rows per chunk keep the pair-table product on
# one BLAS thread, where 3 to 6 rows had spikes of milliseconds: in
# in-process `verify --n 12 --cases 24` (8 seeds), CPU time equalled wall
# time at 2^13 and was twice the wall time at 2^14 and 2^15, with n = 12
# batches of up to 2-3.5 ms.  The product stays in float32 all the same:
# an integer one, which no BLAS thread runs, took 20-60x as long (n = 8,
# 32 graphs: 232-427 us against 7-9 us; n = 12, 2 graphs: 847-1065 us
# against 41-47 us), so this chunk size is the guard against the stalls.
_BATCH_AMPLITUDES = 1 << 13


def _verdicts(sources: list[StabilizerGraph], cases: list) -> list[bool]:
    """Oracle verdicts of rewrites of ``sources`` (graphs that share n),
    in order.  A case is (s, out, gate, extra): ``out`` must hold the
    state of ``sources[s]`` under ``gate`` (a (name, targets) pair, or
    None for a rewrite that must leave the state alone), up to global
    phase, and ``extra`` is the result of any further check of ``out``.
    Each source's state is computed once, in the first batch, and each
    case's expected row is read from its own source."""
    first = len(sources)
    per = max(first, _BATCH_AMPLITUDES >> sources[0].n)
    graphs = [*sources, *(out for _, out, _, _ in cases)]
    verdicts: list[bool] = []
    for start in range(0, len(graphs), per):
        after = graph_amplitudes(graphs[start : start + per])
        if start == 0:
            before, after = after[:first].copy(), after[first:]
        chunk = cases[max(start - first, 0) : start + per - first]
        expected = np.empty_like(after)
        for s, state in enumerate(before):
            moves = [k for k, (t, _, gate, _) in enumerate(chunk) if t == s and gate is None]
            gated = [k for k, (t, _, gate, _) in enumerate(chunk) if t == s and gate is not None]
            expected[moves] = state
            if gated:
                expected[gated] = gate_images(state, [chunk[k][2] for k in gated])
        # |<after|expected>| row by row, conjugating in place.
        overlaps = np.abs(np.einsum("ij,ij->i", np.conjugate(after, out=after), expected))
        ok = overlaps >= 1.0 - DEFAULT_TOL
        verdicts += [bool(o) and extra for o, (_, _, _, extra) in zip(ok, chunk)]
    return verdicts


def _general_cases(g: StabilizerGraph) -> list:
    """The (rule, out, gate, extra) cases of the general rules on ``g``."""
    cases = []
    for j in range(g.n):
        for gate in transforms.LOCAL_GATES:
            rule = transforms.classify_local(g, gate, j)
            cases.append((rule, transforms.apply_local(g, gate, j), (gate, (j,)), True))
        if g.loop[j]:
            cases.append(("E1", equivalence.apply_E1(g, j), None, True))
    for j in range(g.n):
        for k in range(j + 1, g.n):
            if g.adj[j] >> k & 1 and not g.loop[j] and not g.loop[k]:
                cases.append(("E2", equivalence.apply_E2(g, j, k), None, True))
    return cases


def _reduced_cases(g: StabilizerGraph) -> list:
    """The (rule, out, gate, extra) cases of the reduced rules on ``g``."""
    cases = []
    for j in range(g.n):
        for gate in transforms.LOCAL_GATES:
            rule = transforms.classify_local_reduced(g, gate, j)
            out = transforms.apply_local_reduced(g, gate, j)
            cases.append((rule, out, (gate, (j,)), True))
    for j in range(g.n):
        for k in range(j + 1, g.n):
            rule = transforms.classify_cz_reduced(g, j, k)
            out = transforms.apply_cz_reduced(g, j, k)
            cases.append((rule, out, ("CZ", (j, k)), True))
    for h in range(g.n):
        if not g.hollow[h]:
            continue
        for s in sorted(neighbors(g, h)):
            if g.hollow[s]:
                continue
            if g.loop[s]:
                out = equivalence.apply_Ei(g, h, s)
                cases.append(("E(i)", out, None, is_reduced(out)))
            else:
                out = equivalence.apply_Eii(g, h, s)
                cases.append(("E(ii)", out, None, is_reduced(out)))
    return cases


def _audit_pair(general: StabilizerGraph, reduced: StabilizerGraph, counts: dict) -> None:
    """Check the general rules on ``general`` and the reduced rules on
    ``reduced`` (of the same n) in one oracle pass, and count them."""
    rules, checks = [], []
    for s, cases in enumerate((_general_cases(general), _reduced_cases(reduced))):
        for rule, *check in cases:
            rules.append(rule)
            checks.append((s, *check))
    for rule, ok in zip(rules, _verdicts([general, reduced], checks)):
        c, f = counts[rule]
        counts[rule] = (c + 1, f + (0 if ok else 1))


def audit_rules(max_n: int = 6, graphs: int = 200, seed: int = 0) -> list[RuleReport]:
    """Audit every rule on ``graphs`` random general graphs and as many
    random reduced ones, with sizes cycling over 1..max_n.  Deterministic
    in ``seed``."""
    max_n, graphs = _node_id(max_n, "max_n"), _node_id(graphs, "graphs")
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    if graphs < 0:
        raise ValueError(f"graphs must not be negative, got {graphs}")
    rng = random.Random(seed)
    counts = {rule: (0, 0) for rule in ALL_RULES}
    for i in range(graphs):
        n = 1 + i % max_n
        general = random_graph(n, rng.randrange(1 << 62))
        _audit_pair(general, random_reduced_graph(n, rng.randrange(1 << 62)), counts)
    return [RuleReport(rule, *counts[rule]) for rule in ALL_RULES]


def format_report(reports: list[RuleReport]) -> str:
    lines = [f"{'rule':<8} {'cases':>7} {'failures':>9}  status"]
    for r in reports:
        status = "PASS" if r.passed else ("NONE" if r.cases == 0 else "FAIL")
        lines.append(f"{r.rule:<8} {r.cases:>7} {r.failures:>9}  {status}")
    return "\n".join(lines) + "\n"
