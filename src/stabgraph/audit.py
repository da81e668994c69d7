"""Randomized soundness audit: every rewrite rule against the simulator.

For gate rules the check is that rewriting the graph and then reading its
state equals applying the dense gate to the original state, up to global
phase.  For equivalence rules the check is that the state does not move at
all.  The audit is the glue between the rewrite engine and the oracle and
deliberately knows nothing about how either side works.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import equivalence, transforms
from .graph import StabilizerGraph, is_reduced, neighbors
from .oracle import (
    Statevector,
    apply_gate_dense,
    random_graph,
    random_reduced_graph,
    statevector_from_graph,
    states_equal_up_to_global_phase,
)

GATE_RULES = (
    "T1", "T2", "T3", "T4", "T5", "T6",
    "T(i)", "T(ii)", "T(iii)", "T(iv)", "T(v)", "T(vi)", "T(vii)",
    "T(viii)", "T(ix)", "T(x)",
)
EQUIV_RULES = ("E1", "E2", "E(i)", "E(ii)")
ALL_RULES = GATE_RULES + EQUIV_RULES

DEFAULT_TOL = 1e-9


@dataclass
class RuleReport:
    rule: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.cases > 0 and self.failures == 0


def check_local(g: StabilizerGraph, gate: str, j: int, reduced: bool) -> bool:
    """Oracle check of one single-node rewrite."""
    apply = transforms.apply_local_reduced if reduced else transforms.apply_local
    return _acts_as(statevector_from_graph(g), apply(g, gate, j), gate, j)


def check_cz(g: StabilizerGraph, j: int, k: int, reduced: bool) -> bool:
    """Oracle check of one CZ rewrite."""
    apply = transforms.apply_cz_reduced if reduced else transforms.apply_cz
    return _acts_as(statevector_from_graph(g), apply(g, j, k), "CZ", j, k)


def check_state_preserved(g: StabilizerGraph, out: StabilizerGraph) -> bool:
    """Oracle check that a rewrite left the state exactly alone."""
    return _preserves(statevector_from_graph(g), out)


# ``before`` is the state of the graph that was rewritten into ``out``; the
# audit computes it once per graph and shares it among that graph's checks.


def _acts_as(
    before: Statevector, out: StabilizerGraph, gate: str, *targets: int
) -> bool:
    after = statevector_from_graph(out)
    return states_equal_up_to_global_phase(
        after, apply_gate_dense(before, gate, *targets), DEFAULT_TOL
    )


def _preserves(before: Statevector, out: StabilizerGraph) -> bool:
    return states_equal_up_to_global_phase(
        before, statevector_from_graph(out), DEFAULT_TOL
    )


def _tally(counts: dict, rule: str, ok: bool) -> None:
    c, f = counts[rule]
    counts[rule] = (c + 1, f + (0 if ok else 1))


def _audit_general_graph(g: StabilizerGraph, counts: dict) -> None:
    before = statevector_from_graph(g)
    for j in range(g.n):
        for gate in transforms.LOCAL_GATES:
            rule = transforms.classify_local(g, gate, j)
            out = transforms.apply_local(g, gate, j)
            _tally(counts, rule, _acts_as(before, out, gate, j))
        if g.loop[j]:
            _tally(counts, "E1", _preserves(before, equivalence.apply_E1(g, j)))
    for j in range(g.n):
        for k in range(j + 1, g.n):
            if g.has_edge(j, k) and not g.loop[j] and not g.loop[k]:
                out = equivalence.apply_E2(g, j, k)
                _tally(counts, "E2", _preserves(before, out))


def _audit_reduced_graph(g: StabilizerGraph, counts: dict) -> None:
    before = statevector_from_graph(g)
    for j in range(g.n):
        for gate in transforms.LOCAL_GATES:
            rule = transforms.classify_local_reduced(g, gate, j)
            out = transforms.apply_local_reduced(g, gate, j)
            _tally(counts, rule, _acts_as(before, out, gate, j))
    for j in range(g.n):
        for k in range(j + 1, g.n):
            rule = transforms.classify_cz_reduced(g, j, k)
            out = transforms.apply_cz_reduced(g, j, k)
            _tally(counts, rule, _acts_as(before, out, "CZ", j, k))
    for h in range(g.n):
        if not g.hollow[h]:
            continue
        for s in sorted(neighbors(g, h)):
            if g.hollow[s]:
                continue
            if g.loop[s]:
                out = equivalence.apply_Ei(g, h, s)
                ok = _preserves(before, out) and is_reduced(out)
                _tally(counts, "E(i)", ok)
            else:
                out = equivalence.apply_Eii(g, h, s)
                ok = _preserves(before, out) and is_reduced(out)
                _tally(counts, "E(ii)", ok)


def audit_rules(max_n: int = 6, graphs: int = 200, seed: int = 0) -> list[RuleReport]:
    """Audit every rule on ``graphs`` random general graphs and as many
    random reduced ones, with sizes cycling over 1..max_n.  Deterministic
    in ``seed``."""
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    rng = random.Random(seed)
    counts = {rule: (0, 0) for rule in ALL_RULES}
    for i in range(graphs):
        n = 1 + i % max_n
        _audit_general_graph(random_graph(n, rng.randrange(1 << 62)), counts)
        _audit_reduced_graph(random_reduced_graph(n, rng.randrange(1 << 62)), counts)
    return [RuleReport(rule, *counts[rule]) for rule in ALL_RULES]


def format_report(reports: list[RuleReport]) -> str:
    lines = [f"{'rule':<8} {'cases':>7} {'failures':>9}  status"]
    for r in reports:
        status = "PASS" if r.passed else ("NONE" if r.cases == 0 else "FAIL")
        lines.append(f"{r.rule:<8} {r.cases:>7} {r.failures:>9}  {status}")
    return "\n".join(lines) + "\n"
