"""Tests for the self-audit machinery behind ``stabgraph verify``."""

from __future__ import annotations

import numpy as np
import pytest

import stabgraph.audit as audit
from stabgraph import transforms
from stabgraph.cli import main
from stabgraph import (
    audit_rules,
    flip_sign,
    format_report,
    random_graph,
    random_reduced_graph,
)
from stabgraph.audit import ALL_RULES, EQUIV_RULES, GATE_RULES, RuleReport

# Reports of the gate-by-gate oracle that preceded the layer-by-layer one;
# the audit's tallies must not move when the oracle gets faster.
PINNED_REPORTS = {
    (4, 24, 0): """\
rule       cases  failures  status
T1            60         0  PASS
T2            32         0  PASS
T3            12         0  PASS
T4            16         0  PASS
T5            62         0  PASS
T6            58         0  PASS
T(i)           7         0  PASS
T(ii)         12         0  PASS
T(iii)         4         0  PASS
T(iv)          7         0  PASS
T(v)          30         0  PASS
T(vi)         30         0  PASS
T(vii)        30         0  PASS
T(viii)       20         0  PASS
T(ix)         19         0  PASS
T(x)          21         0  PASS
E1            36         0  PASS
E2             4         0  PASS
E(i)           8         0  PASS
E(ii)          4         0  PASS
""",
    (5, 30, 11): """\
rule       cases  failures  status
T1            90         0  PASS
T2            39         0  PASS
T3            26         0  PASS
T4            25         0  PASS
T5            82         0  PASS
T6            98         0  PASS
T(i)          11         0  PASS
T(ii)          6         0  PASS
T(iii)        13         0  PASS
T(iv)         13         0  PASS
T(v)          47         0  PASS
T(vi)         43         0  PASS
T(vii)        47         0  PASS
T(viii)       22         0  PASS
T(ix)         68         0  PASS
T(x)          30         0  PASS
E1            42         0  PASS
E2            15         0  PASS
E(i)          19         0  PASS
E(ii)         15         0  PASS
""",
    (6, 12, 2024): """\
rule       cases  failures  status
T1            42         0  PASS
T2            18         0  PASS
T3            14         0  PASS
T4            10         0  PASS
T5            43         0  PASS
T6            41         0  PASS
T(i)           4         0  PASS
T(ii)         11         0  PASS
T(iii)         6         0  PASS
T(iv)          4         0  PASS
T(v)          17         0  PASS
T(vi)         25         0  PASS
T(vii)        17         0  PASS
T(viii)       25         0  PASS
T(ix)         34         0  PASS
T(x)          11         0  PASS
E1            19         0  PASS
E2             9         0  PASS
E(i)           5         0  PASS
E(ii)          7         0  PASS
""",
}


# `stabgraph verify --n N --cases C --seed S` (exit code, table) as the
# per-graph oracle passes printed them, before the audit decided each
# general/reduced pair in one pass; a pass that drops or repeats a case
# moves a count.  Seed 0 at n = 8 never reaches T(ii), so it exits 1.
GOLDEN_VERIFY = {
    (8, 8, 0): (1, """\
rule       cases  failures  status
T1            36         0  PASS
T2            18         0  PASS
T3             8         0  PASS
T4            10         0  PASS
T5            36         0  PASS
T6            36         0  PASS
T(i)           2         0  PASS
T(ii)          0         0  NONE
T(iii)         9         0  PASS
T(iv)          7         0  PASS
T(v)          18         0  PASS
T(vi)         18         0  PASS
T(vii)        18         0  PASS
T(viii)       21         0  PASS
T(ix)         46         0  PASS
T(x)          17         0  PASS
E1            22         0  PASS
E2             7         0  PASS
E(i)          10         0  PASS
E(ii)         14         0  PASS
"""),
    (8, 8, 1): (0, """\
rule       cases  failures  status
T1            36         0  PASS
T2            16         0  PASS
T3             8         0  PASS
T4            12         0  PASS
T5            31         0  PASS
T6            41         0  PASS
T(i)           3         0  PASS
T(ii)          3         0  PASS
T(iii)         3         0  PASS
T(iv)          6         0  PASS
T(v)          21         0  PASS
T(vi)         15         0  PASS
T(vii)        21         0  PASS
T(viii)       16         0  PASS
T(ix)         35         0  PASS
T(x)          33         0  PASS
E1            25         0  PASS
E2             2         0  PASS
E(i)          17         0  PASS
E(ii)          8         0  PASS
"""),
    (8, 8, 42): (0, """\
rule       cases  failures  status
T1            36         0  PASS
T2            15         0  PASS
T3            11         0  PASS
T4            10         0  PASS
T5            30         0  PASS
T6            42         0  PASS
T(i)           2         0  PASS
T(ii)          3         0  PASS
T(iii)         6         0  PASS
T(iv)          4         0  PASS
T(v)          21         0  PASS
T(vi)         15         0  PASS
T(vii)        21         0  PASS
T(viii)       19         0  PASS
T(ix)         42         0  PASS
T(x)          23         0  PASS
E1            14         0  PASS
E2            20         0  PASS
E(i)           8         0  PASS
E(ii)          9         0  PASS
"""),
    (6, 40, 0): (0, """\
rule       cases  failures  status
T1           136         0  PASS
T2            67         0  PASS
T3            35         0  PASS
T4            34         0  PASS
T5           127         0  PASS
T6           145         0  PASS
T(i)          13         0  PASS
T(ii)          9         0  PASS
T(iii)        15         0  PASS
T(iv)         23         0  PASS
T(v)          76         0  PASS
T(vi)         60         0  PASS
T(vii)        76         0  PASS
T(viii)       57         0  PASS
T(ix)         96         0  PASS
T(x)          67         0  PASS
E1            73         0  PASS
E2            17         0  PASS
E(i)          32         0  PASS
E(ii)         21         0  PASS
"""),
}

def test_rule_inventory():
    assert set(GATE_RULES) == {
        "T1", "T2", "T3", "T4", "T5", "T6",
        "T(i)", "T(ii)", "T(iii)", "T(iv)", "T(v)", "T(vi)", "T(vii)",
        "T(viii)", "T(ix)", "T(x)",
    }
    assert set(EQUIV_RULES) == {"E1", "E2", "E(i)", "E(ii)"}
    assert set(ALL_RULES) == set(GATE_RULES) | set(EQUIV_RULES)


def test_report_passed_semantics():
    assert RuleReport("T1", cases=5, failures=0).passed
    assert not RuleReport("T1", cases=5, failures=1).passed
    assert not RuleReport("T1", cases=0, failures=0).passed  # never exercised


def test_audit_covers_every_rule_and_passes():
    reports = audit_rules(max_n=4, graphs=24, seed=0)
    assert sorted(r.rule for r in reports) == sorted(ALL_RULES)
    for r in reports:
        assert r.passed, f"{r.rule}: {r.failures}/{r.cases} failed"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_n": 2.5}, "max_n must be an integer, got 2.5"),
        ({"max_n": "3"}, "max_n must be an integer, got '3'"),
        ({"graphs": 2.0}, "graphs must be an integer, got 2.0"),
        ({"graphs": -1}, "graphs must not be negative, got -1"),
    ],
)
def test_audit_reads_its_arguments(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        audit_rules(**kwargs)


def test_audit_is_deterministic():
    a = audit_rules(max_n=3, graphs=10, seed=7)
    b = audit_rules(max_n=3, graphs=10, seed=7)
    assert [(r.rule, r.cases, r.failures) for r in a] == [
        (r.rule, r.cases, r.failures) for r in b
    ]


def test_format_report_is_a_table():
    text = format_report(audit_rules(max_n=3, graphs=10, seed=0))
    lines = text.splitlines()
    assert any("PASS" in line for line in lines)
    assert all("FAIL" not in line for line in lines)
    for tag in ("T1", "T(x)", "E(i)"):
        assert any(tag in line for line in lines)


@pytest.mark.parametrize("budget", sorted(PINNED_REPORTS))
def test_report_text_is_pinned(budget):
    max_n, graphs, seed = budget
    text = format_report(audit_rules(max_n=max_n, graphs=graphs, seed=seed))
    assert text == PINNED_REPORTS[budget]


def test_verdicts_compute_their_own_reference():
    # One case at a time, so each verdict comes from a batch of the
    # audited graph and that one rewrite.
    g = random_graph(4, 5)
    r = random_reduced_graph(4, 5)
    for j in range(4):
        for gate in ("H", "S", "Z"):
            out = transforms.apply_local(g, gate, j)
            assert audit._verdicts([g], [(0, out, (gate, (j,)), True)]) == [True]
            out = transforms.apply_local_reduced(r, gate, j)
            assert audit._verdicts([r], [(0, out, (gate, (j,)), True)]) == [True]
        for k in range(j + 1, 4):
            out = transforms.apply_cz_reduced(r, j, k)
            assert audit._verdicts([r], [(0, out, ("CZ", (j, k)), True)]) == [True]
    assert audit._verdicts([g], [(0, g, None, True)]) == [True]
    assert audit._verdicts([g], [(0, flip_sign(g, 0), None, True)]) == [False]
    assert audit._verdicts([g], [(0, g, None, False)]) == [False]


def test_verdicts_read_each_case_against_its_own_source():
    # Two sources in one pass: a case is right against its own source and
    # wrong against the other, whose state is orthogonal to it.
    g = random_graph(4, 5)
    other = flip_sign(g, 0)
    out = transforms.apply_local(g, "H", 1)
    wrong = transforms.apply_local(other, "H", 1)
    cases = [(0, out, ("H", (1,)), True), (1, out, ("H", (1,)), True),
             (1, wrong, ("H", (1,)), True), (0, g, None, True), (1, g, None, True)]
    assert audit._verdicts([g, other], cases) == [True, False, True, True, False]


@pytest.mark.parametrize("reduced", [False, True])
def test_each_audited_graph_state_is_computed_once(monkeypatch, reduced):
    # An audited pair's two states are computed once, as the first two
    # rows of the first batch, and every check of either graph gets
    # exactly one row.  A budget of 64 amplitudes (two rows at n = 5)
    # splits the checks over batches.  With ``reduced``, the graph the
    # general rules run on is a reduced one too.
    sample = random_reduced_graph if reduced else random_graph
    g, r = sample(5, 8), random_reduced_graph(5, 9)
    real = audit.graph_amplitudes
    for budget in (audit._BATCH_AMPLITUDES, 1 << 6):
        batches = []

        def spy(graphs, *args, **kwargs):
            batches.append(list(graphs))
            return real(graphs, *args, **kwargs)

        monkeypatch.setattr(audit, "graph_amplitudes", spy)
        monkeypatch.setattr(audit, "_BATCH_AMPLITUDES", budget)
        counts = {rule: (0, 0) for rule in ALL_RULES}
        audit._audit_pair(g, r, counts)
        rows = [graph for batch in batches for graph in batch]
        checks = sum(c for c, _ in counts.values())
        general = len(audit._general_cases(g))
        assert 0 < general < checks and len(rows) == checks + 2
        assert rows[0] is g and rows[1] is r
        assert len(batches) == -(-len(rows) // (budget >> g.n))
        assert all(f == 0 for _, f in counts.values())


@pytest.mark.parametrize("budget", sorted(GOLDEN_VERIFY))
def test_verify_output_is_pinned(capsys, budget):
    n, cases, seed = budget
    code = main(["verify", "--n", str(n), "--cases", str(cases), "--seed", str(seed)])
    assert (code, capsys.readouterr().out) == GOLDEN_VERIFY[budget]


def _failed_rules(capsys, argv) -> tuple:
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()[1:]
    return code, {line.split()[0] for line in lines if line.endswith("FAIL")}


def test_a_broken_t2_fails_exactly_the_rules_built_on_it(monkeypatch, capsys):
    # S times Z on a solid node: that node's generator holds X or Y, so
    # the state moves to an orthogonal one and every T2 case fails.
    def s_then_z(m, j):
        m.advance(1 << j)
        m.neg_mask ^= 1 << j

    argv = ["verify", "--n", "5", "--cases", "30", "--seed", "11"]
    assert _failed_rules(capsys, argv) == (0, set())
    monkeypatch.setattr(transforms, "_t2", s_then_z)
    assert _failed_rules(capsys, argv) == (1, {"T2", "T4", "T(vi)"})


@pytest.mark.parametrize("permute", ["all", "rewrites", "sources"])
def test_a_batch_with_permuted_rows_is_caught(monkeypatch, permute):
    # "sources" swaps the two source states of each audited pair, so
    # every case is checked against the other graph's state.
    real = audit.graph_amplitudes
    real_verdicts = audit._verdicts
    first_batch = []

    def verdicts(sources, cases):
        first_batch.append(True)
        return real_verdicts(sources, cases)

    def permuted(graphs, *args, **kwargs):
        rows = real(graphs, *args, **kwargs)
        if permute == "all":
            return rows[::-1].copy()
        if permute == "rewrites":
            return np.concatenate([rows[:1], rows[:0:-1]])
        if first_batch:
            first_batch.clear()
            return rows[[1, 0, *range(2, len(rows))]]
        return rows

    monkeypatch.setattr(audit, "_verdicts", verdicts)
    monkeypatch.setattr(audit, "graph_amplitudes", permuted)
    reports = audit_rules(max_n=4, graphs=24, seed=0)
    assert sum(r.failures for r in reports) > 0
