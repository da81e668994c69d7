"""Tests of the benchmark's own logic:  python3 -m pytest bench"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import env  # noqa: E402

env.ensure_stabgraph()

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stabgraph import cli  # noqa: E402
from stabgraph.graph import is_reduced  # noqa: E402
from stabgraph.oracle import (  # noqa: E402
    stabilizer_check,
    statevector_from_graph,
    states_equal_up_to_global_phase,
)
from stabgraph.pauli import PauliString  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _files(wl, workdir: Path) -> dict:
    reqs = wl.round_requests(0) + wl.round_requests(1)
    argvs = [[a.replace(str(workdir), "W") for a in r.argv] for r in reqs]
    return {"argv": argvs, "files": {p.name: p.read_text() for p in sorted(workdir.iterdir())}}


@pytest.mark.parametrize("name", ["script", "decide", "verify"])
def test_generators_are_deterministic_in_the_seed(name, tmp_path):
    built = []
    for k, seed in enumerate((5, 5, 6)):
        d = tmp_path / str(k)
        d.mkdir()
        built.append(_files(workloads.build(name, seed, d), d))
    assert built[0] == built[1]
    assert built[0] != built[2]


def test_round_mix_is_three_quarters_small(tmp_path):
    for name in ("script", "decide"):
        wl = workloads.build(name, 3, tmp_path)
        for kind in wl.types:
            sizes = [r.n for r in wl.round if r.kind == kind]
            small = sizes.count(workloads.SMALL)
            assert small == 3 * (len(sizes) - small)


def test_script_graphs_are_reduced_and_scripts_half_cz():
    rng = random.Random(1)
    for n in (12, 64):
        assert is_reduced(workloads.random_graph(rng, n, workloads.SCRIPT_DEGREE, reduced=True))
    for n in (2, 3, 4) * 200:  # often all but one node hollow: few edges fit
        g = workloads.random_graph(rng, n, workloads.SCRIPT_DEGREE, reduced=True)
        assert is_reduced(g)
        gates = workloads.gate_script(rng, n, 256)
        assert sum(g == "CZ" for g, _ in gates) == 128


def test_walk_pairs_equivalent_and_flipped_pairs_not_by_the_oracle():
    rng = random.Random(2024)
    for case in range(300):
        n = 2 + case % 9  # 2..10
        a = workloads.random_graph(rng, n, min(workloads.DECIDE_DEGREE, n - 1) * 0.7, reduced=False)
        b = workloads.e_walk(rng, a, workloads.WALK_MOVES)
        va, vb = statevector_from_graph(a), statevector_from_graph(b)
        assert states_equal_up_to_global_phase(va, vb), case
        flipped = statevector_from_graph(workloads.flip_sign(rng, b))
        assert abs(complex(va.amps.conj() @ flipped.amps)) < 1e-9, case


def test_scrambled_matrix_stabilizes_the_graph_state():
    rng = random.Random(7)
    for case in range(60):
        n = 2 + case % 9
        a = workloads.random_graph(rng, n, min(workloads.DECIDE_DEGREE, n - 1) * 0.7, reduced=False)
        rows = [PauliString.from_label(line) for line in workloads.scrambled_matrix(rng, a).split()]
        assert stabilizer_check(statevector_from_graph(a), rows), case


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        metrics.percentile(values[:99], 90)
    assert metrics.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        metrics.percentile(list(range(19)), 50)


def test_self_times_of_nested_spans():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    start, end, parent = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [3, 2, 1, 4]
    # Overlapping children count once; a child is clipped to its parent.
    start, end, parent = [0, 1, 3, 8], [10, 5, 7, 12], [-1, 0, 0, 0]
    assert tracing.self_times(start, end, parent)[0] == 10 - 6 - 2
    assert tracing.under([0, 1, 2, 3], [-1, 0, 1, 0], {1}) == [False, False, True, False]


def test_tracer_spans_cover_the_request_and_uninstall_restores(tmp_path):
    wl = workloads.build("decide", 1, tmp_path)
    originals = {name: getattr(cli, name) for name in ("main", "parse_graph", "to_reduced")}
    tracer = tracing.Tracer()
    runner = run.Runner(cli, tracer)
    reqs = [r for r in wl.round if r.n == workloads.SMALL][:6]
    with tracer:
        assert cli.main is not originals["main"]
        results = [runner.request(r, i) for i, r in enumerate(reqs)]
    assert {name: getattr(cli, name) for name in originals} == originals
    self_t = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert [tracer.names[tracer.fid[i]] for i in roots] == ["cli.main"] * len(reqs)
    covered = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(self_t) == pytest.approx(covered, rel=1e-9)
    assert covered <= sum(seconds for seconds, *_ in results)


def test_every_metric_name_is_legal_and_listed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.match(n) for n in names)
    assert len(SPEC["per_layer"]) <= 128 and len(SPEC["end_to_end"]) <= 16
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _fake_samples(kind: str, count: int) -> list:
    req = workloads.Request(kind, 12, [], "k", gates=256 if kind == "apply" else 0)
    return [checks.Sample(0, req, 0.001 * (1 + i % 7), 0, "", None) for i in range(count)]


def test_computed_metrics_match_the_spec(tmp_path):
    samples = [s for k in ("apply", "verify") for s in _fake_samples(k, 100)]
    e2e = metrics.end_to_end(samples, 0.5, 40.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    wl = workloads.build("script", 1, tmp_path)
    tracer = tracing.Tracer()
    runner = run.Runner(cli, tracer)
    with tracer:
        traced, rounds = runner.run(wl, 0, floor=0, max_rounds=1)
    per_layer = metrics.layers(tracer, traced, traced, rounds)
    per_layer.update(metrics.by_type(samples))
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert all(metrics.NAME_RE.match(n) for n in per_layer)
    assert per_layer["transforms.us_per_gate.reduced.n1024"] > 0
    assert sum(per_layer[f"transforms.rule.{t}.count"] for t in ("T_viii", "T_ix", "T_x")) > 0


def test_every_checker_counts_a_corrupted_output_as_failed():
    results = checks.self_test(seed=3)
    assert results and all(passed for _, passed in results), results
