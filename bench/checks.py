"""Correctness checks for every request's output, run outside the timed region.

Up to ``ORACLE_MAX_N`` qubits the dense statevector oracle is the reference;
above it the engine's ``is_reduced`` and ``graphs_equivalent`` are.  Results
are memoized on (input, output), so a request whose output repeats an
already-checked one is checked by lookup.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

from stabgraph.equivalence import graphs_equivalent
from stabgraph.graph import StabilizerGraph, is_reduced
from stabgraph.oracle import (
    apply_gate_dense,
    statevector_from_graph,
    states_equal_up_to_global_phase,
)
from stabgraph.textio import ParseError, parse_graph

import workloads

ORACLE_MAX_N = 12
OVERLAP_TOL = 1e-9
RULES = 20  # rows of the verify table: 16 gate rules and 4 E moves
_ROW = re.compile(r"(\S+)\s+(\d+)\s+(\d+)\s+(PASS|NONE|FAIL)\Z")


@dataclass
class Sample:
    """One request as it ran: its time, exit code and what it printed."""

    round: int
    req: workloads.Request
    seconds: float  # wall time, scaled to the reference machine speed
    rc: Optional[int]
    stdout: str
    output: Optional[str]  # text of the output file, if the request wrote one
    error: Optional[str] = None  # why the request failed, None if correct
    cases: int = 0  # verify: audited rule cases
    scale: float = 1.0  # reference speed / measured speed when the request ran
    raw_seconds: float = 0.0  # wall time as measured


def _same_state(g1: StabilizerGraph, g2: StabilizerGraph) -> bool:
    if g1.n <= ORACLE_MAX_N:
        return states_equal_up_to_global_phase(
            statevector_from_graph(g1), statevector_from_graph(g2), OVERLAP_TOL
        )
    return graphs_equivalent(g1, g2)


def verify_table(text: str) -> tuple:
    """(cases, has FAIL row, every row PASS); raises ValueError if malformed."""
    lines = text.splitlines()
    if len(lines) != RULES + 1 or not lines[0].startswith("rule"):
        raise ValueError(f"expected a header and {RULES} rule rows")
    cases, failed, all_pass = 0, False, True
    for line in lines[1:]:
        m = _ROW.match(line.strip())
        if m is None:
            raise ValueError(f"bad row {line!r}")
        c, f, status = int(m.group(2)), int(m.group(3)), m.group(4)
        want = "NONE" if c == 0 else ("PASS" if f == 0 else "FAIL")
        if status != want:
            raise ValueError(f"row {line!r} should read {want}")
        cases += c
        failed |= status == "FAIL"
        all_pass &= status == "PASS"
    return cases, failed, all_pass


class Checker:
    """Checks samples of one workload against what its inputs imply."""

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self._memo: dict = {}
        self._dense: dict = {}

    def _once(self, key: tuple, fn) -> Optional[str]:
        if key not in self._memo:
            try:
                self._memo[key] = fn()
            except (ParseError, ValueError) as exc:
                self._memo[key] = f"{type(exc).__name__}: {exc}"
        return self._memo[key]

    def check_all(self, samples: list) -> None:
        """Set ``error`` on every sample whose output is wrong."""
        partner = {}
        for s in samples:
            if s.req.kind == "apply":
                partner[s.round, s.req.key, s.req.mode] = s
        for s in samples:
            s.error = self.check(s, partner)

    def check(self, s: Sample, partner: dict) -> Optional[str]:
        req = s.req
        if req.kind == "verify":
            return self._verify(s)
        if req.kind == "equiv":
            want_rc = 0 if req.expect else 1
            if s.rc != want_rc:
                return f"exit code {s.rc}, want {want_rc}"
            want = "equivalent" if req.expect else "not equivalent"
            if s.stdout.strip() != want:
                return f"printed {s.stdout.strip()!r}, want {want!r}"
            if req.n <= ORACLE_MAX_N:
                return self._once((req.key,), lambda: self._oracle_verdict(req))
            return None
        if s.rc != 0:
            return f"exit code {s.rc}, want 0"
        if s.output is None:
            return "no output file"
        if req.kind == "apply":
            if req.n <= ORACLE_MAX_N:
                return self._once((req.key, s.output), lambda: self._apply_dense(req, s.output))
            other = partner.get((s.round, req.key, "general" if req.mode == "reduced" else "reduced"))
            if other is None or other.output is None or other.rc != 0:
                return "no output of the other rule family to compare with"
            red, gen = (s, other) if req.mode == "reduced" else (other, s)
            return self._once((req.key, red.output, gen.output),
                              lambda: self._apply_pair(red.output, gen.output))
        if req.kind in ("reduce", "convert"):
            return self._once((req.key, s.output), lambda: self._reduced_same(req, s.output))
        raise ValueError(f"unknown request kind {req.kind!r}")

    def _oracle_verdict(self, req) -> Optional[str]:
        inp = self.inputs[req.key]
        if _same_state(inp["a"], inp["b"]) != req.expect:
            return "dense oracle disagrees with the known answer"
        return None

    def _apply_dense(self, req, output: str) -> Optional[str]:
        if req.key not in self._dense:
            inp = self.inputs[req.key]
            v = statevector_from_graph(inp["graph"])
            for gate, targets in inp["gates"]:
                v = apply_gate_dense(v, gate, *targets)
            self._dense[req.key] = v
        got = statevector_from_graph(parse_graph(output))
        if not states_equal_up_to_global_phase(got, self._dense[req.key], OVERLAP_TOL):
            return "output state differs from the dense simulation"
        return None

    def _apply_pair(self, reduced_out: str, general_out: str) -> Optional[str]:
        red, gen = parse_graph(reduced_out), parse_graph(general_out)
        if not is_reduced(red):
            return "reduced-rule output is not reduced"
        if not graphs_equivalent(red, gen):
            return "reduced- and general-rule outputs are not equivalent"
        return None

    def _reduced_same(self, req, output: str) -> Optional[str]:
        a = self.inputs[req.key]["a"]
        out = parse_graph(output)
        if out.n != a.n:
            return f"output has {out.n} nodes, want {a.n}"
        if not is_reduced(out):
            return "output is not reduced"
        if req.kind == "reduce" and sum(out.hollow) > sum(a.hollow):
            return "reduction increased the hollow count"
        if not _same_state(out, a):
            return "output describes another state"
        return None

    def _verify(self, s: Sample) -> Optional[str]:
        try:
            cases, failed, all_pass = verify_table(s.stdout)
        except ValueError as exc:
            return f"unreadable report: {exc}"
        s.cases = cases
        if failed:
            return "report has a FAIL row"
        want_rc = 0 if all_pass else 1  # NONE rows only mean low coverage
        if s.rc != want_rc:
            return f"exit code {s.rc}, want {want_rc}"
        return None


# --- self-test ----------------------------------------------------------------


def _flip_first_sign(text: str) -> str:
    """Toggle node 0's sign: an orthogonal state, so never a correct output."""
    lines = text.splitlines()
    line = lines[1]
    lines[1] = line[: -len(" neg")] if line.endswith(" neg") else line + " neg"
    return "\n".join(lines) + "\n"


def _verify_report(rows: list) -> str:
    return "rule       cases  failures  status\n" + "".join(
        f"{rule:<8} {c:>7} {f:>9}  {status}\n" for rule, c, f, status in rows
    )


def self_test(seed: int = 0) -> list:
    """Give every checker a correct output and a corrupted one.

    Returns (case, passed) pairs; a case passes when the correct output is
    accepted and the corrupted one is counted as a failure.  n=8 exercises
    the dense-oracle path and n=16 the engine-backed one.
    """
    from stabgraph.convert import generator_matrix_from_graph, graph_from_generator_matrix
    from stabgraph.equivalence import to_reduced
    from stabgraph.transforms import apply_sequence

    rng = random.Random(seed)
    text = workloads.graph_text
    cases = []  # (label, sample, corrupted sample, partner samples)

    def sample(req, rc=0, stdout="", output=None):
        return Sample(0, req, 0.0, rc, stdout, output)

    inputs: dict = {}
    for n in (8, 16):
        path = "oracle" if n <= ORACLE_MAX_N else "engine"
        g = workloads.random_graph(rng, n, workloads.SCRIPT_DEGREE, reduced=True)
        gates = workloads.gate_script(rng, n, 64)
        inputs[f"s{n}"] = {"graph": g, "gates": gates}
        red = sample(workloads.Request("apply", n, [], f"s{n}", mode="reduced"),
                     output=text(apply_sequence(g, gates, reduced=True)))
        gen = sample(workloads.Request("apply", n, [], f"s{n}", mode="general"),
                     output=text(apply_sequence(g, gates)))
        bad = sample(red.req, output=_flip_first_sign(red.output))
        cases.append((f"apply.{path}", red, bad, [red, gen]))
        cases.append((f"apply.{path}.truncated", red, sample(red.req, output=red.output[:-9]), [red, gen]))

        a = workloads.random_graph(rng, n, workloads.DECIDE_DEGREE, reduced=False)
        b = workloads.e_walk(rng, a, workloads.WALK_MOVES)
        inputs[f"e{n}"] = {"a": a, "b": b}
        inputs[f"r{n}"] = inputs[f"c{n}"] = {"a": a}
        req = workloads.Request("equiv", n, [], f"e{n}", expect=True)
        cases.append((f"equiv.{path}", sample(req, 0, "equivalent\n"),
                      sample(req, 1, "not equivalent\n"), []))
        cases.append((f"equiv.{path}.exit_code", sample(req, 0, "equivalent\n"),
                      sample(req, 1, "equivalent\n"), []))
        good = sample(workloads.Request("reduce", n, [], f"r{n}"), output=text(to_reduced(a)))
        cases.append((f"reduce.{path}", good, sample(good.req, output=_flip_first_sign(good.output)), []))
        unreduced = sample(good.req, output=text(a))
        cases.append((f"reduce.{path}.unreduced", good, unreduced, []))
        conv = graph_from_generator_matrix(generator_matrix_from_graph(a))
        good = sample(workloads.Request("convert", n, [], f"c{n}"), output=text(conv))
        cases.append((f"convert.{path}", good, sample(good.req, output=_flip_first_sign(good.output)), []))

    rows = [(f"R{k}", 3, 0, "PASS") for k in range(RULES)]
    req = workloads.Request("verify", 8, [], "v")
    good = sample(req, 0, _verify_report(rows))
    fail_row = _verify_report([("R0", 3, 1, "FAIL")] + rows[1:])
    cases.append(("verify.fail_row", good, sample(req, 1, fail_row), []))
    cases.append(("verify.exit_code", good, sample(req, 1, good.stdout), []))
    cases.append(("verify.truncated", good, sample(req, 0, good.stdout[:-40]), []))

    results = []
    for label, ok, bad, pair in cases:
        partner = {(0, s.req.key, s.req.mode): s for s in pair}
        accepted = Checker(inputs).check(ok, partner) is None
        rejected = Checker(inputs).check(bad, partner) is not None
        results.append((label, accepted and rejected))
    return results
