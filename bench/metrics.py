"""Metric arithmetic: percentiles, end-to-end figures and per-layer figures."""

from __future__ import annotations

import math
import re

import tracing
import workloads

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
MIN_BEYOND = 10  # a reported percentile needs this many samples above it


def percentile(values: list, q: float) -> float:
    """Nearest-rank q-th percentile, refusing one with too few samples beyond.

    The value at rank ceil(q/100 * N) is reported only when at least
    ``MIN_BEYOND`` samples lie beyond that rank.
    """
    if not values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100 * len(values)))
    if q < 100 and len(values) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {len(values) - rank} beyond it, "
            f"need {MIN_BEYOND}")
    return sorted(values)[rank - 1]


def _latency(samples: list) -> dict:
    ms = [s.seconds * 1e3 for s in samples]
    return {"p50_ms": percentile(ms, 50), "p90_ms": percentile(ms, 90)}


def end_to_end(samples: list, setup_s: float, peak_rss_mb: float) -> dict:
    failed = sum(s.error is not None for s in samples)
    out = {
        "setup_s": setup_s,
        "requests_per_s": len(samples) / sum(s.seconds for s in samples),
        "ok_rate": 1 - failed / len(samples),
        "peak_rss_mb": peak_rss_mb,
    }
    out.update(_latency(samples))
    return out


def by_type(samples: list) -> dict:
    """Latency per request type, from an untraced pass; 0 where a type is absent."""
    out = {}
    for kind in ("apply", "equiv", "reduce", "convert", "verify"):
        mine = [s for s in samples if s.req.kind == kind]
        lat = _latency(mine) if mine else {"p50_ms": 0.0, "p90_ms": 0.0}
        out.update({f"{kind}.{k}": v for k, v in lat.items()})
    apply = [s for s in samples if s.req.kind == "apply"]
    verify = [s for s in samples if s.req.kind == "verify"]
    out["apply.gates_per_s"] = (
        sum(s.req.gates for s in apply) / sum(s.seconds for s in apply) if apply else 0.0)
    out["verify.cases_per_s"] = (
        sum(s.cases for s in verify) / sum(s.seconds for s in verify) if verify else 0.0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layers(tr: "tracing.Tracer", traced: list, untraced: list, rounds: int) -> dict:
    """Per-layer figures from a traced pass.

    ``traced[i]`` is the sample of request id i; ``untraced[:len(traced)]``
    are the same requests run without tracing.  ``rounds`` is the number
    of whole rounds the traced pass ran.
    """
    names = tr.names
    fid_of = {name: i for i, name in enumerate(names)}
    self_t = tracing.self_times(tr.start, tr.end, tr.parent)
    n_req = len(traced)
    calls = [0] * len(names)
    self_sum = [0.0] * len(names)
    # Span times are scaled like their request's time.
    scale = [traced[r].scale for r in tr.req]
    of_fid: list = [[] for _ in names]
    for i, (f, t, k) in enumerate(zip(tr.fid, self_t, scale)):
        calls[f] += 1
        self_sum[f] += t * k
        of_fid[f].append(i)
    out = {}
    for name, c, t in zip(names, calls, self_sum):
        out[f"{name}.calls"] = c / n_req
        out[f"{name}.self_ms"] = t * 1e3 / n_req

    def spans(name, keep):
        """Inclusive durations of ``name`` spans in requests that pass ``keep``."""
        return [(tr.end[i] - tr.start[i]) * scale[i]
                for i in of_fid[fid_of[name]] if keep(traced[tr.req[i]].req)]

    small, large = workloads.SMALL, workloads.SCRIPT_LARGE
    for mode in ("reduced", "general"):
        for n in (small, large):
            keep = lambda q, m=mode, n=n: q.kind == "apply" and q.mode == m and q.n == n
            gates = sum(s.req.gates for s in traced if keep(s.req))
            out[f"transforms.us_per_gate.{mode}.n{n}"] = _ratio(
                sum(spans("transforms.apply_sequence", keep)) * 1e6, gates)

    apply_ids = {i for i, s in enumerate(traced) if s.req.kind == "apply"}
    trusted = {fid_of["textio.parse_graph"], fid_of["graph.StabilizerGraph.build"]}
    under_trusted = tracing.under(tr.fid, tr.parent, trusted)
    constructs = of_fid[fid_of["graph.StabilizerGraph"]]
    out["graph.constructs_per_gate"] = _ratio(
        sum(tr.req[i] in apply_ids for i in constructs),
        sum(traced[i].req.gates for i in apply_ids))
    out["graph.validate_internal_ratio"] = _ratio(
        sum(not under_trusted[i] for i in constructs), len(constructs))

    for tag in ("T1", "T2", "T3", "T4", "T5", "T6", "T(i)", "T(ii)", "T(iii)", "T(iv)",
                "T(v)", "T(vi)", "T(vii)", "T(viii)", "T(ix)", "T(x)"):
        legal = tag.replace("(", "_").rstrip(")")
        out[f"transforms.rule.{legal}.count"] = tr.rules[tag] / rounds
    big_apply = [s for s in traced if s.req.kind == "apply" and s.req.n == large]
    out[f"transforms.out_edges_per_node.n{large}"] = _ratio(
        sum(s.output.count("\nedge ") for s in big_apply if s.output),
        large * len(big_apply))

    big = workloads.DECIDE_LARGE
    at_big = lambda q: q.n == big
    for name in ("equivalence.to_reduced", "equivalence.simplify_pair"):
        d = spans(name, at_big)
        out[f"{name}.ms.n{big}"] = _ratio(sum(d) * 1e3, len(d))
    big_equiv = lambda q: q.kind == "equiv" and q.n == big
    moves = len(spans("equivalence.apply_Ei", big_equiv)) + len(spans("equivalence.apply_Eii", big_equiv))
    out[f"equivalence.moves_per_equiv.n{big}"] = _ratio(
        moves, sum(big_equiv(s.req) for s in traced))

    conv = workloads.CONVERT_LARGE
    big_conv = lambda q: q.kind == "convert" and q.n == conv
    d = spans("pauli.to_canonical_form", big_conv)
    out[f"pauli.to_canonical_form.ms.n{conv}"] = _ratio(sum(d) * 1e3, len(d))
    out[f"pauli.multiply.per_convert.n{conv}"] = _ratio(
        len(spans("pauli.multiply", big_conv)), sum(big_conv(s.req) for s in traced))

    parse_s = sum(spans("textio.parse_graph", lambda q: True))
    out["textio.parse_graph.kb_per_s"] = _ratio(
        sum(s.req.graph_bytes for s in traced) / 1024, parse_s)

    traced_s = sum(s.seconds for s in traced)
    untraced_s = sum(s.seconds for s in untraced[:n_req])
    oracle_s = sum(t for name, t in zip(names, self_sum) if name.startswith("oracle."))
    out["oracle.share"] = _ratio(oracle_s, traced_s)
    out["oracle.computed_mb_per_s"] = _ratio(tr.amplitude_bytes / 1e6, oracle_s)
    verify = [s for s in traced if s.req.kind == "verify"]
    out["audit.cases_per_request"] = _ratio(sum(s.cases for s in verify), len(verify))

    out["trace.overhead_ratio"] = traced_s / untraced_s
    out["trace.self_sum_ratio"] = sum(self_sum) / untraced_s
    return out
