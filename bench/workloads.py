"""Seeded inputs and request sequences for the benchmark's workloads.

Every workload is a fixed *round* of CLI requests, three quarters small and
one quarter large, interleaved in seeded order; a run repeats whole rounds,
so the mix is exact and p50 falls inside the small class and p90 inside the
large one.  ``verify`` draws a fresh audit seed for every request instead of
repeating a round.  Inputs are made here, not by the engine (only the E-move
walk uses the engine's public ``apply_E1``/``apply_E2``), and written as text
files: the program under test only ever sees those files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from stabgraph.equivalence import apply_E1, apply_E2
from stabgraph.graph import StabilizerGraph

SMALL = 12
SCRIPT_LARGE = 1024
DECIDE_LARGE = 1024
CONVERT_LARGE = 256
SCRIPT_GATES = 256
SCRIPT_DEGREE = 2
DECIDE_DEGREE = 6
WALK_MOVES = 8
VERIFY_N = 8
VERIFY_CASES = 8
# Distinct inputs of each request type per round, (small, large): 3/4 and
# 1/4.  One script round of pairs (two requests each) meets the floor.
SCRIPT_PAIRS = (45, 15)
DECIDE_INPUTS = (15, 5)
# Twice as many convert inputs: with equal shares, the decide p50 would sit
# on the border between the cheap small types (equiv, reduce) and convert.
CONVERT_INPUTS = (30, 10)
VERIFY_PER_ROUND = 20
# A p90 needs at least 10 samples beyond it, hence 100 requests per type.
MIN_PER_TYPE = 100

TYPES = {
    "script": ("apply",),
    "decide": ("equiv", "reduce", "convert"),
    "verify": ("verify",),
}


@dataclass
class Request:
    kind: str  # apply | equiv | reduce | convert | verify
    n: int
    argv: list
    key: str  # names the input: equal keys mean equal input files
    out: Optional[str] = None  # output file the request writes
    mode: str = ""  # apply: "reduced" or "general"
    expect: Optional[bool] = None  # equiv: the answer known by construction
    graph_bytes: int = 0  # bytes of graph-format text parse_graph reads
    gates: int = 0


@dataclass
class Workload:
    name: str
    types: tuple
    inputs: dict  # key -> what the checkers need to know about that input
    warmup: list
    round: list = field(default_factory=list)
    fresh: Optional[Callable[[int], list]] = None  # round r -> requests

    def round_requests(self, r: int) -> list:
        return self.fresh(r) if self.fresh else self.round

    def sizes(self) -> dict:
        """Request count per (type, n) in one round, for the record."""
        counts: dict = {}
        for req in self.round_requests(0):
            k = f"{req.kind}.n{req.n}" + (f".{req.mode}" if req.mode else "")
            counts[k] = counts.get(k, 0) + 1
        return counts


# --- graphs -----------------------------------------------------------------


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def random_graph(rng: random.Random, n: int, degree: float, reduced: bool) -> StabilizerGraph:
    """Decorations are fair coins; n*degree/2 uniform random edges, or as
    many as the graph can hold.

    With ``reduced`` the graph is drawn reduced directly: hollow nodes get
    no loop and no hollow-hollow edge is drawn.
    """
    hollow = [rng.random() < 0.5 for _ in range(n)]
    loop = [rng.random() < 0.5 and not (reduced and hollow[j]) for j in range(n)]
    neg = [rng.random() < 0.5 for _ in range(n)]
    adj = [0] * n
    hollows = sum(hollow)
    allowed = n * (n - 1) // 2 - (hollows * (hollows - 1) // 2 if reduced else 0)
    want = min(int(n * degree / 2), allowed)
    while want:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or (adj[i] >> j) & 1 or (reduced and hollow[i] and hollow[j]):
            continue
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        want -= 1
    return StabilizerGraph(n, tuple(hollow), tuple(loop), tuple(neg), tuple(adj))


def graph_text(g: StabilizerGraph) -> str:
    out = [f"nodes {g.n}"]
    for j in range(g.n):
        flags = ["hollow" if g.hollow[j] else "solid"]
        flags += ["loop"] * g.loop[j] + ["neg"] * g.neg[j]
        out.append(f"node {j} " + " ".join(flags))
    out += [f"edge {i} {k}" for i in range(g.n) for k in _bits(g.adj[i]) if k > i]
    return "\n".join(out) + "\n"


def e_walk(rng: random.Random, g: StabilizerGraph, moves: int) -> StabilizerGraph:
    """A seeded walk of state-preserving E1/E2 moves."""
    for _ in range(moves):
        loops = [j for j in range(g.n) if g.loop[j]]
        pairs = [
            (i, k)
            for i in range(g.n)
            if not g.loop[i]
            for k in _bits(g.adj[i])
            if k > i and not g.loop[k]
        ]
        if loops and (not pairs or rng.random() < 0.5):
            g = apply_E1(g, rng.choice(loops))
        elif pairs:
            g = apply_E2(g, *rng.choice(pairs))
    return g


def flip_sign(rng: random.Random, g: StabilizerGraph) -> StabilizerGraph:
    """Toggle one node's sign: a Pauli anticommuting with that node's
    generator, so the result is orthogonal to ``g`` at any n."""
    j = rng.randrange(g.n)
    neg = list(g.neg)
    neg[j] = not neg[j]
    return StabilizerGraph(g.n, g.hollow, g.loop, tuple(neg), g.adj)


# --- generator matrices -----------------------------------------------------


def generators(g: StabilizerGraph) -> list:
    """Closed-form generators (x, z, sign) of a graph, one per node:
    (-1)^(neg + loop*hollow) F_j prod_{k in N(j)} (X_k if hollow else Z_k),
    with F_j = Y, Z or X for a looped, hollow or plain node."""
    rows = []
    for j in range(g.n):
        x = (1 << j) if g.loop[j] or not g.hollow[j] else 0
        z = (1 << j) if g.loop[j] or g.hollow[j] else 0
        for k in _bits(g.adj[j]):
            if g.hollow[k]:
                x |= 1 << k
            else:
                z |= 1 << k
        rows.append((x, z, -1 if (g.neg[j] + (g.loop[j] and g.hollow[j])) % 2 else 1))
    return rows


def pauli_product(p: tuple, q: tuple) -> tuple:
    """p*q for commuting Hermitian Paulis stored as sign * i^|x&z| X^x Z^z."""
    (px, pz, ps), (qx, qz, qs) = p, q
    x, z = px ^ qx, pz ^ qz
    t = ((px & pz).bit_count() + (qx & qz).bit_count() + 2 * (pz & qx).bit_count()
         - (x & z).bit_count()) % 4
    if t % 2:
        raise ValueError("operands anticommute")
    return x, z, ps * qs * (1 if t == 0 else -1)


def matrix_text(n: int, rows: list) -> str:
    letters = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return "".join(
        ("+" if s > 0 else "-")
        + "".join(letters[(x >> q) & 1, (z >> q) & 1] for q in range(n))
        + "\n"
        for x, z, s in rows
    )


def scrambled_matrix(rng: random.Random, g: StabilizerGraph) -> str:
    """The graph's generator matrix after n random row products."""
    rows = generators(g)
    for _ in range(g.n):
        i, j = rng.sample(range(g.n), 2)
        rows[i] = pauli_product(rows[i], rows[j])
    return matrix_text(g.n, rows)


# --- workloads --------------------------------------------------------------


def gate_script(rng: random.Random, n: int, length: int) -> list:
    """Half local gates (H/S/Z, uniform target), half CZ on uniform pairs."""
    kinds = ["local"] * (length // 2) + ["CZ"] * (length - length // 2)
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "CZ":
            gates.append(("CZ", tuple(rng.sample(range(n), 2))))
        else:
            gates.append((rng.choice("HSZ"), (rng.randrange(n),)))
    return gates


def script_text(gates: list) -> str:
    return " ".join(
        f"CZ:{t[0]},{t[1]}" if name == "CZ" else f"{name}:{t[0]}" for name, t in gates
    )


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _sizes(per_round: tuple, small: int, large: int) -> list:
    return [small] * per_round[0] + [large] * per_round[1]


def _script(rng: random.Random, workdir: Path) -> Workload:
    out = str(workdir / "out.txt")
    inputs, pairs = {}, []
    for k, n in enumerate(_sizes(SCRIPT_PAIRS, SMALL, SCRIPT_LARGE)):
        g = random_graph(rng, n, SCRIPT_DEGREE, reduced=True)
        gates = gate_script(rng, n, SCRIPT_GATES)
        text = graph_text(g)
        path = _write(workdir, f"s{k}.txt", text)
        key = f"s{k}"
        inputs[key] = {"graph": g, "gates": gates}
        pair = []
        for mode in ("reduced", "general"):
            argv = ["apply", "-i", path, "--script", script_text(gates), "-o", out]
            pair.append(Request("apply", n, argv + ["--reduced"] * (mode == "reduced"), key,
                                out=out, mode=mode, graph_bytes=len(text), gates=len(gates)))
        pairs.append(pair)
    warmup = list(pairs[0])
    rng.shuffle(pairs)
    return Workload("script", TYPES["script"], inputs, warmup, [r for p in pairs for r in p])


def _decide(rng: random.Random, workdir: Path) -> Workload:
    out = str(workdir / "out.txt")
    inputs, reqs = {}, []
    for k, n in enumerate(_sizes(DECIDE_INPUTS, SMALL, DECIDE_LARGE)):
        a = random_graph(rng, n, DECIDE_DEGREE, reduced=False)
        expect = k % 2 == 0
        b = e_walk(rng, a, WALK_MOVES)
        if not expect:
            b = flip_sign(rng, b)
        a_text, b_text = graph_text(a), graph_text(b)
        pa, pb = _write(workdir, f"a{k}.txt", a_text), _write(workdir, f"b{k}.txt", b_text)
        inputs[f"e{k}"] = {"a": a, "b": b}
        inputs[f"r{k}"] = {"a": a}
        reqs.append(Request("equiv", n, ["equiv", pa, pb], f"e{k}", expect=expect,
                            graph_bytes=len(a_text) + len(b_text)))
        reqs.append(Request("reduce", n, ["reduce", "-i", pa, "-o", out], f"r{k}",
                            out=out, graph_bytes=len(a_text)))
    for k, n in enumerate(_sizes(CONVERT_INPUTS, SMALL, CONVERT_LARGE)):
        a = random_graph(rng, n, DECIDE_DEGREE, reduced=False)
        path = _write(workdir, f"m{k}.txt", scrambled_matrix(rng, a))
        inputs[f"c{k}"] = {"a": a}
        argv = ["convert", "--from", "matrix", "--to", "graph", "-i", path, "-o", out]
        reqs.append(Request("convert", n, argv, f"c{k}", out=out))
    warmup = [next(r for r in reqs if r.kind == t) for t in TYPES["decide"]]
    rng.shuffle(reqs)
    return Workload("decide", TYPES["decide"], inputs, warmup, reqs)


def _verify_request(seed: int) -> Request:
    argv = ["verify", "--n", str(VERIFY_N), "--cases", str(VERIFY_CASES), "--seed", str(seed)]
    return Request("verify", VERIFY_N, argv, f"v{seed}")


def _verify(seed: int) -> Workload:
    def fresh(r: int) -> list:
        rng = random.Random(f"verify:{seed}:{r}")
        return [_verify_request(rng.randrange(1 << 31)) for _ in range(VERIFY_PER_ROUND)]

    warmup = [Request("verify", 1, ["verify", "--n", "1", "--cases", "1"], "warmup")]
    return Workload("verify", TYPES["verify"], {}, warmup, fresh=fresh)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate workload ``name`` from ``seed``, writing its files to ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "script":
        return _script(rng, workdir)
    if name == "decide":
        return _decide(rng, workdir)
    if name == "verify":
        return _verify(seed)
    raise ValueError(f"unknown workload {name!r}")
