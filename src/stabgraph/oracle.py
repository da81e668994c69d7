"""Brute-force statevector cross-checks for the graph engine.

Everything here works on dense complex amplitude vectors so that graph
rewrites, closed-form generators and conversions can all be validated
against plain linear algebra.  Qubit 0 is the most significant bit of the
amplitude index, i.e. basis state |q0 q1 ... q_{n-1}> sits at index
q0*2^(n-1) + ... + q_{n-1}.

Simulation is deliberately independent of the rewrite rules: circuits are
executed layer by layer, with one vectorized pass for the diagonal CZ/Z/S
phase, an in-place butterfly for each terminal Hadamard and a single
normalization check, and nothing in this module consults the rewrite
rules or the closed-form generator formulas.  Sizes are capped (default
12 qubits) because vectors grow as 2^n.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuit import GraphFormCircuit, circuit_from_graph
from .graph import StabilizerGraph
from .pauli import GATE_ARITY, PauliString

MAX_QUBITS = 12
DEFAULT_TOL = 1e-9
_INV_SQRT2 = 2.0**-0.5
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True, eq=False)
class Statevector:
    """A normalized dense state on n qubits (2^n complex amplitudes)."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude count must be a power of two")
        # Written so that a NaN norm fails the test too.
        if not abs(math.sqrt(np.vdot(amps, amps).real) - 1.0) <= DEFAULT_TOL:
            raise ValueError("state is not normalized")

    @property
    def n(self) -> int:
        return self.amps.size.bit_length() - 1


@functools.lru_cache(maxsize=MAX_QUBITS)
def _index_bits(n: int) -> np.ndarray:
    """Read-only (2^n, n) float table: entry [i, q] is qubit q's bit of i."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    bits = bits.astype(float)
    bits.flags.writeable = False
    return bits


def _butterfly(amps: np.ndarray, q: int) -> None:
    """In place: Hadamard on qubit q of ``amps``, without its 1/sqrt(2)."""
    n = amps.size.bit_length() - 1
    view = amps.reshape(1 << q, 2, 1 << (n - 1 - q))
    lo, hi = view[:, 0], view[:, 1]
    diff = lo - hi
    lo += hi
    hi[...] = diff


def apply_gate_dense(v: Statevector, gate: str, *targets: int) -> Statevector:
    """Apply H, S, Z or CZ to a dense state."""
    arity = GATE_ARITY.get(gate)
    if arity is None:
        raise ValueError(f"unknown gate {gate!r}")
    if len(targets) != arity:
        raise ValueError(f"{gate} takes {arity} target(s), got {len(targets)}")
    n = v.n
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for n={n}")
    if gate == "CZ" and targets[0] == targets[1]:
        raise ValueError("CZ targets must differ")
    if gate == "H":
        amps = v.amps * _INV_SQRT2
        _butterfly(amps, targets[0])
    else:
        bits = _index_bits(n)
        hit = bits[:, targets[0]]
        if gate == "CZ":
            hit = hit * bits[:, targets[1]]
        amps = v.amps.copy()
        amps[hit != 0] *= 1j if gate == "S" else -1
    return Statevector(amps)


def statevector_from_circuit(
    c: GraphFormCircuit, max_qubits: int = MAX_QUBITS
) -> Statevector:
    """Run the three-layer circuit on |0...0>, layer by layer."""
    n = c.n
    if n > max_qubits:
        raise ValueError(f"n={n} exceeds the dense-simulation cap of {max_qubits}")
    # Layers 1-3 up to the terminal Hadamards in one pass: basis state b
    # gets i^(b.M.b), where M holds 2 on each CZ pair (upper triangle) and
    # 2z + s on the diagonal, scaled by 1/sqrt(2) per layer-1 and terminal
    # Hadamard so that the butterflies below need no scaling.
    m = [0.0] * (n * n)
    for a, b in c.cz:
        m[a * n + b] = 2.0
    for q in c.z_set:
        m[q * (n + 1)] += 2.0
    for q in c.s_set:
        m[q * (n + 1)] += 1.0
    bits = _index_bits(n)
    quad = np.einsum("ij,ij->i", bits @ np.array(m).reshape(n, n), bits)
    phase = quad.astype(np.intp) & 3
    amps = (_I_POWERS * _INV_SQRT2 ** (n + len(c.h_set)))[phase]
    for q in c.h_set:
        _butterfly(amps, q)
    return Statevector(amps)


def statevector_from_graph(
    g: StabilizerGraph, max_qubits: int = MAX_QUBITS
) -> Statevector:
    return statevector_from_circuit(circuit_from_graph(g), max_qubits)


def apply_pauli(v: Statevector, p: PauliString) -> Statevector:
    """Act with a signed Pauli operator on a dense state."""
    n = v.n
    if p.n != n:
        raise ValueError(f"size mismatch: state has {n} qubits, operator {p.n}")
    z = [(p.z >> q) & 1 for q in range(n)]
    signs = 1.0 - 2.0 * ((_index_bits(n) @ z) % 2)
    overall = p.sign * _I_POWERS[(p.x & p.z).bit_count() % 4]
    # X on qubit q maps index i to i ^ bit(q): reverse that tensor axis.
    flip = tuple(slice(None, None, -1 if (p.x >> q) & 1 else 1) for q in range(n))
    out = (overall * signs * v.amps).reshape((2,) * n)[flip].reshape(-1)
    return Statevector(out)


def states_equal_up_to_global_phase(
    v1: Statevector, v2: Statevector, tol: float = DEFAULT_TOL
) -> bool:
    """True when |<v1|v2>| >= 1 - tol."""
    if v1.n != v2.n:
        raise ValueError(f"size mismatch: {v1.n} vs {v2.n}")
    return abs(np.vdot(v1.amps, v2.amps)) >= 1.0 - tol


def stabilizer_check(
    v: Statevector, gens: Iterable[PauliString], tol: float = DEFAULT_TOL
) -> bool:
    """True when every generator fixes the state: g|v> == |v> within tol."""
    for g in gens:
        if not np.max(np.abs(apply_pauli(v, g).amps - v.amps)) <= tol:  # NaN fails
            return False
    return True


def random_graph(n: int, seed: int) -> StabilizerGraph:
    """Deterministic random graph: each decoration bit and edge is a coin."""
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    rng = random.Random(seed)
    hollow = tuple(rng.random() < 0.5 for _ in range(n))
    loop = tuple(rng.random() < 0.5 for _ in range(n))
    neg = tuple(rng.random() < 0.5 for _ in range(n))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return StabilizerGraph(n, hollow, loop, neg, tuple(adj))


def random_reduced_graph(n: int, seed: int) -> StabilizerGraph:
    """Like random_graph, then repaired so the reduced invariant holds:
    loops are cleared from hollow nodes and hollow-hollow edges removed."""
    g = random_graph(n, seed)
    loop = tuple(g.loop[j] and not g.hollow[j] for j in range(n))
    adj = list(g.adj)
    for i in range(n):
        if g.hollow[i]:
            for j in range(i + 1, n):
                if g.hollow[j] and (adj[i] >> j) & 1:
                    adj[i] ^= 1 << j
                    adj[j] ^= 1 << i
    return StabilizerGraph(n, g.hollow, loop, g.neg, tuple(adj))
