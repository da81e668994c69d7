"""Brute-force statevector cross-checks for the graph engine.

Everything here works on dense complex amplitude vectors so that graph
rewrites, closed-form generators and conversions can all be validated
against plain linear algebra.  Qubit 0 is the most significant bit of the
amplitude index, i.e. basis state |q0 q1 ... q_{n-1}> sits at index
q0*2^(n-1) + ... + q_{n-1}.

One batched kernel, ``graph_amplitudes``, computes the states of any
number of graphs that share n, as the rows of one array.  It reads each
graph's adjacency rows and flag masks directly and prepares the graph's
three-layer circuit (H on every qubit, CZ on every edge, then Z^neg,
S^loop and H^hollow per node): one matrix product of per-graph weights
against a cached table of qubit-pair products gives every amplitude its
CZ/Z/S phase.  A row's hollow Hadamards are the Kronecker product of a
factor on the high half of the index bits and one on the low half, so
they are two small matrix products per row (``_hadamards``), run on the
unscaled, integer-valued rows, where every sum is exact; each row is
then scaled by 1/sqrt(2) per Hadamard, and one batched norm check ends
the pass.  ``gate_images`` applies gates to a state, reading the S, Z
and CZ phases off the same pair table and running each H through the
same factors.  Four read-only tables are cached per size:
``_index_bits`` (the bits of every basis index), ``_pair_products``
(every qubit pair's bit product), ``_pair_weights`` (a graph's bits to
its weights over the pairs) and ``_hadamard_products`` (the unscaled
Hadamard product on every subset of a block of qubits).
``statevector_from_graph`` and ``statevector_from_circuit`` are one-row
calls of ``graph_amplitudes``, and ``apply_gate_dense`` is the one-gate
case of ``gate_images``.  Nothing in this module consults the rewrite
rules or the closed-form generator formulas.  Sizes are capped (default
12 qubits) because vectors grow as 2^n.  The random graphs are built
with the unchecked ``StabilizerGraph._trusted``: each edge is set on
both of its rows, and the repair clears every hollow row's hollow bits.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuit import GraphFormCircuit, graph_from_circuit
from .graph import StabilizerGraph, _node_id
from .pauli import PauliString, _gate_targets

MAX_QUBITS = 12
DEFAULT_TOL = 1e-9
_INV_SQRT2 = 2.0**-0.5
_I_POWERS = np.array([1, 1j, -1, -1j])
_I_POWER_PARTS = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
_LOWEST_SQUARE, _HIGHEST_SQUARE = (1.0 - DEFAULT_TOL) ** 2, (1.0 + DEFAULT_TOL) ** 2


def _check_normalized(rows: np.ndarray) -> None:
    """Raise ``ValueError`` unless every row of a 2-D complex array has
    unit norm.  An explicit raise, so the check survives ``python -O``."""
    flat = np.ascontiguousarray(rows).view(np.float64)
    squares = np.einsum("ij,ij->i", flat, flat).tolist()
    # |norm - 1| <= tol for every row, on the squared norms; written so
    # that a NaN norm fails the test too.
    if not all(_LOWEST_SQUARE <= s <= _HIGHEST_SQUARE for s in squares):
        raise ValueError("state is not normalized")


@dataclass(frozen=True, eq=False)
class Statevector:
    """A normalized dense state on n qubits (2^n complex amplitudes)."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude count must be a power of two")
        _check_normalized(amps.reshape(1, -1))

    @property
    def n(self) -> int:
        return self.amps.size.bit_length() - 1

    @classmethod
    def _checked(cls, amps: np.ndarray) -> "Statevector":
        """Wrap one row that a batched norm check has already passed."""
        v = object.__new__(cls)
        object.__setattr__(v, "amps", amps)
        return v


@functools.lru_cache(maxsize=MAX_QUBITS)
def _index_bits(n: int) -> np.ndarray:
    """Read-only (2^n, n) float table: entry [i, q] is qubit q's bit of i."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    bits = bits.astype(float)
    bits.flags.writeable = False
    return bits


@functools.lru_cache(maxsize=MAX_QUBITS)
def _pair_products(n: int) -> np.ndarray:
    """Read-only (P, 2^n) float32 table, P = n(n+1)/2: row c holds, for
    every basis index, the product of the bits of qubits a <= b, the c-th
    pair (a, b) of ``np.triu_indices(n)``, so c = a n - a (a - 1) / 2 + b - a
    (a diagonal pair's row is qubit a's bit).  A weighted sum of rows with
    small integer weights is exact in float32.  Rows, not columns, so that
    the matrix product reads the table in memory order."""
    bits = np.ascontiguousarray(_index_bits(n).T, dtype=np.float32)
    pairs = np.transpose(np.triu_indices(n))
    table = np.empty((len(pairs), 1 << n), dtype=np.float32)
    for row, (a, b) in zip(table, pairs):  # row by row: no temporaries
        np.multiply(bits[a], bits[b], out=row)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=MAX_QUBITS)
def _pair_weights(n: int) -> np.ndarray:
    """Read-only ((n + 2) n, P) map from a graph's bits to its weights
    over the rows of ``_pair_products(n)``.  The bits are ``_index_bits``
    rows of, in turn, the n adjacency rows and the loop and neg masks, so
    node q's bit of word r is entry r n + n - 1 - q.  Pair a < b weighs 2
    per edge, and pair (a, a) weighs 2 * neg + loop."""
    a, b = np.triu_indices(n)
    select = np.zeros(((n + 2) * n, a.size))
    column = np.arange(a.size)
    edge = a < b
    bit = n - 1 - np.arange(n)
    select[(a * n + bit[b])[edge], column[edge]] = 2
    select[((n + 1) * n + bit[a])[~edge], column[~edge]] = 2
    select[(n * n + bit[a])[~edge], column[~edge]] = 1
    select.flags.writeable = False
    return select


@functools.lru_cache(maxsize=MAX_QUBITS)
def _hadamard_products(k: int) -> np.ndarray:
    """Read-only (2^k, 2^k, 2^k) float table: entry m is the unscaled
    Hadamard on the qubits of mask m of a k-qubit block and the identity
    on the others, bit q of m being qubit q (the block's q-th most
    significant index bit), so every entry is 0, 1 or -1."""
    table = np.ones((1, 1, 1))
    for _ in range(k):  # the next qubit: the lowest index bit, the top mask bit
        table = np.concatenate(
            [np.kron(table, [np.eye(2)]), np.kron(table, [[[1, 1], [1, -1]]])]
        )
    table.flags.writeable = False
    return table


def _hadamards(parts: np.ndarray, masks: Sequence[int]) -> np.ndarray:
    """The complex (K, 2^n) images of rows under unscaled Hadamards on
    the qubits of ``masks[k]`` for row k, given the rows' real and
    imaginary parts as the float (2, K, 2^n) ``parts`` (one row, of shape
    (2, 1, 2^n), serves every k).  With h = n // 2, each part of a row is
    a 2^h x 2^(n - h) grid: its high qubits' ``_hadamard_products``
    factor multiplies it on the left and its low qubits' factor on the
    right (the factors are symmetric).  The parts are kept apart so that
    each product is a real one of at most 64-square matrices at n = 12:
    OpenBLAS ran those on one thread on a 2-core Xeon, where products
    twice as large, or complex ones, took two threads."""
    n = parts.shape[-1].bit_length() - 1
    h = n // 2
    high = _hadamard_products(h)[[m & ((1 << h) - 1) for m in masks]]
    low = _hadamard_products(n - h)[[m >> h for m in masks]]
    grid = parts.reshape(2, -1, 1 << h, 1 << (n - h))
    product = (high @ grid @ low).reshape(2, len(masks), -1)
    rows = np.empty(product.shape[1:], dtype=complex)
    rows.real = product[0]
    rows.imag = product[1]
    return rows


def graph_amplitudes(graphs: Sequence[StabilizerGraph]) -> np.ndarray:
    """The states of graphs that share n, as the rows of a (G, 2^n) array.

    Each graph's circuit runs layer by layer: basis state b gets
    i^(b.M.b), where M holds 2 on each edge and 2*neg + loop on the
    diagonal; then the hollow nodes' Hadamards act on the unscaled row
    (``_hadamards``), and the row is scaled by 1/sqrt(2) per layer-1 and
    hollow-node Hadamard.  Raises ``ValueError`` for an empty batch,
    mixed sizes, a size above ``MAX_QUBITS`` (before allocating) or a row
    that is not normalized.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("graphs in one batch must share n")
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the dense-simulation cap of {MAX_QUBITS}")
    words = np.array([(*g.adj, g.loop_mask, g.neg_mask) for g in graphs])
    weights = _index_bits(n)[words].reshape(len(graphs), -1) @ _pair_weights(n)
    # Exact integers: the phase exponents b.M.b.
    exponent = (weights.astype(np.float32) @ _pair_products(n)).astype(np.intp)
    hollow = [g.hollow_mask for g in graphs]
    # Integer-valued until the scale: every sum is exact, in any order.
    amps = _hadamards(_I_POWER_PARTS[:, exponent & 3], hollow)
    amps *= np.array([_INV_SQRT2 ** (n + h.bit_count()) for h in hollow])[:, None]
    _check_normalized(amps)
    return amps


def gate_images(amps: np.ndarray, gates: Sequence) -> np.ndarray:
    """The images of the state ``amps`` (2^n amplitudes) under each
    (gate, targets) of ``gates``, as the rows of a (K, 2^n) array.

    S, Z and CZ multiply each basis state by a power of i whose exponent
    is the gate's ``_pair_products`` row, times 1 for S and 2 for Z and CZ;
    H scales the state by 1/sqrt(2) and runs its qubit's unscaled
    ``_hadamards`` factors.  Every gate name, target count and target is
    checked first.
    """
    n = amps.size.bit_length() - 1
    rows, powers, hadamards, masks = [], [], [], []
    for k, (gate, targets) in enumerate(gates):
        targets = _gate_targets(gate, targets, n)
        if gate == "H":
            hadamards.append(k)
            masks.append(1 << targets[0])
        a, b = sorted(targets) if gate == "CZ" else targets * 2
        rows.append(a * n - a * (a - 1) // 2 + b - a)
        powers.append(0 if gate == "H" else 1 if gate == "S" else 2)
    exponent = _pair_products(n)[rows]
    exponent *= np.array(powers, dtype=np.float32)[:, None]
    out = _I_POWERS[exponent.astype(np.intp)]
    out *= amps
    if hadamards:
        parts = np.stack((amps.real, amps.imag))[:, None] * _INV_SQRT2
        out[hadamards] = _hadamards(parts, masks)
    _check_normalized(out)
    return out


def apply_gate_dense(v: Statevector, gate: str, *targets: int) -> Statevector:
    """Apply H, S, Z or CZ to a dense state."""
    return Statevector._checked(gate_images(v.amps, [(gate, targets)])[0])


def statevector_from_circuit(c: GraphFormCircuit) -> Statevector:
    """Run the three-layer circuit on |0...0>: the state of its graph."""
    if c.n > MAX_QUBITS:
        raise ValueError(f"n={c.n} exceeds the dense-simulation cap of {MAX_QUBITS}")
    return statevector_from_graph(graph_from_circuit(c))


def statevector_from_graph(g: StabilizerGraph) -> Statevector:
    return Statevector._checked(graph_amplitudes([g])[0])


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
    n = _node_id(n, "n")
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    rng = random.Random(seed)
    hollow, loop, neg = (
        sum((rng.random() < 0.5) << j for j in range(n)) for _ in range(3)
    )
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return StabilizerGraph._trusted(n, hollow, loop, neg, tuple(adj))


def random_reduced_graph(n: int, seed: int) -> StabilizerGraph:
    """Like random_graph, then repaired so the reduced invariant holds:
    loops are cleared from hollow nodes and hollow-hollow edges removed."""
    g = random_graph(n, seed)
    hollow = g.hollow_mask
    adj = tuple(row & ~hollow if hollow >> j & 1 else row for j, row in enumerate(g.adj))
    return StabilizerGraph._trusted(g.n, hollow, g.loop_mask & ~hollow, g.neg_mask, adj)
