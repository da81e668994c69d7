"""Shared helpers for the test suite.

Everything here is deliberately independent of the package's own rewrite
machinery: the dense matrices are built from first principles with numpy
krons so they can serve as an oracle for the bit-twiddling code under
test.  Qubit 0 is the leftmost tensor factor (most significant bit of
the amplitude index), matching the package convention.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from stabgraph import PauliString, StabilizerGraph

ONE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0 + 0j, -1.0]),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "S": np.diag([1.0 + 0j, 1j]),
}


def gate_unitary(n: int, gate: str, *targets: int) -> np.ndarray:
    """Full 2^n x 2^n unitary for a named gate on the given qubits."""
    if gate == "CZ":
        a, b = targets
        idx = np.arange(2**n)
        hit = ((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)
        return np.diag(np.where(hit == 1, -1.0 + 0j, 1.0 + 0j))
    (q,) = targets
    full = np.eye(1, dtype=complex)
    for c in range(n):
        full = np.kron(full, ONE_QUBIT[gate] if c == q else ONE_QUBIT["I"])
    return full


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string, built letter by letter."""
    full = np.eye(1, dtype=complex)
    for q in range(p.n):
        full = np.kron(full, ONE_QUBIT[p.letter(q)])
    return p.sign * full


def adjacency_masks(n: int, edges: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def decorations(
    n: int, edges: List[Tuple[int, int]], *, reduced: bool = False
) -> Iterator[StabilizerGraph]:
    """Every decoration of a fixed edge set; 8^n graphs, fewer if reduced.

    With ``reduced=True`` only decorations valid in reduced form are
    produced: no loops on hollow nodes and no edge between two hollow
    nodes.
    """
    adj = adjacency_masks(n, edges)
    for hollow in itertools.product((False, True), repeat=n):
        if reduced and any(hollow[i] and hollow[j] for i, j in edges):
            continue
        for loop in itertools.product((False, True), repeat=n):
            if reduced and any(h and l for h, l in zip(hollow, loop)):
                continue
            for neg in itertools.product((False, True), repeat=n):
                yield StabilizerGraph(n, hollow, loop, neg, adj)


def random_edge_sets(n: int, count: int, seed: int) -> List[List[Tuple[int, int]]]:
    """``count`` independent edge sets on n nodes, each edge a fair coin."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(
            [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        )
    return out


def scrambled_group(n: int, seed: int):
    """A valid generator matrix with no special row structure.

    Starts from the closed-form generators of a random graph (known
    good), then mixes rows by multiplication and shuffles them, which
    preserves the group but destroys any echelon shape.
    """
    from stabgraph import (
        GeneratorMatrix,
        generator_matrix_from_graph,
        multiply,
        random_graph,
    )

    rng = random.Random(seed)
    rows = list(generator_matrix_from_graph(random_graph(n, seed)).rows)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i] = multiply(rows[i], rows[j])
    rng.shuffle(rows)
    return GeneratorMatrix(n, tuple(rows))


def is_reduced_per_node(g: StabilizerGraph) -> bool:
    """Reference for ``is_reduced``: look at every node and every edge."""
    for j in range(g.n):
        if g.hollow[j] and g.loop[j]:
            return False
        for k in range(g.n):
            if g.hollow[j] and g.hollow[k] and g.has_edge(j, k):
                return False
    return True


def to_reduced_restart_scan(g: StabilizerGraph) -> StabilizerGraph:
    """Reference for ``to_reduced``: after every move, rescan from node 0.

    E1 on the lowest hollow node with a loop until none is left, then E2
    on the lexicographically smallest hollow-hollow edge until none is
    left.  ``to_reduced`` must make the same moves in the same order.
    """
    from stabgraph.equivalence import _e1_core, _e2_core
    from stabgraph.graph import _Mutable

    m = _Mutable(g)
    for _ in range(g.n + 1):
        j = next((i for i in range(g.n) if m.hollow[i] and m.loop[i]), None)
        if j is None:
            break
        _e1_core(m, j)
    else:
        raise RuntimeError("loop-clearing phase failed to terminate")
    for _ in range(g.n + 1):
        pair = next(
            (
                (i, k)
                for i in range(g.n)
                if m.hollow[i]
                for k in sorted(m.neighbors(i))
                if k > i and m.hollow[k]
            ),
            None,
        )
        if pair is None:
            break
        _e2_core(m, *pair)
    else:
        raise RuntimeError("edge-clearing phase failed to terminate")
    return m.freeze()


def sparse_graph(n: int, seed: int, p: float, *, reduced: bool = False) -> StabilizerGraph:
    """Decorations are fair coins and each edge is present with chance p.

    With ``reduced=True`` hollow nodes get no loop and no hollow-hollow
    edge is drawn.
    """
    rng = random.Random(seed)
    hollow = [rng.random() < 0.5 for _ in range(n)]
    loops = [rng.random() < 0.5 and not (reduced and hollow[j]) for j in range(n)]
    neg = [rng.random() < 0.5 for _ in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p and not (reduced and hollow[i] and hollow[j])
    ]
    return StabilizerGraph.build(
        n,
        edges=edges,
        hollow=[j for j in range(n) if hollow[j]],
        loops=[j for j in range(n) if loops[j]],
        neg=[j for j in range(n) if neg[j]],
    )


def _qubit_bit(n: int, q: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return (idx >> (n - 1 - q)) & 1


def statevector_gate_by_gate(c) -> np.ndarray:
    """Reference for ``statevector_from_circuit``: the circuit's amplitudes
    built one gate at a time, each diagonal gate as a masked multiply and
    each terminal Hadamard as a stack of the two halves of its axis."""
    n = c.n
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    for a, b in sorted(c.cz):
        amps[(_qubit_bit(n, a) & _qubit_bit(n, b)) == 1] *= -1
    for q in sorted(c.z_set):
        amps[_qubit_bit(n, q) == 1] *= -1
    for q in sorted(c.s_set):
        amps[_qubit_bit(n, q) == 1] *= 1j
    for q in sorted(c.h_set):
        tens = amps.reshape([2] * n)
        lo, hi = tens.take(0, axis=q), tens.take(1, axis=q)
        amps = np.stack((lo + hi, lo - hi), axis=q).reshape(-1) / np.sqrt(2.0)
    return amps


def statevector_by_unitaries(c) -> np.ndarray:
    """The circuit's amplitudes as the product of full ``gate_unitary``
    matrices applied to |0...0>; memory grows as 4^n, so keep n small."""
    amps = np.zeros(1 << c.n, dtype=complex)
    amps[0] = 1.0
    gates = [("H", q) for q in range(c.n)]
    gates += [("CZ", a, b) for a, b in sorted(c.cz)]
    gates += [("Z", q) for q in sorted(c.z_set)]
    gates += [("S", q) for q in sorted(c.s_set)]
    gates += [("H", q) for q in sorted(c.h_set)]
    for gate, *targets in gates:
        amps = gate_unitary(c.n, gate, *targets) @ amps
    return amps


def random_circuit(n: int, seed: int):
    """A three-layer circuit whose every CZ pair and local gate is a coin."""
    from stabgraph import GraphFormCircuit

    rng = random.Random(seed)

    def coins(items):
        return frozenset(x for x in items if rng.random() < 0.5)

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return GraphFormCircuit(
        n, cz=coins(pairs), z_set=coins(range(n)), s_set=coins(range(n)),
        h_set=coins(range(n)),
    )
