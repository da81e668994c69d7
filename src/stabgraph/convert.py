"""Conversions between generator matrices and decorated graphs.

``graph_from_generator_matrix`` canonicalizes the matrix, turns the
non-pivot qubits into hollow nodes with a conjugation by Hadamards (which
makes the x block a full identity), strips the diagonal of the resulting
adjacency block with phase gates (the stripped entries become loops), and
finally solves for the node signs by comparing the closed-form generators
of the unsigned graph against the canonicalized rows.  Signs ride along
through every conjugation, so the produced graph describes exactly the
input state, not merely its unsigned stabilizer group; zeroing the input
signs recovers the sign-free behavior.  The diagonal strip uses S itself
(not its inverse); the leftover Z this leaves behind is exactly what the
sign solve absorbs into the node signs.

The result is always reduced: hollow columns have no loops (their diagonal
block is zero) and no edges among each other.  Node indices follow
``qubit_of_column`` back to the original qubit labels.

``generator_matrix_from_graph`` is the reverse direction, reading the
generators off the graph's preparation circuit.
"""

from __future__ import annotations

from .circuit import circuit_from_graph, generators_from_circuit
from .graph import InvariantError, StabilizerGraph, is_reduced
from .pauli import GeneratorMatrix, PauliString, conjugate, to_canonical_form


def graph_from_generator_matrix(mat: GeneratorMatrix) -> StabilizerGraph:
    """Draw the stabilizer state fixed by ``mat`` as a reduced graph."""
    canon, rank = to_canonical_form(mat)
    n = mat.n

    # Work in column space first; relabel at the very end.
    rows = list(canon.rows)
    for c in range(rank, n):
        rows = [conjugate(r, "H", c) for r in rows]
    for q, r in enumerate(rows):
        if r.x != 1 << q:
            raise InvariantError("x block is not the identity after Hadamards")
    loops = [bool((rows[q].z >> q) & 1) for q in range(n)]
    for q, has_loop in enumerate(loops):
        if has_loop:
            if q >= rank:
                raise InvariantError("hollow column acquired a loop")
            rows = [conjugate(r, "S", q) for r in rows]
    adj = []
    for q, r in enumerate(rows):
        if (r.z >> q) & 1:
            raise InvariantError("adjacency diagonal not cleared")
        adj.append(r.z)

    hollow = tuple(q >= rank for q in range(n))
    unsigned = StabilizerGraph(n, hollow, tuple(loops), (False,) * n, tuple(adj))
    base_gens = generators_from_circuit(circuit_from_graph(unsigned))
    neg = []
    for q in range(n):
        want = canon.rows[q]
        got = base_gens[q]
        if (got.x, got.z) != (want.x, want.z):
            raise InvariantError("closed-form generator mismatch in sign solve")
        neg.append(got.sign != want.sign)
    colgraph = StabilizerGraph(n, hollow, tuple(loops), tuple(neg), tuple(adj))
    check = generators_from_circuit(circuit_from_graph(colgraph))
    if check != canon.rows:
        raise InvariantError("sign solve failed to reproduce the canonical rows")

    # Undo the column permutation: column c describes original qubit
    # qubit_of_column[c].
    perm = canon.qubit_of_column
    out_hollow = [False] * n
    out_loop = [False] * n
    out_neg = [False] * n
    out_adj = [0] * n
    for c in range(n):
        q = perm[c]
        out_hollow[q] = colgraph.hollow[c]
        out_loop[q] = colgraph.loop[c]
        out_neg[q] = colgraph.neg[c]
        row = 0
        for c2 in range(n):
            if (colgraph.adj[c] >> c2) & 1:
                row |= 1 << perm[c2]
        out_adj[q] = row
    out = StabilizerGraph(
        n, tuple(out_hollow), tuple(out_loop), tuple(out_neg), tuple(out_adj)
    )
    if not is_reduced(out):
        raise InvariantError("matrix-to-graph result is not reduced")
    return out


def generator_matrix_from_graph(g: StabilizerGraph) -> GeneratorMatrix:
    """Generators of the state a graph describes, one per node."""
    gens = generators_from_circuit(circuit_from_graph(g))
    return GeneratorMatrix(g.n, gens)
