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

All of this runs on packed ``(x, z, sign)`` rows.  A conjugation touches
only the rows it changes: H on column c the rows with x or z set there,
S on column q (the x block being the identity by then) only row q.  The
sign solve and its reproduction check read the graph's generators from
``circuit._closed_form_rows``, the closed form ``generators_from_circuit`` uses.

The result is always reduced: hollow columns have no loops (their diagonal
block is zero) and no edges among each other.  Node indices follow
``qubit_of_column`` back to the original qubit labels.

``generator_matrix_from_graph`` is the reverse direction, reading the
generators off the same closed form.
"""

from __future__ import annotations

from .circuit import _closed_form_rows
from .graph import InvariantError, StabilizerGraph, _bits, is_reduced
from .pauli import GeneratorMatrix, PauliString, _conjugate, to_canonical_form


def graph_from_generator_matrix(mat: GeneratorMatrix) -> StabilizerGraph:
    """Draw the stabilizer state fixed by ``mat`` as a reduced graph."""
    canon, rank = to_canonical_form(mat)
    n = mat.n
    want = [(r.x, r.z, r.sign) for r in canon.rows]

    # Work in column space first; relabel at the very end.  Hadamards on
    # the columns rank..n-1 commute, so each row takes those it touches.
    hollow_cols = (1 << n) - (1 << rank)
    rows = []
    for row in want:
        for c in _bits((row[0] | row[1]) & hollow_cols):
            row = _conjugate(row, "H", c)
        rows.append(row)
    for q, (x, _, _) in enumerate(rows):
        if x != 1 << q:
            raise InvariantError("x block is not the identity after Hadamards")
    loops = tuple(bool((z >> q) & 1) for q, (_, z, _) in enumerate(rows))
    for q, has_loop in enumerate(loops):
        if has_loop:
            if q >= rank:
                raise InvariantError("hollow column acquired a loop")
            rows[q] = _conjugate(rows[q], "S", q)
    adj = []
    for q, (_, z, _) in enumerate(rows):
        if (z >> q) & 1:
            raise InvariantError("adjacency diagonal not cleared")
        adj.append(z)

    hollow = tuple(q >= rank for q in range(n))
    neg = []
    for (x, z, sign), (wx, wz, wsign) in zip(
        _closed_form_rows(hollow, loops, (False,) * n, adj), want
    ):
        if (x, z) != (wx, wz):
            raise InvariantError("closed-form generator mismatch in sign solve")
        neg.append(sign != wsign)
    if _closed_form_rows(hollow, loops, neg, adj) != want:
        raise InvariantError("sign solve failed to reproduce the canonical rows")

    # Undo the column permutation: column c describes original qubit
    # qubit_of_column[c], so qubit q reads column at[q].
    perm = canon.qubit_of_column
    at = sorted(range(n), key=perm.__getitem__)
    out = StabilizerGraph(
        n,
        tuple(hollow[c] for c in at),
        tuple(loops[c] for c in at),
        tuple(neg[c] for c in at),
        tuple(sum(1 << perm[c2] for c2 in _bits(adj[c])) for c in at),
    )
    if not is_reduced(out):
        raise InvariantError("matrix-to-graph result is not reduced")
    return out


def generator_matrix_from_graph(g: StabilizerGraph) -> GeneratorMatrix:
    """Generators of the state a graph describes, one per node."""
    rows = _closed_form_rows(g.hollow, g.loop, g.neg, g.adj)
    return GeneratorMatrix(g.n, tuple(PauliString(g.n, *row) for row in rows))
