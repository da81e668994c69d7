"""Conversions between generator matrices and decorated graphs.

``graph_from_generator_matrix`` reads the graph straight off the packed
``(x, z, sign)`` rows of the canonical form ``[I A | B 0; 0 0 | A^T I]``,
in the paper's three steps.  ``pauli._canonical_rows`` moves no column;
node c reads the row that pivots on column c.  Only ``to_canonical_form``
applies the column swaps of the public layout.  From ``pauli._PACKED_AT``
(32) qubits on, those rows come from XOR alone, each knowing the set t of
input rows it is the product of, and each sign is computed afterwards as

    prod_{a in t} sign_a * i^( sum_{a in t} |x_a & z_a|
                               + 2 sum_{a < b in t} C[a, b] - |x & z| )

with C[a, b] = |z_a & x_b| mod 2 from packed uint64 products; below 32,
those numpy calls cost more than they save, and signed row products run,
with the same result.  Hadamards on the
non-pivot columns make those nodes hollow; on a row they swap the x and z
bits of those columns, the mask step ``z ^= (x ^ z) & hollow_cols``, which
leaves the x block the identity.  Phase gates strip the diagonal of the
new z block into loops, and the rest of z is the node's adjacency row.
Signs are read directly: the closed form of the unsigned graph is all
positive, since a reduced graph has no hollow node with a loop, so a node
is negative exactly when its row is.

One check remains: the graph's closed form (``circuit._closed_form_rows``,
as in ``generators_from_circuit``) must reproduce the canonical rows.
Rows of the wrong shape fail it, or give an asymmetric adjacency that
``_validate()`` rejects, or a graph that fails ``is_reduced``.

The result is always reduced: hollow columns have no loops (their diagonal
block is zero) and no edges among each other.  The one relabel, by the
input's own ``qubit_of_column``, costs nothing for identity labels.

``generator_matrix_from_graph`` is the reverse direction, reading the
generators off the same closed form, and builds its matrix with
``GeneratorMatrix._trusted``: X_j Z_N(j) commute because the adjacency is
symmetric, and the graph's local layer conjugates them invertibly.
"""

from __future__ import annotations

from .circuit import _closed_form_rows
from .graph import InvariantError, StabilizerGraph, is_reduced
from .pauli import GeneratorMatrix, PauliString, _canonical_rows, _move_bits


def graph_from_generator_matrix(mat: GeneratorMatrix) -> StabilizerGraph:
    """Draw the stabilizer state fixed by ``mat`` as a reduced graph."""
    want, pivots = _canonical_rows(mat)
    n = mat.n

    # Node c reads row c; relabel by qubit_of_column at the very end.
    hollow_cols = ((1 << n) - 1) ^ pivots
    loops = neg = 0
    adj = []
    for q, (x, z, sign) in enumerate(want):
        z ^= (x ^ z) & hollow_cols
        loop = (z >> q) & 1
        loops |= loop << q
        neg |= (sign < 0) << q
        adj.append(z ^ (loop << q))
    if _closed_form_rows(hollow_cols, loops, neg, adj) != want:
        raise InvariantError("graph does not reproduce the canonical rows")

    # Column c describes the input's qubit qubit_of_column[c].
    perm = mat.qubit_of_column
    hollow_cols, loops, neg, *adj = _move_bits([hollow_cols, loops, neg, *adj], perm)
    adj = [adj[c] for c in sorted(range(n), key=perm.__getitem__)]
    out = StabilizerGraph._trusted(n, hollow_cols, loops, neg, tuple(adj))
    out._validate()
    if not is_reduced(out):
        raise InvariantError("matrix-to-graph result is not reduced")
    return out


def generator_matrix_from_graph(g: StabilizerGraph) -> GeneratorMatrix:
    """Generators of the state a graph describes, one per node."""
    rows = _closed_form_rows(g.hollow_mask, g.loop_mask, g.neg_mask, g.adj)
    signed = tuple(PauliString(g.n, *row) for row in rows)
    return GeneratorMatrix._trusted(g.n, signed, tuple(range(g.n)))
