"""Three-layer preparation circuits and their stabilizer generators.

Every decorated graph denotes the circuit

    layer 1: H on every qubit of |0...0>
    layer 2: CZ on every edge
    layer 3: per qubit, Z^a then S^b then H^c

where a = 1 on nodes with a negative sign, b = 1 on nodes with a loop and
c = 1 on hollow nodes.  The mapping between graphs and such circuits is a
bijection, and ``generators_from_circuit`` writes down the circuit's
stabilizer generators in closed form: for node j with decorations
(a, b, c) and neighbors N(j),

    g_j = (-1)^(a + b*c) * F_j * prod_{k in N(j)} (X_k if k hollow else Z_k)

with F_j = Y_j when b = 1, else Z_j when c = 1, else X_j.

``generators_by_conjugation`` rebuilds the same generators a second way,
by conjugating the plain graph-state generators X_j Z_N(j) through the
third layer gate by gate.  The two routes are kept separate on purpose so
they can be checked against each other and against the dense simulator.

The closed form also decides state equality at any n with no elimination
(stabilizer-group membership, as in Aaronson-Gottesman, quant-ph/0406196).
``_outside_group`` returns the first closed-form generator of one graph
that is not in the other's group, or None, and ``_same_state``, the CLI's
``equiv``, checks the rows of the graph with fewer edges that way.  It
shares no code with the rewrite rules, the E moves or
``graphs_equivalent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from .graph import StabilizerGraph, _bits, _node_id
from .pauli import PauliString, Row, _multiply, conjugate


@dataclass(frozen=True)
class GraphFormCircuit:
    """The canonical three-layer form: H layer, CZ layer, local layer."""

    n: int
    cz: FrozenSet[Tuple[int, int]]
    z_set: FrozenSet[int]
    s_set: FrozenSet[int]
    h_set: FrozenSet[int]

    def __post_init__(self) -> None:
        # Python ints by ``operator.index`` and frozensets, whatever the
        # caller passed, so the circuit hashes and compares like any other.
        n = _node_id(self.n, "n")
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        cz = frozenset((_node_id(i), _node_id(j)) for i, j in self.cz)
        for i, j in cz:
            if not (0 <= i < j < n):
                raise ValueError(f"cz pair ({i}, {j}) must satisfy 0 <= i < j < n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cz", cz)
        for name in ("z_set", "s_set", "h_set"):
            qubits = frozenset(_node_id(j) for j in getattr(self, name))
            for j in qubits:
                if not 0 <= j < n:
                    raise ValueError(f"{name} index {j} out of range")
            object.__setattr__(self, name, qubits)


def graph_from_circuit(c: GraphFormCircuit) -> StabilizerGraph:
    """Read the decorations off a three-layer circuit."""
    return StabilizerGraph.build(
        c.n, edges=c.cz, hollow=c.h_set, loops=c.s_set, neg=c.z_set
    )


def circuit_from_graph(g: StabilizerGraph) -> GraphFormCircuit:
    """Write the graph as its preparation circuit (inverse of the above)."""
    return GraphFormCircuit(
        g.n,
        cz=frozenset(g.edges()),
        z_set=frozenset(_bits(g.neg_mask)),
        s_set=frozenset(_bits(g.loop_mask)),
        h_set=frozenset(_bits(g.hollow_mask)),
    )


def _closed_form_rows(hollow: int, loop: int, neg: int, adj: Sequence[int]) -> list[Row]:
    """Packed closed-form generators (x, z, sign) of a decorated graph, from
    its flag masks and adjacency rows."""
    negative = neg ^ (loop & hollow)  # (-1)^(a + b*c)
    rows = []
    for j, nbrs in enumerate(adj):
        bit = 1 << j
        x, z = nbrs & hollow, nbrs & ~hollow
        if loop & bit:
            x, z = x | bit, z | bit
        elif hollow & bit:
            z |= bit
        else:
            x |= bit
        rows.append((x, z, -1 if negative & bit else 1))
    return rows


def _outside_group(g1: StabilizerGraph, g2: StabilizerGraph) -> Optional[Row]:
    """The first closed-form row of g2 outside g1's stabilizer group, or None
    when every row lies in it, that is when the two states are equal.

    Only g1's own generator g_k has a bit at qubit k in its pivot part (x on
    a solid k, z on a hollow one): a neighbor adds Z on a solid qubit and X
    on a hollow one.  So P lies in g1's group exactly when P is the product
    of the g_k with k in (P.x & ~hollow) | (P.z & hollow), sign included.
    The cost is one row product per bit of those sets: about n plus twice
    g2's edges, so g2 should be the sparser graph.
    """
    gens = _closed_form_rows(g1.hollow_mask, g1.loop_mask, g1.neg_mask, g1.adj)
    hollow = g1.hollow_mask
    for row in _closed_form_rows(g2.hollow_mask, g2.loop_mask, g2.neg_mask, g2.adj):
        x, z, _ = row
        product = (0, 0, 1)
        for k in _bits((x & ~hollow) | (z & hollow)):
            product = _multiply(product, gens[k])
        if product != row:
            return row
    return None


def _same_state(g1: StabilizerGraph, g2: StabilizerGraph) -> bool:
    """Whether two graphs draw the same state: ``_outside_group`` on the rows
    of the graph with fewer edges.  Both groups have n independent
    generators, so one inside the other is equality."""
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n}")
    if sum(map(int.bit_count, g2.adj)) > sum(map(int.bit_count, g1.adj)):
        g1, g2 = g2, g1
    return _outside_group(g1, g2) is None


def generators_from_circuit(c: GraphFormCircuit) -> tuple[PauliString, ...]:
    """Closed-form stabilizer generators, one per qubit."""
    g = graph_from_circuit(c)
    rows = _closed_form_rows(g.hollow_mask, g.loop_mask, g.neg_mask, g.adj)
    return tuple(PauliString(g.n, x, z, sign) for x, z, sign in rows)


def generators_by_conjugation(c: GraphFormCircuit) -> tuple[PauliString, ...]:
    """Same generators via explicit conjugation through the third layer."""
    g = graph_from_circuit(c)
    gens = []
    for j in range(g.n):
        p = PauliString(g.n, 1 << j, g.adj[j], 1)
        for q in sorted(c.z_set):
            p = conjugate(p, "Z", q)
        for q in sorted(c.s_set):
            p = conjugate(p, "S", q)
        for q in sorted(c.h_set):
            p = conjugate(p, "H", q)
        gens.append(p)
    return tuple(gens)
