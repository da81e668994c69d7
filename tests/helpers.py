"""Shared helpers for the test suite.

Everything here is deliberately independent of the package's own rewrite
machinery: the dense matrices are built from first principles with numpy
krons so they can serve as an oracle for the bit-twiddling code under
test.  Qubit 0 is the leftmost tensor factor (most significant bit of
the amplitude index), matching the package convention.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple

import numpy as np

import stabgraph
from stabgraph import (
    GraphFormCircuit,
    ParseError,
    PauliString,
    StabilizerGraph,
    permute_qubits,
)

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
    nodes.  The public constructor checks the edge set once; every
    decoration is then built from flag masks with ``_trusted``, in the
    order of ``decorations_reference``.
    """
    f = (False,) * n
    adj = StabilizerGraph(n, f, f, f, adjacency_masks(n, edges)).adj
    # The masks of itertools.product((False, True), repeat=n), in its order.
    masks = [flag_mask_reference(flags) for flags in itertools.product((0, 1), repeat=n)]
    for hollow in masks:
        if reduced and any(hollow >> i & hollow >> j & 1 for i, j in edges):
            continue
        for loop in masks:
            if reduced and hollow & loop:
                continue
            for neg in masks:
                yield StabilizerGraph._trusted(n, hollow, loop, neg, adj)


def every_graph(n: int) -> Iterator[StabilizerGraph]:
    """Every decorated graph on n nodes: edge sets by size, then in
    ``itertools.combinations`` order, each with all its ``decorations``."""
    pairs = list(itertools.combinations(range(n), 2))
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            yield from decorations(n, list(edges))


def decorations_reference(
    n: int, edges: List[Tuple[int, int]], *, reduced: bool = False
) -> Iterator[StabilizerGraph]:
    """Reference for ``decorations``: every graph through the public
    constructor, from flag tuples."""
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


def keeps_the_suspect_rule(g: StabilizerGraph) -> bool:
    """Reference for the rule of the suspect mask ``g._suspect`` (-1: every
    node): every hollow node with a loop, and at least one end of every
    hollow-hollow edge, is in it.  Looks at every hollow node outside the
    mask and at every edge of it."""
    inside = [bool(g._suspect >> j & 1) for j in range(g.n)]
    for j in range(g.n):
        if not g.hollow[j] or inside[j]:
            continue
        if g.loop[j] or any(g.hollow[k] and not inside[k] for k in bits_reference(g.adj[j])):
            return False
    return True


def is_reduced_per_node(g: StabilizerGraph) -> bool:
    """Reference for ``is_reduced``: look at every node and every edge."""
    for j in range(g.n):
        if g.hollow[j] and g.loop[j]:
            return False
        for k in range(g.n):
            if g.hollow[j] and g.hollow[k] and g.has_edge(j, k):
                return False
    return True


# --- list-based references for the rewrite rules ----------------------------
#
# The engine runs every rewrite on flag bitmasks (``graph._Masks``), and writes
# T4 and T(ii)-T(iv) as E moves followed by T1 or T2.  These are the per-node
# versions on flag lists, one decoration at a time, with every rule written
# out in full, kept here so that the tests compare the engine against bodies
# it does not share.


class Mutable:
    """List-based scratch copy of a graph, with per-node moves.  The moves
    that write adjacency rows record them in ``rows``."""

    def __init__(self, g: StabilizerGraph) -> None:
        self.n = g.n
        self.source = g
        self.hollow = list(g.hollow)
        self.loop = list(g.loop)
        self.neg = list(g.neg)
        self.adj = list(g.adj)
        self.rows = 0

    def freeze(self) -> StabilizerGraph:
        """The result.  Its suspect mask is the source's plus every node
        whose row was written or whose fill or loop differs from the
        source's: the mask the engine's rewrite may carry at most."""
        src = self.source
        flipped = [
            j for j in range(self.n)
            if (self.hollow[j], self.loop[j]) != (src.hollow[j], src.loop[j])
        ]
        return StabilizerGraph._trusted(
            self.n,
            *map(flag_mask_reference, (self.hollow, self.loop, self.neg)),
            tuple(self.adj),
            src._suspect | self.rows | sum(1 << j for j in flipped),
        )

    def neighbors(self, j: int) -> set:
        return set(bits_reference(self.adj[j]))

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def toggle_edge(self, i: int, j: int) -> None:
        self.rows |= (1 << i) | (1 << j)
        self.adj[i] ^= 1 << j
        self.adj[j] ^= 1 << i

    def flip_fill(self, j: int) -> None:
        self.hollow[j] = not self.hollow[j]

    def flip_sign(self, j: int) -> None:
        self.neg[j] = not self.neg[j]

    def advance(self, j: int) -> None:
        if self.loop[j]:
            self.loop[j] = False
            self.neg[j] = not self.neg[j]
        else:
            self.loop[j] = True

    def local_complement(self, j: int) -> None:
        nb = self.adj[j]
        for l in bits_reference(nb):
            self.rows |= 1 << l
            self.adj[l] ^= nb & ~(1 << l)

    def local_complement_edge(self, j: int, k: int) -> None:
        a = self.adj[j] | (1 << j)
        b = self.adj[k] | (1 << k)
        for l in bits_reference(a | b):
            self.rows |= 1 << l
            delta = 0
            if (a >> l) & 1:
                delta ^= b
            if (b >> l) & 1:
                delta ^= a
            self.adj[l] = (self.adj[l] ^ delta) & ~(1 << l)

    def local_complement_edge_step3(self, j: int, k: int) -> None:
        dm = (1 << j) | (1 << k)
        only_j = self.adj[j] & ~self.adj[k] & ~dm
        only_k = self.adj[k] & ~self.adj[j] & ~dm
        both = self.adj[j] & self.adj[k] & ~dm
        self.rows |= only_j | only_k | both
        for group_a, group_b in ((only_j, only_k), (only_j, both), (only_k, both)):
            for l in bits_reference(group_a):
                self.adj[l] ^= group_b
            for l in bits_reference(group_b):
                self.adj[l] ^= group_a


def run_reference(g: StabilizerGraph, body, *nodes: int) -> StabilizerGraph:
    """One reference rule or move ``body`` on a ``Mutable`` copy of ``g``."""
    m = Mutable(g)
    body(m, *nodes)
    return m.freeze()


def e1_reference(m: Mutable, j: int) -> None:
    """E1 at j: flip j's fill, complement on j, advance the neighbors'
    loops, flip j's sign and, if j is then negative, the neighbors' signs."""
    m.flip_fill(j)
    m.local_complement(j)
    nb = m.neighbors(j)
    for l in nb:
        m.advance(l)
    m.flip_sign(j)
    if m.neg[j]:
        for l in nb:
            m.flip_sign(l)


def e2_reference(m: Mutable, j: int, k: int) -> None:
    """E2 on the edge (j, k); both sign conditions are read before either
    flip."""
    m.flip_fill(j)
    m.flip_fill(k)
    m.local_complement_edge(j, k)
    for l in m.neighbors(j) & m.neighbors(k):
        m.flip_sign(l)
    j_neg, k_neg = m.neg[j], m.neg[k]
    if j_neg:
        m.flip_sign(j)
        for l in m.neighbors(j):
            m.flip_sign(l)
    if k_neg:
        m.flip_sign(k)
        for l in m.neighbors(k):
            m.flip_sign(l)


def ei_reference(m: Mutable, hollow: int, solid: int) -> None:
    """E(i): swap the fills of a hollow node and its solid neighbor with a
    loop, one decoration at a time."""
    common0 = m.neighbors(solid) & m.neighbors(hollow)
    solid_neg0, hollow_neg0 = m.neg[solid], m.neg[hollow]
    m.local_complement(solid)
    m.local_complement(hollow)
    m.loop[solid] = False
    for l in m.neighbors(solid):
        m.advance(l)
    m.flip_fill(hollow)
    m.flip_fill(solid)
    for l in common0:
        m.flip_sign(l)
    if solid_neg0:
        m.flip_sign(solid)
        for l in m.neighbors(solid):
            m.flip_sign(l)
    if hollow_neg0:
        for l in m.neighbors(hollow):
            m.flip_sign(l)


def t3_reference(m: Mutable, j: int) -> None:
    """S on a hollow node without a loop (also T(vii))."""
    m.local_complement(j)
    nb = m.neighbors(j)
    for l in nb:
        m.advance(l)
    if m.neg[j]:
        for l in nb:
            m.flip_sign(l)


def t4_reference(m: Mutable, j: int) -> None:
    """S on a hollow node with a loop; the node comes out solid, loop-free."""
    was_neg = m.neg[j]
    m.flip_fill(j)
    m.loop[j] = False
    m.local_complement(j)
    nb = m.neighbors(j)
    for l in nb:
        m.advance(l)
    if not was_neg:
        for l in nb:
            m.flip_sign(l)


def t6_reference(m: Mutable, j: int) -> None:
    """Z on a hollow node."""
    for l in m.neighbors(j):
        m.flip_sign(l)
    if m.loop[j]:
        m.flip_sign(j)


def t_ii_reference(m: Mutable, j: int) -> None:
    """H on a solid node with a loop and no hollow neighbors.  The loop
    stays; the sign flips, and a now-negative node flips its neighbors."""
    m.local_complement(j)
    nb = m.neighbors(j)
    for l in nb:
        m.advance(l)
    m.flip_sign(j)
    if m.neg[j]:
        for l in nb:
            m.flip_sign(l)


def t_iii_reference(m: Mutable, j: int, k: int) -> None:
    """H on a loop-free solid node j with hollow neighbor k: the hollow
    marker is absorbed by complementing along the edge; both end solid."""
    common = m.neighbors(j) & m.neighbors(k)
    m.flip_fill(k)
    m.local_complement_edge(j, k)
    for l in common:
        m.flip_sign(l)
    j_neg, k_neg = m.neg[j], m.neg[k]
    if j_neg:
        m.flip_sign(j)
        for l in m.neighbors(j):
            m.flip_sign(l)
    if k_neg:
        m.flip_sign(k)
        for l in m.neighbors(k):
            m.flip_sign(l)


def t_iv_reference(m: Mutable, j: int, k: int) -> None:
    """H on a looped solid node j with hollow neighbor k: complement on j
    then on k, drop j's loop, advance j's current neighbors' loops and fill
    k.  Signs: originally-common neighbors flip; a negative j flips itself
    and its current neighbors; a negative k flips only its current
    neighbors."""
    common0 = m.neighbors(j) & m.neighbors(k)
    j_neg0, k_neg0 = m.neg[j], m.neg[k]
    m.local_complement(j)
    m.local_complement(k)
    m.loop[j] = False
    for l in m.neighbors(j):
        m.advance(l)
    m.flip_fill(k)
    for l in common0:
        m.flip_sign(l)
    if j_neg0:
        m.flip_sign(j)
        for l in m.neighbors(j):
            m.flip_sign(l)
    if k_neg0:
        for l in m.neighbors(k):
            m.flip_sign(l)


def t_ix_reference(m: Mutable, j: int, k: int) -> None:
    """CZ on a solid and a hollow node of a reduced graph."""
    solid, hollow = (j, k) if m.hollow[k] else (k, j)
    connected = m.has_edge(solid, hollow)
    hollow_neg = m.neg[hollow]
    for l in m.neighbors(hollow) - {solid}:
        m.toggle_edge(solid, l)
    if (connected and not hollow_neg) or (not connected and hollow_neg):
        m.flip_sign(solid)


def t_x_reference(m: Mutable, j: int, k: int) -> None:
    """CZ on two hollow (so disconnected) nodes of a reduced graph."""
    j_neg, k_neg = m.neg[j], m.neg[k]
    m.local_complement_edge_step3(j, k)
    for l in m.neighbors(j) & m.neighbors(k):
        m.flip_sign(l)
    if j_neg:
        for l in m.neighbors(k):
            m.flip_sign(l)
    if k_neg:
        for l in m.neighbors(j):
            m.flip_sign(l)


# The reference body of every gate rule, by tag.  T(iii) and T(iv) take the
# target and the hollow neighbor it consumes, the CZ rules both targets.
RULE_REFERENCES = {
    "T1": Mutable.flip_fill,
    "T2": Mutable.advance,
    "T3": t3_reference,
    "T4": t4_reference,
    "T5": Mutable.flip_sign,
    "T6": t6_reference,
    "T(i)": Mutable.flip_fill,
    "T(ii)": t_ii_reference,
    "T(iii)": t_iii_reference,
    "T(iv)": t_iv_reference,
    "T(v)": Mutable.flip_fill,
    "T(vi)": Mutable.advance,
    "T(vii)": t3_reference,
    "T(viii)": Mutable.toggle_edge,
    "T(ix)": t_ix_reference,
    "T(x)": t_x_reference,
}


def apply_sequence_reference(
    g: StabilizerGraph, gates, reduced: bool = False
) -> StabilizerGraph:
    """Reference for ``apply_sequence``: the word as a loop of one-gate
    public calls, each of which returns a new graph, then the same checks
    of the result."""
    from stabgraph import (
        InvariantError,
        apply_cz,
        apply_cz_reduced,
        apply_local,
        apply_local_reduced,
    )
    from stabgraph.graph import _offenders, is_reduced
    from stabgraph.pauli import _gate_targets

    for gate, targets in gates:
        targets = _gate_targets(gate, targets, g.n)
        if gate == "CZ":
            apply = apply_cz_reduced if reduced else apply_cz
            g = apply(g, *targets)
        else:
            apply = apply_local_reduced if reduced else apply_local
            g = apply(g, gate, *targets)
    g._validate()
    clean = not _offenders(g, -1)
    if is_reduced(g) != clean:
        raise InvariantError("a rule left a clash outside the suspect mask")
    if reduced and not clean:
        raise ValueError("graph is not reduced")
    return g


def random_word(rng: random.Random, n: int, length: int) -> list:
    """``length`` seeded H/S/Z/CZ gates on n nodes (no CZ when n = 1)."""
    word = []
    for _ in range(length):
        gate = rng.choice("HSZC" if n >= 2 else "HSZ")
        if gate == "C":
            word.append(("CZ", tuple(rng.sample(range(n), 2))))
        else:
            word.append((gate, (rng.randrange(n),)))
    return word


def word_image_rows(g: StabilizerGraph, word) -> list:
    """Any-n reference for a gate word on ``g``: the packed closed-form rows
    of ``g``, each conjugated gate by gate through ``word`` with
    ``pauli._conjugate``, as a stabilizer tableau would (Aaronson-Gottesman,
    quant-ph/0406196).  They generate the output state's group, and share
    no code with the rewrite rules, the E moves or either decider."""
    from stabgraph.circuit import _closed_form_rows
    from stabgraph.pauli import _conjugate

    rows = _closed_form_rows(g.hollow_mask, g.loop_mask, g.neg_mask, g.adj)
    for gate, targets in word:
        rows = [_conjugate(row, gate, *targets) for row in rows]
    return rows


def first_row_outside(rows, g: StabilizerGraph):
    """The first of the packed ``rows`` outside the stabilizer group of
    ``g``, or None when all lie in it.

    Only g's own generator g_k has a bit at qubit k in its pivot part (x on
    a solid k, z on a hollow one), so a Pauli P lies in the group exactly
    when it is the product of the g_k over k in (P.x & ~hollow) |
    (P.z & hollow), sign included.  Written apart from
    ``circuit._outside_group``.  The rows of ``word_image_rows`` are n
    independent generators, so containment is equality of the states.
    """
    from stabgraph.circuit import _closed_form_rows
    from stabgraph.pauli import _multiply

    gens = _closed_form_rows(g.hollow_mask, g.loop_mask, g.neg_mask, g.adj)
    for row in rows:
        x, z, _ = row
        product = (0, 0, 1)
        for k in bits_reference((x & ~g.hollow_mask) | (z & g.hollow_mask)):
            product = _multiply(product, gens[k])
        if product != row:
            return row
    return None


def flag_mask_reference(flags) -> int:
    return sum(1 << j for j, f in enumerate(flags) if f)


def to_reduced_restart_scan(g: StabilizerGraph) -> StabilizerGraph:
    """Reference for ``to_reduced``: after every move, rescan from node 0.

    E1 on the lowest hollow node with a loop until none is left, then E2
    on the lexicographically smallest hollow-hollow edge until none is
    left.  ``to_reduced`` must make the same moves in the same order.
    """
    m = Mutable(g)
    for _ in range(g.n + 1):
        j = next((i for i in range(g.n) if m.hollow[i] and m.loop[i]), None)
        if j is None:
            break
        e1_reference(m, j)
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
        e2_reference(m, *pair)
    else:
        raise RuntimeError("edge-clearing phase failed to terminate")
    return m.freeze()


# --- per-bit references for the row bit lists, formatters and validation ---
#
# The engine lists the set bits of a dense row by unpacking its bytes, builds
# edge lists and graph text from per-row bit lists, and checks symmetry
# against the transpose.  These are the one-bit-at-a-time versions they
# replaced, which the tests hold them to exactly.


def bits_reference(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first, one at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edges_reference(g: StabilizerGraph) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(g.n) for j in bits_reference(g.adj[i]) if i < j]


def format_graph_reference(g: StabilizerGraph) -> str:
    """Graph text with one f-string per node and per edge."""
    out = [f"nodes {g.n}"]
    for j in range(g.n):
        parts = [f"node {j}", "hollow" if g.hollow[j] else "solid"]
        if g.loop[j]:
            parts.append("loop")
        if g.neg[j]:
            parts.append("neg")
        out.append(" ".join(parts))
    for i, j in edges_reference(g):
        out.append(f"edge {i} {j}")
    return "\n".join(out) + "\n"


def graph_to_dot_reference(g: StabilizerGraph) -> str:
    out = ["graph stabilizer {", "  node [shape=circle];"]
    for j in range(g.n):
        attrs = []
        if not g.hollow[j]:
            attrs += ["style=filled", "fillcolor=black", "fontcolor=white"]
        if g.neg[j]:
            attrs.append(f'label="{j}−"')
        out.append(f"  {j} [{', '.join(attrs)}];" if attrs else f"  {j};")
    for i, j in edges_reference(g):
        out.append(f"  {i} -- {j};")
    for j in range(g.n):
        if g.loop[j]:
            out.append(f"  {j} -- {j};")
    out.append("}")
    return "\n".join(out) + "\n"


def adjacency_error_reference(adj, n: int):
    """The message the constructor raises for the rows ``adj``, checked row
    by row and edge by edge; None when they form an adjacency matrix."""
    full = (1 << n) - 1
    for j, row in enumerate(adj):
        if not 0 <= row <= full:
            return f"adjacency row {j} out of range"
        if (row >> j) & 1:
            return f"node {j} has a diagonal adjacency entry"
        for k in bits_reference(row):
            if not (adj[k] >> j) & 1:
                return f"adjacency is not symmetric at ({j}, {k})"
    return None


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


def sparse_graph_by_edges(
    n: int, seed: int, mean_degree: float, *, reduced: bool = False
) -> StabilizerGraph:
    """Decorations are fair coins, then round(n * mean_degree / 2) distinct
    edges drawn uniformly, each draw costing O(1), not O(n) as the node
    pairs of ``sparse_graph`` do.

    With ``reduced=True`` hollow nodes get no loop and a drawn hollow-hollow
    pair is drawn again, so the graph still has that many edges.
    """
    rng = random.Random(seed)
    hollow = [rng.random() < 0.5 for _ in range(n)]
    loops = [rng.random() < 0.5 and not (reduced and hollow[j]) for j in range(n)]
    neg = [rng.random() < 0.5 for _ in range(n)]
    free = n * (n - 1) // 2
    if reduced:
        h = sum(hollow)
        free -= h * (h - 1) // 2
    m = round(n * mean_degree / 2)
    if m > free:
        raise ValueError(f"{m} edges do not fit in {free} free node pairs")
    edges = set()
    while len(edges) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and not (reduced and hollow[i] and hollow[j]):
            edges.add((min(i, j), max(i, j)))
    return StabilizerGraph.build(
        n,
        edges=sorted(edges),
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


def statevector_layer_by_layer(c) -> np.ndarray:
    """The one-state body that preceded the batched kernel, kept as the
    bit-for-bit reference for its rows: basis state b gets i^(b.M.b) with
    M holding 2 on each CZ pair and 2z + s on the diagonal, pre-scaled by
    1/sqrt(2) per Hadamard, then each terminal Hadamard is an unscaled
    in-place butterfly, in the circuit's ``h_set`` order."""
    n = c.n
    m = np.zeros((n, n))
    for a, b in c.cz:
        m[a, b] = 2.0
    for q in c.z_set:
        m[q, q] += 2.0
    for q in c.s_set:
        m[q, q] += 1.0
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
    phase = np.einsum("ij,ij->i", bits @ m, bits).astype(np.intp) & 3
    amps = (np.array([1, 1j, -1, -1j]) * (2.0**-0.5) ** (n + len(c.h_set)))[phase]
    for q in c.h_set:
        view = amps.reshape(1 << q, 2, 1 << (n - 1 - q))
        lo, hi = view[:, 0], view[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
    return amps


def gate_images_by_table(amps: np.ndarray, gates) -> np.ndarray:
    """The table-based ``gate_images`` body that preceded reading the gate
    factors off the pair-product table, kept as the bit-for-bit reference
    for its rows.  A uint8 table holds, for S (row c) and for Z or CZ (row
    P + c) on the c-th pair a <= b of ``np.triu_indices(n)``, and for H
    (row 2P), the index of each basis state's factor in [1, i, -1, -i,
    1/sqrt(2)]; H's unscaled butterfly follows.  Arguments are not
    checked."""
    n = amps.size.bit_length() - 1
    bits = (np.arange(1 << n)[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1
    first, second = np.triu_indices(n)
    pairs = first.size
    table = np.full((2 * pairs + 1, 1 << n), 4, dtype=np.uint8)
    table[:pairs] = bits[first] * bits[second]
    table[pairs : 2 * pairs] = 2 * table[:pairs]
    factors = np.append(np.array([1, 1j, -1, -1j]), 2.0**-0.5)
    index = {(int(a), int(b)): c for c, (a, b) in enumerate(zip(first, second))}
    rows, hadamards = [], []
    for k, (gate, targets) in enumerate(gates):
        if gate == "H":
            rows.append(2 * pairs)
            hadamards.append((k, targets[0]))
        else:
            pair = tuple(sorted(targets)) if gate == "CZ" else (targets[0],) * 2
            rows.append(index[pair] + (0 if gate == "S" else pairs))
    out = factors[table[rows]]
    out *= amps
    for k, q in hadamards:
        view = out[k].reshape(1 << q, 2, 1 << (n - 1 - q))
        lo, hi = view[:, 0], view[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
    return out


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


# --- PauliString-based references for the packed matrix-to-graph path ------
#
# These are the object-per-step versions that the packed rows replaced, kept
# here verbatim in algorithm (one PauliString per product and conjugation)
# so that the packed code can be checked against them exactly.  They share
# no helper with the package's packed path.


_LETTER_OF_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_OF_LETTER = {v: k for k, v in _LETTER_OF_BITS.items()}


def label_reference(p: PauliString) -> str:
    """Reference for ``PauliString.label``: one dict lookup per letter."""
    body = "".join(_LETTER_OF_BITS[(p.x >> j) & 1, (p.z >> j) & 1] for j in range(p.n))
    return ("+" if p.sign > 0 else "-") + body


def from_label_reference(label: str) -> PauliString:
    """Reference for ``PauliString.from_label``: letter by letter."""
    if not label:
        raise ValueError("empty Pauli label")
    sign = 1
    body = label
    if label[0] in "+-":
        sign = 1 if label[0] == "+" else -1
        body = label[1:]
    x = z = 0
    for j, ch in enumerate(body):
        try:
            xb, zb = _BITS_OF_LETTER[ch]
        except KeyError:
            raise ValueError(f"bad Pauli letter {ch!r} in {label!r}") from None
        x |= xb << j
        z |= zb << j
    return PauliString(len(body), x, z, sign)


def format_generator_matrix_reference(mat) -> str:
    """Reference for ``format_generator_matrix``: each row relabelled by
    ``permute_qubits``, then written letter by letter."""
    perm = list(mat.qubit_of_column)
    return "".join(label_reference(permute_qubits(r, perm)) + "\n" for r in mat.rows)


def multiply_reference(p: PauliString, q: PauliString) -> PauliString:
    """p*q of two commuting Paulis, phase tracked as a power of i."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    x = p.x ^ q.x
    z = p.z ^ q.z
    t = (
        (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count()
        - (x & z).bit_count()
    ) % 4
    if t % 2:
        raise ValueError("operands anticommute; product phase is imaginary")
    return PauliString(p.n, x, z, p.sign * q.sign * (1 if t == 0 else -1))


def conjugate_reference(p: PauliString, gate: str, *targets: int) -> PauliString:
    """U p U^dagger for U one of H, S, Z (one target) or CZ (two)."""
    x, z, sign = p.x, p.z, p.sign
    if gate in ("H", "S", "Z"):
        (t,) = targets
        xb, zb = (x >> t) & 1, (z >> t) & 1
        if gate == "H":
            if xb and zb:
                sign = -sign
            x ^= (xb ^ zb) << t
            z ^= (xb ^ zb) << t
        elif gate == "S":
            if xb and zb:
                sign = -sign
            z ^= xb << t
        elif xb:
            sign = -sign
    elif gate == "CZ":
        a, b = targets
        xa, za = (x >> a) & 1, (z >> a) & 1
        xb, zb = (x >> b) & 1, (z >> b) & 1
        if xa and xb and (za ^ zb):
            sign = -sign
        z ^= (xb << a) | (xa << b)
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return PauliString(p.n, x, z, sign)


def closed_form_reference(g: StabilizerGraph) -> Tuple[PauliString, ...]:
    """The graph's generators, one neighbor bit at a time."""
    gens = []
    for j in range(g.n):
        a, b, cc = g.neg[j], g.loop[j], g.hollow[j]
        if b:
            x, z = 1 << j, 1 << j
        elif cc:
            x, z = 0, 1 << j
        else:
            x, z = 1 << j, 0
        for k in range(g.n):
            if (g.adj[j] >> k) & 1:
                if g.hollow[k]:
                    x |= 1 << k
                else:
                    z |= 1 << k
        gens.append(PauliString(g.n, x, z, -1 if (a + (b and cc)) % 2 else 1))
    return tuple(gens)


def generator_matrix_error_reference(n: int, rows) -> str | None:
    """The message ``GeneratorMatrix(n, rows)`` must raise, checked pair by
    pair and with a min-based GF(2) rank; None when the rows are valid."""
    for i in range(n):
        for j in range(i + 1, n):
            p, q = rows[i], rows[j]
            if ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1:
                return f"rows {i} and {j} anticommute"
    pivots = []
    for r in rows:
        v = r.x | (r.z << n)
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
    return None if len(pivots) == n else "rows are not independent"


def canonical_blocks_reference(mat, rank: int):
    """(A, B) of a canonical-form matrix, checked one bit at a time."""
    n, r = mat.n, rank
    top_mask = (1 << r) - 1
    tail_mask = ((1 << n) - 1) ^ top_mask
    a_rows, b_rows = [], []
    for i in range(r):
        row = mat.rows[i]
        if row.x & top_mask != (1 << i):
            raise ValueError(f"row {i}: left block is not the identity")
        if row.z & tail_mask:
            raise ValueError(f"row {i}: upper-right z block is not zero")
        a_rows.append((row.x & tail_mask) >> r)
        b_rows.append(row.z & top_mask)
    for i in range(r, n):
        row = mat.rows[i]
        if row.x:
            raise ValueError(f"row {i}: lower x block is not zero")
        if row.z & tail_mask != (1 << i):
            raise ValueError(f"row {i}: lower-right z block is not the identity")
        e = row.z & top_mask
        for c in range(r):
            if ((e >> c) & 1) != ((a_rows[c] >> (i - r)) & 1):
                raise ValueError("lower-left z block is not A^T")
    for i in range(r):
        for j in range(r):
            if ((b_rows[i] >> j) & 1) != ((b_rows[j] >> i) & 1):
                raise ValueError("B block is not symmetric")
    return tuple(a_rows), tuple(b_rows)


def col_swap_reference(rows: list, perm: list, c1: int, c2: int) -> None:
    """Swap columns c1 and c2 of every PauliString in rows, and of perm."""
    for i, r in enumerate(rows):
        x, z = r.x, r.z
        x1, x2 = (x >> c1) & 1, (x >> c2) & 1
        z1, z2 = (z >> c1) & 1, (z >> c2) & 1
        x ^= ((x1 ^ x2) << c1) | ((x1 ^ x2) << c2)
        z ^= ((z1 ^ z2) << c1) | ((z1 ^ z2) << c2)
        rows[i] = PauliString(r.n, x, z, r.sign)
    perm[c1], perm[c2] = perm[c2], perm[c1]


def to_canonical_form_reference(mat):
    """Row reduction to [I A | B 0; 0 0 | A^T I], one PauliString per step."""
    from stabgraph import GeneratorMatrix

    n = mat.n
    rows = list(mat.rows)
    perm = list(mat.qubit_of_column)

    def col_swap(c1: int, c2: int) -> None:
        col_swap_reference(rows, perm, c1, c2)

    def pivot_search(col: int, start: int, part: str):
        for i in range(start, n):
            bits = rows[i].x if part == "x" else rows[i].z
            if (bits >> col) & 1:
                return i
        return None

    rank = 0
    for col in range(n):
        hit = pivot_search(col, rank, "x")
        if hit is None:
            swap_with = None
            for later in range(col + 1, n):
                if pivot_search(later, rank, "x") is not None:
                    swap_with = later
                    break
            if swap_with is None:
                break
            col_swap(col, swap_with)
            hit = pivot_search(col, rank, "x")
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(n):
            if i != rank and (rows[i].x >> col) & 1:
                rows[i] = multiply_reference(rows[i], rows[rank])
        rank += 1
    for col in range(rank, n):
        hit = pivot_search(col, col, "z")
        if hit is None:
            raise ValueError("rows are not an independent commuting set")
        rows[col], rows[hit] = rows[hit], rows[col]
        for i in range(rank, n):
            if i != col and (rows[i].z >> col) & 1:
                rows[i] = multiply_reference(rows[i], rows[col])
    for i in range(rank):
        for col in range(rank, n):
            if (rows[i].z >> col) & 1:
                rows[i] = multiply_reference(rows[i], rows[col])
    out = GeneratorMatrix(n, tuple(rows), tuple(perm))
    canonical_blocks_reference(out, rank)
    return out, rank


def graph_from_generator_matrix_reference(mat) -> StabilizerGraph:
    """Matrix to reduced graph: conjugate every row by every gate, solve
    the signs against a fresh closed form, then relabel bit by bit."""
    canon, rank = to_canonical_form_reference(mat)
    n = mat.n
    rows = list(canon.rows)
    for c in range(rank, n):
        rows = [conjugate_reference(r, "H", c) for r in rows]
    for q, r in enumerate(rows):
        if r.x != 1 << q:
            raise RuntimeError("x block is not the identity after Hadamards")
    loops = [bool((rows[q].z >> q) & 1) for q in range(n)]
    for q, has_loop in enumerate(loops):
        if has_loop:
            if q >= rank:
                raise RuntimeError("hollow column acquired a loop")
            rows = [conjugate_reference(r, "S", q) for r in rows]
    adj = []
    for q, r in enumerate(rows):
        if (r.z >> q) & 1:
            raise RuntimeError("adjacency diagonal not cleared")
        adj.append(r.z)
    hollow = tuple(q >= rank for q in range(n))
    unsigned = StabilizerGraph(n, hollow, tuple(loops), (False,) * n, tuple(adj))
    neg = []
    for got, want in zip(closed_form_reference(unsigned), canon.rows):
        if (got.x, got.z) != (want.x, want.z):
            raise RuntimeError("closed-form generator mismatch in sign solve")
        neg.append(got.sign != want.sign)
    colgraph = StabilizerGraph(n, hollow, tuple(loops), tuple(neg), tuple(adj))
    if closed_form_reference(colgraph) != canon.rows:
        raise RuntimeError("sign solve failed to reproduce the canonical rows")
    perm = canon.qubit_of_column
    out = [[False] * n, [False] * n, [False] * n, [0] * n]
    for c in range(n):
        q = perm[c]
        out[0][q], out[1][q], out[2][q] = colgraph.hollow[c], colgraph.loop[c], colgraph.neg[c]
        for c2 in range(n):
            if (colgraph.adj[c] >> c2) & 1:
                out[3][q] |= 1 << perm[c2]
    return StabilizerGraph(n, *map(tuple, out))


# --- regex-token references for the graph and circuit parsers ---------------
#
# The engine tokenizes a line with ``str.split()`` and computes a token's
# column only for an error.  These are the parsers it replaced, which find
# every token and its column with a regex; the tests hold the engine to
# their results, messages and positions exactly.

_LINE_BREAKS_REFERENCE = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _significant_lines_reference(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        if raw.strip():
            yield lineno, raw


def _tokens_reference(raw: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw)]


def _int_token_reference(tok: str, col: int, lineno: int, what: str) -> int:
    # isdigit alone admits characters such as '²' that int() rejects.
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"{what} must be a non-negative integer, got {tok!r}", lineno, col)
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} has too many digits ({len(tok)})", lineno, col) from None


# ASCII digits only, as in the engine: \d would also take digits such as '٣'.
_SCRIPT_TOKEN_REFERENCE = re.compile(r"(?:(H|S|Z):([0-9]+)|CZ:([0-9]+),([0-9]+))\Z")


def _script_qubit_reference(digits: str) -> int:
    from stabgraph.cli import ScriptError

    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ScriptError(f"qubit index has too many digits ({len(digits)})") from None


def parse_script_reference(script: str, n: int) -> list:
    """Reference for ``cli.parse_script``: every token matched by the token
    regex and read through its groups, the walker the id table replaced."""
    from stabgraph.cli import ScriptError

    gates = []
    for tok in script.split():
        m = _SCRIPT_TOKEN_REFERENCE.match(tok)
        if m is None:
            raise ScriptError(f"bad script token {tok!r}")
        if m.group(1):
            j = _script_qubit_reference(m.group(2))
            if j >= n:
                raise ScriptError(f"token {tok!r}: qubit {j} out of range for n={n}")
            gates.append((m.group(1), (j,)))
        else:
            i, j = _script_qubit_reference(m.group(3)), _script_qubit_reference(m.group(4))
            if i >= n or j >= n:
                raise ScriptError(f"token {tok!r}: qubit out of range for n={n}")
            if i == j:
                raise ScriptError(f"token {tok!r}: CZ qubits must differ")
            gates.append(("CZ", (i, j)))
    return gates


def parse_graph_reference(text: str) -> StabilizerGraph:
    lines = _significant_lines_reference(text)
    try:
        lineno, raw = next(lines)
    except StopIteration:
        raise ParseError("empty graph description", 1, 1) from None
    toks = _tokens_reference(raw)
    if toks[0][0] != "nodes":
        raise ParseError(f"expected 'nodes <n>' header, got {toks[0][0]!r}", lineno, toks[0][1])
    if len(toks) != 2:
        raise ParseError("header must be exactly 'nodes <n>'", lineno, toks[-1][1])
    n = _int_token_reference(toks[1][0], toks[1][1], lineno, "node count")
    if n < 1:
        raise ParseError("node count must be positive", lineno, toks[1][1])
    if n > 1 + sum(map(text.count, _LINE_BREAKS_REFERENCE)):
        raise ParseError(
            f"node count {n} is larger than the number of lines", lineno, toks[1][1]
        )

    seen: dict[int, bool] = {}
    hollow = [False] * n
    loop = [False] * n
    neg = [False] * n
    adj = [0] * n

    def node_id(tok: str, col: int, lineno: int) -> int:
        j = _int_token_reference(tok, col, lineno, "node id")
        if j >= n:
            raise ParseError(f"node id {j} out of range for nodes {n}", lineno, col)
        return j

    for lineno, raw in lines:
        toks = _tokens_reference(raw)
        kind, col = toks[0]
        if kind == "node":
            if len(toks) < 3:
                raise ParseError("node line needs an id and a fill", lineno, col)
            j = node_id(toks[1][0], toks[1][1], lineno)
            if j in seen:
                raise ParseError(f"duplicate node line for id {j}", lineno, toks[1][1])
            seen[j] = True
            fill, fcol = toks[2]
            if fill not in ("solid", "hollow"):
                raise ParseError(f"fill must be 'solid' or 'hollow', got {fill!r}", lineno, fcol)
            hollow[j] = fill == "hollow"
            for flag, col2 in toks[3:]:
                if flag == "loop" and not loop[j]:
                    loop[j] = True
                elif flag == "neg" and not neg[j]:
                    neg[j] = True
                else:
                    raise ParseError(f"bad or repeated node flag {flag!r}", lineno, col2)
        elif kind == "edge":
            if len(toks) != 3:
                raise ParseError("edge line must be 'edge <i> <j>'", lineno, col)
            i = node_id(toks[1][0], toks[1][1], lineno)
            j = node_id(toks[2][0], toks[2][1], lineno)
            if i >= j:
                raise ParseError(f"edge endpoints must satisfy i < j, got {i} {j}", lineno, toks[1][1])
            if (adj[i] >> j) & 1:
                raise ParseError(f"duplicate edge {i} {j}", lineno, toks[1][1])
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        else:
            raise ParseError(f"expected 'node' or 'edge', got {kind!r}", lineno, col)

    missing = [j for j in range(n) if j not in seen]
    if missing:
        shown = ", ".join(map(str, missing[:10]))
        more = len(missing) - 10
        if more > 0:
            shown += f" and {more} more"
        raise ParseError(f"missing node line(s) for {len(missing)} id(s): {shown}", 1, 1)
    return StabilizerGraph(n, tuple(hollow), tuple(loop), tuple(neg), tuple(adj))


def parse_circuit_reference(text: str) -> GraphFormCircuit:
    lines = _significant_lines_reference(text)
    try:
        lineno, raw = next(lines)
    except StopIteration:
        raise ParseError("empty circuit description", 1, 1) from None
    toks = _tokens_reference(raw)
    if toks[0][0] != "qubits":
        raise ParseError(f"expected 'qubits <n>' header, got {toks[0][0]!r}", lineno, toks[0][1])
    if len(toks) != 2:
        raise ParseError("header must be exactly 'qubits <n>'", lineno, toks[-1][1])
    n = _int_token_reference(toks[1][0], toks[1][1], lineno, "qubit count")
    if n < 1:
        raise ParseError("qubit count must be positive", lineno, toks[1][1])
    if n > 1 << 20:
        raise ParseError(f"qubit count {n} is above the limit of {1 << 20}", lineno, toks[1][1])

    cz: set[tuple[int, int]] = set()
    singles = {"Z": set(), "S": set(), "H": set()}

    def qubit(tok: str, col: int, lineno: int) -> int:
        q = _int_token_reference(tok, col, lineno, "qubit")
        if q >= n:
            raise ParseError(f"qubit {q} out of range for qubits {n}", lineno, col)
        return q

    for lineno, raw in lines:
        toks = _tokens_reference(raw)
        kind, col = toks[0]
        if kind == "CZ":
            if len(toks) != 3:
                raise ParseError("CZ line must be 'CZ <i> <j>'", lineno, col)
            i = qubit(toks[1][0], toks[1][1], lineno)
            j = qubit(toks[2][0], toks[2][1], lineno)
            if i == j:
                raise ParseError("CZ qubits must differ", lineno, toks[1][1])
            pair = (min(i, j), max(i, j))
            if pair in cz:
                raise ParseError(f"duplicate gate line CZ {pair[0]} {pair[1]}", lineno, col)
            cz.add(pair)
        elif kind in singles:
            if len(toks) != 2:
                raise ParseError(f"{kind} line must be '{kind} <i>'", lineno, col)
            q = qubit(toks[1][0], toks[1][1], lineno)
            if q in singles[kind]:
                raise ParseError(f"duplicate gate line {kind} {q}", lineno, col)
            singles[kind].add(q)
        else:
            raise ParseError(f"unknown gate line {kind!r}", lineno, col)
    return GraphFormCircuit(
        n,
        cz=frozenset(cz),
        z_set=frozenset(singles["Z"]),
        s_set=frozenset(singles["S"]),
        h_set=frozenset(singles["H"]),
    )


def run_under_python_O(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` (dedented) in a ``python -O`` child that imports this
    checkout's ``stabgraph``, capturing its output."""
    src = str(Path(stabgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
