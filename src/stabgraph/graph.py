"""Decorated graphs for stabilizer states, plus the primitive rewrite moves.

A state is drawn as a simple graph whose nodes carry three decorations:

* fill: solid or hollow (hollow marks a terminal Hadamard on that qubit),
* an optional loop (a terminal phase gate),
* an optional negative sign (a terminal Z).

The three decorations are stored as bitmasks, the graph's own fields:
bit j of ``hollow_mask``, ``loop_mask`` and ``neg_mask`` is node j's
fill, loop and sign, so a rule that flips a decoration over a node or a
neighborhood is one operation on a mask.  ``hollow``, ``loop`` and
``neg`` are read-only tuple views of the masks, built on first use.
Edges live in ``adj`` as one bitmask per node (bit k of ``adj[j]`` means
an edge j-k); the matrix is symmetric with a zero diagonal, and loops are
kept separately in ``loop_mask``.  A graph is *reduced* when no hollow
node has a loop and no two hollow nodes are adjacent; every state has a
reduced drawing, which is what the reduced rewrite rules operate on.

All operations return new graphs; instances are frozen and hashable, and
``==`` and ``hash`` run over ``n``, the three masks and ``adj``.

Validation happens at the trust boundary.  The public constructor takes
the flags as sequences (accepting only entries equal to 0 or 1) and ``n``
and the adjacency rows as anything ``operator.index`` takes, checks the
lengths, the adjacency range, the zero diagonal and symmetry, and raises
``ValueError`` on bad input.  ``build`` (and ``empty``, which is
``build(n)``) reads ``n`` and each node id the same way and sets its bit
as it reads it; its own checks give every property the constructor
checks, so it builds with ``_trusted``.  Node ids passed to ``has_edge``
and the rewrites are checked the same way and used as Python ints.
The adjacency is checked by ``_symmetric_block``, which picks its route
from the number of rows: below ``_WALK_BELOW`` rows it walks them one by
one (``_first_defect``), from there on it compares the edge list with its
transpose at C speed, since the walk is then slower than the transpose's
fixed numpy cost.  Only rows that fail that check are walked, and the
first defective row names the error.
Rewrites of an already-valid graph build their results with the
unchecked ``StabilizerGraph._trusted`` constructor, so a gate costs about
the degree of its target rather than a full symmetry check.
``apply_sequence`` checks the graph it returns once, on the rows its word
wrote (``_valid_rewrite``: rows are immutable ints, so a written row is
one that is no longer the input's own object), and on any failure runs
the full ``_validate()``, which names the defect.  ``parse_graph`` builds
with ``_trusted`` too, since its own bulk checks already give every
property the constructor checks.

Rows are walked bit by bit only when they are sparse.  ``_bits`` lists the
set bits of a mask with a per-bit loop below ``_UNPACK_AT`` set bits and
by unpacking its bytes with numpy from there on, so the dense rows of a
reduced graph (reducing a mean-degree-6 graph at n=1024 gives rows of
hundreds of bits) cost a few C-speed calls each.  ``edges()`` lists each
row's neighbors above it in one such call.  Complementing along an edge
(j, k) makes three, one per class of the nodes that see j only, k only,
or both, and toggles each class's rows against the other two classes.

Every rewrite, the gate rules of ``transforms`` and the E moves of
``equivalence`` alike, runs on one scratch state, ``_Masks``: the source's
three flag masks beside a list of its adjacency rows, under the graph's
own field names.  A one-gate call copies its graph into a ``_Masks`` and
``freeze()`` stores the masks as they are as the fields of the result.
A gate word copies once: ``apply_sequence`` runs every gate's rule in
place on one ``_Masks`` and freezes it once at the end, so a gate costs
about the degree of its target and not the O(n) copy of the rows.

The reduced invariant is checked after every reduced rule and after
``to_reduced``, with an explicit ``InvariantError`` that survives
``python -O``.  What is known about it is one *suspect mask*, ``_suspect``,
kept on the frozen graph and on the word's ``_Masks``: every hollow node
with a loop, and at least one end of every hollow-hollow edge, is in it.
``-1`` means every node, which is what the constructor, the parsers and
``_trusted`` start from.  ``is_reduced`` shrinks the mask to its
``_offenders`` (the hollow nodes in it with a loop or a hollow neighbor)
and answers whether none is left; a mask of 0 answers at once.  Each
rewrite's ``_Masks.settle()`` adds the nodes whose fill, loop or
adjacency row it wrote (the ``_Masks`` methods record the rows they write
in ``rows``): a clash can only appear at a written node, so the rule
still holds, and the next check costs the number of written hollow nodes,
not n.  ``apply_sequence`` backs this up, on the graph it returns, with
one full ``_offenders`` scan that ignores the mask.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in a rewrite, not bad input."""


# Masks with at least this many set bits are listed by unpacking their
# bytes with numpy, which costs a few microseconds whatever the count; below
# it the per-bit loop, at a fraction of a microsecond per set bit, is faster.
_UNPACK_AT = 16


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative ``mask``, in ascending order."""
    if mask.bit_count() < _UNPACK_AT:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little").view(bool).nonzero()[0].tolist()


# Maps every byte value to ASCII '0' (zero) or '1' (non-zero), and back.
_FLAG_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask(flags: Sequence[bool]) -> int:
    """Bitmask with bit j set where ``flags[j]`` is true; needs len >= 1."""
    return int(bytes(flags).translate(_FLAG_DIGITS)[::-1], 2)


def _flags(mask: int, width: int) -> bytes:
    """Byte k is bit k of ``mask`` (0 or 1), the inverse of ``_mask``; width >= 1."""
    return format(mask, f"0{width}b")[::-1].encode().translate(_DIGIT_FLAGS)


# The node decorations; flag ``name`` is stored as the field ``name_mask``.
_FLAGS = ("hollow", "loop", "neg")


def _bool_flags(name: str, flags: Iterable[object]) -> Tuple[bool, ...]:
    """``flags`` as a tuple of Python bools; each entry must equal 0 or 1."""
    flags = tuple(flags)
    if set(map(type, flags)) <= {bool}:
        return flags
    out = []
    for j, f in enumerate(flags):
        if not (f == 0 or f == 1):
            raise ValueError(f"{name}[{j}] must be 0 or 1, got {f!r}")
        out.append(bool(f))
    return tuple(out)


def _index_rows(adj: Iterable[object]) -> Tuple[int, ...]:
    """``adj`` as a tuple of Python ints; each row must be an integer."""
    adj = tuple(adj)
    if set(map(type, adj)) <= {int}:
        return adj
    out = []
    for j, row in enumerate(adj):
        try:
            out.append(operator.index(row))
        except TypeError:
            raise ValueError(
                f"adjacency row {j} must be an integer, got {row!r}"
            ) from None
    return tuple(out)


# Below this many rows, ``_symmetric_block`` walks the rows one by one
# (``_first_defect``); from it on, it compares the transpose at C speed,
# whose numpy calls cost a fixed 10-15 us.  The measured crossover, on a
# 2-core Xeon: at 24 rows the walk took 11-68 us and the transpose 21-70
# us, from mean degree 2 to edge density 0.7; at 32 rows the transpose
# was faster on the dense rows.
_WALK_BELOW = 32


def _adjacency_error(adj: Sequence[int], n: int) -> Optional[str]:
    """Why the n rows ``adj`` are no adjacency matrix, or None if they are.

    A valid matrix is recognised by ``_symmetric_block``, and only a
    rejected one is walked by ``_first_defect``, to name its first defect;
    a rejected matrix in which the walk finds no defect means the two
    checks disagree, which raises ``InvariantError``.
    """
    if _symmetric_block(range(n), adj, adj, n):
        return None
    message = _first_defect(range(n), adj, adj, n)
    if message is None:
        raise InvariantError("transpose check rejected rows the row walk accepts")
    return message


def _first_defect(
    ids: Iterable[int], rows: Sequence[int], adj: Sequence[int], n: int
) -> Optional[str]:
    """The first defect of ``rows``, the rows of the nodes ``ids`` (ascending)
    of the n-node rows ``adj``, or None: a row out of range, its diagonal
    entry, or its first neighbor k whose row ``adj[k]`` lacks the node."""
    full = (1 << n) - 1
    for j, row in zip(ids, rows):
        if not 0 <= row <= full:
            return f"adjacency row {j} out of range"
        if (row >> j) & 1:
            return f"node {j} has a diagonal adjacency entry"
        for k in _bits(row):
            if not (adj[k] >> j) & 1:
                return f"adjacency is not symmetric at ({j}, {k})"
    return None


def _symmetric_block(ids, rows: Sequence[int], adj: Sequence[int], n: int) -> bool:
    """True when ``rows``, the rows of the nodes ``ids`` (ascending) of the
    n-node rows ``adj``, with bits among those nodes only, are in range,
    have a zero diagonal and equal their transpose.

    Below ``_WALK_BELOW`` rows the row walk ``_first_defect`` answers.
    From it on, set bit k of row j is coded j*n + k; the rows equal their
    transpose when the codes k*n + j of the transposed pairs, sorted, are
    the same array.  This costs O(len(ids)) Python steps and C-speed work
    per edge, in memory that grows with the edges, not with n**2.
    """
    if len(rows) < _WALK_BELOW:
        return _first_defect(ids, rows, adj, n) is None
    if not (min(rows) >= 0 and max(rows) < 1 << n):
        return False
    nbrs = list(map(_bits, rows))
    src = np.repeat(np.asarray(ids, np.int64), list(map(len, nbrs)))
    dst = np.fromiter(chain.from_iterable(nbrs), np.int64, len(src))
    codes = src * n + dst  # ascending: rows in order, each row ascending
    return not (src == dst).any() and bool((codes == np.sort(dst * n + src)).all())


def _valid_rewrite(out: "StabilizerGraph", g: "StabilizerGraph") -> bool:
    """True when ``out``, written from the valid graph ``g`` row by row,
    is valid too, checked on the rows it wrote.

    A row is an int and ints are immutable, so every row a rewrite wrote
    is a new object: the written rows W are those that are not ``g``'s
    own, found at C speed.  The other rows are ``g``'s, valid, so ``out``
    is valid exactly when its flag masks lie in [0, 2**n), each row in W
    keeps its bits outside W (a row out of range, or negative, changes
    bits outside W too), and the W x W block is symmetric with a zero
    diagonal (``_symmetric_block``).  Past one C-speed pass over the n
    rows, this costs the rows in W.
    """
    n = g.n
    if len(out.adj) != n or (out.hollow_mask | out.loop_mask | out.neg_mask) >> n:
        return False
    written = _mask(list(map(operator.is_not, out.adj, g.adj)))
    ids = _bits(written)
    rows = list(map(out.adj.__getitem__, ids))
    outside = ~written
    if any((new ^ old) & outside for new, old in zip(rows, map(g.adj.__getitem__, ids))):
        return False
    block = [row & written for row in rows]
    return _symmetric_block(ids, block, out.adj, n)


@dataclass(frozen=True, init=False, repr=False)
class StabilizerGraph:
    """A decorated graph describing a stabilizer state: ``n``, the three flag
    masks and the adjacency rows."""

    n: int
    hollow_mask: int
    loop_mask: int
    neg_mask: int
    adj: Tuple[int, ...]

    # The suspect mask (-1: every node).  Not annotated, so it is no
    # dataclass field and leaves ==, hash and repr alone.
    _suspect = -1

    # Read-only tuple views of the flag masks, built on first use.
    hollow = cached_property(lambda self: tuple(map(bool, _flags(self.hollow_mask, self.n))))
    loop = cached_property(lambda self: tuple(map(bool, _flags(self.loop_mask, self.n))))
    neg = cached_property(lambda self: tuple(map(bool, _flags(self.neg_mask, self.n))))

    def __init__(
        self, n: int, hollow: Iterable, loop: Iterable, neg: Iterable, adj: Iterable
    ) -> None:
        n = _node_id(n, "n")
        flags = [_bool_flags(name, f) for name, f in zip(_FLAGS, (hollow, loop, neg))]
        adj = _index_rows(adj)
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        for name, f in zip(_FLAGS, flags):
            if len(f) != n:
                raise ValueError(f"{name} must have length n={n}")
        hollow, loop, neg = map(_mask, flags)
        self.__dict__.update(n=n, hollow_mask=hollow, loop_mask=loop, neg_mask=neg, adj=adj)
        self._validate()

    def _validate(self) -> None:
        """Raise ValueError unless the fields describe a valid graph."""
        for name in _FLAGS:
            if getattr(self, f"{name}_mask") >> self.n:
                raise ValueError(f"{name} mask has bits at or above n={self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"adj must have length n={self.n}")
        message = _adjacency_error(self.adj, self.n)
        if message is not None:
            raise ValueError(message)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in ("n", *_FLAGS, "adj"))
        return f"StabilizerGraph({shown})"

    @classmethod
    def _trusted(
        cls, n: int, hollow: int, loop: int, neg: int, adj: Tuple[int, ...], suspect: int = -1
    ) -> "StabilizerGraph":
        """Build from flag masks without validation, for rewrites of a graph
        already valid.  ``suspect`` is the suspect mask, when the caller
        knows a narrower one than every node."""
        g = object.__new__(cls)
        g.__dict__.update(
            n=n, hollow_mask=hollow, loop_mask=loop, neg_mask=neg, adj=adj, _suspect=suspect
        )
        return g

    @classmethod
    def empty(cls, n: int) -> "StabilizerGraph":
        """All nodes solid, no loops, no signs, no edges (the |+...+> state)."""
        return cls.build(n)

    @classmethod
    def build(
        cls,
        n: int,
        *,
        edges: Iterable[Tuple[int, int]] = (),
        hollow: Iterable[int] = (),
        loops: Iterable[int] = (),
        neg: Iterable[int] = (),
    ) -> "StabilizerGraph":
        """Convenience constructor from node index sets and an edge list;
        ``n`` and every id are read by ``_node_id``."""
        n = _node_id(n, "n")
        adj = [0] * n
        for edge in edges:
            i, j = map(_node_id, edge)
            if i == j:
                raise ValueError(f"self edge at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        flags = []
        for name, idxs in (("hollow", hollow), ("loops", loops), ("neg", neg)):
            # Packed once at the end: a mask |= per id would cost O(n) each.
            f = [0] * n
            for j in map(_node_id, idxs):
                if not 0 <= j < n:
                    raise ValueError(f"{name} index {j} out of range")
                f[j] = 1
            flags.append(f)
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        return cls._trusted(n, *map(_mask, flags), tuple(adj))

    def edges(self) -> list[Tuple[int, int]]:
        """Every edge (i, j) with i < j, in lexicographic order."""
        return [
            (i, j)
            for i, row in enumerate(self.adj)
            for j in _bits(row >> (i + 1) << (i + 1))
        ]

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[_check_node(self, i)] >> _check_node(self, j) & 1)


class _Masks:
    """Scratch state of every rewrite: the fills, loops and signs as bitmasks
    (bit j is node j's flag) and the adjacency rows as a list.

    It reads like a graph: ``n``, ``hollow_mask``, ``loop_mask``,
    ``neg_mask``, ``adj`` and the suspect mask ``_suspect`` carry the
    graph's own names, so the rule pickers of ``transforms``,
    ``is_reduced`` and ``_check_node`` take either.  A rule is then a few
    whole-row operations: advancing the loops of the nodes in a mask is
    ``advance(mask)``, flipping their signs is ``neg_mask ^= mask``, and
    the common neighbors of j and k are ``adj[j] & adj[k]``.  Edge
    complementation, and T(x) between its targets' open neighborhoods,
    are ``toggle_between`` on three neighborhood classes.
    The methods that write adjacency rows record them in ``rows``.

    ``settle()`` ends one rewrite: it adds the nodes whose fill, loop or
    row the rewrite wrote to the suspect mask.  A hollow node with a loop,
    or a hollow-hollow edge, that the rewrite did not write at was there
    before, so the mask keeps its rule.  ``freeze()`` settles and stores
    the three masks and the suspect mask in a new graph.  A gate word
    drives one ``_Masks`` through all its gates, settling after each, and
    freezes once at the end.
    """

    __slots__ = ("n", "hollow_mask", "loop_mask", "neg_mask", "adj", "rows",
                 "_suspect", "_hollow_at", "_loop_at")

    def __init__(self, g: StabilizerGraph) -> None:
        self.n = g.n
        self.hollow_mask = self._hollow_at = g.hollow_mask
        self.loop_mask = self._loop_at = g.loop_mask
        self.neg_mask = g.neg_mask
        self.adj = list(g.adj)
        self.rows = 0
        self._suspect = g._suspect

    def advance(self, nodes: int) -> None:
        # One phase gate on each node in the mask: add a loop, or trade an
        # existing loop for a sign flip (two loops make a Z).
        self.neg_mask ^= self.loop_mask & nodes
        self.loop_mask ^= nodes

    def toggle_edge(self, i: int, j: int) -> None:
        self.adj[i] ^= 1 << j
        self.adj[j] ^= 1 << i
        self.rows |= (1 << i) | (1 << j)

    def local_complement(self, j: int) -> None:
        # E1 and E(i) spend most of their time here on dense rows: one
        # XOR per neighbor row, with the row's own (diagonal) bit, which
        # ``nb`` has, left out of the toggle.
        adj = self.adj
        nb = adj[j]
        self.rows |= nb
        for l in _bits(nb):
            adj[l] ^= nb ^ (1 << l)

    def toggle_between(self, p: int, q: int, r: int) -> None:
        # Toggle every edge between two of the three disjoint node masks:
        # each row of a class gains the other two classes, so no row's
        # delta holds the row's own (diagonal) bit.
        adj = self.adj
        for cls, delta in ((p, q | r), (q, p | r), (r, p | q)):
            for l in _bits(cls):
                adj[l] ^= delta
        self.rows |= p | q | r

    def local_complement_edge(self, j: int, k: int) -> None:
        # Complementing on j, k, j toggles the edges between the nodes of
        # the closed neighborhoods a and b that see j only, k only, or both.
        a = self.adj[j] | (1 << j)
        b = self.adj[k] | (1 << k)
        self.toggle_between(a & ~b, b & ~a, a & b)

    def settle(self) -> None:
        """Add the nodes the last rewrite wrote to the suspect mask."""
        hollow, loop = self.hollow_mask, self.loop_mask
        self._suspect |= self.rows | (hollow ^ self._hollow_at) | (loop ^ self._loop_at)
        self.rows, self._hollow_at, self._loop_at = 0, hollow, loop

    def result(self, g: "StabilizerGraph | _Masks") -> "StabilizerGraph | _Masks":
        """What a rewrite of ``g`` returns, settled: this ``_Masks`` when
        ``g`` is it (a word runs in place), else a new graph."""
        self.settle()
        if g is self:
            return self
        return StabilizerGraph._trusted(
            self.n, self.hollow_mask, self.loop_mask, self.neg_mask, tuple(self.adj),
            self._suspect,
        )

    def freeze(self) -> StabilizerGraph:
        return self.result(None)


def _scratch(g: "StabilizerGraph | _Masks") -> _Masks:
    """The ``_Masks`` a rewrite of ``g`` writes: ``g`` itself when it is
    one (a word in progress), else a fresh copy of graph ``g``."""
    return g if type(g) is _Masks else _Masks(g)


def _node_id(j: object, what: str = "node id") -> int:
    """``j`` as a Python int by ``operator.index``; anything else raises ValueError."""
    try:
        return operator.index(j)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {j!r}") from None


def _check_node(g: StabilizerGraph, j: object) -> int:
    """``j`` as a Python int (see ``_node_id``) that is a node of ``g``."""
    if type(j) is not int:
        j = _node_id(j)
    if not 0 <= j < g.n:
        raise ValueError(f"node {j} out of range for n={g.n}")
    return j


def is_reduced(g: StabilizerGraph) -> bool:
    """True when no hollow node has a loop or a hollow neighbor.

    Only the nodes in the suspect mask of ``g`` (a graph, or a word's
    ``_Masks``) can break this, so the mask is shrunk to its offenders and
    the answer is whether none is left: a graph from the constructor or a
    parser pays one full scan on its first call, a rewrite of a reduced
    graph the number of hollow nodes it wrote, and a mask of 0 nothing.
    """
    suspect = g._suspect
    if suspect:
        # Only hollow nodes offend: a rewrite that wrote none skips the
        # scan, which took a 256-gate reduced word at n=12 from 2.33 to
        # 2.19 us a gate (medians of 10 alternating in-process pairs).
        suspect = _offenders(g, suspect) if suspect & g.hollow_mask else 0
        object.__setattr__(g, "_suspect", suspect)  # past the frozen dataclass
    return not suspect


def _offenders(g: StabilizerGraph, nodes: int) -> int:
    """Mask of the hollow nodes in the mask ``nodes`` (-1: every node) that
    have a loop or a hollow neighbor; costs the number of those hollow
    nodes."""
    hollow, adj = g.hollow_mask, g.adj
    # Only nodes: a flag bit at or above n is _validate's to report.
    nodes &= hollow & ((1 << g.n) - 1)
    out = nodes & g.loop_mask
    for j in _bits(nodes):
        if adj[j] & hollow:
            out |= 1 << j
    return out


def neighbors(g: StabilizerGraph, j: int) -> set[int]:
    j = _check_node(g, j)
    return set(_bits(g.adj[j]))


def local_complement(g: StabilizerGraph, j: int) -> StabilizerGraph:
    """Complement the subgraph induced by the neighbors of j."""
    j = _check_node(g, j)
    m = _Masks(g)
    m.local_complement(j)
    return m.freeze()


def _check_distinct(
    g: StabilizerGraph, j: object, k: object, what: str = "decision nodes"
) -> Tuple[int, int]:
    """Two distinct nodes of ``g``, as Python ints (see ``_check_node``)."""
    j, k = _check_node(g, j), _check_node(g, k)
    if j == k:
        raise ValueError(f"{what} must differ")
    return j, k


def local_complement_edge(g: StabilizerGraph, j: int, k: int) -> StabilizerGraph:
    """Complement along the pair (j, k).

    For a connected pair this swaps the private neighborhoods of j and k
    and complements edges between nodes whose decision neighborhoods are
    non-empty and different; it equals complementing on j, then k, then j.
    """
    j, k = _check_distinct(g, j, k)
    m = _Masks(g)
    m.local_complement_edge(j, k)
    return m.freeze()


def advance_loop(g: StabilizerGraph, j: int) -> StabilizerGraph:
    """Add a loop at j, or trade an existing loop for a sign flip."""
    j = _check_node(g, j)
    m = _Masks(g)
    m.advance(1 << j)
    return m.freeze()


def flip_fill(g: StabilizerGraph, j: int) -> StabilizerGraph:
    j = _check_node(g, j)
    m = _Masks(g)
    m.hollow_mask ^= 1 << j
    return m.freeze()


def flip_sign(g: StabilizerGraph, j: int) -> StabilizerGraph:
    j = _check_node(g, j)
    m = _Masks(g)
    m.neg_mask ^= 1 << j
    return m.freeze()
