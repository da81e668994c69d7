"""Signed Pauli operators in binary (x|z) form and generator matrices.

An n-qubit Pauli operator is stored as two n-bit masks plus a real sign.
Bit j of each mask refers to qubit j, and the single-qubit letters map as

    (x, z) = (0, 0) -> I    (1, 0) -> X    (1, 1) -> Y    (0, 1) -> Z

The stored operator is ``sign * i^{|x & z|} * X^x Z^z``, so the (1, 1)
combination is exactly Y and every stored operator is Hermitian.  Products
of commuting operators therefore keep a real sign; multiplying a pair that
anticommutes would need an imaginary phase and raises instead.

A stabilizer state on n qubits is described by a ``GeneratorMatrix`` of n
independent, pairwise commuting rows.  ``to_canonical_form`` row-reduces a
generator matrix over GF(2) into the block pattern

    [ I A | B 0 ]
    [ 0 0 | A^T I ]

(x parts left of the bar, z parts right, B symmetric), recording any qubit
swaps in ``qubit_of_column``.  This shape is the entry point for turning a
generator matrix into a decorated graph.  The reduction itself
(``_canonical_rows``) moves no column; only ``to_canonical_form`` applies
the swaps, once, at the end.

``PauliString`` is the public type.  Internally, products, conjugations
and the canonical form run on packed ``(x, z, sign)`` integer rows, with
``multiply``, ``conjugate`` and ``to_canonical_form`` as thin wrappers, and
the ``GeneratorMatrix`` checks read the bit matrix through its column masks.
They run once, when a matrix is built from outside.  ``n`` (of a
``PauliString`` too) and the qubit labels may be numpy ints, read by
``graph._node_id``, and the rows any iterable, stored as a tuple.
``to_canonical_form`` builds with the unchecked ``GeneratorMatrix._trusted``:
its ``canonical_blocks`` self-check implies independent (identity blocks)
and commuting (B = B^T, A^T below) rows.
Labels and ``textio``'s matrix text share one IXYZ codec, ``_decode`` and
``_encode``, which turn a whole row of letters into (x, z) masks and back
at C speed; a qubit's letter is ``_LETTERS[x + 2z]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import xor
from typing import Iterable, Optional, Sequence, Tuple

from .graph import _bits, _flags, _mask, _node_id

GATE_ARITY = {"H": 1, "S": 1, "Z": 1, "CZ": 2}

_LETTERS = "IXZY"  # the IXYZ codec: a qubit's letter is _LETTERS[x + 2z]
_BAD_LETTER = re.compile(r"[^IXYZ]")  # the first character that is no letter
_X_DIGITS = bytes.maketrans(b"IXYZ", b"0110")  # each letter's x bit as a digit
_Z_DIGITS = bytes.maketrans(b"IXYZ", b"0011")  # and its z bit
_LETTER_OF_CODE = bytes.maketrans(bytes(range(4)), _LETTERS.encode())
Row = Tuple[int, int, int]  # a packed PauliString: (x, z, sign)


@dataclass(frozen=True)
class PauliString:
    """A signed n-qubit Pauli operator."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            object.__setattr__(self, "n", _node_id(self.n, "n"))
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        if not 0 <= self.x < (1 << self.n):
            raise ValueError(f"x mask {self.x:#x} out of range for n={self.n}")
        if not 0 <= self.z < (1 << self.n):
            raise ValueError(f"z mask {self.z:#x} out of range for n={self.n}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 1)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from text such as ``+XXZ`` or ``-IZ`` (qubit 0 first)."""
        if not label:
            raise ValueError("empty Pauli label")
        sign = -1 if label[0] == "-" else 1
        body = label[1:] if label[0] in "+-" else label
        bad = _BAD_LETTER.search(body)
        if bad:
            raise ValueError(f"bad Pauli letter {bad.group()!r} in {label!r}")
        return cls(len(body), *_decode(body), sign)

    def letter(self, j: int) -> str:
        j = _node_id(j, "qubit")
        if not 0 <= j < self.n:
            raise ValueError(f"qubit {j} out of range for n={self.n}")
        return _LETTERS[(self.x >> j & 1) + 2 * (self.z >> j & 1)]

    def label(self) -> str:
        return ("+" if self.sign > 0 else "-") + _encode(self.x, self.z, self.n)

    __str__ = label


def _decode(body: str) -> tuple[int, int]:
    """(x, z) of IXYZ letters that ``_BAD_LETTER`` passed (empty: (0, 0))."""
    digits = body[::-1].encode("ascii") or b"0"  # letter j is the digit of 2^j
    return int(digits.translate(_X_DIGITS), 2), int(digits.translate(_Z_DIGITS), 2)


def _encode(x: int, z: int, n: int) -> str:
    """The IXYZ letters of an n-qubit row (n >= 1), qubit 0 first."""
    code = int.from_bytes(_flags(x, n), "little") + 2 * int.from_bytes(_flags(z, n), "little")
    return code.to_bytes(n, "little").translate(_LETTER_OF_CODE).decode("ascii")


def skew_product(p: PauliString, q: PauliString) -> int:
    """Symplectic (commutation) parity: 0 if p and q commute, 1 if not."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1


def _multiply(p: Row, q: Row) -> Row:
    """Packed product p*q of two commuting rows (see ``multiply``)."""
    px, pz, ps = p
    qx, qz, qs = q
    x = px ^ qx
    z = pz ^ qz
    # Phase of the bitwise product, as a power of i mod 4.
    t = (
        (px & pz).bit_count()
        + (qx & qz).bit_count()
        + 2 * (pz & qx).bit_count()
        - (x & z).bit_count()
    ) % 4
    if t % 2:
        raise ValueError("operands anticommute; product phase is imaginary")
    return x, z, ps * qs * (1 if t == 0 else -1)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Product p*q of two commuting Pauli operators.

    Raises ValueError when p and q anticommute, since the product would
    then carry an imaginary phase that a signed operator cannot hold.
    """
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return PauliString(p.n, *_multiply((p.x, p.z, p.sign), (q.x, q.z, q.sign)))


def _gate_arity(gate: str, targets: object) -> Sequence:
    """A gate's targets as a sequence (a bare id is one target): a
    ``GATE_ARITY`` gate with that many targets, or ValueError."""
    arity = GATE_ARITY.get(gate)
    if arity is None:
        raise ValueError(f"unknown gate {gate!r}")
    if type(targets) is not tuple and not hasattr(targets, "__len__"):
        targets = (targets,)
    if len(targets) != arity:
        raise ValueError(f"{gate} takes {arity} target(s), got {len(targets)}")
    return targets


def _gate_targets(gate: str, targets: object, n: int) -> Sequence[int]:
    """``_gate_arity``'s targets as Python ints (``graph._node_id``), each
    below n and, for CZ, distinct, or ValueError."""
    targets = _gate_arity(gate, targets)
    for t in targets:
        if type(t) is not int:  # numpy ids and the like: convert, then check
            return _gate_targets(gate, tuple(map(_node_id, targets)), n)
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for n={n}")
    if gate == "CZ" and targets[0] == targets[1]:
        raise ValueError("CZ targets must differ")
    return targets


def _conjugate(row: Row, gate: str, *targets: int) -> Row:
    """Packed image of a row under a gate; targets are not checked."""
    x, z, sign = row
    if gate == "H":
        (t,) = targets
        xb = (x >> t) & 1
        zb = (z >> t) & 1
        if xb and zb:
            sign = -sign
        x ^= (xb ^ zb) << t
        z ^= (xb ^ zb) << t
    elif gate == "S":
        (t,) = targets
        xb = (x >> t) & 1
        zb = (z >> t) & 1
        if xb and zb:
            sign = -sign
        z ^= xb << t
    elif gate == "Z":
        (t,) = targets
        if (x >> t) & 1:
            sign = -sign
    else:  # CZ
        a, b = targets
        xa = (x >> a) & 1
        za = (z >> a) & 1
        xb = (x >> b) & 1
        zb = (z >> b) & 1
        if xa and xb and (za ^ zb):
            sign = -sign
        z ^= (xb << a) | (xa << b)
    return x, z, sign


def conjugate(p: PauliString, gate: str, *targets: int) -> PauliString:
    """Image of p under conjugation by a Clifford gate, U p U^dagger.

    Supported gates: H, S, Z on one target and CZ on two.  Note that Z and
    CZ are self-inverse and S only ever appears here through rules that fix
    the direction, so no dagger variants are needed.
    """
    targets = _gate_targets(gate, targets, p.n)
    return PauliString(p.n, *_conjugate((p.x, p.z, p.sign), gate, *targets))


def permute_qubits(p: PauliString, perm: Sequence[int]) -> PauliString:
    """Relabel qubits: bit c of the input moves to bit perm[c]."""
    perm = tuple(map(_node_id, perm))
    if sorted(perm) != list(range(p.n)):
        raise ValueError("perm is not a permutation of the qubits")
    return PauliString(p.n, *_move_bits((p.x, p.z), perm), p.sign)


def _move_bits(masks: Iterable[int], to: Sequence[int]) -> list[int]:
    """Each mask with bit c moved to bit to[c], for a permutation ``to``;
    only the set bits that move cost a step, so the identity costs nothing."""
    moving = sum(1 << c for c, t in enumerate(to) if c != t)
    stay = ~moving
    return [
        m & stay | sum(1 << to[c] for c in _bits(m & moving)) if m & moving else m
        for m in masks
    ]


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Column masks of a bit matrix: bit i of entry k is bit k of rows[i]."""
    if not rows or not width:
        return [0] * width
    return [_mask(col) for col in zip(*(_flags(r, width) for r in rows))]


def _gf2_rank(rows: Iterable[int]) -> int:
    pivots: dict[int, int] = {}  # leading bit -> the pivot row that has it
    for row in rows:
        while row:
            pivot = pivots.get(row.bit_length())
            if pivot is None:
                pivots[row.bit_length()] = row
                break
            row ^= pivot
    return len(pivots)


@dataclass(frozen=True)
class GeneratorMatrix:
    """n independent, pairwise commuting rows fixing a stabilizer state.

    ``qubit_of_column[c]`` is the original qubit label sitting at column c;
    it starts as the identity and records swaps made by canonicalization.
    """

    n: int
    rows: tuple[PauliString, ...]
    qubit_of_column: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _node_id(self.n, "n"))
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for row in self.rows:
            if row.n != self.n:
                raise ValueError(f"row {row} has {row.n} qubits, expected {self.n}")
        labels = range(self.n) if self.qubit_of_column is None else self.qubit_of_column
        labels = tuple(_node_id(q, "qubit label") for q in labels)
        object.__setattr__(self, "qubit_of_column", labels)
        if sorted(self.qubit_of_column) != list(range(self.n)):
            raise ValueError("qubit_of_column is not a permutation")
        # Bit j of row i's mask is skew_product(row i, row j): the XOR of the
        # z columns at row i's x bits and the x columns at its z bits.
        xs = [_flags(r.x, self.n) for r in self.rows]
        zs = [_flags(r.z, self.n) for r in self.rows]
        xcol = [_mask(col) for col in zip(*xs)]
        zcol = [_mask(col) for col in zip(*zs)]
        for i in range(self.n):
            hits = reduce(xor, compress(zcol, xs[i]), 0)
            hits = (hits ^ reduce(xor, compress(xcol, zs[i]), 0)) >> (i + 1)
            if hits:
                j = i + (hits & -hits).bit_length()
                raise ValueError(f"rows {i} and {j} anticommute")
        if _gf2_rank(r.x | (r.z << self.n) for r in self.rows) != self.n:
            raise ValueError("rows are not independent")

    @classmethod
    def _trusted(cls, n: int, rows: tuple, qubit_of_column: tuple) -> "GeneratorMatrix":
        """Build without validation, for a matrix valid by construction."""
        mat = object.__new__(cls)
        mat.__dict__.update(n=n, rows=rows, qubit_of_column=qubit_of_column)
        return mat


def left_rank(mat: GeneratorMatrix) -> int:
    """GF(2) rank of the x-part block."""
    return _gf2_rank(r.x for r in mat.rows)


def to_canonical_form(mat: GeneratorMatrix) -> tuple[GeneratorMatrix, int]:
    """Row-reduce into [I A | B 0; 0 0 | A^T I] and return (matrix, rank).

    Row operations multiply signed rows, so signs stay attached to the
    group elements.  The x-pivot columns are taken greedily, left to right,
    and the c-th of them swaps with column c; ``qubit_of_column`` records
    the swaps.  The reduction is deterministic.
    """
    n = mat.n
    rows, pivots = _canonical_rows(mat)
    # The c-th pivot column has not moved yet when it swaps with column c,
    # so column order[c] of the input ends at column c.
    order = list(range(n))
    for c, p in enumerate(_bits(pivots)):
        order[c], order[p] = order[p], order[c]
    rows = [rows[c] for c in order]
    to = sorted(range(n), key=order.__getitem__)
    xs, zs = (_move_bits([r[k] for r in rows], to) for k in (0, 1))
    signed = tuple(PauliString(n, x, z, r[2]) for x, z, r in zip(xs, zs, rows))
    out = GeneratorMatrix._trusted(n, signed, tuple(mat.qubit_of_column[c] for c in order))
    rank = pivots.bit_count()
    canonical_blocks(out, rank)  # the shape self-check (see the module docstring)
    return out, rank


def _canonical_rows(mat: GeneratorMatrix) -> tuple[list[Row], int]:
    """The reduction of ``to_canonical_form``, moving no column.

    Returns the packed rows indexed by the column each pivots on, and the
    mask of the x-pivot columns, unchecked.  Row c of an x-pivot column has
    x bit c, no other pivot x bit and no z bit on the rest; row c of any
    other column has no x bit, and z bit c is its only z bit on the rest.
    """
    n = mat.n
    rows = [(r.x, r.z, r.sign) for r in mat.rows]

    def pivot(col: int, part: int, top: int) -> bool:
        """Swap the first row from top on with bit col in ``part`` up to top,
        and multiply it into every other row with that bit."""
        bit = 1 << col
        for hit in range(top, n):
            if rows[hit][part] & bit:
                break
        else:
            return False
        rows[top], rows[hit] = rows[hit], rows[top]
        p = rows[top]
        for i in range(n):
            if rows[i][part] & bit and i != top:
                rows[i] = _multiply(rows[i], p)
        return True

    # Top rows: the x parts in full row reduction, pivots left to right,
    # until no row below the pivot rows has an x bit left.
    pivots = rank = 0
    for col in range(n):
        if pivot(col, 0, rank):
            pivots |= 1 << col
            rank += 1
        elif not any(r[0] for r in rows[rank:]):
            break
    # The rows below have zero x part: reducing their z parts on the rest
    # in full clears the top rows' z bits there too, leaving their x parts.
    cols = _bits(pivots) + _bits(((1 << n) - 1) ^ pivots)
    for top in range(rank, n):
        if not pivot(cols[top], 1, top):
            raise ValueError("rows are not an independent commuting set")
    return [rows[i] for i in sorted(range(n), key=cols.__getitem__)], pivots


def canonical_blocks(
    mat: GeneratorMatrix, rank: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Extract (A, B) from a canonical-form matrix, validating the shape.

    A has ``rank`` rows of width n-rank (bit c is column rank+c); B has
    ``rank`` rows of width rank and must be symmetric.  Raises ValueError
    when the matrix does not have the canonical block pattern.
    """
    n = mat.n
    r = rank
    top_mask = (1 << r) - 1
    tail_mask = ((1 << n) - 1) ^ top_mask
    a_rows = []
    b_rows = []
    for i in range(r):
        row = mat.rows[i]
        if row.x & top_mask != (1 << i):
            raise ValueError(f"row {i}: left block is not the identity")
        if row.z & tail_mask:
            raise ValueError(f"row {i}: upper-right z block is not zero")
        a_rows.append((row.x & tail_mask) >> r)
        b_rows.append(row.z & top_mask)
    # Row k of A^T is column k of A.
    a_cols = _transpose(a_rows, n - r)
    for i in range(r, n):
        row = mat.rows[i]
        if row.x:
            raise ValueError(f"row {i}: lower x block is not zero")
        if row.z & tail_mask != (1 << i):
            raise ValueError(f"row {i}: lower-right z block is not the identity")
        if row.z & top_mask != a_cols[i - r]:
            raise ValueError("lower-left z block is not A^T")
    if _transpose(b_rows, r) != b_rows:
        raise ValueError("B block is not symmetric")
    return tuple(a_rows), tuple(b_rows)
