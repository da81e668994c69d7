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
``multiply``, ``conjugate`` and ``to_canonical_form`` as thin wrappers.
``n`` (of a ``PauliString`` too) and the qubit labels may be numpy ints,
read by ``graph._node_id``, and the rows any iterable, stored as a tuple.
``to_canonical_form`` builds with the unchecked ``GeneratorMatrix._trusted``:
its ``canonical_blocks`` self-check implies independent (identity blocks)
and commuting (B = B^T, A^T below) rows.
Labels and ``textio``'s matrix text share one IXYZ codec, ``_decode`` and
``_encode``, which turn a whole row of letters into (x, z) masks and back
at C speed; a qubit's letter is ``_LETTERS[x + 2z]``.

The ``GeneratorMatrix`` checks run once, when a matrix is built from
outside.  Rows a and b commute exactly when C[a, b] = C[b, a] for the
parity matrix C[a, b] = |z_a & x_b| mod 2 (their skew product is the sum),
and ``_parities`` builds C from rows packed into uint64 words with AND,
XOR, a shift-fold and a byte table, a chunk of rows at a time.  No BLAS
product is used: a small float32 one can stall for milliseconds while
OpenBLAS wakes its threads.  Independence is a GF(2) rank, ``_gf2_rank``.

From ``_PACKED_AT`` qubits on, ``_canonical_rows`` reduces by XOR alone,
on the ints ``x | z << n | 1 << (2n + i)``: the bits from 2n on then name
the set t of input rows that a canonical row (x, z) is the product of, and
its sign is

    prod_{a in t} sign_a * i^( sum_{a in t} |x_a & z_a|
                               + 2 sum_{a < b in t} C[a, b] - |x & z| ),

with the sums over pairs from a second packed product.  The constructor
keeps the C it checked on the matrix, so a parsed matrix builds C once;
for a ``_trusted`` matrix, which skips the constructor, the kernel builds
C and checks its symmetry itself.
Below ``_PACKED_AT`` the kernel's fixed numpy cost is more than the row
products it saves, so the signed row loop runs; it stays as the kernel's
reference, and both give the same rows, which the input's group fixes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

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
        # Python ints by ``operator.index``, so the mask arithmetic never
        # runs on numpy's fixed-width ints.
        if not (type(self.n) is type(self.x) is type(self.z) is type(self.sign) is int):
            for name in ("n", "x", "z", "sign"):
                object.__setattr__(self, name, _node_id(getattr(self, name), name))
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


# Packed GF(2) products (see the module docstring): a row of bits is a row
# of little-endian uint64 words.
_CHUNK_BYTES = 1 << 18  # bounds the temporaries of _parities and _first_asymmetry
_PARITY = np.array([bin(b).count("1") & 1 for b in range(256)], dtype=np.uint8)


def _words(masks: Sequence[int], width: int) -> np.ndarray:
    """Masks below 2**width as rows of little-endian uint64 words."""
    size = 8 * -(-width // 64)
    data = b"".join(m.to_bytes(size, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), size // 8)


def _fold(v: np.ndarray) -> np.ndarray:
    """The parity of each uint64 of v, as uint8 (v is overwritten)."""
    v ^= v >> 32
    v ^= v >> 16
    v ^= v >> 8
    v &= 0xFF
    return _PARITY[v]


def _parities(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Bit j of row i is |p_i & q_j| mod 2, for rows of words (``_words``).

    The result has len(p) rows of len(q) bits, packed in the same way.  It
    is built a chunk of rows at a time: besides a transposed copy of q, no
    temporary holds more than ``_CHUNK_BYTES`` (or one row of len(q) words).
    """
    width = len(q)
    out = np.zeros((len(p), 8 * -(-width // 64)), dtype=np.uint8)
    step = max(1, _CHUNK_BYTES // (8 * width))
    q = np.ascontiguousarray(q.T)  # word w of every q_j, contiguous
    for i in range(0, len(p), step):
        acc = p[i : i + step, 0, None] & q[0]
        for w in range(1, len(q)):
            acc ^= p[i : i + step, w, None] & q[w]
        bits = np.packbits(_fold(acc), axis=1, bitorder="little")
        out[i : i + step, : bits.shape[1]] = bits
    return out.view("<u8")


def _first_asymmetry(m: np.ndarray) -> Optional[tuple[int, int]]:
    """The first (i, j) in row order with bit j of row i of the square packed
    bit matrix m unlike bit i of row j, or None when m is symmetric.

    Then i < j: a pair below the diagonal has its mirror in an earlier row.
    Rows and the columns of the same indices are unpacked in blocks of at
    most ``_CHUNK_BYTES``.
    """
    n = len(m)
    raw = m.view(np.uint8)
    step = max(8, _CHUNK_BYTES // n // 8 * 8)  # a multiple of 8: whole bytes
    for i in range(0, n, step):
        rows = np.unpackbits(raw[i : i + step], axis=1, count=n, bitorder="little")
        cols = raw[:, i // 8 : (i + step) // 8]
        cols = np.unpackbits(cols, axis=1, count=len(rows), bitorder="little")
        bad = np.flatnonzero(rows != cols.T)
        if len(bad):
            k = int(bad[0])
            return i + k // n, k % n
    return None


def _commutation_parities(xs: Sequence[int], zs: Sequence[int], n: int) -> np.ndarray:
    """C, with bit b of row a the parity of |z_a & x_b|, for the n rows (x, z).

    Rows a and b commute exactly when C[a, b] = C[b, a], since their skew
    product is C[a, b] + C[b, a]; raises ValueError naming the first pair
    that does not (``_first_asymmetry``).
    """
    c = _parities(_words(zs, n), _words(xs, n))
    pair = _first_asymmetry(c)
    if pair is not None:
        raise ValueError("rows %d and %d anticommute" % pair)
    return c


@dataclass(frozen=True)
class GeneratorMatrix:
    """n independent, pairwise commuting rows fixing a stabilizer state.

    ``qubit_of_column[c]`` is the original qubit label sitting at column c;
    it starts as the identity and records swaps made by canonicalization.
    """

    n: int
    rows: tuple[PauliString, ...]
    qubit_of_column: Optional[tuple[int, ...]] = None

    # The commutation parities C the constructor checked, kept for
    # ``_canonical_rows_packed``; None on a ``_trusted`` matrix.  Not
    # annotated, so it is no dataclass field and leaves ==, hash and repr alone.
    _comm = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _node_id(self.n, "n"))
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if not isinstance(row, PauliString):
                raise ValueError(f"row {i} must be a PauliString, got {row!r}")
            if row.n != self.n:
                raise ValueError(f"row {row} has {row.n} qubits, expected {self.n}")
        labels = range(self.n) if self.qubit_of_column is None else self.qubit_of_column
        labels = tuple(_node_id(q, "qubit label") for q in labels)
        object.__setattr__(self, "qubit_of_column", labels)
        if sorted(self.qubit_of_column) != list(range(self.n)):
            raise ValueError("qubit_of_column is not a permutation")
        comm = _commutation_parities([r.x for r in self.rows], [r.z for r in self.rows], self.n)
        object.__setattr__(self, "_comm", comm)
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


# From this many qubits on, ``_canonical_rows`` runs the packed kernel;
# below it, the kernel's fixed numpy cost is more than the row products it
# saves (measured crossover).
_PACKED_AT = 32


def _canonical_rows(mat: GeneratorMatrix) -> tuple[list[Row], int]:
    """The reduction of ``to_canonical_form``, moving no column.

    Returns the packed rows indexed by the column each pivots on, and the
    mask of the x-pivot columns, unchecked.  Row c of an x-pivot column has
    x bit c, no other pivot x bit and no z bit on the rest; row c of any
    other column has no x bit, and z bit c is its only z bit on the rest.
    These rows are fixed by the group the input generates, so the two
    reductions, picked by n, return the same rows; the row products stay as
    the packed kernel's reference.
    """
    if mat.n < _PACKED_AT:
        return _canonical_rows_by_products(mat)
    return _canonical_rows_packed(mat)


def _canonical_rows_by_products(mat: GeneratorMatrix) -> tuple[list[Row], int]:
    """``_canonical_rows`` by signed row products, one ``_multiply`` per
    row operation."""
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


def _key_rows(rows: Iterable[int], mask: int, row_of: list) -> list[int]:
    """Forward elimination keyed by the lowest bit in ``mask``: each row is
    reduced by the rows already keyed until its lowest bit there is a new
    key, under which it is stored.  Returns the rows left with no bit in
    ``mask``."""
    left = []
    for row in rows:
        while low := row & mask:
            key = (low & -low).bit_length() - 1
            pivot = row_of[key]
            if pivot is None:
                row_of[key] = row
                break
            row ^= pivot
        else:
            left.append(row)
    return left


def _canonical_rows_packed(mat: GeneratorMatrix) -> tuple[list[Row], int]:
    """``_canonical_rows`` by XOR alone, with every sign computed afterwards.

    Input row i is the int ``x | z << n | 1 << (2n + i)``, so after any
    XORs the bits from 2n on name the set t of input rows a row is the
    product of.  A forward pass keys each row by its lowest x bit, as
    ``_gf2_rank`` keys by the highest; the rows it leaves with no x bit are
    keyed by their lowest z bit off the x-pivot columns.  Back-substitution
    then clears, along the set key bits only, every key but a row's own.

    The signs follow from the phase formula of the module docstring: in the
    product of the rows t, in order, moving Z^{z_a} past X^{x_b} for a < b
    costs (-1)^{C[a, b]}.  C comes from one packed product
    (``_commutation_parities``, which also checks that all rows commute;
    the constructor's, kept on the matrix, unless it is ``_trusted``),
    and the pair sums from a second one against C's strict upper triangle:
    bit a of row c of ``_parities(t, upper)`` is sum_{b > a in t_c} C[a, b].
    """
    n = mat.n
    full = (1 << n) - 1
    xs = [r.x for r in mat.rows]
    zs = [r.z for r in mat.rows]
    comm = mat._comm
    if comm is None:
        comm = _commutation_parities(xs, zs, n)
    row_of: list = [None] * (2 * n)  # key bit -> the row keyed by it
    rows = [x | z << n | 1 << (2 * n + i) for i, (x, z) in enumerate(zip(xs, zs))]
    no_x = _key_rows(rows, full, row_of)
    pivots = sum(1 << c for c in range(n) if row_of[c] is not None)
    z_keys = (full ^ pivots) << n
    if _key_rows(no_x, z_keys, row_of):
        raise ValueError("rows are not an independent commuting set")
    # A row holds no key below its own, so going down the keys, each row
    # meets only rows already reduced.
    keys = pivots | z_keys
    for key in reversed(_bits(keys)):
        row = row_of[key]
        for other in _bits((row & keys) ^ (1 << key)):
            row ^= row_of[other]
        row_of[key] = row
    rows = [row_of[c if pivots >> c & 1 else n + c] for c in range(n)]
    tags = [row >> 2 * n for row in rows]
    upper = comm & _words([full ^ ((2 << a) - 1) for a in range(n)], n)
    t = _words(tags, n)
    pairs = _fold(np.bitwise_xor.reduce(t & _parities(t, upper), axis=1)).tolist()
    # Input row a as i^e: e = |x_a & z_a| + 2 for a negative sign, mod 4,
    # whose two bits are bit a of ``low`` and of ``high``.
    low = high = 0
    for a, r in enumerate(mat.rows):
        e = (r.x & r.z).bit_count() + 1 - r.sign
        low |= (e & 1) << a
        high |= (e >> 1 & 1) << a
    out = []
    for row, tag, pair in zip(rows, tags, pairs):
        x, z = row & full, row >> n & full
        phase = (tag & low).bit_count() + 2 * ((tag & high).bit_count() + pair)
        out.append((x, z, -1 if (phase - (x & z).bit_count()) & 2 else 1))
    return out, pivots


def canonical_blocks(
    mat: GeneratorMatrix, rank: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Extract (A, B) from a canonical-form matrix, validating the shape.

    A has ``rank`` rows of width n-rank (bit c is column rank+c); B has
    ``rank`` rows of width rank and must be symmetric.  Raises ValueError
    when the matrix does not have the canonical block pattern.
    """
    n = mat.n
    r = _node_id(rank, "rank")
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} out of range for n={n}")
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
