"""Text formats for matrices, graphs and circuits, plus DOT export.

Matrix format: one generator per line, a sign character (+ or -) followed
by one letter from IXYZ per qubit (``pauli``'s codec; column c of a matrix
is written as qubit ``qubit_of_column[c]``), e.g.::

    +XX
    +ZZ

Graph format: a ``nodes <n>`` header, one ``node <id> <solid|hollow>``
line per node with optional ``loop`` and ``neg`` flags, and ``edge <i> <j>``
lines with i < j::

    nodes 2
    node 0 solid
    node 1 hollow neg
    edge 0 1

Circuit format: a ``qubits <n>`` header followed by ``CZ <i> <j>``,
``Z <i>``, ``S <i>`` and ``H <i>`` lines; the layer structure is implied
and duplicate gate lines are rejected::

    qubits 2
    CZ 0 1
    H 1

A circuit needs no line per qubit, so ``parse_circuit`` rejects a qubit
count above ``_MAX_CIRCUIT_QUBITS`` (2**20) before allocating anything.

Graph and circuit lines are the pieces ``str.splitlines()`` cuts, and a
line's tokens are ``str.split()`` of it: the runs of characters that are
not whitespace to ``str.isspace`` (the regex ``\\s``).  Lines without a
token are skipped, and numbers are ASCII digit strings read by ``int()``.
Each line costs a few C-speed string operations, so parse time is linear
in the text.  Columns are not tracked: only when a line is rejected is it
scanned again to find the offending token's column.

Malformed text raises ``ParseError`` with 1-based line/column positions.
Semantic problems (anticommuting rows, wrong row count and so on) raise
``ValueError`` from the constructors instead.  Formatters emit canonical
ordering, so parse/format round trips are byte-identical.
"""

from __future__ import annotations

import re
from typing import Optional

from .circuit import GraphFormCircuit
from .graph import StabilizerGraph, _bits, _mask
from .pauli import _BAD_LETTER, GeneratorMatrix, PauliString, _decode, _move_bits

_SIGN_CHARS = {"+": 1, "-": -1, "−": -1}
# Every character at which ``str.splitlines`` ends a line.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# How many missing node ids a ParseError names before it only counts.
_MISSING_SHOWN = 10
# The largest qubit count a circuit header may declare.
_MAX_CIRCUIT_QUBITS = 1 << 20


class ParseError(ValueError):
    """Malformed input text, with a 1-based line/column position."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


def _token_lines(text: str):
    """Yield (line number, line, tokens) for each line that has a token.

    ``str.split()`` splits on exactly the characters the regex ``\\s``
    matches, so the tokens are those of ``_column``.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split()
        if toks:
            yield lineno, raw, toks


def _column(raw: str, k: int) -> int:
    """1-based column of token ``k`` of ``raw``; only error paths need it."""
    return [m.start() + 1 for m in re.finditer(r"\S+", raw)][k]


def _int_token(toks: list[str], k: int, raw: str, lineno: int, what: str) -> int:
    tok = toks[k]
    # isdigit alone admits characters such as '²' that int() rejects.
    if not (tok.isascii() and tok.isdigit()):
        msg = f"{what} must be a non-negative integer, got {tok!r}"
    else:
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            msg = f"{what} has too many digits ({len(tok)})"
    raise ParseError(msg, lineno, _column(raw, k))


def _header(text: str, keyword: str, noun: str):
    """Read the header line '<keyword> <n>' of a graph or circuit text
    (``noun`` names which); returns (the remaining lines, n, and the
    header's line number and raw line, for the caller's own checks of n)."""
    lines = _token_lines(text)
    try:
        lineno, raw, toks = next(lines)
    except StopIteration:
        raise ParseError(f"empty {noun} description", 1, 1) from None
    if toks[0] != keyword:
        msg = f"expected '{keyword} <n>' header, got {toks[0]!r}"
        raise ParseError(msg, lineno, _column(raw, 0))
    if len(toks) != 2:
        raise ParseError(f"header must be exactly '{keyword} <n>'", lineno, _column(raw, -1))
    count = f"{keyword[:-1]} count"  # "nodes" -> "node count"
    n = _int_token(toks, 1, raw, lineno, count)
    if n < 1:
        raise ParseError(f"{count} must be positive", lineno, _column(raw, 1))
    return lines, n, lineno, raw


# --- generator matrices -----------------------------------------------------


def parse_generator_matrix(text: str) -> GeneratorMatrix:
    rows: list[PauliString] = []
    width = None
    for lineno, raw, _ in _token_lines(text):
        line = raw.strip()
        col0 = raw.index(line[0]) + 1
        sign = _SIGN_CHARS.get(line[0])
        if sign is None:
            raise ParseError(f"row must start with '+' or '-', got {line[0]!r}", lineno, col0)
        body = line[1:]
        if not body:
            raise ParseError("row has a sign but no Pauli letters", lineno, col0 + 1)
        if width is None:
            width = len(body)
        elif len(body) != width:
            raise ParseError(f"expected {width} letters, got {len(body)}", lineno, col0 + 1)
        bad = _BAD_LETTER.search(body)
        if bad:
            raise ParseError(f"bad Pauli letter {bad.group()!r}", lineno, col0 + 1 + bad.start())
        rows.append(PauliString(width, *_decode(body), sign))
    if not rows:
        raise ParseError("no generator rows", 1, 1)
    return GeneratorMatrix(width, tuple(rows))


def format_generator_matrix(mat: GeneratorMatrix) -> str:
    masks = iter(_move_bits([m for r in mat.rows for m in (r.x, r.z)], mat.qubit_of_column))
    rows = (PauliString(mat.n, x, z, r.sign) for r, x, z in zip(mat.rows, masks, masks))
    return "".join(row.label() + "\n" for row in rows)


# --- graphs -----------------------------------------------------------------


def parse_graph(text: str) -> StabilizerGraph:
    lines, n, lineno, raw = _header(text, "nodes", "graph")
    # Each node needs a line of its own: reject a count above the number of
    # lines (bounded from above without splitting) before allocating n slots.
    if n > 1 + sum(map(text.count, _LINE_BREAKS)):
        raise ParseError(
            f"node count {n} is larger than the number of lines", lineno, _column(raw, 1)
        )

    seen = bytearray(n)
    hollow = [False] * n
    loop = [False] * n
    neg = [False] * n
    adj = [0] * n

    def node_id(k: int) -> int:
        """Token k of the line being read, as a node id."""
        j = _int_token(toks, k, raw, lineno, "node id")
        if j >= n:
            raise ParseError(f"node id {j} out of range for nodes {n}", lineno, _column(raw, k))
        return j

    for lineno, raw, toks in lines:
        kind = toks[0]
        if kind == "edge":
            if len(toks) != 3:
                raise ParseError("edge line must be 'edge <i> <j>'", lineno, _column(raw, 0))
            i = node_id(1)
            j = node_id(2)
            if i >= j:
                raise ParseError(
                    f"edge endpoints must satisfy i < j, got {i} {j}", lineno, _column(raw, 1)
                )
            if (adj[i] >> j) & 1:
                raise ParseError(f"duplicate edge {i} {j}", lineno, _column(raw, 1))
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        elif kind == "node":
            if len(toks) < 3:
                raise ParseError("node line needs an id and a fill", lineno, _column(raw, 0))
            j = node_id(1)
            if seen[j]:
                raise ParseError(f"duplicate node line for id {j}", lineno, _column(raw, 1))
            seen[j] = 1
            fill = toks[2]
            if fill not in ("solid", "hollow"):
                raise ParseError(
                    f"fill must be 'solid' or 'hollow', got {fill!r}", lineno, _column(raw, 2)
                )
            hollow[j] = fill == "hollow"
            for k in range(3, len(toks)):
                flag = toks[k]
                if flag == "loop" and not loop[j]:
                    loop[j] = True
                elif flag == "neg" and not neg[j]:
                    neg[j] = True
                else:
                    raise ParseError(f"bad or repeated node flag {flag!r}", lineno, _column(raw, k))
        else:
            raise ParseError(f"expected 'node' or 'edge', got {kind!r}", lineno, _column(raw, 0))

    if 0 in seen:
        missing = [j for j in range(n) if not seen[j]]
        shown = ", ".join(map(str, missing[:_MISSING_SHOWN]))
        more = len(missing) - _MISSING_SHOWN
        if more > 0:
            shown += f" and {more} more"
        raise ParseError(f"missing node line(s) for {len(missing)} id(s): {shown}", 1, 1)
    # Every id is below n, each edge sets both bits of a pair i < j, and the
    # flags are n bools: the structure the constructor checks holds already.
    return StabilizerGraph._trusted(n, *map(_mask, (hollow, loop, neg)), tuple(adj))


def format_graph(g: StabilizerGraph) -> str:
    out = [f"nodes {g.n}"]
    for j in range(g.n):
        parts = [f"node {j}", "hollow" if g.hollow[j] else "solid"]
        if g.loop[j]:
            parts.append("loop")
        if g.neg[j]:
            parts.append("neg")
        out.append(" ".join(parts))
    # One string per row: "edge i j" for each neighbor j > i, from a table
    # of the node ids, so a dense graph costs C-speed joins, not one
    # f-string per edge.
    names = list(map(str, range(g.n)))
    for i, row in enumerate(g.adj):
        if row >> (i + 1):
            sep = f"\nedge {i} "
            upper = _bits(row >> (i + 1) << (i + 1))
            out.append(sep[1:] + sep.join(map(names.__getitem__, upper)))
    return "\n".join(out) + "\n"


def graph_to_dot(g: StabilizerGraph) -> str:
    out = ["graph stabilizer {", "  node [shape=circle];"]
    for j in range(g.n):
        attrs = []
        if not g.hollow[j]:
            attrs += ["style=filled", "fillcolor=black", "fontcolor=white"]
        if g.neg[j]:
            attrs.append(f'label="{j}−"')
        out.append(f"  {j} [{', '.join(attrs)}];" if attrs else f"  {j};")
    for i, j in g.edges():
        out.append(f"  {i} -- {j};")
    for j in range(g.n):
        if g.loop[j]:
            out.append(f"  {j} -- {j};")
    out.append("}")
    return "\n".join(out) + "\n"


# --- circuits ---------------------------------------------------------------


def parse_circuit(text: str) -> GraphFormCircuit:
    lines, n, lineno, raw = _header(text, "qubits", "circuit")
    if n > _MAX_CIRCUIT_QUBITS:
        msg = f"qubit count {n} is above the limit of {_MAX_CIRCUIT_QUBITS}"
        raise ParseError(msg, lineno, _column(raw, 1))

    cz: set[tuple[int, int]] = set()
    singles = {"Z": set(), "S": set(), "H": set()}

    def qubit(k: int) -> int:
        """Token k of the line being read, as a qubit."""
        q = _int_token(toks, k, raw, lineno, "qubit")
        if q >= n:
            raise ParseError(f"qubit {q} out of range for qubits {n}", lineno, _column(raw, k))
        return q

    for lineno, raw, toks in lines:
        kind = toks[0]
        if kind == "CZ":
            if len(toks) != 3:
                raise ParseError("CZ line must be 'CZ <i> <j>'", lineno, _column(raw, 0))
            i = qubit(1)
            j = qubit(2)
            if i == j:
                raise ParseError("CZ qubits must differ", lineno, _column(raw, 1))
            pair = (min(i, j), max(i, j))
            if pair in cz:
                raise ParseError(
                    f"duplicate gate line CZ {pair[0]} {pair[1]}", lineno, _column(raw, 0)
                )
            cz.add(pair)
        elif kind in singles:
            if len(toks) != 2:
                raise ParseError(f"{kind} line must be '{kind} <i>'", lineno, _column(raw, 0))
            q = qubit(1)
            if q in singles[kind]:
                raise ParseError(f"duplicate gate line {kind} {q}", lineno, _column(raw, 0))
            singles[kind].add(q)
        else:
            raise ParseError(f"unknown gate line {kind!r}", lineno, _column(raw, 0))
    return GraphFormCircuit(
        n,
        cz=frozenset(cz),
        z_set=frozenset(singles["Z"]),
        s_set=frozenset(singles["S"]),
        h_set=frozenset(singles["H"]),
    )


def format_circuit(c: GraphFormCircuit) -> str:
    out = [f"qubits {c.n}"]
    for i, j in sorted(c.cz):
        out.append(f"CZ {i} {j}")
    for name, group in (("Z", c.z_set), ("S", c.s_set), ("H", c.h_set)):
        for q in sorted(group):
            out.append(f"{name} {q}")
    return "\n".join(out) + "\n"
