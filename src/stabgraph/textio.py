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

``parse_graph`` checks a graph's lines in bulk, with builtins that each
run over a batch of lines at C speed (``_graph_in_bulk``): it sorts them
into node and edge lines, looks up each node line's fill and flags in one
table and each id in the node-name table (``_node_names``: the names
``str(j)``, kept between calls and shared with ``format_graph`` and
``cli.parse_script``, which read and write the same ids; ids with leading
zeros get one ``isdigit`` and ``int()`` pass instead), checks that the
ids are below n and distinct, that the edges are distinct and that each
edge has i < j, and builds rows only then.  Only a text those checks reject is read again
line by line (``_walk_graph``), to name its first defect; a text the
walker then accepts means the two disagree, which raises
``InvariantError``.  ``format_graph`` writes the ids from the node-name
table and the node lines' endings from a table of eight suffixes, indexed
by a code per node that it computes from the three flag masks.

Malformed text raises ``ParseError`` with 1-based line/column positions.
Semantic problems (anticommuting rows, wrong row count and so on) raise
``ValueError`` from the constructors instead.  Formatters emit canonical
ordering, so parse/format round trips are byte-identical.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import add, itemgetter, lt
from typing import Optional

from .circuit import GraphFormCircuit
from .graph import InvariantError, StabilizerGraph, _bits, _flags, _mask
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


def _token_lines(lines: list[str]):
    """Yield (line number, line, tokens) for each of ``lines`` (the pieces
    ``str.splitlines()`` cut) that has a token.

    ``str.split()`` splits on exactly the characters the regex ``\\s``
    matches, so the tokens are those of ``_column``.
    """
    for lineno, raw in enumerate(lines, 1):
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


def _header(text_lines: list[str], keyword: str, noun: str):
    """Read the header line '<keyword> <n>' of the lines of a graph or
    circuit text (``noun`` names which); returns (the remaining lines, as
    ``_token_lines`` yields them, n, and the header's line number and raw
    line, for the caller's own checks of n)."""
    lines = _token_lines(text_lines)
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
    for lineno, raw, _ in _token_lines(text.splitlines()):
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


# The fill and flag tokens a node line may end with, each with the node's
# code: bit 0 hollow, bit 1 loop, bit 2 neg.  Any other ending is a defect.
_NODE_CODES = {
    (fill, *flags): (fill == "hollow") | 2 * ("loop" in flags) | 4 * ("neg" in flags)
    for fill in ("solid", "hollow")
    for flags in ((), ("loop",), ("neg",), ("loop", "neg"), ("neg", "loop"))
}
# What ``format_graph`` writes after a node's id, by code.
_NODE_SUFFIXES = [
    (" hollow" if code & 1 else " solid") + " loop" * (code >> 1 & 1) + " neg" * (code >> 2)
    for code in range(8)
]
# Byte k of ``codes.translate(_CODE_BITS[b])`` is bit b of the code in byte k.
_CODE_BITS = [bytes(code >> b & 1 for code in range(256)) for b in range(3)]
# Graph lines are checked in batches of this many, so that the tokens held
# at once stay small whatever the text: holding all tokens of a dense
# n=1024 graph's 2.9 MB text at once took 87 MB, against 13 MB for its
# lines, and parsed it no faster than batches of 1024 lines.
_BATCH_LINES = 1024

# The node-name table: ``str(j)`` for every j below its size, and the map
# from each name back to j.  Only ``_node_names`` grows it, by binding a
# new pair, so a reader never sees a half-grown one.
_NODE_NAMES: tuple[list[str], dict[str, int]] = ([], {})


def _node_names(size: int) -> tuple[list[str], dict[str, int]]:
    """The node-name table, grown to hold every j below ``size``; it may
    hold more, so a reader checks the ids it reads against its own n."""
    global _NODE_NAMES
    table = _NODE_NAMES
    if len(table[0]) < size:
        names = table[0] + list(map(str, range(len(table[0]), size)))
        table = _NODE_NAMES = names, dict(zip(names, range(size)))
    return table


def parse_graph(text: str) -> StabilizerGraph:
    text_lines = text.splitlines()
    lines, n, lineno, raw = _header(text_lines, "nodes", "graph")
    # Each node needs a line of its own: reject a count above one plus the
    # number of line breaks, a bound on the lines, before allocating n slots.
    if n > 1 + sum(map(text.count, _LINE_BREAKS)):
        raise ParseError(
            f"node count {n} is larger than the number of lines", lineno, _column(raw, 1)
        )
    g = _graph_in_bulk(text_lines, lineno, n)
    if g is None:
        _walk_graph(lines, n)
        raise InvariantError("the bulk graph checks rejected a text the line walker accepts")
    return g


def _graph_in_bulk(text_lines: list[str], start: int, n: int) -> Optional[StabilizerGraph]:
    """The graph of ``text_lines[start:]``, the lines after a text's header,
    or None when they hold any defect, which ``_walk_graph`` then names.

    Every check runs over many lines at once, in C-speed builtins: each
    batch of ``_BATCH_LINES`` lines gives its node ids, node codes and
    edge ends (``_batch_in_bulk``), and then the n node ids must be
    distinct and the edges distinct, each with i < j.  Only then are rows
    built, so every shift is below n.
    """
    names = _node_names(n)[1]
    code_of, lo, hi, node_lines = {}, [], [], 0
    for k in range(start, len(text_lines), _BATCH_LINES):
        batch = _batch_in_bulk(text_lines[k : k + _BATCH_LINES], names, n)
        if batch is None:
            return None
        ids, codes, i, j = batch
        node_lines += len(ids)
        code_of.update(zip(ids, codes))
        lo += i
        hi += j
    # Edges that ascend, as a formatted text's do, are distinct without a set.
    if (
        node_lines != n
        or len(code_of) != n
        or not all(map(lt, lo, hi))
        or not (
            all(map(lt, zip(lo, hi), islice(zip(lo, hi), 1, None)))
            or len(set(zip(lo, hi))) == len(lo)
        )
    ):
        return None
    adj = [0] * n
    for i, j in zip(lo, hi):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    by_id = bytes(map(code_of.__getitem__, range(n)))
    # Every id is below n, each edge sets both bits of a pair i < j, and the
    # flags are n bits: the structure the constructor checks holds already.
    masks = (_mask(by_id.translate(table)) for table in _CODE_BITS)
    return StabilizerGraph._trusted(n, *masks, tuple(adj))


def _batch_in_bulk(lines: list[str], names: dict, n: int):
    """(node ids, node codes, edge starts, edge ends) of a batch of graph
    lines, or None when one of them is malformed.

    The lines are sorted into node and edge lines; each node line's ending
    is looked up in ``_NODE_CODES`` and each id is read by ``_ids``.  A
    line's tokens are kept as a tuple, which the garbage collector stops
    tracking, where a list would be traversed again at each collection.
    """
    toks = list(filter(None, map(tuple, map(str.split, lines))))
    kinds = list(map(itemgetter(0), toks))
    m = kinds.count("edge")
    if kinds.count("node") + m != len(toks):
        return None
    toks.sort(key=itemgetter(0))  # the edge lines, then the node lines
    edges, nodes = toks[:m], toks[m:]
    codes = list(map(_NODE_CODES.get, map(itemgetter(slice(2, None)), nodes)))
    if None in codes or set(map(len, edges)) - {3}:
        return None
    ids, lo, hi = (
        _ids(list(map(itemgetter(k), part)), names, n)
        for part, k in ((nodes, 1), (edges, 1), (edges, 2))
    )
    if ids is None or lo is None or hi is None:
        return None
    return ids, codes, lo, hi


def _ids(tokens: list[str], names: dict, n: int) -> Optional[list[int]]:
    """The node ids ``tokens`` spell, or None unless each is ASCII digits
    for a number below n; ``names`` maps ``str(j)`` to j, also for j >= n.

    A token spelled as ``str`` spells its id costs one lookup.  Only when
    some token is not (leading zeros, ids past the table, or a defect) are
    all of them checked as digits in one ``isdigit`` and read by ``int()``.
    """
    try:
        ids = list(map(names.__getitem__, tokens))
    except KeyError:
        digits = "".join(tokens)
        # isdigit alone admits characters such as '²' that int() rejects.
        if not (digits.isascii() and digits.isdigit()):
            return None
        try:
            ids = list(map(int, tokens))
        except ValueError:  # more digits than int() converts
            return None
    return ids if max(ids, default=0) < n else None


def _walk_graph(lines, n: int) -> None:
    """Read a graph text's lines after its header (as ``_token_lines``
    yields them) one by one, and raise ParseError at the first defect,
    with its line and column."""
    seen = bytearray(n)
    edges = set()

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
            if (i, j) in edges:
                raise ParseError(f"duplicate edge {i} {j}", lineno, _column(raw, 1))
            edges.add((i, j))
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
            for k in range(3, len(toks)):
                flag = toks[k]
                if flag not in ("loop", "neg") or flag in toks[3:k]:
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


def format_graph(g: StabilizerGraph) -> str:
    n = g.n
    names = _node_names(n)[0]
    # Node j's code (bit 0 hollow, bit 1 loop, bit 2 neg) is byte j of
    # the three masks' flag bytes summed with weights 1, 2 and 4, so the
    # node lines are one join over a table of eight suffixes.
    code = (
        int.from_bytes(_flags(g.hollow_mask, n), "little")
        + 2 * int.from_bytes(_flags(g.loop_mask, n), "little")
        + 4 * int.from_bytes(_flags(g.neg_mask, n), "little")
    )
    suffixes = map(_NODE_SUFFIXES.__getitem__, code.to_bytes(n, "little"))
    out = [f"nodes {n}\nnode " + "\nnode ".join(map(add, names, suffixes))]
    # One string per row: "edge i j" for each neighbor j > i, from the
    # node-name table, so a dense graph costs C-speed joins, not one
    # f-string per edge.
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
    lines, n, lineno, raw = _header(text.splitlines(), "qubits", "circuit")
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
