"""Command-line front end.

Subcommands:

* ``convert --from F --to T -i FILE [-o FILE]``: move between the matrix,
  graph and circuit text formats by way of the graph (one table,
  ``_conversions``, holds each format's steps); ``--to dot`` renders the
  graph for Graphviz.  A matrix has n^2 letters, so ``--to matrix`` from a
  graph or circuit of more than ``MAX_MATRIX_QUBITS`` (4096) qubits, about
  16.8 MB of text, is refused before the matrix is built.
* ``apply -i FILE --script "H:0 S:2 CZ:0,1" [-o FILE] [--reduced]``:
  run a gate script over a graph.  With ``--reduced`` the input must be
  reduced and every intermediate graph stays reduced.
* ``reduce -i FILE [-o FILE]``: rewrite a graph into reduced form.
* ``equiv FILE1 FILE2``: decide whether two graphs describe the same
  state up to global phase.
* ``verify [--n N] [--seed S] [--cases C]``: audit every rewrite rule
  against the dense simulator on random graphs of up to N nodes (at most
  the simulator's cap, 12) and print a pass table.

Exit codes: 0 success (and "equivalent" for equiv), 1 not equivalent or a
failed verify, 2 unreadable or malformed input (including bytes that are
not UTF-8, and bad command-line arguments) or a refused matrix output, 3
violated semantic invariant (invalid input, or an internal
``InvariantError``), 4 malformed gate script.

The argument parser is built once per process, on the first ``main``
call, and every later call reuses it.  Only in-process callers of
``main`` gain from that.  A shell run still pays interpreter start-up and
the imports: about 0.3 s in all on a 2-core Xeon, of which the package's
own import, with numpy already loaded, is about 0.03 s.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import Optional, Sequence

from .audit import audit_rules, format_report
from .circuit import circuit_from_graph, graph_from_circuit
from .convert import generator_matrix_from_graph, graph_from_generator_matrix
from .equivalence import graphs_equivalent, to_reduced
from .graph import InvariantError, StabilizerGraph
from .oracle import MAX_QUBITS
from .textio import (
    ParseError,
    format_circuit,
    format_generator_matrix,
    format_graph,
    graph_to_dot,
    parse_circuit,
    parse_generator_matrix,
    parse_graph,
)
from .transforms import GateApplication, apply_sequence

# The most qubits ``convert --to matrix`` writes from a graph or circuit:
# n^2 letters, ~16.8 MB at the limit, the bound on memory (1024 qubits
# took 0.3 s and 4096 took 1.8 s end to end on a 2-core Xeon).
MAX_MATRIX_QUBITS = 4096


class ScriptError(Exception):
    """Malformed --script token."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _same(g: StabilizerGraph) -> StabilizerGraph:
    return g


def _conversions() -> dict:
    """``convert``'s (parse, write, to graph, from graph) of each format; a
    graph is its own drawing, and dot is only written.  Built per call, so a
    wrapper put on one of these names (as ``bench/tracing.py`` does) sees it."""
    return {
        "matrix": (parse_generator_matrix, format_generator_matrix,
                   graph_from_generator_matrix, generator_matrix_from_graph),
        "graph": (parse_graph, format_graph, _same, _same),
        "circuit": (parse_circuit, format_circuit, graph_from_circuit, circuit_from_graph),
        "dot": (None, graph_to_dot, None, _same),
    }


FORMATS = tuple(fmt for fmt, (parse, *_) in _conversions().items() if parse)


def _cmd_convert(args: argparse.Namespace) -> int:
    table = _conversions()
    parse, _, to_graph, _ = table[args.src_fmt]
    _, write, _, from_graph = table[args.dst_fmt]
    # The same format round-trips through the parser: normalizes line order.
    state = parse(_read(args.input))
    if args.src_fmt != args.dst_fmt:
        if args.dst_fmt == "matrix" and state.n > MAX_MATRIX_QUBITS:
            print(
                f"refused: a matrix of {state.n} qubits is above the limit of "
                f"{MAX_MATRIX_QUBITS}",
                file=sys.stderr,
            )
            return 2
        state = from_graph(to_graph(state))
    _write(args.output, write(state))
    return 0


# ASCII digits only: \d would also take digits such as '٣' that int() reads.
_TOKEN_RE = re.compile(r"(?:(H|S|Z):([0-9]+)|CZ:([0-9]+),([0-9]+))\Z")


def _qubit(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ScriptError(f"qubit index has too many digits ({len(digits)})") from None


def parse_script(script: str, n: int) -> list[GateApplication]:
    """Parse whitespace-separated tokens H:<j>, S:<j>, Z:<j>, CZ:<i>,<j>."""
    gates: list[GateApplication] = []
    for tok in script.split():
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise ScriptError(f"bad script token {tok!r}")
        if m.group(1):
            j = _qubit(m.group(2))
            if j >= n:
                raise ScriptError(f"token {tok!r}: qubit {j} out of range for n={n}")
            gates.append((m.group(1), (j,)))
        else:
            i, j = _qubit(m.group(3)), _qubit(m.group(4))
            if i >= n or j >= n:
                raise ScriptError(f"token {tok!r}: qubit out of range for n={n}")
            if i == j:
                raise ScriptError(f"token {tok!r}: CZ qubits must differ")
            gates.append(("CZ", (i, j)))
    return gates


def _cmd_apply(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.input))
    gates = parse_script(args.script, g.n)
    out = apply_sequence(g, gates, reduced=args.reduced)
    _write(args.output, format_graph(out))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.input))
    _write(args.output, format_graph(to_reduced(g)))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    g1 = parse_graph(_read(args.graph1))
    g2 = parse_graph(_read(args.graph2))
    if graphs_equivalent(g1, g2):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = audit_rules(max_n=args.n, graphs=args.cases, seed=args.seed)
    sys.stdout.write(format_report(reports))
    return 0 if all(r.passed for r in reports) else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _audit_size(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_QUBITS:
        raise argparse.ArgumentTypeError(
            f"{value} exceeds the dense-simulation cap of {MAX_QUBITS}"
        )
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Shared by every call: parse_args returns a fresh Namespace, and no
    # default is mutable, so no call sees another's arguments.
    top = argparse.ArgumentParser(
        prog="stabgraph",
        description="Stabilizer states as decorated graphs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--from", dest="src_fmt", required=True, choices=FORMATS)
    p.add_argument("--to", dest="dst_fmt", required=True, choices=tuple(_conversions()))
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("apply", help="apply a gate script to a graph")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--script", required=True, help="e.g. 'H:0 S:2 CZ:0,1'")
    p.add_argument("-o", "--output")
    p.add_argument("--reduced", action="store_true", help="stay in reduced form")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("reduce", help="rewrite a graph into reduced form")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("equiv", help="decide equivalence of two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("verify", help="audit the rules against the simulator")
    p.add_argument(
        "--n", type=_audit_size, default=6,
        help=f"largest graph size, at most {MAX_QUBITS}",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_positive_int, default=200, help="graphs per family")
    p.set_defaults(func=_cmd_verify)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ScriptError as exc:
        print(f"script error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        # A ValueError subclass, but the input is unreadable, not invalid.
        print(f"unreadable input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
