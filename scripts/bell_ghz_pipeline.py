#!/usr/bin/env python3
"""Walk the Bell and GHZ states through every representation.

For each fixture the script starts from the generator matrix, converts
to the decorated graph and the three-layer circuit, prints all three
plus the simulated statevector, and finally checks the round trip
stabilizes the same state; a failed check exits nonzero, also under
``python -O``.  A handy smoke test and a compact tour of the library.
"""

from __future__ import annotations

import sys

import numpy as np

from stabgraph import (
    circuit_from_graph,
    format_circuit,
    format_generator_matrix,
    format_graph,
    generator_matrix_from_graph,
    graph_from_generator_matrix,
    graph_to_dot,
    parse_generator_matrix,
    stabilizer_check,
    statevector_from_circuit,
)

FIXTURES = {
    "Bell": "+XX\n+ZZ\n",
    "GHZ": "+XXX\n+ZZI\n+ZIZ\n",
}


def show_state(amps: np.ndarray) -> str:
    n = amps.size.bit_length() - 1
    terms = []
    for idx, a in enumerate(amps):
        if abs(a) > 1e-12:
            terms.append(f"({a:+.3f}) |{idx:0{n}b}>")
    return "  ".join(terms)


def main() -> None:
    for name, text in FIXTURES.items():
        print(f"=== {name} ===")
        mat = parse_generator_matrix(text)
        print("generator matrix:")
        print(format_generator_matrix(mat), end="")

        graph = graph_from_generator_matrix(mat)
        print("decorated graph:")
        print(format_graph(graph), end="")

        circuit = circuit_from_graph(graph)
        print("preparation circuit:")
        print(format_circuit(circuit), end="")

        state = statevector_from_circuit(circuit)
        print("statevector:", show_state(state.amps))

        back = generator_matrix_from_graph(graph)
        if not stabilizer_check(state, back.rows):
            sys.exit(f"{name}: round trip lost the state")
        print("round trip: generators reproduced, state stabilized")

        print("dot:")
        print(graph_to_dot(graph))


if __name__ == "__main__":
    main()
