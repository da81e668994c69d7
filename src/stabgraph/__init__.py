"""Stabilizer states as decorated graphs.

The package represents an n-qubit stabilizer state three ways and moves
freely between them:

* a generator matrix of signed Pauli operators (``pauli``),
* a decorated graph: simple graph plus per-node fill/loop/sign (``graph``),
* the graph's three-layer preparation circuit (``circuit``).

Clifford gates H, S, Z and CZ act on graphs through rewrite rules
(``transforms``); state-preserving rewrites and an equivalence decider
live in ``equivalence``; ``oracle`` provides dense statevector
cross-checks; ``textio`` the text formats and ``cli`` the command line.
"""

from .audit import RuleReport, audit_rules, format_report
from .circuit import (
    GraphFormCircuit,
    circuit_from_graph,
    generators_by_conjugation,
    generators_from_circuit,
    graph_from_circuit,
)
from .convert import generator_matrix_from_graph, graph_from_generator_matrix
from .equivalence import (
    apply_E1,
    apply_E2,
    apply_Ei,
    apply_Eii,
    graphs_equivalent,
    simplify_pair,
    to_reduced,
)
from .graph import (
    InvariantError,
    StabilizerGraph,
    advance_loop,
    flip_fill,
    flip_sign,
    is_reduced,
    local_complement,
    local_complement_edge,
    neighbors,
)
from .oracle import (
    Statevector,
    apply_gate_dense,
    apply_pauli,
    random_graph,
    random_reduced_graph,
    stabilizer_check,
    statevector_from_circuit,
    statevector_from_graph,
    states_equal_up_to_global_phase,
)
from .pauli import (
    GeneratorMatrix,
    PauliString,
    canonical_blocks,
    conjugate,
    left_rank,
    multiply,
    permute_qubits,
    skew_product,
    to_canonical_form,
)
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
from .transforms import (
    apply_cz,
    apply_cz_reduced,
    apply_local,
    apply_local_reduced,
    apply_sequence,
    classify_cz_reduced,
    classify_local,
    classify_local_reduced,
    expand_gate,
)

# Every name the imports above bind, except the submodules themselves.
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_")
    and getattr(value, "__module__", "").startswith(__name__ + ".")
]

__version__ = "0.1.0"
