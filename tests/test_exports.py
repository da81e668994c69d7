"""The package's public names: ``from stabgraph import *`` binds exactly these.

``__all__`` is derived from the import block of ``stabgraph/__init__.py``,
so this list is the one place the export set is written down by hand.
"""

from __future__ import annotations

import stabgraph

PUBLIC_NAMES = {
    "GeneratorMatrix", "GraphFormCircuit", "InvariantError", "ParseError",
    "PauliString", "RuleReport", "StabilizerGraph", "Statevector",
    "advance_loop", "apply_E1", "apply_E2", "apply_Ei", "apply_Eii",
    "apply_cz", "apply_cz_reduced", "apply_gate_dense", "apply_local",
    "apply_local_reduced", "apply_pauli", "apply_sequence", "audit_rules",
    "canonical_blocks", "circuit_from_graph", "classify_cz_reduced",
    "classify_local", "classify_local_reduced", "conjugate", "expand_gate",
    "flip_fill", "flip_sign", "format_circuit", "format_generator_matrix",
    "format_graph", "format_report", "generator_matrix_from_graph",
    "generators_by_conjugation", "generators_from_circuit",
    "graph_from_circuit", "graph_from_generator_matrix", "graph_to_dot",
    "graphs_equivalent", "is_reduced", "left_rank", "local_complement",
    "local_complement_edge", "multiply", "neighbors", "parse_circuit",
    "parse_generator_matrix", "parse_graph", "permute_qubits", "random_graph",
    "random_reduced_graph", "simplify_pair", "skew_product", "stabilizer_check",
    "states_equal_up_to_global_phase", "statevector_from_circuit",
    "statevector_from_graph", "to_canonical_form", "to_reduced",
}


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from stabgraph import *", namespace)
    namespace.pop("__builtins__")
    assert len(PUBLIC_NAMES) == 61
    assert set(namespace) == PUBLIC_NAMES
    assert len(stabgraph.__all__) == len(set(stabgraph.__all__))
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(stabgraph, name)
