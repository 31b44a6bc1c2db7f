"""The public surface: the exact names the package and its classes export.

A name that nothing but a test needs is a cost, so adding one means editing
this list on purpose.
"""

import dataclasses
import types

import graphspir
from graphspir import Graph, PrimeField, SystemState

PACKAGE_NAMES = {
    "AuditReport", "BudgetExceededError", "CapacityReport", "CheckResult",
    "DEFAULT_BUDGET", "FAMILIES", "Graph", "PrimeField",
    "RoundTranscript", "ServerStore", "SystemState", "achievable_rate",
    "build_graph", "capacity_report", "check_database_privacy",
    "check_reliability", "check_user_privacy", "complete_graph",
    "cycle_graph", "decode", "from_family", "gen_queries", "init_system",
    "iter_transcript_outcomes", "parse_edge_list", "path_graph",
    "pir_reference", "regular_graph", "run_audit", "run_round",
    "run_round_with_coeffs", "server_answer_slot", "server_view_table",
    "spir_capacity", "star_graph", "state_from_values", "state_space_size",
    "transcript_to_dict",
}

CLASS_NAMES = {
    PrimeField: {"modulus", "check", "sample_vector", "iter_vectors"},
    Graph: {
        "n_vertices", "edges", "n_edges", "degree", "incident_edges",
        "message_holders",
    },
    SystemState: {"graph", "field", "message_length", "pad_length", "stores", "message"},
}


def _public(names):
    return {n for n in names if not n.startswith("_")}


def test_public_names_are_pinned():
    exported = _public(
        n for n in dir(graphspir) if not isinstance(getattr(graphspir, n), types.ModuleType)
    )
    assert exported == PACKAGE_NAMES
    for cls, names in CLASS_NAMES.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert _public(dir(cls)) | fields == names, cls.__name__
