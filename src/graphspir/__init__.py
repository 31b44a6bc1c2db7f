"""Symmetric private retrieval over 2-replicated graph storage.

Servers are vertices, messages are edges: each message and its pad live on
exactly the two endpoint servers of its edge. The package provides the
retrieval protocol, an exhaustive exact auditor for its reliability and
privacy constraints, an exact capacity calculator, and a CLI.
"""

from .auditor import (
    DEFAULT_BUDGET,
    AuditReport,
    BudgetExceededError,
    CheckResult,
    check_database_privacy,
    check_reliability,
    check_user_privacy,
    iter_transcript_outcomes,
    run_audit,
    server_view_table,
    state_space_size,
)
from .capacity import (
    CapacityReport,
    achievable_rate,
    capacity_report,
    pir_reference,
    spir_capacity,
)
from .field import PrimeField
from .graph import (
    FAMILIES,
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    from_family,
    parse_edge_list,
    path_graph,
    regular_graph,
    star_graph,
)
from .protocol import (
    RoundTranscript,
    ServerStore,
    SystemState,
    decode,
    gen_queries,
    init_system,
    run_round,
    run_round_with_coeffs,
    server_answer_slot,
    state_from_values,
    transcript_to_dict,
)

__version__ = "0.1.0"
