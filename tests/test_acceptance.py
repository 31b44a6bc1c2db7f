"""Acceptance gate: one test per shipped criterion, each with its time bound.

Every test prints one ``criterion N (...): PASS (...)`` line after its
assertions succeed, so a verbose run reads as a checklist. Criteria 2 and 3
sweep a frozen configuration table; configurations whose full joint space
exceeds the default enumeration budget are part of the criterion too — the
auditor must refuse them loudly rather than truncate, and the refusal is
asserted here.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from formula_oracles import SYSTEMS, paw_graph
from graphspir import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PrimeField,
    capacity_report,
    check_database_privacy,
    check_reliability,
    check_user_privacy,
    complete_graph,
    cycle_graph,
    init_system,
    path_graph,
    run_round,
    run_round_with_coeffs,
    star_graph,
    state_from_values,
    state_space_size,
)

GRAPHS = {
    "path-3": path_graph(3),
    "path-4": path_graph(4),
    "cycle-3": cycle_graph(3),
    "cycle-4": cycle_graph(4),
    "star-4": star_graph(4),
    "paw-4": paw_graph(),
    "complete-4": complete_graph(4),
}

# frozen split of the (graph, modulus, slots) sweep by default budget:
# q ** (3 * K * L) realizations, allowed iff <= 2 ** 24
RELIABILITY_WITHIN = [
    ("path-3", 2, 1), ("path-3", 2, 2), ("path-3", 3, 1), ("path-3", 3, 2),
    ("path-4", 2, 1), ("path-4", 2, 2), ("path-4", 3, 1),
    ("cycle-3", 2, 1), ("cycle-3", 2, 2), ("cycle-3", 3, 1),
    ("cycle-4", 2, 1), ("cycle-4", 2, 2), ("cycle-4", 3, 1),
    ("star-4", 2, 1), ("star-4", 2, 2), ("star-4", 3, 1),
    ("paw-4", 2, 1), ("paw-4", 2, 2), ("paw-4", 3, 1),
    ("complete-4", 2, 1),
]
RELIABILITY_GUARDED = [
    ("path-4", 3, 2), ("cycle-3", 3, 2), ("cycle-4", 3, 2),
    ("star-4", 3, 2), ("paw-4", 3, 2),
    ("complete-4", 2, 2), ("complete-4", 3, 1), ("complete-4", 3, 2),
]

USER_PRIVACY_WITHIN = [
    (name, q)
    for name in GRAPHS
    for q in (2, 3)
    if not (name == "complete-4" and q == 3)
]
USER_PRIVACY_GUARDED = [("complete-4", 3)]


def _report(number: int, label: str, started: float, bound: float):
    elapsed = time.perf_counter() - started
    assert elapsed < bound, f"criterion {number} took {elapsed:.2f}s (bound {bound}s)"
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_closed_form_golden_systems():
    started = time.perf_counter()
    field = PrimeField(5)
    rng = random.Random(2027)
    for system in SYSTEMS:
        graph = system.build()
        k = system.n_messages
        for theta in range(1, k + 1):
            for _ in range(25):
                h = field.sample_vector(rng, k)
                w = field.sample_vector(rng, k)
                r = field.sample_vector(rng, k)
                state = state_from_values(
                    graph, field, 1,
                    tuple((value,) for value in w),
                    tuple((value,) for value in r),
                )
                transcript = run_round_with_coeffs(state, theta, (h,))
                assert transcript.queries[0] == system.queries(field, h, theta)
                assert tuple(a[0] for a in transcript.answers) == system.answers(
                    field, h, w, r, theta
                )
                assert transcript.decoded == (w[theta - 1],)
    _report(1, "closed-form golden systems over F5", started, 1.0)


def test_criterion_2_exhaustive_reliability():
    started = time.perf_counter()
    assert len(RELIABILITY_WITHIN) + len(RELIABILITY_GUARDED) == 7 * 2 * 2
    for name, q, slots in RELIABILITY_WITHIN:
        graph, field = GRAPHS[name], PrimeField(q)
        assert state_space_size(graph, field, slots) <= DEFAULT_BUDGET
        results = check_reliability(graph, field, slots)
        assert [c.instance["target"] for c in results] == list(
            range(1, graph.n_edges + 1)
        ), name
        assert all(c.passed for c in results), (name, q, slots)
    for name, q, slots in RELIABILITY_GUARDED:
        graph, field = GRAPHS[name], PrimeField(q)
        with pytest.raises(BudgetExceededError) as info:
            check_reliability(graph, field, slots)
        assert info.value.required == state_space_size(graph, field, slots)
        assert info.value.required > DEFAULT_BUDGET
    _report(2, "exhaustive reliability sweep", started, 60.0)


def test_criterion_3_user_privacy_tables():
    started = time.perf_counter()
    for name, q in USER_PRIVACY_WITHIN:
        graph, field = GRAPHS[name], PrimeField(q)
        results = check_user_privacy(graph, field, 1)
        assert all(c.passed for c in results), (name, q)
        covered = {(c.instance["server"], c.instance["target"]) for c in results}
        expected = {
            (server, target)
            for server in range(1, graph.n_vertices + 1)
            for target in range(2, graph.n_edges + 1)
        }
        assert covered == expected, name
    for name, q in USER_PRIVACY_GUARDED:
        with pytest.raises(BudgetExceededError):
            check_user_privacy(GRAPHS[name], PrimeField(q), 1)
    _report(3, "per-server view tables invariant to the target", started, 60.0)


def test_criterion_4_database_independence():
    started = time.perf_counter()
    field = PrimeField(2)
    for name in ("path-3", "cycle-3", "star-4", "paw-4"):
        graph = GRAPHS[name]
        k = graph.n_edges
        results = check_database_privacy(graph, field, 1)
        assert all(c.passed for c in results), name
        assert len(results) == k * (2 ** (k - 1) - 1), name
        for target in range(1, k + 1):
            subsets = [
                tuple(c.instance["subset"])
                for c in results
                if c.instance["target"] == target
            ]
            maximal = tuple(e for e in range(1, k + 1) if e != target)
            assert maximal in subsets, (name, target)
    _report(4, "undesired messages independent of the full view", started, 60.0)


def test_criterion_5_pad_degradation_is_detected():
    started = time.perf_counter()
    field = PrimeField(2)
    graph = path_graph(3)
    privacy = check_database_privacy(graph, field, 1, pad_length=0)
    probed = next(
        c for c in privacy
        if c.instance == {"target": 1, "subset": [2]}
    )
    assert not probed.passed
    witness = probed.witness
    assert witness is not None
    assert witness["pair_count"] * witness["total"] != (
        witness["left_count"] * witness["right_count"]
    )
    reliability = check_reliability(graph, field, 1, pad_length=0)
    assert all(c.passed for c in reliability)
    _report(5, "zero-length pads leak and are witnessed", started, 5.0)


def test_criterion_6_rate_and_capacity_relations():
    started = time.perf_counter()
    field = PrimeField(3)
    for name, graph in GRAPHS.items():
        for slots in (1, 2):
            state = init_system(graph, field, slots, random.Random(5))
            rng = random.Random(6)
            for target in range(1, graph.n_edges + 1):
                transcript = run_round(state, target, rng)
                assert transcript.downloaded_symbols == graph.n_vertices * slots
                assert Fraction(slots, transcript.downloaded_symbols) == (
                    capacity_report(graph).achievable_rate
                ) == Fraction(1, graph.n_vertices)
    for n in range(3, 8):
        path = capacity_report(path_graph(n))
        assert path.capacity == Fraction(1, n)
        assert path.capacity == path.pir_reference / 2
        cycle = capacity_report(cycle_graph(n))
        assert cycle.capacity == Fraction(1, n)
        assert cycle.capacity > cycle.pir_reference / 2
        assert Fraction(1, n) > Fraction(1, n + 1)
    assert capacity_report(complete_graph(4)).capacity == Fraction(1, 4)
    _report(6, "download N*L per round and exact capacity relations", started, 60.0)


def test_criterion_7_documented_limits_of_the_upper_bounds():
    started = time.perf_counter()
    import pathlib

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "## Limitations" in text
    assert "reported as constants" in text
    assert "never computes" in text
    # the package itself stays honest where no matching bound is tabulated
    record = capacity_report(star_graph(4), "star-4").to_dict()
    assert record["capacity"] is None
    assert "lower bound" in record["capacity_note"]
    _report(7, "upper bounds documented as constants, not computations", started, 5.0)


def test_criterion_8_round_cost_is_linear_in_the_graph():
    # quadratic per-server edge scans made this round take about 80 s
    started = time.perf_counter()
    graph = cycle_graph(10_000)
    state = init_system(graph, PrimeField(2**31 - 1), 8, random.Random(8))
    transcript = run_round(state, 4_321, random.Random(9))
    assert transcript.decoded == state.message(4_321)
    assert transcript.downloaded_symbols == 10_000 * 8
    _report(8, "one cycle-10000 round with 8-symbol messages", started, 10.0)
