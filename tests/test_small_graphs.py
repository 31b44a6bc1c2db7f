"""Every connected graph on 2 to 5 vertices, up to isomorphism.

``SMALL_GRAPHS`` is committed data: for each vertex count, one edge list per
isomorphism class, each the lexicographically smallest sorted edge list over
every relabelling of its graph. The tests check that the lists are complete
and free of repeats, then run the audit, its three negative controls and the
capacity classification on every graph, one test per graph, so a failure
names its edge list.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from graphspir import (
    Graph,
    PrimeField,
    capacity_report,
    check_database_privacy,
    check_reliability,
    check_user_privacy,
    run_audit,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
BUDGET = 2**200

SMALL_GRAPHS = {
    2: [
        ((1, 2),),
    ],
    3: [
        ((1, 2), (1, 3)),
        ((1, 2), (1, 3), (2, 3)),
    ],
    4: [
        ((1, 2), (1, 3), (1, 4)),
        ((1, 2), (1, 3), (2, 4)),
        ((1, 2), (1, 3), (1, 4), (2, 3)),
        ((1, 2), (1, 3), (2, 4), (3, 4)),
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)),
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
    ],
    5: [
        ((1, 2), (1, 3), (1, 4), (1, 5)),
        ((1, 2), (1, 3), (1, 4), (2, 5)),
        ((1, 2), (1, 3), (2, 4), (3, 5)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3)),
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5)),
        ((1, 2), (1, 3), (1, 4), (2, 3), (4, 5)),
        ((1, 2), (1, 3), (1, 4), (2, 5), (3, 5)),
        ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)),
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5)),
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (4, 5)),
        ((1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5)),
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)),
    ],
}

CASES = [(n, edges) for n, lists in SMALL_GRAPHS.items() for edges in lists]


def _params(cases):
    return pytest.mark.parametrize(
        "n, edges", cases,
        ids=[f"n{n}:" + "-".join(f"{u}{v}" for u, v in edges) for n, edges in cases],
    )


def _connected(n, edges) -> bool:
    """Union-find over ``edges``, independent of ``Graph``'s own search."""
    parent = list(range(n + 1))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[root(u)] = root(v)
    return len({root(v) for v in range(1, n + 1)}) == 1


def _canonical(n, edges):
    """The smallest sorted edge list over every relabelling of the graph."""
    return min(
        tuple(sorted(tuple(sorted((label[u - 1], label[v - 1]))) for u, v in edges))
        for label in itertools.permutations(range(1, n + 1))
    )


class TestCatalogue:
    def test_counts(self):
        assert [len(SMALL_GRAPHS[n]) for n in (2, 3, 4, 5)] == [1, 2, 6, 21]
        # the q=3 audits run on the graphs with at most 7 edges
        assert sum(len(edges) <= 7 for _, edges in CASES) == 26

    @_params(CASES)
    def test_connected_and_canonical(self, n, edges):
        assert _connected(n, edges)
        assert edges == _canonical(n, edges)

    def test_no_two_isomorphic(self):
        forms = [(n, _canonical(n, edges)) for n, edges in CASES]
        assert len(set(forms)) == len(CASES)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_graph_accepts_exactly_the_connected_subsets(self, n):
        # every edge subset of K_n: Graph accepts it exactly when the
        # union-find calls it connected, and then it is a listed graph
        listed = set(SMALL_GRAPHS[n])
        complete = list(itertools.combinations(range(1, n + 1), 2))
        for size in range(len(complete) + 1):
            for edges in itertools.combinations(complete, size):
                connected = size > 0 and _connected(n, edges)
                try:
                    Graph(n, edges)
                except ValueError:
                    assert not connected, edges
                else:
                    assert connected, edges
                    assert _canonical(n, edges) in listed, edges


class TestAudit:
    @_params(CASES)
    def test_passes_at_q2(self, n, edges):
        assert run_audit(Graph(n, edges), F2, 1, budget=BUDGET).all_passed

    @_params([(n, edges) for n, edges in CASES if len(edges) <= 7])
    def test_passes_at_q3(self, n, edges):
        assert run_audit(Graph(n, edges), F3, 1, budget=BUDGET).all_passed


NEGATIVE_CASES = [(n, edges) for n, edges in CASES if len(edges) >= 2]


class TestNegativeControls:
    """Each sabotage fails on every graph with at least two messages."""

    @_params(NEGATIVE_CASES)
    def test_zero_pads_break_database_privacy(self, n, edges):
        results = check_database_privacy(Graph(n, edges), F2, 1, budget=BUDGET, pad_length=0)
        assert not all(c.passed for c in results)

    @_params(NEGATIVE_CASES)
    def test_dropped_server_breaks_reliability(self, n, edges):
        results = check_reliability(Graph(n, edges), F2, 1, budget=BUDGET, drop_server=1)
        assert not all(c.passed for c in results)

    @_params(NEGATIVE_CASES)
    def test_unmasked_selector_breaks_user_privacy(self, n, edges):
        results = check_user_privacy(Graph(n, edges), F2, 1, budget=BUDGET, mask_queries=False)
        assert not all(c.passed for c in results)


def _brute_force_class(n, edges):
    """``(is_path, regular_degree)`` from the definitions: a path is a tree
    with maximum degree 2, and a graph is regular when it has one degree."""
    degrees = Counter(v for edge in edges for v in edge)
    is_path = len(edges) == n - 1 and max(degrees.values()) <= 2
    distinct = set(degrees.values())
    return is_path, distinct.pop() if len(distinct) == 1 else None


class TestCapacityClasses:
    @_params(CASES)
    def test_matches_brute_force(self, n, edges):
        report = capacity_report(Graph(n, edges))
        is_path, degree = _brute_force_class(n, edges)
        assert report.regular_degree == degree
        if n == 2:
            assert (report.capacity, report.pir_reference) == (1, 1)
        elif is_path:
            assert (report.capacity, report.pir_reference) == (Fraction(1, n), Fraction(2, n))
        elif degree == 2:
            assert (report.capacity, report.pir_reference) == (Fraction(1, n), Fraction(2, n + 1))
        elif degree is not None:
            assert (report.capacity, report.pir_reference) == (Fraction(1, n), None)
        else:
            assert (report.capacity, report.pir_reference) == (None, None)
            assert report.capacity_note.startswith("unknown")

    def test_class_counts(self):
        exact = Counter()
        unknown = Counter()
        for n, edges in CASES:
            if capacity_report(Graph(n, edges)).capacity is None:
                unknown[n] += 1
            else:
                exact[n] += 1
        assert [exact[n] for n in (2, 3, 4, 5)] == [1, 2, 3, 3]
        assert [unknown[n] for n in (2, 3, 4, 5)] == [0, 0, 3, 18]
