"""Rate and capacity values: exact rationals, topology classification, reports."""

import random
from fractions import Fraction

import pytest

from formula_oracles import paw_graph
from graphspir import (
    Graph,
    PrimeField,
    achievable_rate,
    capacity_report,
    complete_graph,
    cycle_graph,
    init_system,
    path_graph,
    pir_reference,
    regular_graph,
    run_round,
    spir_capacity,
    star_graph,
)


class TestAchievableRate:
    def test_examples(self):
        assert achievable_rate(path_graph(3)) == Fraction(1, 3)
        assert achievable_rate(star_graph(4)) == Fraction(1, 4)
        assert achievable_rate(cycle_graph(10)) == Fraction(1, 10)

    def test_measured_rate_matches(self):
        field = PrimeField(3)
        for graph in (path_graph(3), cycle_graph(4), star_graph(4), paw_graph()):
            state = init_system(graph, field, 2, random.Random(6))
            transcript = run_round(state, 1, random.Random(7))
            measured = Fraction(2, transcript.downloaded_symbols)
            assert measured == achievable_rate(graph)


def _notes(graph):
    report = capacity_report(graph)
    return report.capacity_note, report.pir_note


class TestTopologyClassification:
    def test_paths(self):
        # a path's tabulated reference is 2/N; at N = 2 that is the trivial 1
        assert pir_reference(path_graph(2)) == Fraction(2, 2)
        assert pir_reference(path_graph(5)) == Fraction(2, 5)
        assert "paths" in _notes(path_graph(5))[0]
        assert "path value" in _notes(path_graph(5))[1]
        assert pir_reference(cycle_graph(4)) == Fraction(2, 5)
        assert "paths" not in _notes(cycle_graph(4))[0]
        assert spir_capacity(star_graph(4)) is None
        assert "path" not in _notes(star_graph(4))[1]

    def test_cycles(self):
        assert pir_reference(cycle_graph(3)) == Fraction(2, 4)
        assert pir_reference(regular_graph(6, 2)) == Fraction(2, 7)
        assert "cycle value" in _notes(regular_graph(6, 2))[1]
        assert pir_reference(path_graph(3)) == Fraction(2, 3)
        assert "cycle" not in _notes(path_graph(3))[1]
        # regular but degree 3: exact capacity, no tabulated reference
        assert pir_reference(complete_graph(4)) is None
        assert spir_capacity(complete_graph(4)) == Fraction(1, 4)
        assert "regular graphs" in _notes(complete_graph(4))[0]

    @pytest.mark.parametrize(
        "graph", [path_graph(5), cycle_graph(5), star_graph(5), complete_graph(5)],
        ids=["path-5", "cycle-5", "star-5", "complete-5"],
    )
    def test_a_report_classifies_once(self, monkeypatch, graph):
        # a report reads one count of the degrees from the incidence index,
        # never a degree per vertex
        def refused(self, vertex):
            raise AssertionError(f"read the degree of vertex {vertex}")

        monkeypatch.setattr(Graph, "degree", refused)
        capacity_report(graph)


class TestSpirCapacity:
    def test_paths(self):
        assert spir_capacity(path_graph(5)) == Fraction(1, 5)

    def test_regular_graphs(self):
        assert spir_capacity(complete_graph(4)) == Fraction(1, 4)
        assert spir_capacity(cycle_graph(6)) == Fraction(1, 6)
        assert spir_capacity(regular_graph(6, 3)) == Fraction(1, 6)

    def test_irregular_non_path_is_unknown(self):
        assert spir_capacity(star_graph(4)) is None
        assert spir_capacity(paw_graph()) is None

    def test_two_server_system_is_trivial(self):
        # one message on two servers: the user wants the only message there
        # is, so nothing needs hiding and the full symbol rate is achievable
        assert spir_capacity(path_graph(2)) == 1


class TestPirReference:
    def test_paths(self):
        assert pir_reference(path_graph(4)) == Fraction(1, 2)

    def test_cycles(self):
        assert pir_reference(cycle_graph(5)) == Fraction(1, 3)

    def test_unknown_topologies(self):
        assert pir_reference(complete_graph(4)) is None
        assert pir_reference(star_graph(4)) is None
        assert pir_reference(paw_graph()) is None

    def test_two_server_system(self):
        assert pir_reference(path_graph(2)) == 1


class TestRelations:
    def test_path_symmetric_rate_is_half_of_reference(self):
        for n in range(3, 8):
            assert spir_capacity(path_graph(n)) == pir_reference(path_graph(n)) / 2

    def test_cycle_symmetric_rate_beats_half_of_reference(self):
        for n in range(3, 8):
            half = pir_reference(cycle_graph(n)) / 2
            assert spir_capacity(cycle_graph(n)) > half
            assert Fraction(1, n) > Fraction(1, n + 1)

    def test_capacity_equals_achievable_when_known(self):
        for graph in (path_graph(4), cycle_graph(5), complete_graph(4)):
            assert spir_capacity(graph) == achievable_rate(graph)


class TestCapacityReport:
    def test_path_report(self):
        record = capacity_report(path_graph(6), "path-6").to_dict()
        assert record["servers"] == 6
        assert record["messages"] == 5
        assert record["achievable_rate"] == "1/6"
        assert record["capacity"] == "1/6"
        assert record["pir_reference"] == "1/3"
        assert "half" in record["pir_note"]

    def test_cycle_report(self):
        record = capacity_report(cycle_graph(4), "cycle-4").to_dict()
        assert record["capacity"] == "1/4"
        assert record["pir_reference"] == "2/5"
        assert record["regular_degree"] == 2
        assert "exceeds half" in record["pir_note"]

    def test_unknown_report_keeps_lower_bound(self):
        record = capacity_report(star_graph(4), "star-4").to_dict()
        assert record["capacity"] is None
        assert record["achievable_rate"] == "1/4"
        assert "lower bound" in record["capacity_note"]

    def test_rationals_rendered_exactly(self):
        record = capacity_report(cycle_graph(9), "cycle-9").to_dict()
        assert record["achievable_rate"] == "1/9"
        assert record["pir_reference"] == "1/5"  # 2/10 reduced

    def test_trivial_system_report(self):
        record = capacity_report(path_graph(2), "path-2").to_dict()
        assert record["capacity"] == "1"
        assert "trivial" in record["capacity_note"]
