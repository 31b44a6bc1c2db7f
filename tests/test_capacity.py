"""Rate and capacity values: exact rationals, topology classification, reports."""

import random
from fractions import Fraction

import pytest

from formula_oracles import paw_graph
from graphspir import (
    Graph,
    PrimeField,
    capacity_report,
    complete_graph,
    cycle_graph,
    init_system,
    path_graph,
    regular_graph,
    run_round,
    star_graph,
)


class TestAchievableRate:
    def test_examples(self):
        assert capacity_report(path_graph(3)).achievable_rate == Fraction(1, 3)
        assert capacity_report(star_graph(4)).achievable_rate == Fraction(1, 4)
        assert capacity_report(cycle_graph(10)).achievable_rate == Fraction(1, 10)

    def test_measured_rate_matches(self):
        field = PrimeField(3)
        for graph in (path_graph(3), cycle_graph(4), star_graph(4), paw_graph()):
            state = init_system(graph, field, 2, random.Random(6))
            transcript = run_round(state, 1, random.Random(7))
            measured = Fraction(2, transcript.downloaded_symbols)
            assert measured == capacity_report(graph).achievable_rate


def _notes(graph):
    report = capacity_report(graph)
    return report.capacity_note, report.pir_note


class TestTopologyClassification:
    def test_paths(self):
        # a path's tabulated reference is 2/N; at N = 2 that is the trivial 1
        assert capacity_report(path_graph(2)).pir_reference == Fraction(2, 2)
        assert capacity_report(path_graph(5)).pir_reference == Fraction(2, 5)
        assert "paths" in _notes(path_graph(5))[0]
        assert "path value" in _notes(path_graph(5))[1]
        assert capacity_report(cycle_graph(4)).pir_reference == Fraction(2, 5)
        assert "paths" not in _notes(cycle_graph(4))[0]
        assert capacity_report(star_graph(4)).capacity is None
        assert "path" not in _notes(star_graph(4))[1]

    def test_cycles(self):
        assert capacity_report(cycle_graph(3)).pir_reference == Fraction(2, 4)
        assert capacity_report(regular_graph(6, 2)).pir_reference == Fraction(2, 7)
        assert "cycle value" in _notes(regular_graph(6, 2))[1]
        assert capacity_report(path_graph(3)).pir_reference == Fraction(2, 3)
        assert "cycle" not in _notes(path_graph(3))[1]
        # regular but degree 3: exact capacity, no tabulated reference
        assert capacity_report(complete_graph(4)).pir_reference is None
        assert capacity_report(complete_graph(4)).capacity == Fraction(1, 4)
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
        assert capacity_report(path_graph(5)).capacity == Fraction(1, 5)

    def test_regular_graphs(self):
        assert capacity_report(complete_graph(4)).capacity == Fraction(1, 4)
        assert capacity_report(cycle_graph(6)).capacity == Fraction(1, 6)
        assert capacity_report(regular_graph(6, 3)).capacity == Fraction(1, 6)

    def test_irregular_non_path_is_unknown(self):
        assert capacity_report(star_graph(4)).capacity is None
        assert capacity_report(paw_graph()).capacity is None

    def test_two_server_system_is_trivial(self):
        # one message on two servers: the user wants the only message there
        # is, so nothing needs hiding and the full symbol rate is achievable
        assert capacity_report(path_graph(2)).capacity == 1


class TestPirReference:
    def test_paths(self):
        assert capacity_report(path_graph(4)).pir_reference == Fraction(1, 2)

    def test_cycles(self):
        assert capacity_report(cycle_graph(5)).pir_reference == Fraction(1, 3)

    def test_unknown_topologies(self):
        assert capacity_report(complete_graph(4)).pir_reference is None
        assert capacity_report(star_graph(4)).pir_reference is None
        assert capacity_report(paw_graph()).pir_reference is None

    def test_two_server_system(self):
        assert capacity_report(path_graph(2)).pir_reference == 1


class TestRelations:
    def test_path_symmetric_rate_is_half_of_reference(self):
        for n in range(3, 8):
            report = capacity_report(path_graph(n))
            assert report.capacity == report.pir_reference / 2

    def test_cycle_symmetric_rate_beats_half_of_reference(self):
        for n in range(3, 8):
            report = capacity_report(cycle_graph(n))
            assert report.capacity > report.pir_reference / 2
            assert Fraction(1, n) > Fraction(1, n + 1)

    def test_capacity_equals_achievable_when_known(self):
        for graph in (path_graph(4), cycle_graph(5), complete_graph(4)):
            report = capacity_report(graph)
            assert report.capacity == report.achievable_rate


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
