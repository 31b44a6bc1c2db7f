"""Graph model: construction guards, incidence matrices, families, edge lists."""

import random
import tracemalloc

import pytest

from graphspir import (
    FAMILIES,
    Graph,
    build_graph,
    capacity_report,
    complete_graph,
    cycle_graph,
    from_family,
    parse_edge_list,
    path_graph,
    regular_graph,
    star_graph,
)
from graphspir.graph import _signed_table


def paw_graph():
    return build_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def _plain_rows(g):
    """The 0/1 vertex-by-edge incidence table, read from ``incident_edges``."""
    return tuple(
        tuple(int(k in g.incident_edges(v)) for k in range(1, g.n_edges + 1))
        for v in range(1, g.n_vertices + 1)
    )


def _signed_rows(g):
    """The signed incidence table, read from the per-vertex index."""
    return tuple(
        tuple(dict(zip(held, signs)).get(k, 0) for k in range(1, g.n_edges + 1))
        for held, signs in g._incidence
    )


def _scanned_incidence(g, vertex):
    """Brute force: the held edges and signs of ``vertex``, by a scan of ``g.edges``."""
    held = tuple(k for k, edge in enumerate(g.edges, start=1) if vertex in edge)
    return held, tuple(1 if g.edges[k - 1][0] == vertex else -1 for k in held)


class TestBuildGraph:
    def test_path3(self):
        g = build_graph(3, [(1, 2), (2, 3)])
        assert g.n_vertices == 3
        assert g.n_edges == 2
        assert g.edges == ((1, 2), (2, 3))

    def test_cycle3(self):
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        assert g.n_edges == 3

    def test_endpoint_order_normalized(self):
        g = build_graph(3, [(2, 1), (3, 2)])
        assert g.edges == ((1, 2), (2, 3))

    def test_edge_order_preserved(self):
        g = build_graph(3, [(1, 3), (2, 3), (1, 2)])
        assert g.edges == ((1, 3), (2, 3), (1, 2))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 2), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            build_graph(3, [(1, 2), (2, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1), (2, 3)])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 2), (2, 4)])
        with pytest.raises(ValueError):
            build_graph(3, [(0, 1), (1, 2)])

    def test_non_int_endpoint_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            build_graph(3, [(1.0, 2), (2, 3)])
        with pytest.raises(ValueError, match="non-integer"):
            build_graph(3, [(True, 2), (2, 3)])

    def test_malformed_edges_refused_by_name(self):
        # each of these used to escape as a TypeError or an unpacking error
        with pytest.raises(ValueError, match=r"^edge 1 is not a pair$"):
            Graph(3, [1, 2])
        with pytest.raises(ValueError, match=r"^edge 1 is not a pair$"):
            build_graph(3, [1, 2])
        with pytest.raises(ValueError, match=r"^edge \(3, '2'\) has a non-integer endpoint$"):
            build_graph(3, [(2, 1), (3, "2")])
        with pytest.raises(ValueError, match=r"^edge \(1, 2, 3\) is not a pair$"):
            build_graph(3, [(1, 2, 3)])
        with pytest.raises(ValueError, match=r"^edge \(1,\) is not a pair$"):
            build_graph(3, [[1], (2, 3)])
        with pytest.raises(ValueError, match=r"^edges must be an iterable of pairs, got 5$"):
            Graph(3, 5)
        with pytest.raises(ValueError, match=r"^edges must be an iterable of pairs, got None$"):
            build_graph(3, None)

    def test_unnormalized_edge_refused_by_graph(self):
        # build_graph swaps a reversed pair; Graph itself refuses one
        with pytest.raises(ValueError, match=r"^edge \(2, 1\) is not normalized \(expected u < v\)$"):
            Graph(3, ((2, 1), (2, 3)))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            build_graph(4, [(1, 2), (3, 4)])

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 2)])

    def test_too_few_edges_rejected_before_any_per_vertex_work(self):
        # one edge cannot connect a million vertices; a per-vertex scan
        # would allocate tens of MiB before saying so
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="graph is not connected"):
                Graph(10**6, ((1, 2),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="graph is not connected"):
            parse_edge_list("1000000 1\n1 2\n")

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            build_graph(1, [])

    @pytest.mark.parametrize(
        "edges",
        [[(1, 2), (2, 3)], ([1, 2], [2, 3]), [[1, 2], (2, 3)]],
        ids=["list-of-tuples", "tuple-of-lists", "list-of-mixed"],
    )
    def test_edge_sequences_normalized_to_tuples(self, edges):
        graph = Graph(3, edges)
        assert graph.edges == ((1, 2), (2, 3))
        assert graph == path_graph(3)
        assert hash(graph) == hash(path_graph(3))
        assert {path_graph(3): "x"}[graph] == "x"

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            build_graph(2, [])


class TestIncidenceMatrices:
    def test_path3_incidence(self):
        assert _plain_rows(path_graph(3)) == ((1, 0), (1, 1), (0, 1))

    def test_cycle3_incidence(self):
        assert _plain_rows(cycle_graph(3)) == ((1, 0, 1), (1, 1, 0), (0, 1, 1))

    def test_star4_incidence(self):
        assert _plain_rows(star_graph(4)) == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 1),
        )

    def test_path3_signed(self):
        assert _signed_rows(path_graph(3)) == ((1, 0), (-1, 1), (0, -1))

    def test_cycle3_signed(self):
        assert _signed_rows(cycle_graph(3)) == (
            (1, 0, 1),
            (-1, 1, 0),
            (0, -1, -1),
        )

    def test_star4_signed(self):
        assert _signed_rows(star_graph(4)) == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (-1, -1, -1),
        )

    def test_paw_signed(self):
        assert _signed_rows(paw_graph()) == (
            (1, 1, 0, 0),
            (-1, 0, 1, 0),
            (0, -1, -1, 1),
            (0, 0, 0, -1),
        )

    @pytest.mark.parametrize(
        "graph",
        [
            path_graph(3),
            path_graph(6),
            cycle_graph(4),
            star_graph(5),
            complete_graph(4),
            paw_graph(),
        ],
        ids=["path3", "path6", "cycle4", "star5", "complete4", "paw"],
    )
    def test_column_structure(self, graph):
        signed = _signed_rows(graph)
        plain = _plain_rows(graph)
        for k in range(graph.n_edges):
            column = [signed[n][k] for n in range(graph.n_vertices)]
            assert sorted(column) == [-1] + [0] * (graph.n_vertices - 2) + [1]
            assert sum(column) == 0
        assert plain == tuple(
            tuple(abs(entry) for entry in row) for row in signed
        )


class TestVertexEdgeQueries:
    def test_degree(self):
        assert path_graph(3).degree(2) == 2
        assert path_graph(3).degree(1) == 1
        assert star_graph(4).degree(4) == 3
        assert all(cycle_graph(3).degree(v) == 2 for v in (1, 2, 3))

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            path_graph(3).degree(4)
        with pytest.raises(ValueError):
            path_graph(3).degree(0)

    def test_message_holders(self):
        assert path_graph(3).message_holders(1) == (1, 2)
        assert paw_graph().message_holders(3) == (2, 3)
        assert cycle_graph(3).message_holders(2) == (2, 3)

    def test_message_holders_out_of_range(self):
        with pytest.raises(ValueError):
            path_graph(3).message_holders(3)

    def test_incident_edges_ascending(self):
        assert path_graph(3).incident_edges(2) == (1, 2)
        assert cycle_graph(3).incident_edges(1) == (1, 3)
        assert star_graph(4).incident_edges(4) == (1, 2, 3)
        assert paw_graph().incident_edges(3) == (2, 3, 4)

    def test_edge_sign(self):
        g = paw_graph()
        # +1 at an edge's smaller holder, -1 at its larger one
        assert dict(zip(*g._incidence[0]))[1] == 1
        assert dict(zip(*g._incidence[1]))[1] == -1
        assert dict(zip(*g._incidence[2]))[4] == 1
        assert dict(zip(*g._incidence[3]))[4] == -1

    def test_edge_sign_non_incident(self):
        g = path_graph(3)
        assert 2 not in g.incident_edges(1)
        assert len(g._incidence[0][1]) == len(g.incident_edges(1)) == 1

    def test_bool_vertex_and_message_rejected(self):
        g = path_graph(3)
        for call in (g.degree, g.incident_edges):
            with pytest.raises(ValueError, match="no vertex True"):
                call(True)
        with pytest.raises(ValueError, match="no message True"):
            g.message_holders(True)

    def test_non_int_vertex_and_message_rejected(self):
        g = path_graph(3)
        for bad in (1.0, "1", None):
            with pytest.raises(ValueError, match="no vertex"):
                g.incident_edges(bad)
            with pytest.raises(ValueError, match="no message"):
                g.message_holders(bad)

    def test_regular_degree(self):
        assert capacity_report(cycle_graph(3)).regular_degree == 2
        assert capacity_report(path_graph(3)).regular_degree is None
        assert capacity_report(complete_graph(4)).regular_degree == 3

    def test_regular_degree_edge_count_relation(self):
        for graph in (cycle_graph(5), complete_graph(4), regular_graph(6, 3)):
            d = capacity_report(graph).regular_degree
            assert d is not None
            assert graph.n_vertices * d == 2 * graph.n_edges


def _shuffled(graph, seed):
    edges = list(graph.edges)
    random.Random(seed).shuffle(edges)
    return build_graph(graph.n_vertices, [(v, u) for u, v in edges])


INDEXED_GRAPHS = {
    **{family: from_family(family, 6, 3 if family == "regular" else None) for family in FAMILIES},
    "paw": paw_graph(),
    **{f"complete6-shuffled-{seed}": _shuffled(complete_graph(6), seed) for seed in range(3)},
    **{f"regular8-shuffled-{seed}": _shuffled(regular_graph(8, 3), seed) for seed in range(3)},
}


class TestIncidenceIndex:
    """The per-vertex index agrees with a scan of the edges."""

    @pytest.mark.parametrize("graph", INDEXED_GRAPHS.values(), ids=INDEXED_GRAPHS.keys())
    def test_matches_signed_incidence_scan(self, graph):
        for vertex in range(1, graph.n_vertices + 1):
            held, signs = _scanned_incidence(graph, vertex)
            assert graph._incidence[vertex - 1] == (held, signs)
            assert graph.incident_edges(vertex) == held
            assert graph.degree(vertex) == len(held)

    @pytest.mark.parametrize("graph", INDEXED_GRAPHS.values(), ids=INDEXED_GRAPHS.keys())
    def test_signed_gather_reads_the_signed_row(self, graph):
        # the path's ends and the star's leaves have degree 1; the table
        # holds a vector, then its negation mod q
        q, coeffs = 1009, tuple(range(100, 100 + graph.n_edges))
        table = _signed_table(coeffs, q)
        for vertex, gather in enumerate(graph._signed_gather, start=1):
            held, signs = _scanned_incidence(graph, vertex)
            assert gather(table) == tuple(sign * (99 + e) % q for e, sign in zip(held, signs))

    def test_equality_and_hash_ignore_the_index(self):
        indexed, fresh = cycle_graph(5), cycle_graph(5)
        indexed.incident_edges(1)
        assert indexed == fresh
        assert hash(indexed) == hash(fresh)
        assert {indexed: "x"}[fresh] == "x"


class TestGenerators:
    def test_path_edges(self):
        assert path_graph(3).edges == ((1, 2), (2, 3))
        assert path_graph(2).edges == ((1, 2),)

    def test_cycle_edges_close_last(self):
        assert cycle_graph(3).edges == ((1, 2), (2, 3), (1, 3))
        assert cycle_graph(4).edges == ((1, 2), (2, 3), (3, 4), (1, 4))

    def test_star_hub_is_last_vertex(self):
        assert star_graph(4).edges == ((1, 4), (2, 4), (3, 4))

    def test_complete_lexicographic(self):
        assert complete_graph(4).edges == (
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
        )

    def test_regular_complete_case(self):
        g = regular_graph(4, 3)
        assert g.n_edges == 6
        assert set(g.edges) == set(complete_graph(4).edges)

    def test_regular_two_is_a_cycle(self):
        g = regular_graph(5, 2)
        assert capacity_report(g).regular_degree == 2
        assert set(g.edges) == set(cycle_graph(5).edges)

    def test_regular_invalid_parameters(self):
        with pytest.raises(ValueError):
            regular_graph(3, 3)  # degree must be below vertex count
        with pytest.raises(ValueError):
            regular_graph(5, 3)  # odd vertex-degree product
        with pytest.raises(ValueError):
            regular_graph(4, 0)

    def test_generator_minimum_sizes(self):
        with pytest.raises(ValueError):
            path_graph(1)
        with pytest.raises(ValueError):
            cycle_graph(2)
        assert star_graph(2).edges == ((1, 2),)  # degenerate star is one edge
        with pytest.raises(ValueError, match="^a star needs at least 2 vertices, got 1$"):
            star_graph(1)
        with pytest.raises(ValueError, match="^a complete graph needs at least 2 vertices, got 1$"):
            complete_graph(1)

    def test_from_family(self):
        assert from_family("path", 3).edges == path_graph(3).edges
        assert from_family("regular", 4, 3).edges == regular_graph(4, 3).edges
        assert "path" in FAMILIES and "regular" in FAMILIES
        with pytest.raises(ValueError):
            from_family("tree", 3)
        with pytest.raises(ValueError):
            from_family("regular", 4)  # degree required

    @pytest.mark.parametrize("family", ["path", "cycle", "star", "complete", "tree"])
    def test_from_family_rejects_a_degree_outside_regular(self, family):
        with pytest.raises(ValueError, match="only the regular family takes a degree"):
            from_family(family, 6, 3)

    @pytest.mark.parametrize("n", ["3", 2.5, 3.0, True, None])
    @pytest.mark.parametrize("generator", [path_graph, cycle_graph, star_graph, complete_graph])
    def test_generators_reject_a_non_int_count(self, generator, n):
        with pytest.raises(ValueError, match="n must be an int"):
            generator(n)

    @pytest.mark.parametrize("n, degree", [(4, 3.0), (4, "3"), (4, True), ("4", 3), (4.0, 3)])
    def test_regular_rejects_a_non_int_count(self, n, degree):
        with pytest.raises(ValueError, match="must be an int"):
            regular_graph(n, degree)
        with pytest.raises(ValueError, match="must be an int"):
            from_family("regular", n, degree)


class TestEdgeListFormat:
    def test_parse_basic(self):
        g = parse_edge_list("3 2\n1 2\n2 3\n")
        assert g.edges == ((1, 2), (2, 3))

    def test_parse_comments_and_blanks(self):
        text = """
        # a three-server ring
        3 3

        1 2
        2 3  # closing pair next
        1 3
        """
        g = parse_edge_list(text)
        assert g.edges == ((1, 2), (2, 3), (1, 3))

    def test_round_trip_is_identity(self):
        for graph in (path_graph(4), cycle_graph(5), star_graph(4), paw_graph()):
            text = f"{graph.n_vertices} {graph.n_edges}\n"
            text += "".join(f"{u} {v}\n" for u, v in graph.edges)
            assert parse_edge_list(text) == graph

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("3\n1 2\n2 3\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_edge_list("3 2\n1 2\nx y\n")

    def test_parse_edge_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n1 2\n")
        with pytest.raises(ValueError):
            parse_edge_list("3 1\n1 2\n2 3\n")

    def test_parse_refuses_an_empty_edge_list(self):
        with pytest.raises(ValueError, match="^empty edge list$"):
            parse_edge_list("# nothing\n\n")

    def test_parse_validates_graph(self):
        with pytest.raises(ValueError):
            parse_edge_list("4 2\n1 2\n3 4\n")  # disconnected
