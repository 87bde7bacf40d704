import itertools
import math

import pytest

from brokenchains.graphs import (
    Bipartition,
    Graph,
    brute_force,
    complement,
    cut_size,
    erdos_renyi,
    is_clique,
    is_vertex_cover,
    read_edge_list,
    write_edge_list,
)
from conftest import complete_graph, cycle_graph, empty_graph, path_graph, star_graph


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_deduplicates_and_normalizes(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert len(g.edges) == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_adjacency_symmetric(self):
        g = path_graph(4)
        for u, v in g.edges:
            assert u in g.neighbors(v) and v in g.neighbors(u)

    def test_max_degree(self):
        assert star_graph(4).max_degree() == 4
        assert empty_graph(3).max_degree() == 0

    def test_queries_agree_with_edges(self):
        g = erdos_renyi(12, 0.4, 3)
        for u in g.vertices():
            expect = {v for v in g.vertices() if (min(u, v), max(u, v)) in g.edges}
            assert g.neighbors(u) == expect and g.degree(u) == len(expect)
            assert all(g.has_edge(u, v) == (v in expect) for v in g.vertices())
        assert g.max_degree() == max(g.degree(u) for u in g.vertices())

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize(
        "query",
        [
            lambda g, v: g.neighbors(v),
            lambda g, v: g.degree(v),
            lambda g, v: g.has_edge(v, 0),
            lambda g, v: g.has_edge(0, v),
        ],
    )
    def test_queries_name_out_of_range_vertex(self, query, bad):
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for n=4$"):
            query(path_graph(4), bad)


class TestErdosRenyi:
    def test_p_zero_is_empty(self):
        assert len(erdos_renyi(5, 0.0, 1).edges) == 0

    def test_p_one_is_complete(self):
        assert len(erdos_renyi(5, 1.0, 1).edges) == 10

    def test_edge_count_within_four_sigma(self):
        # binomial over 2080 pairs at p = .5: mean 1040, sigma = sqrt(520)
        g = erdos_renyi(65, 0.5, 7)
        sigma = math.sqrt(2080 * 0.25)
        assert abs(len(g.edges) - 1040) <= 4 * sigma

    def test_reproducible(self):
        assert erdos_renyi(20, 0.4, 9).edges == erdos_renyi(20, 0.4, 9).edges
        assert erdos_renyi(20, 0.4, 9).edges != erdos_renyi(20, 0.4, 10).edges

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, 1)
        with pytest.raises(ValueError):
            erdos_renyi(5, -0.1, 1)


class TestComplement:
    def test_complete_to_empty(self):
        assert len(complement(complete_graph(4)).edges) == 0

    def test_empty_to_complete(self):
        assert complement(empty_graph(3)).edges == complete_graph(3).edges

    def test_involution(self):
        g = erdos_renyi(10, 0.3, 2)
        assert complement(complement(g)) == g

    def test_edge_counts_sum(self):
        g = erdos_renyi(12, 0.6, 5)
        assert len(g.edges) + len(complement(g).edges) == 12 * 11 // 2


class TestCheckers:
    def test_clique_on_complete(self):
        assert is_clique(complete_graph(4), {0, 1, 2, 3})

    def test_clique_vacuous(self):
        g = path_graph(3)
        assert is_clique(g, set())
        assert is_clique(g, {1})

    def test_clique_missing_edge(self):
        assert not is_clique(path_graph(3), {0, 2})

    def test_clique_out_of_range(self):
        with pytest.raises(ValueError):
            is_clique(path_graph(3), {0, 5})

    def test_cover_path_center(self):
        assert is_vertex_cover(path_graph(3), {1})

    def test_cover_single_vertex_of_triangle(self):
        assert not is_vertex_cover(complete_graph(3), {0})

    def test_cover_all_vertices(self):
        g = erdos_renyi(8, 0.5, 3)
        assert is_vertex_cover(g, set(range(8)))

    def test_cover_out_of_range(self):
        with pytest.raises(ValueError):
            is_vertex_cover(path_graph(3), {7})

    @pytest.mark.parametrize("check", [is_clique, is_vertex_cover])
    @pytest.mark.parametrize(
        "vertices, bad", [([1, -1, 4], -1), ([1, 4, -1], 4), ([-2], -2), ([0, 9], 9)]
    )
    def test_checks_name_first_out_of_range_vertex(self, check, vertices, bad):
        # an iterator, so that the vertices are read in one pass
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for n=4$"):
            check(path_graph(4), iter(vertices))


class TestCutSize:
    def test_k4_two_two(self):
        b = Bipartition(side_minus=frozenset({0, 1}), side_plus=frozenset({2, 3}))
        assert cut_size(complete_graph(4), b) == 4

    def test_empty_side(self):
        g = erdos_renyi(6, 0.5, 4)
        b = Bipartition(side_minus=frozenset(range(6)), side_plus=frozenset())
        assert cut_size(g, b) == 0

    def test_matches_independent_edge_scan(self):
        g = erdos_renyi(12, 0.5, 3)
        minus = frozenset({0, 2, 4, 6, 8, 10})
        b = Bipartition(side_minus=minus, side_plus=frozenset(range(12)) - minus)
        recount = sum(1 for u, v in g.edges if (u in minus) != (v in minus))
        assert cut_size(g, b) == recount

    def test_incomplete_partition_rejected(self):
        with pytest.raises(ValueError):
            cut_size(path_graph(3), Bipartition(frozenset({0}), frozenset({1})))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Bipartition(frozenset({0, 1}), frozenset({1, 2}))


class TestBruteForce:
    def test_clique_on_k5(self):
        value, witness = brute_force("max_clique", complete_graph(5))
        assert value == 5 and witness == frozenset(range(5))

    def test_cover_on_star(self):
        value, witness = brute_force("min_vertex_cover", star_graph(4))
        assert value == 1 and witness == frozenset({0})

    def test_max_cut_on_c5(self):
        # independent oracle: enumerate all 32 splits by hand
        g = cycle_graph(5)
        best = 0
        for bits in itertools.product((0, 1), repeat=5):
            best = max(best, sum(1 for u, v in g.edges if bits[u] != bits[v]))
        assert best == 4
        value, witness = brute_force("max_cut", g)
        assert value == 4
        assert cut_size(g, witness) == 4

    def test_partitioning_balanced(self):
        g = erdos_renyi(9, 0.5, 8)
        value, witness = brute_force("graph_partitioning", g)
        assert witness.is_balanced()
        assert cut_size(g, witness) == value
        # oracle: enumerate balanced splits directly
        best = None
        for members in itertools.combinations(range(9), 4):
            members = set(members)
            cut = sum(1 for u, v in g.edges if (u in members) != (v in members))
            best = cut if best is None else min(best, cut)
        assert value == best

    def test_size_bound(self):
        with pytest.raises(ValueError):
            brute_force("max_clique", empty_graph(25))

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            brute_force("tsp", empty_graph(3))


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = erdos_renyi(10, 0.4, 6)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_header_format(self, tmp_path):
        g = path_graph(3)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        first = path.read_text().splitlines()[0]
        assert first == "3 2"
