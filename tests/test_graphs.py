import itertools
import math

import pytest

from brokenchains.graphs import (
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
from conftest import (
    Bipartition,
    complete_graph,
    cycle_graph,
    edge_set,
    empty_graph,
    members,
    path_graph,
    star_graph,
)


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for n=3$"):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("n, message", [(2.5, "vertex count must be an integer, not 2.5"),
                                            (True, "vertex count must be an integer, not True"),
                                            (-1, "vertex count must be nonnegative")])
    def test_rejects_bad_vertex_count(self, n, message):
        with pytest.raises(ValueError) as info:
            Graph(n, [])
        assert str(info.value) == message

    def test_deduplicates_and_normalizes(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert (g.u.tolist(), g.v.tolist()) == ([0], [1])
        assert g.adjacency[0, 1] == g.adjacency[1, 0] == 1.0

    def test_adjacency_symmetric(self):
        g = path_graph(4)
        assert (g.adjacency == g.adjacency.T).all()
        for u, v in edge_set(g):
            assert g.adjacency[u, v] == g.adjacency[v, u] == 1.0

    def test_max_degree(self):
        assert star_graph(4).max_degree() == 4
        assert empty_graph(3).max_degree() == 0

    def test_queries_agree_with_edges(self):
        g = erdos_renyi(12, 0.4, 3)
        edges = edge_set(g)
        for u in g.vertices():
            expect = [float((min(u, v), max(u, v)) in edges) for v in g.vertices()]
            assert g.adjacency[u, : g.n].tolist() == expect
        assert g.max_degree() == max(sum(u in edge for edge in edges) for u in g.vertices())


class TestErdosRenyi:
    def test_p_zero_is_empty(self):
        assert len(erdos_renyi(5, 0.0, 1).u) == 0

    def test_p_one_is_complete(self):
        assert len(erdos_renyi(5, 1.0, 1).u) == 10

    def test_edge_count_within_four_sigma(self):
        # binomial over 2080 pairs at p = .5: mean 1040, sigma = sqrt(520)
        g = erdos_renyi(65, 0.5, 7)
        sigma = math.sqrt(2080 * 0.25)
        assert abs(len(g.u) - 1040) <= 4 * sigma

    def test_reproducible(self):
        assert edge_set(erdos_renyi(20, 0.4, 9)) == edge_set(erdos_renyi(20, 0.4, 9))
        assert edge_set(erdos_renyi(20, 0.4, 9)) != edge_set(erdos_renyi(20, 0.4, 10))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, 1)
        with pytest.raises(ValueError):
            erdos_renyi(5, -0.1, 1)

    @pytest.mark.parametrize("n, p, message", [
        (True, 0.5, "n must be an integer, not True"),
        (0, 0.5, "n must be >= 1, not 0"),
        (4.0, 0.5, "n must be an integer, not 4.0"),
        (4, True, "edge probability must be a real number, not True"),
        (4, "0.5", "edge probability must be a real number, not '0.5'"),
        (4, float("nan"), "edge probability must be a real number, not nan"),
        (4, 1.5, "edge probability must be in [0, 1], not 1.5"),
    ])
    def test_rejects_bad_settings_by_name(self, n, p, message):
        with pytest.raises(ValueError) as info:
            erdos_renyi(n, p, 0)
        assert str(info.value) == message


class TestComplement:
    def test_complete_to_empty(self):
        assert len(complement(complete_graph(4)).u) == 0

    def test_empty_to_complete(self):
        assert edge_set(complement(empty_graph(3))) == edge_set(complete_graph(3))

    def test_involution(self):
        g = erdos_renyi(10, 0.3, 2)
        assert complement(complement(g)) == g

    def test_edge_counts_sum(self):
        g = erdos_renyi(12, 0.6, 5)
        assert len(g.u) + len(complement(g).u) == 12 * 11 // 2


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

    @pytest.mark.parametrize("check", [is_clique, is_vertex_cover, cut_size])
    @pytest.mark.parametrize(
        "vertices, bad", [([1, -1, 4], -1), ([1, 4, -1], 4), ([-2], -2), ([0, 9], 9)]
    )
    def test_checks_name_first_out_of_range_vertex(self, check, vertices, bad):
        # an iterator, so that the vertices are read in one pass
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for n=4$"):
            check(path_graph(4), iter(vertices))


class TestCutSize:
    # cut_size takes the plus side; every other vertex is on the minus side
    def test_k4_two_two(self):
        assert cut_size(complete_graph(4), {2, 3}) == 4

    def test_empty_side(self):
        g = erdos_renyi(6, 0.5, 4)
        assert cut_size(g, set()) == 0
        assert cut_size(g, set(range(6))) == 0

    def test_matches_independent_edge_scan(self):
        g = erdos_renyi(12, 0.5, 3)
        minus = frozenset({0, 2, 4, 6, 8, 10})
        recount = sum(1 for u, v in edge_set(g) if (u in minus) != (v in minus))
        assert cut_size(g, frozenset(range(12)) - minus) == recount

    def test_overlap_rejected(self):
        # the test references' set form of a cut refuses a vertex on both sides
        with pytest.raises(ValueError):
            Bipartition(frozenset({0, 1}), frozenset({1, 2}))


class TestBruteForce:
    def test_clique_on_k5(self):
        value, witness = brute_force("max_clique", complete_graph(5))
        assert value == 5 and witness.tolist() == [True] * 5

    def test_cover_on_star(self):
        value, witness = brute_force("min_vertex_cover", star_graph(4))
        assert value == 1 and witness.tolist() == [True, False, False, False, False]

    def test_max_cut_on_c5(self):
        # independent oracle: enumerate all 32 splits by hand
        g = cycle_graph(5)
        best = 0
        for bits in itertools.product((0, 1), repeat=5):
            best = max(best, sum(1 for u, v in edge_set(g) if bits[u] != bits[v]))
        assert best == 4
        value, witness = brute_force("max_cut", g)
        assert value == 4
        assert cut_size(g, members(witness)) == 4

    def test_partitioning_balanced(self):
        g = erdos_renyi(9, 0.5, 8)
        value, witness = brute_force("graph_partitioning", g)
        assert witness.shape == (9,) and witness.sum() in (4, 5)
        assert cut_size(g, members(witness)) == value
        # oracle: enumerate balanced splits directly
        best = None
        for side in itertools.combinations(range(9), 4):
            side = set(side)
            cut = sum(1 for u, v in edge_set(g) if (u in side) != (v in side))
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

    @pytest.mark.parametrize("text, edge", [("3 2\n0 1\n1 0\n", "(1, 0)"),
                                            ("4 3\n2 3\n0 1\n2 3\n", "(2, 3)")])
    def test_repeated_edge_rejected(self, tmp_path, text, edge):
        # a header that counts an edge twice is a malformed file, not a smaller graph
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^edge \{edge[:-1]}\) is listed twice$"):
            read_edge_list(path)
