import itertools

import numpy as np
import pytest

from brokenchains.bqm import (
    ISING,
    QUBO,
    BinaryQuadraticModel,
    build_max_clique_qubo,
    build_max_cut_ising,
    energy,
)
from brokenchains.graphs import (
    Graph,
    cut_size,
    erdos_renyi,
    is_clique,
    is_vertex_cover,
)
from brokenchains.sampler import inject_chain_breaks
from brokenchains.seeding import rng_from
from brokenchains.topology import (
    Embedding,
    PhysicalModel,
    chain_columns,
    chimera,
    clique_embedding,
    embed_bqm,
)
from brokenchains.unembed import (
    ChainReadout,
    decompose,
    decompose_set,
    majority_vote,
    max_clique_rows,
    max_cut_rows,
    minimize_energy,
    partitioning_rows,
    random_weighted,
    unembed_tailored,
    vertex_cover_rows,
)
from conftest import (
    complete_graph,
    empty_graph,
    members,
    one_read,
    path_graph,
    row_set,
    sides,
    stack,
    star_graph,
)


def ro(var, values, domain):
    values = tuple(values)
    ones = sum(1 for x in values if x == 1)
    return ChainReadout(
        var, values[0], domain, broken=len(set(values)) > 1, frac_ones=ones / len(values)
    )


def decompose_read(ss, e, domain=ISING, read=0):
    return decompose(ss.spins[read], chain_columns(e, ss.qubits), domain)


def clique(readouts, g):
    """One read's clique, as a vertex set."""
    return members(max_clique_rows(row_set(readouts), g)[0])


def cover(readouts, g):
    """One read's cover, as a vertex set."""
    return members(vertex_cover_rows(row_set(readouts), g)[0])


def cut(readouts, g, seed):
    """One read's cut from generator ``rng_from(seed)``, as a ``Bipartition``."""
    return sides(max_cut_rows(row_set(readouts), g, [rng_from(seed)])[0], g)


def partition(readouts, g, seed):
    """One read's partition from generator ``rng_from(seed)``, as a ``Bipartition``."""
    return sides(partitioning_rows(row_set(readouts), g, [rng_from(seed)])[0], g)


def random_readouts(nvars, domain, broken_vars, seed):
    """Synthetic readouts: unbroken random values, broken with mixed chains."""
    rng = rng_from(seed)
    one, zero = 1, (0 if domain == QUBO else -1)
    out = []
    for v in range(nvars):
        if v in broken_vars:
            length = int(rng.integers(2, 6))
            ones = int(rng.integers(1, length))
            values = [one] * ones + [zero] * (length - ones)
            rng.shuffle(values)
            out.append(ro(v, values, domain))
        else:
            value = one if rng.random() < 0.5 else zero
            out.append(ro(v, [value, value], domain))
    return out


class TestDecompose:
    def test_unbroken_chain(self):
        hw = chimera(1, 1, 4)
        e = clique_embedding(3, hw)
        m = build_max_cut_ising(complete_graph(3))
        pm = embed_bqm(m, e, hw, 1.0)
        s = inject_chain_breaks(one_read({0: 1, 1: -1, 2: 1}), 0.0, 0, pm)
        readouts = decompose_read(s, e)
        by_var = {r.variable: r for r in readouts}
        assert not by_var[0].broken and by_var[0].frac_ones == 1.0
        assert by_var[1].frac_ones == 0.0

    def test_broken_flag_and_fraction(self):
        r = ro(0, [1, -1], ISING)
        assert r.broken and r.frac_ones == 0.5

    def test_qubo_domain_mapping(self):
        hw = chimera(1, 1, 4)
        e = clique_embedding(2, hw)
        m = build_max_cut_ising(complete_graph(2))
        pm = embed_bqm(m, e, hw, 1.0)
        s = inject_chain_breaks(one_read({0: 1, 1: -1}), 0.0, 0, pm)
        readouts = decompose_read(s, e, domain=QUBO)
        by_var = {r.variable: r for r in readouts}
        assert by_var[1].value == 0 and not by_var[1].broken
        assert by_var[0].frac_ones == 1.0

    def test_missing_qubit_rejected(self):
        hw = chimera(1, 1, 4)
        e = clique_embedding(2, hw)
        m = build_max_cut_ising(complete_graph(2))
        pm = embed_bqm(m, e, hw, 1.0)
        s = inject_chain_breaks(one_read({0: 1, 1: -1}), 0.0, 0, pm)
        bigger = clique_embedding(3, hw)
        with pytest.raises(ValueError):
            decompose_read(s, bigger)

    @pytest.mark.parametrize("chains,empty", [
        ({0: (), 1: (0, 1)}, 0),  # would read chain 1's qubit as its side
        ({0: (0, 1), 1: ()}, 1),  # would index past the last qubit
        ({0: (0,), 1: (), 2: (1,), 3: ()}, 1),
    ])
    def test_empty_chain_rejected(self, chains, empty):
        columns = chain_columns(Embedding.from_chains(chains), np.array([0, 1]))
        with pytest.raises(ValueError, match=rf"^chain {empty} is empty$"):
            decompose_set(np.array([[1, -1]], np.int8), columns)


class TestStack:
    def test_rows_are_reads_and_columns_chains(self):
        reads = [[ro(1, [1, -1], ISING), ro(0, [-1, -1, -1], ISING)],
                 [ro(0, [1, 1, -1], ISING), ro(1, [1, 1], ISING)]]
        rs = stack(reads, (0, 1))
        assert len(rs) == 2 and rs.ids.tolist() == [0, 1]
        assert rs.high.tolist() == [[False, True], [True, True]]
        assert rs.broken.tolist() == [[False, True], [True, False]]
        assert rs.frac_ones.tolist() == [[0.0, 0.5], [2 / 3, 1.0]]
        assert row_set(reads[0]).frac_ones.tolist() == [[0.0, 0.5]]

    def test_names_the_read_that_differs(self):
        one = [ro(0, [1], ISING), ro(1, [1], ISING)]
        with pytest.raises(ValueError, match="^read 1: variables are not the model variables$"):
            stack([one, one[:1]], (0, 1))
        # a set over other variables than the model's or the graph's vertices
        m = BinaryQuadraticModel.from_terms(ISING, {0: 0.0, 1: 0.0, 2: 0.0}, {})
        with pytest.raises(ValueError, match="^variables are not the model variables$"):
            minimize_energy(stack([one], (0, 1)), m)
        with pytest.raises(ValueError, match="^variables are not the vertices 0..2$"):
            max_cut_rows(stack([one], (0, 1)), complete_graph(3), [rng_from(0)])


class TestMajorityVote:
    def test_majority(self):
        assert majority_vote(row_set([ro(0, [1, 1, 0], QUBO)])).tolist() == [[True]]

    def test_tie_goes_to_plus_one(self):
        assert majority_vote(row_set([ro(0, [1, -1], ISING)])).tolist() == [[True]]
        assert majority_vote(row_set([ro(0, [1, 0], QUBO)])).tolist() == [[True]]

    def test_unbroken_zero(self):
        assert majority_vote(row_set([ro(0, [0, 0, 0], QUBO)])).tolist() == [[False]]

    def test_minority_ising(self):
        assert majority_vote(row_set([ro(0, [-1, -1, 1], ISING)])).tolist() == [[False]]


def weighted_hits(chain, reads):
    """Random weighting of ``reads`` copies of one QUBO chain, read ``r``
    drawing from ``rng_from(r)``: the number of reads that give 1."""
    rs = stack([[ro(0, chain, QUBO)]] * reads, (0,))
    return int(random_weighted(rs, [rng_from(seed) for seed in range(reads)]).sum())


class TestRandomWeighted:
    def test_unbroken_kept(self):
        assert weighted_hits([1, 1], 20) == 20

    def test_half_split_frequency(self):
        assert abs(weighted_hits([1, 0], 10000) / 10000 - 0.5) <= 0.05

    def test_three_quarter_frequency(self):
        assert abs(weighted_hits([1, 1, 1, 0], 10000) / 10000 - 0.75) <= 0.05

    def test_deterministic_per_seed(self):
        rs = row_set(random_readouts(10, ISING, {2, 5, 7}, seed=4))
        assert np.array_equal(random_weighted(rs, [rng_from(3)]), random_weighted(rs, [rng_from(3)]))

    def test_missing_generator_named(self):
        rs = stack([random_readouts(4, ISING, {1, 2}, seed=s) for s in range(3)], range(4))
        with pytest.raises(ValueError, match="^read 0 has no generator$"):
            random_weighted(rs, [])
        with pytest.raises(ValueError, match="^read 2 has no generator$"):
            random_weighted(rs, [rng_from(0), rng_from(1)])


class TestMinimizeEnergy:
    def test_single_broken_follows_coupler(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 0.0, 1: 0.0}, {(0, 1): 1.0})
        out = minimize_energy(row_set([ro(0, [1, 1], ISING), ro(1, [1, -1], ISING)]), m)[0]
        assert out.tolist() == [True, False]

    def test_no_broken_is_identity(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0, 1: -1.0}, {(0, 1): 0.5})
        out = minimize_energy(row_set([ro(0, [-1, -1], ISING), ro(1, [-1, -1], ISING)]), m)[0]
        assert out.tolist() == [False, False]

    def test_two_broken_coupled_to_fixed_only(self):
        m = BinaryQuadraticModel.from_terms(
            ISING, {0: 0.0, 1: 0.5, 2: -0.3}, {(0, 1): 1.0, (0, 2): -2.0}
        )
        readouts = [
            ro(0, [-1, -1], ISING),
            ro(1, [1, -1], ISING),
            ro(2, [-1, 1], ISING),
        ]
        got = minimize_energy(row_set(readouts), m)[0]
        best = min(
            (dict(zip((1, 2), combo)) for combo in itertools.product((-1, 1), repeat=2)),
            key=lambda c: energy(m, {0: -1, **c}),
        )
        assert {1: got[1], 2: got[2]} == {v: x == 1 for v, x in best.items()}

    def test_single_broken_exhaustive_ising(self):
        for seed in range(50):
            rng = rng_from(seed)
            m = BinaryQuadraticModel.from_terms(
                ISING,
                {v: float(rng.uniform(-1, 1)) for v in range(6)},
                {
                    (u, v): float(rng.uniform(-1, 1))
                    for u in range(6)
                    for v in range(u + 1, 6)
                    if rng.random() < 0.5
                },
            )
            readouts = random_readouts(6, ISING, {3}, seed=seed + 100)
            got = dict(enumerate(np.where(minimize_energy(row_set(readouts), m)[0], 1, -1).tolist()))
            fixed = {r.variable: r.value for r in readouts if not r.broken}
            best = min((-1, 1), key=lambda x: energy(m, {**fixed, 3: x}))
            assert energy(m, got) <= energy(m, {**fixed, 3: best}) + 1e-9

    def test_coupling_summed_in_model_order(self):
        # -0.2 - 0.1 + 0.2 + 0.1 is 0 in exact arithmetic, but -2.8e-17 when
        # added term by term in model order, which is what the greedy sees
        m = BinaryQuadraticModel.from_terms(
            ISING, {0: 0.0, 1: -0.2, 2: 0.0, 3: 0.0}, {(0, 1): -0.1, (1, 2): -0.2, (1, 3): 0.1}
        )
        readouts = [
            ro(0, [1], ISING), ro(1, [1, -1], ISING), ro(2, [-1], ISING), ro(3, [1], ISING)
        ]
        assert minimize_energy(row_set(readouts), m)[0][1]

    def test_qubo_tie_takes_zero(self):
        m = BinaryQuadraticModel.from_terms(QUBO, {0: 0.0}, {})
        out = minimize_energy(row_set([ro(0, [1, 0], QUBO)]), m)[0]
        assert not out[0]

    def test_qubo_model_repairs_in_its_own_values(self):
        # the set carries no 0/1-or-+-1 choice for a caller to leave out,
        # so the repair of a QUBO model values a low chain 0: the broken
        # chain of variable 0 goes to 0, not to 1
        g = erdos_renyi(5, 0.5, 0)
        e = Embedding.from_chains({v: (2 * v, 2 * v + 1) for v in range(5)})
        spins = np.array([[-1, 1, 1, 1, -1, -1, 1, 1, -1, -1]], dtype=np.int8)
        rs = decompose_set(spins, chain_columns(e, range(10)))
        assert rs.broken.tolist() == [[True, False, False, False, False]]
        out = minimize_energy(rs, build_max_clique_qubo(g))
        assert np.where(out, 1, 0).tolist() == [[0, 1, 0, 1, 0]]

    def test_variable_mismatch(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0, 5: 1.0}, {})
        with pytest.raises(ValueError, match="^variables are not the model variables$"):
            minimize_energy(row_set([ro(0, [1, 1], ISING)]), m)


class TestMaxCliqueUnembed:
    def test_unbroken_feasible_core(self):
        g = complete_graph(4)
        readouts = [
            ro(0, [1, 1], QUBO),
            ro(1, [1, 1], QUBO),
            ro(2, [0, 0], QUBO),
            ro(3, [0, 0], QUBO),
        ]
        out = clique(readouts, g)
        assert out == {0, 1}

    def test_infeasible_core_returns_empty(self):
        g = path_graph(3)
        readouts = [ro(0, [1, 1], QUBO), ro(1, [0, 0], QUBO), ro(2, [1, 1], QUBO)]
        out = clique(readouts, g)
        assert out == frozenset()

    def test_growth_order_by_fraction(self):
        g = complete_graph(4)
        readouts = [
            ro(0, [1, 1], QUBO),
            ro(1, [1, 1], QUBO),
            ro(2, [1, 1, 1, 1, 0], QUBO),
            ro(3, [1, 1, 1, 0, 0], QUBO),
        ]
        out = clique(readouts, g)
        assert out == {0, 1, 2, 3}

    def test_candidates_must_join_whole_clique(self):
        # vertex 3 adjacent to only part of the core never joins
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        readouts = [
            ro(0, [1, 1], QUBO),
            ro(1, [1, 1], QUBO),
            ro(2, [0, 0], QUBO),
            ro(3, [1, 0], QUBO),
        ]
        out = clique(readouts, g)
        assert out == {0, 1}

    def test_degree_precedes_fraction(self):
        # 2 and 3 both joinable; 3 has higher candidate-degree via 4
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 4), (0, 4), (1, 4)])
        readouts = [
            ro(0, [1, 1], QUBO),
            ro(1, [1, 1], QUBO),
            ro(2, [1, 1, 1, 0], QUBO),
            ro(3, [1, 0, 0, 0], QUBO),
            ro(4, [1, 0, 0, 0], QUBO),
        ]
        out = clique(readouts, g)
        assert 3 in out and 4 in out and 2 not in out


class TestMaxCutUnembed:
    def test_unbroken_passthrough(self):
        g = path_graph(3)
        readouts = [ro(v, [s, s], ISING) for v, s in ((0, 1), (1, -1), (2, 1))]
        out = cut(readouts, g, 0)
        assert out.side_plus == {0, 2} and out.side_minus == {1}

    def test_star_center_opposes_leaves(self):
        g = star_graph(4)
        readouts = [ro(0, [1, -1], ISING)] + [
            ro(i, [1, 1], ISING) for i in range(1, 5)
        ]
        out = cut(readouts, g, 1)
        assert 0 in out.side_minus

    def test_isolated_tie_uses_majority(self):
        g = empty_graph(1)
        assert 0 in cut([ro(0, [1, 1, -1], ISING)], g, 1).side_plus

    def test_complete_partition(self):
        g = erdos_renyi(12, 0.4, 3)
        readouts = random_readouts(12, ISING, {1, 4, 6, 9}, seed=8)
        out = cut(readouts, g, 5)
        assert out.is_complete_for(g)

    def test_deterministic_given_seed(self):
        g = erdos_renyi(10, 0.5, 1)
        readouts = random_readouts(10, ISING, {0, 3, 7}, seed=2)
        assert cut(readouts, g, 9) == cut(readouts, g, 9)

    def test_missing_generator_named(self):
        g = path_graph(4)
        rs = stack([random_readouts(4, ISING, {1, 2}, seed=s) for s in range(3)], range(4))
        for rows in (max_cut_rows, partitioning_rows):
            with pytest.raises(ValueError, match="^read 0 has no generator$"):
                rows(rs, g, [])
            with pytest.raises(ValueError, match="^read 1 has no generator$"):
                rows(rs, g, iter([rng_from(0)]))


class TestGraphPartitioningUnembed:
    def test_unbroken_passthrough_balanced(self):
        g = empty_graph(4)
        readouts = [ro(v, [s, s], ISING) for v, s in ((0, 1), (1, 1), (2, -1), (3, -1))]
        part = partition(readouts, g, 0)
        assert part.is_balanced() and part.side_plus == {0, 1}

    def test_isolated_broken_follow_majority(self):
        g = empty_graph(5)
        readouts = [
            ro(0, [1, 1], ISING),
            ro(1, [1, 1], ISING),
            ro(2, [-1, -1], ISING),
            ro(3, [-1, -1, 1], ISING),
            ro(4, [-1, -1, 1], ISING),
        ]
        part = partition(readouts, g, 2)
        assert part.side_minus == {2, 3, 4} and part.is_balanced()

    def test_cap_trigger_forces_other_side(self):
        g = empty_graph(4)
        readouts = [
            ro(0, [1, 1], ISING),
            ro(1, [1, 1], ISING),
            ro(2, [1, -1], ISING),
            ro(3, [1, -1], ISING),
        ]
        part = partition(readouts, g, 2)
        assert part.side_minus == {2, 3} and part.is_balanced()

    def test_degree_rule_minimizes_cut_contribution(self):
        g = Graph(6, [(3, 0), (3, 1), (3, 2)])
        readouts = [
            ro(0, [-1, -1], ISING),
            ro(1, [-1, -1], ISING),
            ro(2, [1, 1], ISING),
            ro(3, [1, -1], ISING),
            ro(4, [1, 1], ISING),
            ro(5, [-1, -1, 1, 1], ISING),
        ]
        part = partition(readouts, g, 0)
        assert 3 in part.side_minus

    def test_unbalanced_core_flagged(self):
        g = empty_graph(5)
        readouts = [ro(v, [1, 1], ISING) for v in range(4)] + [ro(4, [1, -1], ISING)]
        part = partition(readouts, g, 0)
        assert not part.is_balanced()
        assert part.side_minus == {4}

    def test_balance_flag_truthful(self):
        for seed in range(30):
            g = erdos_renyi(11, 0.4, seed)
            rng = rng_from(seed + 50)
            broken = {int(v) for v in rng.choice(11, size=4, replace=False)}
            readouts = random_readouts(11, ISING, broken, seed=seed)
            part = partition(readouts, g, seed)
            assert part.is_complete_for(g)
            skew = len(part.side_minus) - len(part.side_plus)
            assert part.is_balanced() == (abs(skew) <= 1)


class TestVertexCoverUnembed:
    def test_zero_zero_edge_trivial_cover(self):
        g = Graph(2, [(0, 1)])
        readouts = [ro(0, [0, 0], QUBO), ro(1, [0, 0], QUBO)]
        out = cover(readouts, g)
        assert out == {0, 1}

    def test_forced_neighbors_of_zeros(self):
        g = path_graph(3)
        readouts = [ro(0, [0, 0], QUBO), ro(1, [1, 0], QUBO), ro(2, [0, 1], QUBO)]
        out = cover(readouts, g)
        assert out == {1}

    def test_star_all_broken(self):
        g = star_graph(4)
        readouts = [ro(0, [1] * 9 + [0], QUBO)] + [
            ro(i, [1, 0], QUBO) for i in range(1, 5)
        ]
        out = cover(readouts, g)
        assert out == {1, 2, 3, 4}

    def test_drain_degrees_follow_removals(self):
        # all broken; 0 (3.75) drains first and 5 joins the cover, then 3 and 4
        # tie at one remaining neighbour each, so 3 becomes a zero and 4 joins
        # the cover; degrees left at their starting values would drain 4 (2.25)
        # before 3 and cover 3 instead
        g = Graph(6, [(0, 1), (0, 2), (0, 5), (1, 5), (3, 4), (4, 5)])
        chains = [[1, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0],
                  [1, 1, 1, 0]]
        readouts = [ro(v, chain, QUBO) for v, chain in enumerate(chains)]
        out = cover(readouts, g)
        assert out == {1, 2, 4, 5}

    def test_cover_always_feasible(self):
        for seed in range(30):
            g = erdos_renyi(12, 0.5, seed)
            rng = rng_from(seed + 77)
            broken = {int(v) for v in rng.choice(12, size=5, replace=False)}
            readouts = random_readouts(12, QUBO, broken, seed=seed)
            assert is_vertex_cover(g, cover(readouts, g))


class TestAgreementOnUnbroken:
    def test_all_methods_agree(self):
        for seed in range(25):
            g = erdos_renyi(10, 0.5, seed)
            rng = rng_from(seed + 1000)
            spins = {v: int(rng.choice((-1, 1))) for v in range(10)}
            ising_readouts = [ro(v, [s, s], ISING) for v, s in sorted(spins.items())]
            bits = {v: (s + 1) // 2 for v, s in spins.items()}
            qubo_readouts = [ro(v, [b, b], QUBO) for v, b in sorted(bits.items())]

            m = build_max_cut_ising(g)
            high = [[spins[v] == 1 for v in range(10)]]
            rs = row_set(ising_readouts)
            assert majority_vote(rs).tolist() == high
            assert random_weighted(rs, [rng_from(seed)]).tolist() == high
            assert minimize_energy(rs, m).tolist() == high

            plus = {v for v, s in spins.items() if s == 1}
            assert cut(ising_readouts, g, seed).side_plus == plus
            assert partition(ising_readouts, g, seed).side_plus == plus

            ones = frozenset(v for v, b in bits.items() if b)
            if is_clique(g, ones):
                assert clique(qubo_readouts, g) == ones
            if is_vertex_cover(g, ones):
                assert cover(qubo_readouts, g) == ones

    def test_tailored_dispatch(self):
        g = complete_graph(3)
        readouts = [ro(v, [1, 1], QUBO) for v in range(3)]
        rs = stack([readouts, readouts[:2] + [ro(2, [0, 0], QUBO)]], range(3))
        out = unembed_tailored(rs, g, "max_clique", None)
        assert out.tolist() == [[True, True, True], [True, True, False]]
        with pytest.raises(ValueError):
            unembed_tailored(rs, g, "coloring", None)
