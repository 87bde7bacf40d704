import itertools

import numpy as np
import pytest

from brokenchains.bqm import (
    ISING,
    QUBO,
    BinaryQuadraticModel,
    build_graph_partitioning_ising,
    build_max_clique_qubo,
    build_max_cut_ising,
    build_min_vertex_cover_qubo,
    convert,
    energy,
    from_json,
    partition_weight,
    scale_to_unit_range,
    to_json,
)
from brokenchains.graphs import Graph, brute_force, erdos_renyi
from brokenchains.seeding import rng_from
from conftest import (
    complete_graph,
    cycle_graph,
    edge_set,
    empty_graph,
    linear_terms,
    path_graph,
    quadratic_terms,
)


def all_assignments(variables, domain):
    values = (0, 1) if domain == QUBO else (-1, 1)
    for combo in itertools.product(values, repeat=len(variables)):
        yield dict(zip(variables, combo))


def exhaustive_minima(model, feasible=None):
    """Independent argmin search by direct enumeration."""
    best_e = None
    best = []
    for a in all_assignments(model.variables(), model.domain):
        if feasible is not None and not feasible(a):
            continue
        e = energy(model, a)
        if best_e is None or e < best_e - 1e-12:
            best_e, best = e, [a]
        elif abs(e - best_e) <= 1e-12:
            best.append(a)
    return best_e, best


def random_model(nvars, domain, seed):
    rng = rng_from(seed)
    linear = {v: float(rng.uniform(-2, 2)) for v in range(nvars)}
    quadratic = {
        (u, v): float(rng.uniform(-2, 2))
        for u in range(nvars)
        for v in range(u + 1, nvars)
        if rng.random() < 0.6
    }
    return BinaryQuadraticModel.from_terms(domain, linear, quadratic, float(rng.uniform(-1, 1)))


class TestModelInvariants:
    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            BinaryQuadraticModel.from_terms(QUBO, {0: 1.0}, {(0, 0): 1.0})

    def test_pair_keys_normalized(self):
        m = BinaryQuadraticModel.from_terms(ISING, {}, {(2, 1): 1.0})
        assert m.pairs.tolist() == [[1, 2]]

    def test_quadratic_variables_get_linear_entries(self):
        m = BinaryQuadraticModel.from_terms(ISING, {}, {(0, 1): 1.0})
        assert linear_terms(m) == {0: 0.0, 1: 0.0}

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            BinaryQuadraticModel.from_terms("spin", {}, {})

    def test_no_coupling_is_negative_zero(self):
        # -5e-324 / 4 rounds to -0.0, which a model stores as 0.0 + -0.0 = 0.0
        m = BinaryQuadraticModel.from_terms(QUBO, {}, {(0, 1): -5e-324, (1, 2): 4.0})
        for image in (convert(m, ISING), scale_to_unit_range(m)):
            assert np.signbit(image.j).tolist() == [False, False]


class TestEnergy:
    def test_qubo_example(self):
        m = BinaryQuadraticModel.from_terms(QUBO, {1: -1.0, 2: -1.0}, {(1, 2): 2.0})
        assert energy(m, {1: 1, 2: 1}) == 0.0
        assert energy(m, {1: 1, 2: 0}) == -1.0

    def test_ising_triangle_all_up(self):
        m = build_max_cut_ising(complete_graph(3))
        assert energy(m, {0: 1, 1: 1, 2: 1}) == 3.0

    def test_missing_variable(self):
        m = BinaryQuadraticModel.from_terms(QUBO, {0: 1.0, 1: 1.0}, {})
        with pytest.raises(ValueError):
            energy(m, {0: 1})

    def test_out_of_domain_value(self):
        m = BinaryQuadraticModel.from_terms(QUBO, {0: 1.0}, {})
        with pytest.raises(ValueError):
            energy(m, {0: -1})

    def test_evaluation_stable(self):
        m = random_model(10, ISING, 44)
        a = {v: 1 if v % 2 else -1 for v in m.variables()}
        reference = energy(m, a)
        for _ in range(5):
            assert abs(energy(m, a) - reference) <= 1e-12 * max(1.0, abs(reference))


class TestConvert:
    def test_identity(self):
        m = random_model(4, QUBO, 1)
        assert convert(m, QUBO) is m

    def test_single_variable_example(self):
        m = BinaryQuadraticModel.from_terms(QUBO, {1: 1.0}, {})
        ising = convert(m, ISING)
        assert linear_terms(ising) == {1: 0.5}
        assert ising.offset == 0.5
        assert energy(m, {1: 1}) == energy(ising, {1: 1}) == 1.0

    def test_exhaustive_equivalence_eight_variables(self):
        m = random_model(8, QUBO, 17)
        ising = convert(m, ISING)
        for bits in all_assignments(m.variables(), QUBO):
            spins = {v: 2 * b - 1 for v, b in bits.items()}
            assert abs(energy(m, bits) - energy(ising, spins)) <= 1e-9

    def test_round_trip(self):
        for seed in range(5):
            m = random_model(6, ISING, seed)
            back = convert(convert(m, QUBO), ISING)
            for spins in all_assignments(m.variables(), ISING):
                assert abs(energy(m, spins) - energy(back, spins)) <= 1e-9


class TestMaxCliqueBuilder:
    def test_complete_graph_has_no_penalties(self):
        m = build_max_clique_qubo(complete_graph(3))
        assert quadratic_terms(m) == {}
        assert energy(m, {0: 1, 1: 1, 2: 1}) == -3.0

    def test_path_minimum(self):
        m = build_max_clique_qubo(path_graph(3))
        assert quadratic_terms(m) == {(0, 2): 2.0}
        best_e, best = exhaustive_minima(m)
        assert best_e == -2.0
        onesets = {frozenset(v for v, b in a.items() if b) for a in best}
        assert onesets == {frozenset({0, 1}), frozenset({1, 2})}

    def test_oracle_equivalence(self):
        g = erdos_renyi(12, 0.5, 4)
        m = build_max_clique_qubo(g)
        opt, _ = brute_force("max_clique", g)
        best_e, best = exhaustive_minima(m)
        sizes = {sum(a.values()) for a in best}
        assert sizes == {opt}
        assert best_e == -opt


class TestVertexCoverBuilder:
    def test_single_edge(self):
        m = build_min_vertex_cover_qubo(Graph(2, [(0, 1)]))
        best_e, best = exhaustive_minima(m)
        assert best_e == 1.0
        onesets = {frozenset(v for v, b in a.items() if b) for a in best}
        assert onesets == {frozenset({0}), frozenset({1})}

    def test_empty_graph(self):
        m = build_min_vertex_cover_qubo(empty_graph(3))
        best_e, best = exhaustive_minima(m)
        assert best_e == 0.0
        assert len(best) == 1 and sum(best[0].values()) == 0

    def test_oracle_equivalence(self):
        g = erdos_renyi(12, 0.5, 4)
        m = build_min_vertex_cover_qubo(g)
        opt, _ = brute_force("min_vertex_cover", g)
        best_e, best = exhaustive_minima(m)
        assert best_e == opt
        assert {sum(a.values()) for a in best} == {opt}


class TestMaxCutBuilder:
    def test_single_edge(self):
        m = build_max_cut_ising(Graph(2, [(0, 1)]))
        assert energy(m, {0: 1, 1: -1}) == -1.0

    def test_k4_balanced_split(self):
        m = build_max_cut_ising(complete_graph(4))
        e = energy(m, {0: 1, 1: 1, 2: -1, 3: -1})
        assert e == -2.0  # 2 same-side pairs minus 4 cross pairs
        assert (len(complete_graph(4).u) - e) / 2 == 4

    def test_c5_oracle(self):
        g = cycle_graph(5)
        m = build_max_cut_ising(g)
        best_e, _ = exhaustive_minima(m)
        assert best_e == -3.0
        opt, _ = brute_force("max_cut", g)
        assert (len(g.u) - best_e) / 2 == opt == 4


class TestPartitioningBuilder:
    def test_balanced_split_zero_penalty(self):
        g = empty_graph(2)
        m = build_graph_partitioning_ising(g)
        assert partition_weight(g) == 2 / 8 == m.j[0] / 2
        assert energy(m, {0: 1, 1: -1}) == 0.0

    def test_k4_split_value(self):
        g = complete_graph(4)
        m = build_graph_partitioning_ising(g)
        assert partition_weight(g) == pytest.approx(0.375)
        assert m.offset == partition_weight(g) * 4 + 6 / 2
        assert energy(m, {0: 1, 1: 1, 2: -1, 3: -1}) == pytest.approx(4.0)

    def test_oracle_equivalence_on_balanced(self):
        g = erdos_renyi(12, 0.5, 4)
        m = build_graph_partitioning_ising(g)
        opt, _ = brute_force("graph_partitioning", g)

        def balanced(a):
            return abs(sum(a.values())) <= 1

        best_e, best = exhaustive_minima(m, feasible=balanced)
        cuts = set()
        for a in best:
            minus = frozenset(v for v, s in a.items() if s == -1)
            cut = sum(1 for u, v in edge_set(g) if (u in minus) != (v in minus))
            cuts.add(cut)
        assert cuts == {opt}

    def test_edgeless_weight_convention(self):
        g = empty_graph(8)
        m = build_graph_partitioning_ising(g)
        assert partition_weight(g) == 1.0 == m.offset / 8


class TestScaleToUnitRange:
    def test_simple_example(self):
        m = BinaryQuadraticModel.from_terms(ISING, {1: 4.0}, {(1, 2): -8.0})
        scaled = scale_to_unit_range(m)
        assert linear_terms(scaled) == {1: 0.5, 2: 0.0}
        assert quadratic_terms(scaled) == {(1, 2): -1.0}

    def test_unit_model_unchanged(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0}, {(0, 1): -0.5})
        scaled = scale_to_unit_range(m)
        assert linear_terms(scaled) == linear_terms(m)
        assert quadratic_terms(scaled) == quadratic_terms(m)

    def test_all_zero_noop(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 0.0}, {})
        assert scale_to_unit_range(m) is m

    def test_argmin_preserved(self):
        m = random_model(10, ISING, 23)
        scaled = scale_to_unit_range(m)
        _, best = exhaustive_minima(m)
        _, best_scaled = exhaustive_minima(scaled)
        key = lambda a: tuple(sorted(a.items()))
        assert {key(a) for a in best} == {key(a) for a in best_scaled}
        assert max(np.abs(scaled.h).max(), np.abs(scaled.j).max()) == 1.0


class TestSerialization:
    def test_round_trip_bit_exact(self):
        m = random_model(7, QUBO, 12)
        back = from_json(to_json(m))
        assert back == m

    def test_fields_present(self):
        m = build_max_cut_ising(path_graph(3))
        doc = to_json(m)
        for key in ('"domain"', '"linear"', '"quadratic"', '"offset"'):
            assert key in doc
