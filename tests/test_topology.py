import math

import pytest

from brokenchains.bqm import ISING, QUBO, BinaryQuadraticModel, build_max_cut_ising, convert, energy
from brokenchains.graphs import Graph, erdos_renyi
from brokenchains.seeding import rng_from
from brokenchains.topology import (
    Embedding,
    chimera,
    chimera_qubit,
    clique_embedding,
    embed_bqm,
    embedding_from_json,
    embedding_to_json,
    identity_embedding,
    uniform_torque_compensation,
    validate_embedding,
)
from conftest import (
    complete_graph,
    coupler_set,
    intra_chain_couplers,
    linear_terms,
    quadratic_terms,
)


class TestChimera:
    def test_single_cell(self):
        hw = chimera(1, 1, 4)
        assert len(hw.qubits) == 8
        assert len(hw.couplers) == 16

    def test_dwave_2000q_size(self):
        assert len(chimera(16, 16, 4).qubits) == 2048

    def test_two_by_two(self):
        hw = chimera(2, 2, 4)
        assert len(hw.qubits) == 32
        assert len(hw.couplers) == 64 + 16

    @pytest.mark.parametrize("m,n,t", [(1, 1, 4), (2, 3, 4), (3, 3, 2), (4, 4, 4)])
    def test_coupler_counts(self, m, n, t):
        hw = chimera(m, n, t)
        intra = m * n * t * t
        inter = t * (n * (m - 1) + m * (n - 1))
        assert len(hw.couplers) == intra + inter

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            chimera(0, 1, 4)

    @pytest.mark.parametrize("m,n,t", [
        (1, 1, 1), (1, 1, 4), (2, 3, 4), (3, 2, 1), (3, 3, 2), (1, 5, 3), (4, 4, 4),
    ])
    def test_couplers_match_per_cell_reference(self, m, n, t):
        def q(row, col, shore, k):
            return chimera_qubit(m, n, t, row, col, shore, k)

        couplers = []
        for row in range(m):
            for col in range(n):
                for i in range(t):
                    for j in range(t):
                        couplers.append((q(row, col, 0, i), q(row, col, 1, j)))
                for k in range(t):
                    if col + 1 < n:
                        couplers.append((q(row, col, 0, k), q(row, col + 1, 0, k)))
                    if row + 1 < m:
                        couplers.append((q(row, col, 1, k), q(row + 1, col, 1, k)))
        hw = chimera(m, n, t)
        assert hw.qubits == range(2 * t * m * n)
        assert hw.shape == (m, n, t)
        assert hw.couplers.shape == (len(couplers), 2)
        assert hw.couplers.tolist() == sorted(map(list, couplers))


class TestCliqueEmbedding:
    def test_fig_one_shape(self):
        hw = chimera(4, 4, 4)
        e = clique_embedding(16, hw)
        assert len(e.chains) == 16
        assert all(len(e.chain(v)) == 5 for v in e.variables())
        assert validate_embedding(e, complete_graph(16), hw) == []

    def test_maximal_clique_on_full_chimera(self):
        hw = chimera(16, 16, 4)
        e = clique_embedding(65, hw)
        assert len(e.chains) == 65
        assert e.max_chain_length() == 18
        assert validate_embedding(e, complete_graph(65), hw) == []

    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_maximal_clique_length_profile(self, m):
        # as documented: 3m chains of m+1, two of m and m-1 of m+2
        e = clique_embedding(4 * m + 1, chimera(m, m, 4))
        lengths = [len(e.chain(v)) for v in e.variables()]
        profile = {n: lengths.count(n) for n in set(lengths)}
        expected = {m + 1: 3 * m, m: 2, m + 2: m - 1}
        assert profile == {n: c for n, c in expected.items() if c}

    def test_two_chains_single_cell(self):
        hw = chimera(1, 1, 4)
        e = clique_embedding(2, hw)
        assert len(e.chains) == 2
        assert all(1 <= len(e.chain(v)) <= 2 for v in e.variables())
        assert validate_embedding(e, complete_graph(2), hw) == []

    def test_small_clique_uses_short_chains(self):
        # a K_8 on the big chip should stay inside a 2x2 block
        e = clique_embedding(8, chimera(16, 16, 4))
        assert e.max_chain_length() == 3

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_validity_sweep(self, m):
        hw = chimera(m, m, 4)
        for k in range(2, 4 * m + 2):
            e = clique_embedding(k, hw)
            assert validate_embedding(e, complete_graph(k), hw) == [], (m, k)

    def test_capacity_error(self):
        message = r"^K_10 does not fit chimera\(2, 2, 4\), which embeds K_1 to K_9$"
        with pytest.raises(ValueError, match=message):
            clique_embedding(10, chimera(2, 2, 4))

    def test_non_square_rejected(self):
        message = r"^K_4 does not fit chimera\(2, 3, 4\): clique embedding requires m == n$"
        with pytest.raises(ValueError, match=message):
            clique_embedding(4, chimera(2, 3, 4))


class TestValidateEmbedding:
    def test_overlap_detected(self):
        hw = chimera(1, 1, 4)
        e = Embedding({0: (0, 4), 1: (4, 1)})
        logical = Graph(2, [(0, 1)])
        assert any("overlap" in v for v in validate_embedding(e, logical, hw))

    def test_disconnected_chain(self):
        hw = chimera(1, 1, 4)
        # two horizontal-shore qubits share no coupler inside a cell
        e = Embedding({0: (0, 1)})
        out = validate_embedding(e, Graph(1, []), hw)
        assert any("disconnected" in v for v in out)

    def test_missing_logical_edge(self):
        hw = chimera(1, 1, 4)
        # chains {h0},{h1},{v0}: h0-h1 share no coupler
        e = Embedding({0: (0,), 1: (1,), 2: (4,)})
        logical = complete_graph(3)
        out = validate_embedding(e, logical, hw)
        assert any("no inter-chain coupler" in v for v in out)

    def test_unknown_qubit(self):
        hw = chimera(1, 1, 4)
        out = validate_embedding(Embedding({0: (99,)}), Graph(1, []), hw)
        assert any("absent" in v for v in out)

    def test_repeated_qubit_reported_once(self):
        hw = chimera(1, 1, 4)
        # h0 and v0 share a coupler, so only the repeat of qubit 0 is at fault
        e = Embedding({0: (0, 4, 0, 0), 1: (5, 99, 99)})
        assert validate_embedding(e, Graph(2, []), hw) == [
            "chain 0 repeats a qubit",
            "chain 1 repeats a qubit",
            "chain 1 uses qubit 99 absent from hardware",
        ]


class TestUniformTorqueCompensation:
    def test_three_regular_unit_couplers(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])  # K4, 3-regular
        m = build_max_cut_ising(g)
        cs = uniform_torque_compensation(m, prefactor=1.0)
        assert cs == pytest.approx(math.sqrt(3))

    def test_single_coupler(self):
        m = BinaryQuadraticModel.from_terms(ISING, {}, {(0, 1): 2.0})
        assert uniform_torque_compensation(m, prefactor=1.0) == pytest.approx(2.0)

    def test_scaling_homogeneity(self):
        m = BinaryQuadraticModel.from_terms(ISING, {}, {(0, 1): 1.0, (1, 2): -1.0, (0, 2): 1.0})
        base = uniform_torque_compensation(m, prefactor=1.0)
        tripled = BinaryQuadraticModel.from_terms(
            ISING, {}, {k: 3 * v for k, v in quadratic_terms(m).items()}
        )
        assert uniform_torque_compensation(tripled, prefactor=1.0) == pytest.approx(3 * base)

    def test_no_couplers_fallback(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0}, {})
        assert uniform_torque_compensation(m, prefactor=1.7) == 1.7

    def test_default_prefactor(self):
        m = BinaryQuadraticModel.from_terms(ISING, {}, {(0, 1): 1.0})
        assert uniform_torque_compensation(m) == pytest.approx(1.414)

    @pytest.mark.parametrize("prefactor", [float("nan"), float("inf"), True, 0, -1])
    def test_prefactor_must_be_positive_real(self, prefactor):
        m = BinaryQuadraticModel.from_terms(ISING, {}, {(0, 1): 1.0})
        with pytest.raises(ValueError, match=r"^prefactor must be a positive real number, not "):
            uniform_torque_compensation(m, prefactor=prefactor)


class TestEmbedBqm:
    def test_identity_embedding_is_noop(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 0.5, 1: -1.0}, {(0, 1): 0.75}, offset=0.25)
        hw = chimera(1, 1, 4)
        e = Embedding({0: (0,), 1: (4,)})
        pm = embed_bqm(m, e, hw, 1.0)
        assert linear_terms(pm.ising) == {0: 0.5, 4: -1.0}
        assert quadratic_terms(pm.ising) == {(0, 4): 0.75}
        assert pm.ising.offset == 0.25

    def test_two_qubit_chain_split(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0}, {})
        hw = chimera(1, 1, 4)
        e = Embedding({0: (0, 4)})  # horizontal 0 + vertical 0
        pm = embed_bqm(m, e, hw, 3.0)
        assert linear_terms(pm.ising) == {0: 0.5, 4: 0.5}
        assert quadratic_terms(pm.ising) == {(0, 4): -3.0}

    def test_rejects_qubo(self):
        m = BinaryQuadraticModel.from_terms(QUBO, {0: 1.0}, {})
        hw = chimera(1, 1, 4)
        with pytest.raises(ValueError):
            embed_bqm(m, identity_embedding([0]), hw, 1.0)

    @pytest.mark.parametrize("strength", [float("nan"), float("inf"), True, 0, -1])
    def test_chain_strength_must_be_positive_real(self, strength):
        # a NaN strength would compile and anneal to NaN energies, with no warning
        ising = build_max_cut_ising(erdos_renyi(6, 0.5, 1))
        hw = chimera(2, 2, 4)
        with pytest.raises(ValueError) as info:
            embed_bqm(ising, clique_embedding(6, hw), hw, strength)
        assert str(info.value) == (
            f"chain strength must be a positive real number, not {strength!r}"
        )

    def test_rejects_invalid_embedding(self):
        m = build_max_cut_ising(complete_graph(3))
        hw = chimera(1, 1, 4)
        bad = Embedding({0: (0,), 1: (1,), 2: (4,)})
        with pytest.raises(ValueError):
            embed_bqm(m, bad, hw, 1.0)

    def test_rejects_linear_only_variable_without_chain(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0, 5: 0.5}, {})
        with pytest.raises(ValueError, match="variable 5 has no chain"):
            embed_bqm(m, identity_embedding([0]), chimera(1, 1, 4), 1.0)

    def test_rejects_zero_coupler_to_variable_without_chain(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0}, {(0, 1): 0.0})
        with pytest.raises(ValueError, match="variable 1 has no chain"):
            embed_bqm(m, identity_embedding([0]), chimera(1, 1, 4), 1.0)

    def test_zero_coupler_needs_no_inter_chain_coupler(self):
        # horizontal qubits 0 and 1 share no coupler; a zero J_01 asks for none
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0, 1: -1.0}, {(0, 1): 0.0})
        pm = embed_bqm(m, Embedding({0: (0,), 1: (1,)}), chimera(1, 1, 4), 1.0)
        assert linear_terms(pm.ising) == {0: 1.0, 1: -1.0}
        assert quadratic_terms(pm.ising) == {}

    def test_coupler_values_on_hardware(self):
        g = complete_graph(5)
        m = build_max_cut_ising(g)
        hw = chimera(2, 2, 4)
        e = clique_embedding(5, hw)
        pm = embed_bqm(m, e, hw, 2.5)
        couplers = coupler_set(hw)
        for key in quadratic_terms(pm.ising):
            assert key in couplers
        intra = intra_chain_couplers(pm)
        assert intra
        for key in intra:
            assert quadratic_terms(pm.ising)[key] == -2.5

    def test_chain_consistent_energy_identity(self):
        g = complete_graph(16)
        rng = rng_from(99)
        linear = {v: float(rng.uniform(-1, 1)) for v in range(16)}
        quadratic = {(u, v): float(rng.uniform(-1, 1)) for u, v in g.edges}
        m = BinaryQuadraticModel.from_terms(ISING, linear, quadratic, offset=0.5)
        hw = chimera(4, 4, 4)
        e = clique_embedding(16, hw)
        pm = embed_bqm(m, e, hw, 2.0)
        n_intra = len(intra_chain_couplers(pm))
        for _ in range(100):
            logical = {v: int(rng.choice((-1, 1))) for v in range(16)}
            physical = {}
            for v in range(16):
                for q in e.chain(v):
                    physical[q] = logical[v]
            expected = energy(m, logical) - 2.0 * n_intra
            assert abs(energy(pm.ising, physical) - expected) <= 1e-9


class TestEmbeddingSerialization:
    def test_round_trip(self):
        e = clique_embedding(9, chimera(2, 2, 4))
        back = embedding_from_json(embedding_to_json(e))
        assert back.chains == e.chains

    @pytest.mark.parametrize("qubit", ["true", '"3"', "2.0", "null", "[4]", str(2**63)])
    def test_non_integer_qubit_rejected(self, qubit):
        text = f'{{"0": [0, 4], "7": [5, {qubit}]}}'
        with pytest.raises(ValueError, match="^the chain of variable 7 holds .*, not a qubit id$"):
            embedding_from_json(text)

    def test_negative_qubit_read_as_absent(self):
        e = embedding_from_json('{"0": [-1]}')
        out = validate_embedding(e, Graph(1, []), chimera(1, 1, 4))
        assert out == ["chain 0 uses qubit -1 absent from hardware"]
