import math

import numpy as np
import pytest

from brokenchains.bqm import ISING, BinaryQuadraticModel, build_max_cut_ising, energy
from brokenchains.sampler import (
    AnnealParams,
    SampleSet,
    chain_break_probability,
    inject_chain_breaks,
    sampleset_from_json,
    sampleset_to_csv,
    sampleset_to_json,
    simulated_anneal,
)
from brokenchains.seeding import rng_from
from brokenchains.topology import (
    PhysicalModel,
    chimera,
    clique_embedding,
    embed_bqm,
    identity_embedding,
)
from brokenchains.unembed import decompose
from brokenchains.graphs import erdos_renyi
from conftest import complete_graph


def logical_pm(model):
    return PhysicalModel(model, 1.0, identity_embedding(model.variables()), ())


class TestAnnealParams:
    def test_defaults(self):
        p = AnnealParams()
        assert p.num_reads == 1000 and p.sweeps == 1000
        assert p.beta_range == (0.1, 10.0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            AnnealParams(beta_range=(10.0, 0.1))

    def test_invalid_reads(self):
        with pytest.raises(ValueError):
            AnnealParams(num_reads=0)


class TestSimulatedAnneal:
    def test_single_qubit_boltzmann(self):
        m = BinaryQuadraticModel(ISING, {0: -1.0}, {})
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=1000, sweeps=60, seed=3))
        freq = sum(1 for s in ss if s.spins[0] == 1) / len(ss)
        assert freq > 0.99

    def test_two_qubit_ferromagnet(self):
        m = BinaryQuadraticModel(ISING, {}, {(0, 1): -1.0})
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=1000, sweeps=60, seed=4))
        aligned = sum(1 for s in ss if s.spins[0] == s.spins[1]) / len(ss)
        assert aligned > 0.95

    def test_deterministic(self):
        m = build_max_cut_ising(erdos_renyi(10, 0.5, 5))
        params = AnnealParams(num_reads=50, sweeps=40, seed=11)
        a = simulated_anneal(logical_pm(m), params)
        b = simulated_anneal(logical_pm(m), params)
        assert all(x.spins == y.spins and x.energy == y.energy for x, y in zip(a, b))

    def test_read_count(self):
        m = BinaryQuadraticModel(ISING, {0: 1.0}, {})
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=7, sweeps=5, seed=0))
        assert len(ss) == 7

    def test_energies_finite_and_match_recompute(self):
        g = erdos_renyi(12, 0.5, 8)
        m = build_max_cut_ising(g)
        pm = logical_pm(m)
        ss = simulated_anneal(pm, AnnealParams(num_reads=20, sweeps=30, seed=2))
        for s in ss:
            assert math.isfinite(s.energy)
            assert abs(s.energy - energy(pm.ising, s.spins)) <= 1e-9

    def test_annealing_beats_random(self):
        g = erdos_renyi(14, 0.5, 13)
        m = build_max_cut_ising(g)
        pm = logical_pm(m)
        ss = simulated_anneal(pm, AnnealParams(num_reads=100, sweeps=100, seed=6))
        rng = rng_from(1)
        qubits = pm.ising.variables()
        random_mean = np.mean([
            energy(pm.ising, {q: int(rng.choice((-1, 1))) for q in qubits})
            for _ in range(200)
        ])
        assert ss.energies().mean() <= random_mean

    def test_batch_boundary_independence(self):
        # reads are seeded individually, so truncating num_reads keeps a prefix
        m = build_max_cut_ising(erdos_renyi(8, 0.5, 3))
        pm = logical_pm(m)
        long = simulated_anneal(pm, AnnealParams(num_reads=70, sweeps=20, seed=9))
        short = simulated_anneal(pm, AnnealParams(num_reads=65, sweeps=20, seed=9))
        for a, b in zip(short, long):
            assert a.spins == b.spins


class TestInjectChainBreaks:
    def setup_method(self):
        self.hw = chimera(4, 4, 4)
        self.e = clique_embedding(16, self.hw)
        self.model = build_max_cut_ising(complete_graph(16))
        self.pm = embed_bqm(self.model, self.e, self.hw, 2.0)
        self.logical = {v: 1 if v % 3 == 0 else -1 for v in range(16)}

    def test_p_zero_round_trips(self):
        s = inject_chain_breaks(self.logical, self.e, 0.0, 1, self.pm)
        readouts = decompose(s, self.e)
        assert all(not r.broken for r in readouts)
        assert {r.variable: r.unbroken_value() for r in readouts} == self.logical

    def test_p_one_global_flip(self):
        s = inject_chain_breaks(self.logical, self.e, 1.0, 1, self.pm)
        readouts = decompose(s, self.e)
        assert all(not r.broken for r in readouts)
        assert all(r.unbroken_value() == -self.logical[r.variable] for r in readouts)

    def test_energy_recomputed(self):
        s = inject_chain_breaks(self.logical, self.e, 0.3, 5, self.pm)
        assert abs(s.energy - energy(self.pm.ising, s.spins)) <= 1e-9

    def test_break_statistics(self):
        # chains of length 5: broken with probability 1 - p^5 - (1-p)^5
        p = 0.2
        expect = chain_break_probability(p, 5)
        trials = 400
        broken = 0
        for seed in range(trials):
            s = inject_chain_breaks(self.logical, self.e, p, seed, self.pm)
            broken += sum(1 for r in decompose(s, self.e) if r.broken)
        total = trials * 16
        sigma = math.sqrt(total * expect * (1 - expect))
        assert abs(broken - total * expect) <= 3 * sigma

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            inject_chain_breaks(self.logical, self.e, 1.5, 0, self.pm)

    def test_domain_mismatch(self):
        bits = {v: 1 if v % 3 == 0 else 0 for v in range(16)}
        with pytest.raises(ValueError):
            inject_chain_breaks(bits, self.e, 0.1, 0, self.pm)


class TestSampleSetExport:
    def test_json_round_trip(self):
        m = build_max_cut_ising(erdos_renyi(6, 0.5, 2))
        pm = logical_pm(m)
        ss = simulated_anneal(pm, AnnealParams(num_reads=5, sweeps=10, seed=1))
        back = sampleset_from_json(sampleset_to_json(ss), pm)
        assert len(back) == len(ss)
        for a, b in zip(ss, back):
            assert a.spins == b.spins and a.energy == b.energy

    def test_csv_shape(self):
        m = build_max_cut_ising(erdos_renyi(6, 0.5, 2))
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=5, sweeps=10, seed=1))
        lines = sampleset_to_csv(ss).strip().splitlines()
        assert lines[0] == "energy,spins"
        assert len(lines) == 6
        assert set(lines[1].split(",")[1]) <= {"+", "-"}
