import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from brokenchains.bqm import ISING, BinaryQuadraticModel, build_max_cut_ising, energy
from brokenchains import cli, sampler
from brokenchains.sampler import (
    AnnealParams,
    SampleSet,
    anneal_grid,
    inject_chain_breaks,
    model_hash,
    sampleset_from_json,
    sampleset_to_csv,
    sampleset_to_json,
    simulated_anneal,
)
from brokenchains.seeding import rng_from
from brokenchains.topology import (
    Embedding,
    PhysicalModel,
    chain_columns,
    chimera,
    clique_embedding,
    embed_bqm,
    identity_embedding,
)
from brokenchains.unembed import decompose
from brokenchains.graphs import PROBLEMS, erdos_renyi, write_edge_list
from conftest import (
    chain_break_probability,
    complete_graph,
    one_read,
    path_graph,
    sample_set,
    spin_glass,
    spins_of,
)


def logical_pm(model):
    return PhysicalModel(model, identity_embedding(model.variables()))


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

    @pytest.mark.parametrize("field, value", [
        ("num_reads", 2.5), ("num_reads", True), ("sweeps", 2.5), ("sweeps", True),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, not "):
            AnnealParams(**{field: value})

    @pytest.mark.parametrize("beta_range", [
        (0.1, float("inf")), (0.1, float("nan")), (float("-inf"), 1.0), (0.1, "10"),
    ])
    def test_beta_range_must_be_finite_reals(self, beta_range):
        with pytest.raises(ValueError, match=r"^beta_range entry must be a real number"):
            AnnealParams(beta_range=beta_range)

    def test_doubled_beta_max_must_be_finite(self):
        # 1e308 is finite, but the anneal's 2 beta is not
        with pytest.raises(ValueError, match=r"^beta_range maximum 1e\+308 overflows"):
            AnnealParams(beta_range=(0.1, 1e308))
        AnnealParams(beta_range=(0.1, 8e307))


class TestSimulatedAnneal:
    def test_single_qubit_boltzmann(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: -1.0}, {})
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=1000, sweeps=60, seed=3))
        freq = np.mean(ss.spins[:, ss.qubits.tolist().index(0)] == 1)
        assert freq > 0.99

    def test_two_qubit_ferromagnet(self):
        m = BinaryQuadraticModel.from_terms(ISING, {}, {(0, 1): -1.0})
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=1000, sweeps=60, seed=4))
        aligned = np.mean(ss.spins[:, 0] == ss.spins[:, 1])
        assert aligned > 0.95

    def test_deterministic(self):
        m = build_max_cut_ising(erdos_renyi(10, 0.5, 5))
        params = AnnealParams(num_reads=50, sweeps=40, seed=11)
        a = simulated_anneal(logical_pm(m), params)
        b = simulated_anneal(logical_pm(m), params)
        assert np.array_equal(a.spins, b.spins) and np.array_equal(a.energies, b.energies)

    def test_read_count(self):
        m = BinaryQuadraticModel.from_terms(ISING, {0: 1.0}, {})
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=7, sweeps=5, seed=0))
        assert len(ss) == 7

    def test_model_without_qubits(self):
        m = BinaryQuadraticModel.from_terms(ISING, {}, {})
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=3, sweeps=5, seed=0))
        assert ss.spins.shape == (3, 0) and ss.energies.tolist() == [0.0] * 3

    def test_energies_finite_and_match_recompute(self):
        g = erdos_renyi(12, 0.5, 8)
        m = build_max_cut_ising(g)
        pm = logical_pm(m)
        ss = simulated_anneal(pm, AnnealParams(num_reads=20, sweeps=30, seed=2))
        for read, e in enumerate(ss.energies):
            assert math.isfinite(e)
            assert abs(e - energy(pm.ising, spins_of(ss, read))) <= 1e-9

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
        assert ss.energies.mean() <= random_mean

    def test_batch_boundary_independence(self):
        # reads are seeded individually, so truncating num_reads keeps a prefix
        m = build_max_cut_ising(erdos_renyi(8, 0.5, 3))
        pm = logical_pm(m)
        long = simulated_anneal(pm, AnnealParams(num_reads=70, sweeps=20, seed=9))
        short = simulated_anneal(pm, AnnealParams(num_reads=65, sweeps=20, seed=9))
        assert np.array_equal(short.spins, long.spins[: len(short)])


class TestInjectChainBreaks:
    def setup_method(self):
        self.hw = chimera(4, 4, 4)
        self.e = clique_embedding(16, self.hw)
        self.model = build_max_cut_ising(complete_graph(16))
        self.pm = embed_bqm(self.model, self.e, self.hw, 2.0)
        self.logical = {v: 1 if v % 3 == 0 else -1 for v in range(16)}

    def readouts(self, s, read=0):
        return decompose(s.spins[read], chain_columns(self.e, s.qubits))

    def test_p_zero_round_trips(self):
        s = inject_chain_breaks(one_read(self.logical), 0.0, 1, self.pm)
        readouts = self.readouts(s)
        assert all(not r.broken for r in readouts)
        assert {r.variable: r.value for r in readouts} == self.logical

    def test_p_one_global_flip(self):
        s = inject_chain_breaks(one_read(self.logical), 1.0, 1, self.pm)
        readouts = self.readouts(s)
        assert all(not r.broken for r in readouts)
        assert all(r.value == -self.logical[r.variable] for r in readouts)

    def test_energy_recomputed(self):
        s = inject_chain_breaks(one_read(self.logical), 0.3, 5, self.pm)
        assert abs(s.energies[0] - energy(self.pm.ising, spins_of(s, 0))) <= 1e-9

    def test_break_statistics(self):
        # chains of length 5: broken with probability 1 - p^5 - (1-p)^5
        p = 0.2
        expect = chain_break_probability(p, 5)
        trials = 400
        s = inject_chain_breaks(one_read(self.logical, trials), p, 0, self.pm)
        broken = sum(
            1 for read in range(trials) for r in self.readouts(s, read) if r.broken
        )
        total = trials * 16
        sigma = math.sqrt(total * expect * (1 - expect))
        assert abs(broken - total * expect) <= 3 * sigma

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match=r"^p_break must be in \[0, 1\], not 1.5$"):
            inject_chain_breaks(one_read(self.logical), 1.5, 0, self.pm)
        with pytest.raises(ValueError, match=r"^p_break must be a real number, not True$"):
            inject_chain_breaks(one_read(self.logical), True, 0, self.pm)

    def test_domain_mismatch(self):
        bits = {v: 1 if v % 3 == 0 else 0 for v in range(16)}
        with pytest.raises(ValueError, match=r"^logical samples must be Ising spins \(-1/\+1\)$"):
            inject_chain_breaks(one_read(bits), 0.1, 0, self.pm)

    def test_qubit_outside_the_chains(self):
        # qubit 2 carries a field, but no chain of the embedding holds it
        ising = BinaryQuadraticModel.from_terms(ISING, {0: 0.0, 1: 0.0, 2: 0.5}, {(0, 1): -1.0})
        pm = PhysicalModel(ising, Embedding.from_chains({0: (0, 1)}))
        with pytest.raises(ValueError, match=r"^the physical model has qubits outside the chains$"):
            inject_chain_breaks(one_read({0: 1}), 0.1, 0, pm)


class TestAnnealGrid:
    """``anneal_grid`` anneals models over one set of qubits and couplers."""

    hw = chimera(2, 2, 4)
    e = clique_embedding(5, hw)
    ising = build_max_cut_ising(complete_graph(5))
    params = AnnealParams(num_reads=3, sweeps=2, seed=0)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match=r"^anneal_grid needs at least one model$"):
            anneal_grid([], self.params)

    def test_other_qubits(self):
        other = embed_bqm(self.ising, clique_embedding(5, chimera(3, 3, 4)), chimera(3, 3, 4), 2.0)
        pm = embed_bqm(self.ising, self.e, self.hw, 2.0)
        assert other.qubits() != pm.qubits()
        with pytest.raises(ValueError, match=r"^the models of a grid must have the same qubits$"):
            anneal_grid([pm, other], self.params)

    def test_other_coupler_keys(self):
        # the same qubits, but a path's chains meet on fewer couplers
        pm = embed_bqm(self.ising, self.e, self.hw, 2.0)
        other = embed_bqm(build_max_cut_ising(path_graph(5)), self.e, self.hw, 2.0)
        assert other.qubits() == pm.qubits()
        assert len(other.ising.pairs) < len(pm.ising.pairs)
        with pytest.raises(ValueError, match=r"^the models of a grid must have the same couplers$"):
            anneal_grid([pm, other], self.params)
        # the same couplers in another order: the rows would sum in another order
        order = np.r_[1, 0, 2 : len(pm.ising.pairs)]
        ising = replace(pm.ising, pairs=pm.ising.pairs[order], j=pm.ising.j[order])
        swapped = replace(pm, ising=ising)
        with pytest.raises(ValueError, match=r"^the models of a grid must have the same couplers$"):
            anneal_grid([pm, swapped], self.params)


class TestSampleSetExport:
    def test_json_round_trip(self):
        m = build_max_cut_ising(erdos_renyi(6, 0.5, 2))
        pm = logical_pm(m)
        ss = simulated_anneal(pm, AnnealParams(num_reads=5, sweeps=10, seed=1))
        provenance = {"chain_strength": 1.0, "prefactor": 1.414, "topology": [1, 1, 4]}
        back, stored_hash, stored = sampleset_from_json(
            sampleset_to_json(ss, model_hash(pm.ising), provenance)
        )
        assert stored_hash == model_hash(pm.ising)
        assert stored == provenance
        assert [f.name for f in fields(back)] == ["qubits", "spins", "energy_source", "params"]
        assert len(back) == len(ss)
        assert back.qubits.dtype == np.int64 and not back.qubits.flags.writeable
        assert np.array_equal(back.qubits, ss.qubits)
        assert np.array_equal(back.spins, ss.spins)
        assert np.array_equal(back.energies, ss.energies)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_sample_file_round_trip(self, tmp_path, problem, seed):
        # the reader and the writer are inverses on every file ``sample`` writes
        write_edge_list(erdos_renyi(4 + 2 * seed, 0.5, seed), tmp_path / "graph.txt")
        assert cli.main(["sample", "--graph", str(tmp_path / "graph.txt"), "--problem", problem,
                         "--reads", "6", "--sweeps", "5", "--topology", "2,2,4",
                         "--seed", str(seed), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "samples.json").read_text()
        assert sampleset_to_json(*sampleset_from_json(text)) == text

    def test_csv_shape(self):
        m = build_max_cut_ising(erdos_renyi(6, 0.5, 2))
        ss = simulated_anneal(logical_pm(m), AnnealParams(num_reads=5, sweeps=10, seed=1))
        lines = sampleset_to_csv(ss).strip().splitlines()
        assert lines[0] == "energy,spins"
        assert len(lines) == 6
        assert set(lines[1].split(",")[1]) <= {"+", "-"}


class TestEnergySum:
    """Energies are summed on first read: over C-ordered blocks of 64 reads
    for the anneal, over all reads at once for the injector."""

    def test_anneal_energy_bytes_pinned(self):
        # read 68 sits in a 6-read block of the 70-read run and in a 36-read
        # block of the 100-read run, and its energy differs in the last bit
        pm = spin_glass(chimera(4, 4, 4), 0)
        short, long = (simulated_anneal(pm, AnnealParams(k, 5, seed=0)) for k in (70, 100))
        assert np.array_equal(short.spins, long.spins[:70])
        assert np.flatnonzero(short.energies != long.energies[:70]).tolist() == [68]
        digests = [hashlib.sha256(ss.energies.tobytes()).hexdigest() for ss in (short, long)]
        assert digests == [
            "5c1df644cef8a3fb86c365b20f2c586fc83b7312e44343fc0b1760daab616a1d",
            "4043ee43c82609dd72afbc291b12761499346a2fdea694ac40d0ac460fe59398",
        ]

    def test_injected_energies_computed_on_first_read(self, monkeypatch):
        hw = chimera(2, 2, 4)
        pm = embed_bqm(build_max_cut_ising(complete_graph(5)), clique_embedding(5, hw), hw, 2.0)
        rows = rng_from(3).choice((-1, 1), size=(70, 5))
        block_energies, calls = sampler._block_energies, []
        monkeypatch.setattr(sampler, "_block_energies", lambda model, spins, block: (
            calls.append((model, block)) or block_energies(model, spins, block)
        ))
        ss = inject_chain_breaks(sample_set(rows, range(5)), 0.3, 7, pm)
        assert calls == []
        energies = ss.energies
        # one block of all 70 reads, summed once
        assert calls == [(pm.ising, 70)] and ss.energies is energies
        # summed over the stored model itself, not over a model built from it
        assert calls[0][0] is pm.ising
        for read, value in enumerate(energies):
            assert abs(value - energy(pm.ising, spins_of(ss, read))) <= 1e-9
