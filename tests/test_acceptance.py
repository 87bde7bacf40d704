"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 8 has three parts: every K_k with k <= 4m+1 embeds
validly; the full-size K_65 on a 16x16 Chimera has the longest chain that
``clique_embedding`` documents for K_{4m+1}, m + 2 = 18; and an exhaustive
search over small Chimera graphs shows that this construction is optimal
at m = 1 and m = 2 (on the 2x2 graph, K_9 needs at least one chain longer
than m + 1 = 3).  Whether a K_65 minor with chains of at most 17 qubits
exists on the 16x16 graph is not settled here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from brokenchains.bench import (
    ExperimentConfig,
    improvement_ratio,
    run_fig2,
    run_fig3,
    rows_to_csv,
)
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
    scale_to_unit_range,
)
from brokenchains.graphs import (
    brute_force,
    cut_size,
    erdos_renyi,
    is_clique,
    is_vertex_cover,
)
from brokenchains.sampler import (
    AnnealParams,
    inject_chain_breaks,
    simulated_anneal,
    spin_energies,
)
from brokenchains.seeding import rng_from
from brokenchains.topology import (
    PhysicalModel,
    chain_columns,
    chimera,
    clique_embedding,
    embed_bqm,
    identity_embedding,
    validate_embedding,
)
from brokenchains.unembed import (
    ChainReadout,
    decompose_set,
    majority_vote,
    max_clique_rows,
    max_cut_rows,
    minimize_energy,
    partitioning_rows,
    random_weighted,
    vertex_cover_rows,
)
from conftest import (
    chain_break_probability,
    complete_graph,
    edge_set,
    empty_graph,
    hardware_adjacency,
    members,
    one_read,
    row_set,
    sample_set,
    sides,
    spins_of,
)


def report(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")


def enumerate_energies(model):
    """Energies of every assignment, vectorized; rows follow bit order."""
    variables = model.variables()
    n = len(variables)
    q = np.zeros((n, n))
    u, v = model.positions().T
    q[u, v] = model.j
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    states = bits if model.domain == QUBO else 2.0 * bits - 1.0
    energies = states @ model.h + np.einsum("si,ij,sj->s", states, q, states) + model.offset
    return variables, states, energies


class TestCriterion1OracleEquivalence:
    def test_hamiltonian_minima_match_brute_force(self):
        started = time.monotonic()
        ns = (8, 10, 12, 14)
        ps = (0.3, 0.5, 0.7)
        checked = 0
        for seed in range(50):
            n = ns[seed % len(ns)]
            p = ps[seed % len(ps)]
            g = erdos_renyi(n, p, seed)

            model = build_max_clique_qubo(g)
            opt, _ = brute_force("max_clique", g)
            _, states, energies = enumerate_energies(model)
            best = int(np.argmin(energies))
            assert energies[best] == -opt
            ones = {v for v, x in enumerate(states[best]) if x == 1}
            assert is_clique(g, ones) and len(ones) == opt

            model = build_min_vertex_cover_qubo(g)
            opt, _ = brute_force("min_vertex_cover", g)
            _, states, energies = enumerate_energies(model)
            best = int(np.argmin(energies))
            assert energies[best] == opt
            ones = {v for v, x in enumerate(states[best]) if x == 1}
            assert is_vertex_cover(g, ones) and len(ones) == opt

            model = build_max_cut_ising(g)
            opt, _ = brute_force("max_cut", g)
            _, states, energies = enumerate_energies(model)
            assert (len(g.u) - energies.min()) / 2 == opt

            model = build_graph_partitioning_ising(g)
            opt, _ = brute_force("graph_partitioning", g)
            _, states, energies = enumerate_energies(model)
            balanced = np.abs(states.sum(axis=1)) <= 1
            best = int(np.argmin(np.where(balanced, energies, np.inf)))
            minus = frozenset(v for v, s in enumerate(states[best]) if s == -1)
            cut = sum(1 for u, v in edge_set(g) if (u in minus) != (v in minus))
            assert cut == opt

            checked += 1
        elapsed = time.monotonic() - started
        passed = checked == 50 and elapsed < 60
        report(1, passed, f"oracle equivalence on {checked} graphs in {elapsed:.1f}s (< 60s)")
        assert passed


class TestCriterion2FeasibilitySuite:
    def test_tailored_outputs_always_feasible(self):
        hw = chimera(8, 8, 4)
        embedding = clique_embedding(30, hw)
        p_breaks = (0.0, 0.1, 0.3, 0.5, 1.0)
        samples_per_cell = 100
        failures = 0
        total_samples = 0
        total_readouts = 0
        for graph_index in range(20):
            g = erdos_renyi(30, 0.2 + 0.03 * graph_index, 9000 + graph_index)
            pm = embed_bqm(convert(build_max_cut_ising(g), ISING), embedding, hw, 2.0)
            chains = chain_columns(embedding, pm.qubits())
            rng = rng_from(4242, graph_index)
            for p_break in p_breaks:
                rows = rng.choice((-1, 1), size=(samples_per_cell, 30))
                logical = sample_set(rows, range(30))
                samples = inject_chain_breaks(
                    logical, p_break, int(rng.integers(0, 2**62)), pm
                )
                rs = decompose_set(samples.spins, chains)
                total_samples += len(rs)
                total_readouts += rs.broken.size
                # read ``rep`` of the cell draws from ``rng_from(rep)``
                cuts = max_cut_rows(rs, g, [rng_from(rep) for rep in range(len(rs))])
                parts = partitioning_rows(rs, g, [rng_from(rep) for rep in range(len(rs))])
                for clique, cover, cut_row, part_row in zip(
                    max_clique_rows(rs, g), vertex_cover_rows(rs, g), cuts, parts
                ):
                    if not is_clique(g, members(clique)):
                        failures += 1
                    if not is_vertex_cover(g, members(cover)):
                        failures += 1
                    cut = sides(cut_row, g)
                    if not cut.is_complete_for(g):
                        failures += 1
                    part = sides(part_row, g)
                    if not part.is_complete_for(g):
                        failures += 1
                    skew = len(part.side_minus) - len(part.side_plus)
                    if part.is_balanced() != (abs(skew) <= 1):
                        failures += 1
        passed = failures == 0 and total_readouts >= 10_000
        report(
            2,
            passed,
            f"{failures} feasibility failures over {total_samples} injected samples "
            f"({total_readouts} readouts)",
        )
        assert passed


class TestCriterion3AgreementOnUnbroken:
    def test_methods_agree_and_ratios_are_unit(self):
        agreements = 0
        instances = 0
        problems = ("max_clique", "max_cut", "min_vertex_cover", "graph_partitioning")
        for problem in problems:
            for k in range(25):
                g = erdos_renyi(20, 0.4 + 0.02 * (k % 5), 3100 + 25 * problems.index(problem) + k)
                builder = {
                    "max_clique": build_max_clique_qubo,
                    "min_vertex_cover": build_min_vertex_cover_qubo,
                    "max_cut": build_max_cut_ising,
                    "graph_partitioning": build_graph_partitioning_ising,
                }[problem]
                model = builder(g)
                ising = convert(model, ISING)
                logical_pm = PhysicalModel(ising, identity_embedding(ising.variables()))
                ss = simulated_anneal(
                    logical_pm, AnnealParams(num_reads=20, sweeps=300, seed=500 + k)
                )
                best = int(np.argmin(spin_energies(logical_pm.ising, ss.spins)))

                hw = chimera(8, 8, 4)
                e = clique_embedding(20, hw)
                pm = embed_bqm(ising, e, hw, 2.0)
                sample = inject_chain_breaks(
                    sample_set([ss.spins[best]], ss.qubits), 0.0, k, pm
                )
                rs = decompose_set(sample.spins, chain_columns(e, sample.qubits))
                assert rs.ids.tolist() == list(range(20))
                high = rs.high.tolist()

                assert majority_vote(rs).tolist() == high
                assert random_weighted(rs, [rng_from(k)]).tolist() == high
                assert minimize_energy(rs, model).tolist() == high
                ones = frozenset(v for v, x in enumerate(high[0]) if x)
                if problem == "max_clique":
                    assert is_clique(g, ones)
                    assert members(max_clique_rows(rs, g)[0]) == ones
                elif problem == "min_vertex_cover":
                    assert is_vertex_cover(g, ones)
                    assert members(vertex_cover_rows(rs, g)[0]) == ones
                elif problem == "max_cut":
                    assert members(max_cut_rows(rs, g, [rng_from(k)])[0]) == ones
                else:
                    assert members(partitioning_rows(rs, g, [rng_from(k)])[0]) == ones
                agreements += 1
                instances += 1

        unit_ratios = True
        for problem in problems:
            cfg = ExperimentConfig(
                problem=problem,
                densities=(0.5,),
                n=20,
                graphs_per_density=2,
                reads=20,
                sweeps=200,
                seed=31,
                topology=(8, 8, 4),
                source="inject",
                p_break=0.0,
            )
            for row in run_fig3(cfg):
                if row.method == "tailored":
                    unit_ratios &= (
                        row.ratio_vs_majority == 1.0
                        and row.ratio_vs_random == 1.0
                        and row.ratio_vs_minenergy == 1.0
                    )
        passed = agreements == instances == 100 and unit_ratios
        report(3, passed, f"agreement on {agreements}/100 unbroken instances; unit ratios: {unit_ratios}")
        assert passed


class TestCriterion4MinimizeEnergyOracle:
    def test_greedy_matches_exhaustive_for_two_chains(self):
        worst = 0.0
        for seed in range(500):
            rng = rng_from(7000, seed)
            nvars = int(rng.integers(4, 9))
            linear = {v: float(rng.uniform(-1, 1)) for v in range(nvars)}
            quadratic = {
                (u, v): float(rng.uniform(-1, 1))
                for u in range(nvars)
                for v in range(u + 1, nvars)
                if rng.random() < 0.6
            }
            model = BinaryQuadraticModel.from_terms(ISING, linear, quadratic)
            n_broken = int(rng.integers(1, 3))
            broken = sorted(rng.choice(nvars, size=n_broken, replace=False))
            readouts = []
            for v in range(nvars):
                if v in broken:
                    length = int(rng.integers(2, 6))
                    ones = int(rng.integers(1, length))
                    values = [1] * ones + [-1] * (length - ones)
                    readouts.append(
                        ChainReadout(v, values[0], ISING, True, ones / length)
                    )
                else:
                    s = int(rng.choice((-1, 1)))
                    readouts.append(ChainReadout(v, s, ISING, False, (s + 1) / 2))
            (row,) = minimize_energy(row_set(readouts), model)
            got = dict(enumerate(np.where(row, 1, -1).tolist()))
            fixed = {r.variable: r.value for r in readouts if not r.broken}
            best = min(
                energy(model, {**fixed, **dict(zip(broken, combo))})
                for combo in itertools.product((-1, 1), repeat=len(broken))
            )
            worst = max(worst, abs(energy(model, got) - best))
        passed = worst <= 1e-9
        report(4, passed, f"max |greedy - exhaustive| = {worst:.2e} over 500 instances (tol 1e-9)")
        assert passed


class TestCriterion5BrokenChainPhenomenology:
    def test_proportion_falls_with_chain_strength(self):
        started = time.monotonic()

        def mean_broken(strength):
            cfg = ExperimentConfig(
                problem="max_cut",
                densities=(0.5,),
                n=30,
                graphs_per_density=10,
                reads=200,
                sweeps=200,
                seed=55,
                topology=(8, 8, 4),
                chain_strength=strength,
            )
            rows = run_fig2(cfg)
            return float(np.mean([r.broken_frac_mean for r in rows]))

        weak = mean_broken(0.1)
        strong = mean_broken(10.0)
        very_strong = mean_broken(50.0)
        elapsed = time.monotonic() - started
        passed = weak > strong and very_strong < 0.01 and elapsed < 300
        report(
            5,
            passed,
            f"broken proportion {weak:.3f} @0.1 > {strong:.3f} @10; "
            f"{very_strong:.4f} @50 < 0.01; {elapsed:.0f}s (< 300s)",
        )
        assert passed


class TestCriterion6InjectorStatistics:
    def test_break_rate_matches_binomial_model(self):
        cases = []
        for length, (m, k) in ((5, (4, 16)), (17, (16, 64))):
            hw = chimera(m, m, 4)
            e = clique_embedding(k, hw)
            assert all(len(e.chain(v)) == length for v in e.variables())
            model = convert(build_max_cut_ising(empty_graph(k)), ISING)
            pm = embed_bqm(model, e, hw, 1.0)
            logical = one_read({v: 1 for v in range(k)}, reads=1000)
            for p in (0.1, 0.2, 0.5):
                expect = chain_break_probability(p, length)
                broken = 0
                samples = inject_chain_breaks(logical, p, 0, pm)
                for read in range(1000):
                    spins = spins_of(samples, read)
                    broken += sum(
                        1 for v in e.variables()
                        if len({spins[q] for q in e.chain(v)}) > 1
                    )
                trials = 1000 * k
                sigma = math.sqrt(trials * expect * (1 - expect))
                deviation = abs(broken - trials * expect)
                cases.append(deviation <= 3 * sigma)
        passed = all(cases)
        report(6, passed, f"{sum(cases)}/6 (p, L) cells within 3 binomial sigma")
        assert passed


class TestCriterion7TailoredDominance:
    def test_partitioning_beats_majority_on_average(self):
        cfg = ExperimentConfig(
            problem="graph_partitioning",
            densities=(0.3, 0.6),
            n=30,
            graphs_per_density=5,
            reads=200,
            sweeps=1000,
            seed=1,
            topology=(8, 8, 4),
            aggregate="best",
        )
        rows = run_fig3(cfg)
        ratios = [
            r.ratio_vs_majority
            for r in rows
            if r.method == "tailored" and r.ratio_vs_majority is not None
        ]
        mean_ratio = float(np.mean(ratios))
        passed = len(ratios) == 10 and mean_ratio >= 1.0
        report(7, passed, f"mean improvement ratio vs majority vote = {mean_ratio:.4f} (>= 1.0)")
        assert passed


class TestCriterion8EmbeddingValidity:
    def test_clique_embeddings_valid_across_sizes(self):
        checked = 0
        for m in (2, 4, 8, 16):
            hw = chimera(m, m, 4)
            for k in range(2, 4 * m + 2):
                e = clique_embedding(k, hw)
                assert validate_embedding(e, complete_graph(k), hw) == [], (m, k)
                checked += 1
        hw4 = chimera(4, 4, 4)
        e16 = clique_embedding(16, hw4)
        lengths16 = {len(e16.chain(v)) for v in e16.variables()}
        passed = checked == sum(4 * m for m in (2, 4, 8, 16)) and lengths16 == {5}
        report(
            8,
            passed,
            f"all K_k valid for k <= 4m+1, m in 2/4/8/16; K16 on C4 chains all length 5",
        )
        assert passed

    def test_k65_maximum_chain_length_as_stated(self):
        # clique_embedding documents a longest chain of m+2 for K_{4m+1}.
        # test_exhaustive_search_bounds_chain_length shows at m = 2 that at
        # least one chain must be longer than m+1; the shipped K65 has 15
        # chains of length m+2 = 18.
        m = 16
        hw = chimera(m, m, 4)
        e = clique_embedding(4 * m + 1, hw)
        violations = validate_embedding(e, complete_graph(4 * m + 1), hw)
        longest = e.max_chain_length()
        passed = violations == [] and len(e.ids) == 65 and longest == m + 2
        report(8, passed, f"K65 on C16 max chain length {longest} (target: m+2 = 18)")
        assert violations == []
        assert len(e.ids) == 65
        assert longest == m + 2 == 18, (
            f"max chain length is {longest}; clique_embedding documents m+2 = 18 "
            "for K_{4m+1} on chimera(16,16,4)"
        )

    def test_exhaustive_search_bounds_chain_length(self):
        # On chimera(m,m,4) the search finds a K_{4m+1} minor with chains of
        # at most `optimum` qubits and none with shorter chains; at L = 3
        # the largest complete minor of the 2x2 graph is K_8.
        assert has_complete_minor(chimera(2, 2, 4), 8, max_len=3)
        longest = {}
        for m, optimum in ((1, 2), (2, 4)):
            hw, k = chimera(m, m, 4), 4 * m + 1
            assert not has_complete_minor(hw, k, max_len=optimum - 1), m
            assert has_complete_minor(hw, k, max_len=optimum), m
            e = clique_embedding(k, hw)
            assert validate_embedding(e, complete_graph(k), hw) == []
            longest[m] = e.max_chain_length()
        passed = longest == {1: 2, 2: 4}
        report(8, passed, f"K5/K9 longest chains {longest[1]}/{longest[2]} equal the exhaustive optima 2/4")
        assert passed


def has_complete_minor(hw, k, max_len):
    """Exact search: does ``hw`` hold a K_k minor with chains of <= max_len qubits?

    Candidates are all connected qubit sets of at most ``max_len`` qubits;
    two are compatible when disjoint and joined by a coupler.  A K_k minor
    is then a k-clique of compatible sets, found by branch and bound over
    bitsets with a greedy-colouring bound (Tomita's MCQ).
    """
    adj = hardware_adjacency(hw)
    sets, frontier = set(), {frozenset([q]) for q in hw.qubits}
    while frontier:
        sets |= frontier
        frontier = {s | {nb} for s in frontier if len(s) < max_len
                    for q in s for nb in adj[q] if nb not in s} - sets
    rims = {s: set().union(*(adj[q] for q in s)) - s for s in sets}
    # few-neighbour sets first, so that branching starts from the best
    # connected: on chimera(2,2,4) this took 1.6 s -> 0.5 s (no K_9, L = 3)
    # and 9.6 s -> 0.02 s (K_9, L = 4) against qubit-id order
    sets = sorted(sets, key=lambda s: (len(rims[s]), sorted(s)))
    holding = dict.fromkeys(hw.qubits, 0)  # qubit -> bitset of sets holding it
    for i, s in enumerate(sets):
        for q in s:
            holding[q] |= 1 << i
    nbrs = []
    for s in sets:
        touching = overlapping = 0
        for q in rims[s]:
            touching |= holding[q]
        for q in s:
            overlapping |= holding[q]
        nbrs.append(touching & ~overlapping)

    def grow(size, cand):
        if size == k:
            return True
        order, rest, colour = [], cand, 0
        while rest:
            colour += 1
            free = rest
            while free:
                v = (free & -free).bit_length() - 1
                free &= ~nbrs[v] & ~(1 << v)
                rest &= ~(1 << v)
                order.append((v, colour))
        for v, colour in reversed(order):
            if size + colour < k:
                return False
            if grow(size + 1, cand & nbrs[v]):
                return True
            cand &= ~(1 << v)
        return False

    return grow(0, (1 << len(sets)) - 1)


class TestCriterion9Determinism:
    def test_fig3_byte_identical(self):
        cfg = ExperimentConfig(
            problem="max_cut",
            densities=(0.4, 0.7),
            n=16,
            graphs_per_density=2,
            reads=25,
            sweeps=100,
            seed=77,
            topology=(4, 4, 4),
        )
        first = rows_to_csv(run_fig3(cfg))
        second = rows_to_csv(run_fig3(cfg))
        passed = first == second
        report(9, passed, f"fig3 CSV byte-identical across runs ({len(first)} bytes)")
        assert passed


class TestCriterion10DomainConversion:
    def test_conversion_and_scaling(self):
        max_err = 0.0
        argmin_ok = True
        for seed in range(20):
            rng = rng_from(8800, seed)
            nvars = int(rng.integers(2, 11))
            domain = QUBO if seed % 2 else ISING
            linear = {v: float(rng.uniform(-3, 3)) for v in range(nvars)}
            quadratic = {
                (u, v): float(rng.uniform(-3, 3))
                for u in range(nvars)
                for v in range(u + 1, nvars)
                if rng.random() < 0.5
            }
            offset = float(rng.uniform(-1, 1))
            model = BinaryQuadraticModel.from_terms(domain, linear, quadratic, offset)
            other = convert(model, ISING if domain == QUBO else QUBO)
            values = (0, 1) if domain == QUBO else (-1, 1)
            for combo in itertools.product(values, repeat=nvars):
                a = dict(zip(range(nvars), combo))
                if domain == QUBO:
                    b = {v: 2 * x - 1 for v, x in a.items()}
                else:
                    b = {v: (x + 1) // 2 for v, x in a.items()}
                max_err = max(max_err, abs(energy(model, a) - energy(other, b)))

            scaled = scale_to_unit_range(model)
            _, states, energies = enumerate_energies(model)
            _, _, scaled_energies = enumerate_energies(scaled)
            tol = 1e-12 * max(1.0, float(np.abs(energies).max()))
            argmins = set(np.flatnonzero(energies <= energies.min() + tol))
            scaled_tol = 1e-12 * max(1.0, float(np.abs(scaled_energies).max()))
            scaled_argmins = set(
                np.flatnonzero(scaled_energies <= scaled_energies.min() + scaled_tol)
            )
            argmin_ok &= argmins == scaled_argmins
        passed = max_err <= 1e-9 and argmin_ok
        report(
            10,
            passed,
            f"conversion max error {max_err:.2e} (tol 1e-9); scaling preserves argmin: {argmin_ok}",
        )
        assert passed
