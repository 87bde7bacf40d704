"""Properties over generated inputs, checked with hypothesis.

* ``decompose`` agrees with a per-qubit dict reference on random chains;
* injecting the first k reads of a logical set gives the first k
  injected reads, since read ``r`` draws from its own stream;
* read ``r`` of an anneal does not depend on batching: the first k1
  reads of a k1-read and a k2-read anneal agree when the two sets are cut
  into different 64-read batches, and every energy matches ``bqm.energy``;
* no repair method changes the value of an intact chain, except the two
  documented tailored exits (max clique's empty clique, vertex cover's
  all-vertices cover).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenchains import bench
from brokenchains.bqm import ISING, QUBO, build_model, convert, energy
from brokenchains.graphs import PROBLEMS, Bipartition, erdos_renyi, is_clique
from brokenchains.sampler import AnnealParams, inject_chain_breaks, simulated_anneal
from brokenchains.topology import (
    Embedding,
    chain_columns,
    chimera,
    clique_embedding,
    embed_bqm,
)
from brokenchains.unembed import decompose
from conftest import sample_set, spin_glass, spins_of

HW = chimera(2, 2, 4)
QUBITS = tuple(sorted(HW.qubits))
PROPERTY = settings(max_examples=100, deadline=None, database=None)

spin_rows = st.lists(st.sampled_from((-1, 1)), min_size=len(QUBITS), max_size=len(QUBITS))
seeds = st.integers(0, 2**64 - 1)
p_breaks = st.floats(0.0, 1.0)


@st.composite
def embeddings(draw):
    """Disjoint chains of 1-6 qubits of chimera(2,2,4) under distinct variable ids."""
    order = draw(st.permutations(QUBITS))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    variables = draw(
        st.lists(st.integers(0, 99), min_size=len(lengths), max_size=len(lengths), unique=True)
    )
    chains, start = {}, 0
    for v, length in zip(variables, lengths):
        if start + length > len(order):
            break
        chains[v] = order[start : start + length]
        start += length
    return Embedding(chains)


def reference_readouts(spins: dict, e: Embedding, domain: str):
    """(variable, broken, frac_ones, value) per chain, read qubit by qubit."""
    out = []
    for v in e.variables():
        raw = [spins[q] for q in e.chain(v)]
        first = (raw[0] + 1) // 2 if domain == QUBO else raw[0]
        out.append((v, len(set(raw)) > 1, sum(1 for x in raw if x > 0) / len(raw), first))
    return out


@PROPERTY
@given(embeddings(), spin_rows, st.sampled_from((ISING, QUBO)))
def test_decompose_matches_dict_reference(e, row, domain):
    readouts = decompose(np.array(row, dtype=np.int8), chain_columns(e, QUBITS), domain)
    got = [(r.variable, r.broken, r.frac_ones, r.value) for r in readouts]
    assert got == reference_readouts(dict(zip(QUBITS, row)), e, domain)
    assert all(r.domain == domain for r in readouts)


def physical(problem, n, graph_seed):
    g = erdos_renyi(n, 0.5, graph_seed)
    model = build_model(problem, g)
    e = clique_embedding(n, HW)
    return g, model, e, embed_bqm(convert(model, ISING), e, HW, 1.0)


@PROPERTY
@given(st.integers(1, 9), st.data(), p_breaks, seeds)
def test_injecting_a_prefix_gives_the_prefix(n, data, p_break, seed):
    _, _, e, pm = physical("max_cut", n, 0)
    rows = data.draw(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
                              min_size=1, max_size=12))
    k = data.draw(st.integers(1, len(rows)))
    full = inject_chain_breaks(sample_set(rows, range(n)), e, p_break, seed, pm)
    head = inject_chain_breaks(sample_set(rows[:k], range(n)), e, p_break, seed, pm)
    assert head.qubits == full.qubits
    assert np.array_equal(head.spins, full.spins[:k])
    assert np.allclose(head.energies, full.energies[:k], rtol=0, atol=1e-9)


@PROPERTY
@given(st.sampled_from((64, 128)), st.data(), st.integers(1, 4), seeds, seeds)
def test_read_does_not_depend_on_batching(boundary, data, sweeps, model_seed, seed):
    k1 = data.draw(st.integers(1, boundary))
    k2 = data.draw(st.integers(boundary + 1, boundary + 64))
    pm = spin_glass(HW, model_seed)
    head, full = (simulated_anneal(pm, AnnealParams(k, sweeps, seed=seed)) for k in (k1, k2))
    assert head.qubits == full.qubits
    assert np.array_equal(head.spins, full.spins[:k1])
    for ss in (head, full):
        expected = [energy(pm.ising, spins_of(ss, r)) for r in range(len(ss))]
        assert np.allclose(ss.energies, expected, rtol=0, atol=1e-9)


def witness_values(witness, g):
    """The witness as a {vertex: value} assignment in its problem's domain."""
    if isinstance(witness, Bipartition):
        return {v: 1 if v in witness.side_plus else -1 for v in g.vertices()}
    return {v: 1 if v in witness else 0 for v in g.vertices()}


@PROPERTY
@given(st.sampled_from(PROBLEMS), st.integers(2, 9), seeds, st.data(), p_breaks, seeds)
def test_repair_keeps_intact_chains(problem, n, graph_seed, data, p_break, seed):
    g, model, e, pm = physical(problem, n, graph_seed)
    row = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    samples = inject_chain_breaks(sample_set([row], range(n)), e, p_break, seed, pm)
    readouts = decompose(samples.spins[0], chain_columns(e, samples.qubits), model.domain)
    intact = {r.variable: r.value for r in readouts if not r.broken}
    ones = {v for v, x in intact.items() if x == 1}
    zeros = set(intact) - ones
    for method in bench.METHODS:
        witness = bench.repair(method, readouts, problem, g, model, seed, 0)
        if method == "tailored" and problem == "max_clique" and not is_clique(g, ones):
            assert witness == frozenset()
            continue
        if method == "tailored" and problem == "min_vertex_cover" and any(
            u in zeros and v in zeros for u, v in g.edges
        ):
            assert witness == frozenset(g.vertices())
            continue
        values = witness_values(witness, g)
        assert {v: values[v] for v in intact} == intact, method
