"""Properties over generated inputs, checked with hypothesis.

* ``decompose`` agrees with a per-qubit dict reference on random chains,
  and raises ``ValueError`` on an unknown domain;
* ``decompose_set`` on 0-20 reads of random chains gives the arrays
  (shape, dtype and bytes) that the test-side ``stack`` copies from
  per-read ``decompose`` records in either domain, holds the embedding's
  own read-only ``ids``, each row matches the dict reference, and a 1-D
  array raises ``ValueError``;
* each read's ``decompose`` records, in any order, stack back into the
  bytes of ``decompose_set``'s set, and every repair method (majority
  vote, random weighting, minimize energy and the four tailored
  algorithms) gives the same rows on both;
* ``random_weighted``'s one draw call per read equals the per-chain loop
  it replaced (kept here as ``reference_random_weighted``) on one-row
  sets of random readouts given in any order;
* injecting the first k reads of a logical set gives the first k
  injected reads, since read ``r`` draws from its own stream;
* read ``r`` of an anneal does not depend on batching: the first k1
  reads of a k1-read and a k2-read anneal agree when the k2 reads take one
  more spin batch than the k1 reads, or one more 64-read energy block
  inside one spin batch, and every energy ``spin_energies`` sums for them
  matches ``bqm.energy``;
* ``seeding.streams`` gives, for every read, the generator
  ``np.random.default_rng(derive_seed(...))`` gives (state and draws), with
  and without a trailing 0 index, ``derive_seeds`` equals ``derive_seed``
  elementwise, and the seed words equal ``SeedSequence``'s, edge seeds
  included: this pins the reimplemented numpy seeding;
* ``simulated_anneal`` equals the per-sweep loop it replaced (kept here as
  ``reference_simulated_anneal``) spin for spin, byte for byte, on
  random spin glasses, and zero-field ones whose local fields reach +-0,
  over 1-140 reads and sweep counts below, at and past the sweeps one draw
  call covers; with couplings strong enough that ``exp`` overflows on
  downhill moves it still does, and warns of nothing;
* ``anneal_grid`` of 1-4 embeddings of one model at chain strengths that
  may repeat gives each model the spins of ``simulated_anneal`` on that
  model alone, for zero-field (max cut) and field-carrying (vertex cover)
  models over 1, 23, 65 and 100 reads and 1-3 sweeps or half to a full
  draw call of them, so that a grid takes one or several spin batches;
  two grids of 3 and 4 models that take 3-6 spin batches match the
  per-sweep reference, and so do grids of a graph whose greedy colouring
  has a one-qubit class;
* the class-major layout of 1-4 such models is a bijection from (model,
  qubit) onto the rows, puts each colour class of every model in one
  slice (model by model, ascending qubit), and keeps every class row's
  entries, and so its field's sum order, as its model's CSR row holds
  them;
* at a fixed beta, 4,000 reads of three random frustrated 7-spin models
  with dyadic couplings lie within multinomial noise (total variation
  bound at false-failure probability 1e-9) of the exact Boltzmann law
  over all 128 states, and outside that bound for the law at 2 beta;
* no repair method changes the value of an intact chain, except the two
  documented tailored exits (max clique's empty clique, vertex cover's
  all-vertices cover);
* each of the seven public repair functions, on one set decoded from any
  problem's samples, returns a boolean ``(reads, n)`` array whose
  intact-chain cells equal the set's ``high``, but for those two exits;
* tailored witnesses of random graphs, rows and ``p_break``, repaired as
  one set through ``bench.repair``, are feasible: a clique, a cover, a
  partition of every vertex, and a balanced one for partitioning whenever
  neither side holds more than floor(n/2) intact chains;
* each tailored algorithm on a one-row set returns the witness of its
  set-based reference (kept here as ``reference_unembed_*``) on random
  graphs of 1-9 and 65 vertices and random readouts whose chain lengths
  1, 2 and 4 tie many fractions of ones;
* the whole-set vertex-cover drain (``vertex_cover_rows``) equals the set
  reference read by read, and each read alone, on sets of 1-8 reads that
  mix uncoverable reads, reads with no broken chain, reads with every
  chain broken and mixed ones;
* every tailored algorithm, run on a whole set, equals its set reference
  read by read, on sets that mix intact reads, all-broken reads, reads
  whose chains all tie at exactly one half, reads whose intact chains all
  hold 1 / +1 (partitioning meets its cap) and reads whose core is not a
  clique, and the first k reads of a set give its first k rows;
* majority vote, random weighting and minimize energy on a stacked set
  equal, row by row, the per-read references (read ``r``'s per-chain draws
  from its own generator, the term-by-term dict walk), also on a prefix;
* ``bench.repair``'s boolean rows, for every method, equal after
  conversion the witnesses of the per-read path it replaced (kept here as
  ``reference_repair``: one dict per read through ``witness_from_values``,
  and the set-based tailored references), and a set that is not over the
  vertices raises ``ValueError``;
* ``score_rows`` equals the edge-scan references witness by witness, as
  Python ints and bools, on random graphs of 1-9 and 65 vertices
  (edgeless and complete ones included) and random, empty, full, clique,
  cover and balanced rows;
* ``Graph`` built from edge lists with both orientations, repeated
  pairs, self-loops and out-of-range ends equals a Python-set
  normalisation of the list: ``u`` and ``v`` are its sorted pairs,
  ``adjacency`` its matrix, ``==`` and ``hash`` follow the set, and
  ``ValueError`` names the first bad edge in input order, a self-loop
  before an out-of-range end;
* ``Graph.adjacency`` is read-only with an isolated dummy vertex, the
  degree and neighbour queries equal edge scans, and ``is_clique``,
  ``is_vertex_cover`` and ``cut_size`` (one-row ``score_rows`` calls)
  equal the edge-scan references on random graphs and subsets and still
  raise ``ValueError`` on an out-of-range vertex;
* ``brute_force``'s witness row scores its value as feasible under
  ``score_rows`` for all four problems on graphs of up to 10 vertices;
* ``erdos_renyi`` and ``complement`` equal pair-loop references on 1-9
  and 65 vertices at densities including 0 and 1;
* set-level ``minimize_energy`` equals a one-read-at-a-time reference on
  random models of both domains with float, tenth and zero coefficients
  (tenths make the sum order show in the last bits), and
  read ``r``'s result is the same alone, in a prefix and in the whole set;
* ``convert`` keeps every energy, QUBO to Ising, Ising to QUBO and on the
  round trip: exactly on coefficients in multiples of 1/8 (and the round
  trip gives the model back), to 1e-9 on floats;
* ``BinaryQuadraticModel.from_terms`` on mappings whose pairs come in
  either order and twice, whose pair ends may be missing from the linear
  mapping, with -0.0 and inexact coefficients, stores bit for bit the
  terms, in the order, of a plain-dict reference (``reference_terms``:
  the rules the dict-backed model applied), reads back equal from its
  JSON, and has the ``model_hash`` of the reference's dict document;
* ``embed_bqm`` keeps the energy of every chain-consistent state, less
  the chain strength per intra-chain coupler, for random models on
  ``clique_embedding`` over chimera(m,m,4), m = 1-3;
* on random disjoint chains and on clique embeddings, ``embed_bqm``
  equals a reference that tests every qubit pair of every logical edge,
  and raises exactly when ``validate_embedding`` reports a violation; ``validate_embedding`` returns the violations of a
  qubit-by-qubit reference on chains that may be empty, repeat or share
  qubits, or use qubits absent from the hardware;
* every boundary decides the anneal settings as ``AnnealParams`` does:
  on reads, sweeps, beta ranges and seeds drawn from ints, bools, floats
  (nan, +-inf and 1e308 among them), strings and tuples or lists of 0-3
  of those, ``AnnealParams``, ``ExperimentConfig.validate`` and
  ``sampleset_from_json`` all raise ``ValueError``, with one message, or
  all pass;
* every boundary decides whether K_k fits a Chimera as
  ``clique_embedding`` does: on k from -1 to 18 and chimera shapes up to
  (4, 4, 4), ``clique_embedding``, ``ExperimentConfig.validate`` with
  ``n = k`` and ``brokenchains embed --k`` all reject (the CLI with exit
  code 2) or all accept.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from brokenchains import bench, sampler
from brokenchains.bqm import (
    ISING,
    QUBO,
    BinaryQuadraticModel,
    build_model,
    convert,
    energy,
    from_json,
    to_json,
)
from brokenchains.cli import main
from brokenchains.graphs import (
    PROBLEMS,
    Graph,
    brute_force,
    complement,
    cut_size,
    erdos_renyi,
    is_clique,
    is_int,
    is_vertex_cover,
    score_rows,
)
from brokenchains.sampler import (
    _DRAWS_PER_CALL,
    _READ_BATCH,
    AnnealParams,
    SampleSet,
    _batch_shape,
    _class_layout,
    _colour_classes,
    _coupling_matrix,
    _initial_states,
    anneal_grid,
    inject_chain_breaks,
    model_hash,
    sampleset_from_json,
    sampleset_to_json,
    simulated_anneal,
    spin_energies,
)
from brokenchains.seeding import (
    STREAM_INJECT,
    STREAM_READ,
    STREAM_TAILORED,
    STREAM_WEIGHTED,
    _BLOCK as _SEED_BLOCK,
    _pcg64_words,
    derive_seed,
    derive_seeds,
    rng_from,
    streams,
)
from brokenchains.topology import (
    Embedding,
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
    Bipartition,
    chains_of,
    coupler_set,
    edge_set,
    hardware_adjacency,
    has_edge,
    interaction_graph,
    intra_chain_couplers,
    linear_terms,
    members,
    neighbors,
    quadratic_terms,
    row_set,
    sample_set,
    sides,
    spin_glass,
    spins_of,
    stack,
)

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
    return Embedding.from_chains(chains)


FAULTS = ("overlap", "repeat", "off-hardware", "empty", "disconnected")


@st.composite
def faulty_embeddings(draw):
    """An ``embeddings()`` draw with one to three faults: a chain takes a qubit
    of another chain (or of itself), repeats one of its qubits, takes an id
    that is no hardware qubit, is emptied, or becomes two qubits of one
    cell's shore, which share no coupler."""
    chains = {v: list(c) for v, c in chains_of(draw(embeddings())).items()}
    for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3)):
        v = draw(st.sampled_from(sorted(chains)))
        chain = chains[v]
        at = draw(st.integers(0, len(chain)))
        if fault == "overlap":
            other = chains[draw(st.sampled_from(sorted(chains)))]
            if other:
                chain.insert(at, draw(st.sampled_from(other)))
        elif fault == "repeat" and chain:
            chain.insert(at, draw(st.sampled_from(chain)))
        elif fault == "off-hardware":
            chain.insert(at, draw(st.sampled_from((-1, len(QUBITS), len(QUBITS) + 3, 2**40))))
        elif fault == "empty":
            chain.clear()
        elif fault == "disconnected":
            q = draw(st.sampled_from(QUBITS))
            chain[:] = [q, q - q % 4 + (q + 1) % 4]  # the next index on q's shore
    return Embedding.from_chains(chains)


def fault_events(violations):
    """One hypothesis event per kind of violation, to show what was drawn."""
    for text in violations:
        event(" ".join(w for w in text.split() if not w.strip("(),").lstrip("-").isdigit()))


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
    with pytest.raises(ValueError, match="^unknown domain"):
        decompose(np.array(row, dtype=np.int8), chain_columns(e, QUBITS), "spin")


@PROPERTY
@given(embeddings(), st.lists(spin_rows, max_size=20), st.sampled_from((ISING, QUBO)))
def test_decompose_set_equals_stacked_reads(e, rows, domain):
    spins = np.array(rows, dtype=np.int8).reshape(-1, len(QUBITS))
    chains = chain_columns(e, QUBITS)
    got = decompose_set(spins, chains)
    want = stack((decompose(row, chains, domain) for row in spins), chains.variables())
    # the embedding's own read-only ids, not a copy
    assert got.ids is e.ids and not got.ids.flags.writeable
    for name in ("high", "broken", "frac_ones"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    low = 0 if domain == QUBO else -1
    for r, row in enumerate(rows):
        reference = reference_readouts(dict(zip(QUBITS, row)), e, domain)
        values = np.where(got.high[r], 1, low).tolist()
        assert list(zip(got.ids.tolist(), got.broken[r].tolist(), got.frac_ones[r].tolist(),
                        values)) == reference
    assert decompose_set(spins[:0], chains).high.shape == (0, len(e.ids))
    with pytest.raises(ValueError, match="^spins must be a 2-D"):
        decompose_set(np.zeros(len(QUBITS), np.int8), chains)


def reference_chain_columns(e: Embedding, qubits):
    """``(variables, columns, starts, lengths)`` of ``e`` over a spin array
    whose columns are ``qubits``, through a per-qubit dict: the layout
    ``chain_columns`` gave before it relabelled the embedding itself.
    ``ValueError`` when a chain qubit is not a column."""
    column = {q: i for i, q in enumerate(qubits)}
    chains = [e.chain(v) for v in e.variables()]
    missing = sorted(q for chain in chains for q in chain if q not in column)
    if missing:
        raise ValueError(
            f"{len(missing)} chain qubits of the embedding are not sample columns,"
            f" e.g. qubit {missing[0]}"
        )
    lengths = [len(chain) for chain in chains]
    return (e.variables(), [column[q] for chain in chains for q in chain],
            list(itertools.accumulate([0] + lengths[:-1])) if chains else [], lengths)


@PROPERTY
@given(st.one_of(embeddings(), faulty_embeddings()), st.data())
def test_chain_columns_matches_dict_reference(e, data):
    # every qubit, then a random subset of columns, which misses chain
    # qubits unless it takes every hardware qubit of the chains
    subset = set(data.draw(st.lists(st.sampled_from(QUBITS), unique=True)))
    if data.draw(st.booleans()):
        subset |= set(e.qubits.tolist()) & set(QUBITS)
    for qubits in (QUBITS, tuple(sorted(subset))):
        try:
            want = reference_chain_columns(e, qubits)
        except ValueError as exc:
            event("missing qubits")
            with pytest.raises(ValueError) as info:
                chain_columns(e, qubits)
            assert str(info.value) == str(exc)
            continue
        got = chain_columns(e, qubits)
        assert (got.variables(), got.qubits.tolist(), got.starts.tolist(),
                got.lengths.tolist()) == want
        assert got.qubits.dtype == np.intp and got.ids is e.ids


def reference_random_weighted(readouts, rng):
    """Random weighting one chain at a time: one scalar draw per broken chain,
    in ascending variable order."""
    values = {}
    for r in sorted(readouts, key=lambda r: r.variable):
        if not r.broken:
            values[r.variable] = r.value
        else:
            hit = rng.random() < r.frac_ones
            values[r.variable] = 1 if hit else (0 if r.domain == QUBO else -1)
    return values


def physical(problem, n, graph_seed, density=0.5):
    g = erdos_renyi(n, density, graph_seed)
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
    full = inject_chain_breaks(sample_set(rows, range(n)), p_break, seed, pm)
    head = inject_chain_breaks(sample_set(rows[:k], range(n)), p_break, seed, pm)
    assert np.array_equal(head.qubits, full.qubits)
    assert np.array_equal(head.spins, full.spins[:k])


@PROPERTY
@given(st.integers(1, 4), st.data(), seeds, seeds)
def test_read_does_not_depend_on_batching(sweeps, data, model_seed, seed):
    batch, _ = _batch_shape(len(QUBITS), sweeps, 1)
    assert batch >= 2 * _READ_BATCH
    # the k2 reads take one more spin batch, or one more energy block
    # inside their one spin batch, than the first k1 reads
    boundary = data.draw(st.sampled_from((batch, _READ_BATCH)))
    k1 = data.draw(st.integers(1, boundary))
    k2 = data.draw(st.integers(boundary + 1, boundary + _READ_BATCH))
    event("spin batch" if boundary == batch else "energy block")
    pm = spin_glass(HW, model_seed)
    head, full = (simulated_anneal(pm, AnnealParams(k, sweeps, seed=seed)) for k in (k1, k2))
    assert np.array_equal(head.qubits, full.qubits)
    assert np.array_equal(head.spins, full.spins[:k1])
    for ss in (head, full):
        expected = [energy(pm.ising, spins_of(ss, r)) for r in range(len(ss))]
        assert np.allclose(spin_energies(pm.ising, ss.spins), expected, rtol=0, atol=1e-9)


EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
STREAMS = (STREAM_READ, STREAM_INJECT, STREAM_WEIGHTED, STREAM_TAILORED)


@PROPERTY
@given(st.one_of(st.sampled_from(EDGE_SEEDS), seeds), st.sampled_from(STREAMS),
       st.booleans(), st.integers(1, 600), st.integers(1, 40))
def test_streams_equal_default_rng(seed, stream, trailing_zero, count, k):
    after = (0,) if trailing_zero else ()
    event(f"{-(-count // _SEED_BLOCK)} seed blocks")
    for r, rng in zip(range(count), streams(seed, stream, *after)):
        want = np.random.default_rng(derive_seed(seed, stream, r, *after))
        if trailing_zero:
            # the form bench.repair and inject_chain_breaks replace
            assert rng_from(derive_seed(seed, stream, r)).bit_generator.state == (
                want.bit_generator.state
            )
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.random(k), want.random(k))
        assert np.array_equal(rng.integers(0, 2, k), want.integers(0, 2, k))
        assert np.array_equal(rng.permutation(k), want.permutation(k))


@PROPERTY
@given(seeds, st.one_of(st.sampled_from((1, 2, 7, 30, 31, 270, 1101)), st.integers(0, 70)),
       st.integers(1, 4))
def test_initial_states_equal_integer_draws(seed, n, reads):
    event("odd n" if n % 2 else "even n")
    rngs = list(itertools.islice(streams(seed, STREAM_READ), reads))
    twins = list(itertools.islice(streams(seed, STREAM_READ), reads))
    # built in a given array, as the anneal builds them in its draw buffer
    out = np.full((n, reads), np.nan)
    assert _initial_states(rngs, n, out) is out
    for column, rng, twin in zip(out.T, rngs, twins):
        want = twin.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0
        assert column.tobytes() == want.tobytes()
        # the stream is where ``integers`` leaves it for the sweeps' draws
        assert np.array_equal(rng.random(5), twin.random(5))


@PROPERTY
@given(st.one_of(st.sampled_from(EDGE_SEEDS), seeds), st.sampled_from(STREAMS),
       st.lists(seeds, min_size=1, max_size=20), st.lists(seeds, max_size=2))
def test_derive_seeds_equal_derive_seed(seed, stream, reads, after):
    got = derive_seeds(seed, stream, np.array(reads, dtype=np.uint64), *after)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(seed, stream, r, *after) for r in reads]
    # the edge values as seeds of SeedSequence itself, not only as masters
    words = np.array(reads + list(EDGE_SEEDS), dtype=np.uint64)
    for s, row in zip(words.tolist(), _pcg64_words(words)):
        assert row.tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()


def reference_simulated_anneal(pm, params, read_rng=None, exponents=None):
    """The anneal with one ``rng.random`` call per read per sweep and the
    explicit ``delta`` accept test, as ``simulated_anneal`` ran before its
    draws were chunked, its class update made in place and its ``exp``
    floored.  ``read_rng(r)`` gives read ``r``'s generator (its own stream
    by default); ``exponents``, when given, collects every array passed to
    ``exp``."""
    if read_rng is None:
        def read_rng(r):
            return rng_from(params.seed, STREAM_READ, r)
    n = len(pm.ising.ids)
    j_sym = _coupling_matrix(pm.ising)
    classes = _colour_classes(j_sym)
    betas = np.geomspace(params.beta_range[0], params.beta_range[1], params.sweeps)

    spins = []
    for start in range(0, params.num_reads, _READ_BATCH):
        reads = range(start, min(start + _READ_BATCH, params.num_reads))
        rngs = [read_rng(r) for r in reads]
        states = np.stack(
            [rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0 for rng in rngs],
            axis=1,
        )
        draws = np.empty((len(rngs), n))
        uniforms = draws.T  # uniforms[i, r] is read r's draw for qubit i
        for beta in betas:
            for rng, row in zip(rngs, draws):
                rng.random(out=row)
            for cls in classes:
                spins_cls = states[cls]
                fields = pm.ising.h[cls][:, None] + j_sym[cls] @ states
                # flipping s_i changes the energy by -2 s_i (h_i + sum_j J_ij s_j)
                delta = -2.0 * spins_cls * fields
                exponent = -beta * np.clip(delta, 0.0, None)
                if exponents is not None:
                    exponents.append(exponent.ravel())
                accept = (delta <= 0.0) | (uniforms[cls] < np.exp(exponent))
                states[cls] = np.where(accept, -spins_cls, spins_cls)
        spins.append(states.T.astype(np.int8))
    return SampleSet(pm.ising.ids, np.concatenate(spins), params)


def assert_same_anneal(got, want):
    assert got.qubits.tolist() == want.qubits.tolist()
    assert got.spins.tobytes() == want.spins.tobytes()


CHUNK = _DRAWS_PER_CALL // len(QUBITS)  # sweeps per draw call on chimera(2,2,4)


def zero_field_glass(hw, seed):
    """A PhysicalModel with no field and couplers of +-1, drawn from
    ``rng_from(seed)``, on every qubit and coupler of ``hw``: a qubit of
    even degree often sits in a local field of 0, and ``s f`` is then -0.0
    for ``s = -1``."""
    couplers = sorted(coupler_set(hw))
    signs = rng_from(seed).choice((-1.0, 1.0), len(couplers))
    ising = BinaryQuadraticModel.from_terms(
        ISING, dict.fromkeys(hw.qubits, 0.0), dict(zip(couplers, signs.tolist()))
    )
    return PhysicalModel(ising, identity_embedding(list(hw.qubits)))


@PROPERTY
@given(
    st.integers(1, 140),
    st.one_of(st.integers(1, CHUNK - 1), st.sampled_from((CHUNK, 2 * CHUNK)),
              st.integers(CHUNK + 1, 2 * CHUNK - 1)),
    seeds,
    seeds,
    st.booleans(),
)
def test_anneal_matches_per_sweep_reference(reads, sweeps, model_seed, seed, zero_field):
    event("zero field" if zero_field else "random field")
    pm = zero_field_glass(HW, model_seed) if zero_field else spin_glass(HW, model_seed)
    params = AnnealParams(reads, sweeps, seed=seed)
    assert_same_anneal(simulated_anneal(pm, params), reference_simulated_anneal(pm, params))


@PROPERTY
@given(
    st.sampled_from(("max_cut", "min_vertex_cover")),
    st.integers(2, 9),
    seeds,
    st.lists(st.sampled_from((0.5, 1.0, 2.0, 5.0)), min_size=1, max_size=4),
    st.sampled_from((1, 23, 65, 100)),
    st.one_of(st.integers(1, 3), st.integers(CHUNK // 2, CHUNK)),
    seeds,
)
@example("max_cut", 9, 0, [2.0, 0.5, 2.0], 65, 2, 1)
@example("min_vertex_cover", 9, 0, [5.0, 5.0, 1.0, 0.5], 100, 1, 2)
# greedy colouring splits this graph's 26 qubits 12/13/1: a one-qubit class
@example("max_cut", 9, 8, [2.0, 0.5], 23, 2, 3)
@example("min_vertex_cover", 9, 8, [1.0], 65, 1, 4)
def test_anneal_grid_equals_each_model_alone(problem, n, graph_seed, strengths, reads,
                                             sweeps, seed):
    event(f"{len(strengths)} models")
    if len(set(strengths)) < len(strengths):
        event("repeated strength")
    batch = check_grid(problem, n, graph_seed, strengths, reads, sweeps, seed,
                       simulated_anneal)
    event("several spin batches" if batch < reads else "one spin batch")


@pytest.mark.parametrize("problem, strengths, reads", [
    ("max_cut", (2.0, 0.5, 2.0), 65),
    ("min_vertex_cover", (5.0, 5.0, 1.0, 0.5), 100),
])
def test_anneal_grid_crosses_spin_batches(problem, strengths, reads):
    # at a full draw call of sweeps, 3-4 models of 9 chains on chimera(2,2,4)
    # take 19-26 reads per batch: several batches, the last ending mid-block
    batch = check_grid(problem, 9, 0, strengths, reads, CHUNK, 5, reference_simulated_anneal)
    assert 2 < -(-reads // batch) and reads % batch


def test_anneal_grid_with_a_one_qubit_class_matches_reference():
    # graph seed 8's 26 qubits colour 12/13/1; three models take four batches
    _, _, _, pm = physical("min_vertex_cover", 9, 8)
    assert 1 in map(len, _colour_classes(_coupling_matrix(pm.ising)))
    batch = check_grid("min_vertex_cover", 9, 8, (1.0, 5.0, 0.5), 65, CHUNK, 5,
                       reference_simulated_anneal)
    assert 2 < -(-65 // batch)


@PROPERTY
@given(st.sampled_from(PROBLEMS), st.integers(1, 9), seeds,
       st.lists(st.sampled_from((0.5, 1.0, 2.0, 5.0)), min_size=1, max_size=4))
@example("max_cut", 9, 8, [2.0, 0.5])  # a one-qubit colour class
def test_class_layout_keeps_each_row_in_order(problem, n, graph_seed, strengths):
    _, model, e, _ = physical(problem, n, graph_seed)
    j_syms = [_coupling_matrix(embed_bqm(convert(model, ISING), e, HW, c).ising)
              for c in strengths]
    models, qubits = len(j_syms), j_syms[0].shape[0]
    row_of, classes = _class_layout(j_syms)
    # a bijection from (model, qubit) onto the rows
    assert row_of.shape == (models, qubits)
    assert sorted(row_of.ravel().tolist()) == list(range(models * qubits))
    model_of, qubit_of = np.divmod(np.argsort(row_of, axis=None), qubits)
    colours = _colour_classes(j_syms[0])
    assert [cls.tolist() for cls, _, _ in classes] == [cls.tolist() for cls in colours]
    if 1 in map(len, colours):
        event("one-qubit class")
    stop = 0
    for cls, rows, j_rows in classes:
        # each class is one slice, model by model, each model's qubits ascending
        assert rows == slice(stop, stop + models * len(cls))
        stop = rows.stop
        assert np.array_equal(row_of[:, cls].ravel(), np.arange(rows.start, rows.stop))
        assert j_rows.shape == (models * len(cls), models * qubits)
        cuts = j_rows.indptr[1:-1]
        for row, indices, data in zip(range(rows.start, rows.stop),
                                      np.split(j_rows.indices, cuts), np.split(j_rows.data, cuts)):
            g, i = model_of[row], qubit_of[row]
            parent = j_syms[g]
            lo, hi = parent.indptr[i], parent.indptr[i + 1]
            # the parent row's entries in its order, which ascends by qubit
            assert (model_of[indices] == g).all()
            assert qubit_of[indices].tolist() == parent.indices[lo:hi].tolist()
            assert (np.diff(qubit_of[indices]) > 0).all()
            assert data.tobytes() == parent.data[lo:hi].tobytes()
    assert stop == models * qubits


def check_grid(problem, n, graph_seed, strengths, reads, sweeps, seed, alone):
    """Assert that ``anneal_grid`` gives each embedding of the problem's model
    at ``strengths`` the reads ``alone`` gives that model by itself; returns
    the grid's reads per spin batch."""
    _, model, e, _ = physical(problem, n, graph_seed)
    pms = [embed_bqm(convert(model, ISING), e, HW, c) for c in strengths]
    params = AnnealParams(reads, sweeps, seed=seed)
    grid = anneal_grid(pms, params)
    assert len(grid) == len(pms)
    for pm, got in zip(pms, grid):
        assert got.spins.dtype == np.int8 and got.spins.flags.c_contiguous
        assert_same_anneal(got, alone(pm, params))
    return _batch_shape(len(grid[0].qubits), sweeps, len(pms))[0]


def test_strong_couplings_overflow_exp_silently():
    # fields of order 1e3 at beta up to 10 put 2 beta s f far past exp's
    # float64 range (about 709) on downhill moves
    pm = spin_glass(HW, 3, scale=1e3)
    params = AnnealParams(70, CHUNK + 5, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = simulated_anneal(pm, params)
    assert_same_anneal(got, reference_simulated_anneal(pm, params))


# x = 2 beta s f of an uphill flip: below -745 exp(x) underflows to 0, and
# between -745 and -707.5 it is subnormal; above -707.5 numpy's exp is fast
UNDERFLOW, FAST_FROM = -745.2, -707.5


def test_exp_floor_matches_reference_across_exp_ranges():
    # fields up to about 73 at beta up to 10 put x in all three ranges,
    # so the anneal floors x in most of its class updates
    pm = spin_glass(HW, 5, scale=20.0)
    params = AnnealParams(70, CHUNK + 5, seed=5)
    exponents = []
    want = reference_simulated_anneal(pm, params, exponents=exponents)
    x = np.concatenate(exponents)
    assert (x < UNDERFLOW).any()
    assert ((UNDERFLOW < x) & (x < FAST_FROM)).any()
    assert ((FAST_FROM < x) & (x < 0.0)).any()
    assert_same_anneal(simulated_anneal(pm, params), want)


class ZeroDraw:
    """A read's generator that gives 0.0 for its uniform number ``target``,
    counted in stream order, and its own draws for every other."""

    def __init__(self, rng, target):
        self.rng, self.target, self.drawn = rng, target, 0
        self.bit_generator = rng.bit_generator  # the anneal's initial spins

    def integers(self, *args):  # the reference's initial spins
        return self.rng.integers(*args)

    def random(self, out):
        self.rng.random(out=out)
        if 0 <= self.target - self.drawn < out.size:
            out[np.unravel_index(self.target - self.drawn, out.shape)] = 0.0
        self.drawn += out.size
        return out


def test_exp_floor_skips_a_draw_call_with_a_zero_uniform(monkeypatch):
    # at u = 0.0 an x below -745 keeps its spin (0 - exp(x) is +0), but the
    # floor's exp(-707) > 0 would flip it: a call holding that draw must not floor
    pm = spin_glass(HW, 5, scale=20.0)
    params = AnnealParams(3, CHUNK + 5, seed=5)
    n, read = len(QUBITS), 1
    want = reference_simulated_anneal(pm, params)
    # a qubit of the last colour class updates after all its neighbours, so
    # its x in the last sweep follows from the final spins
    j_sym = _coupling_matrix(pm.ising)
    final = want.spins[read].astype(np.float64)
    x = 2.0 * params.beta_range[1] * final * (pm.ising.h + j_sym @ final)
    last = _colour_classes(j_sym)[-1]
    qubit = last[np.argmax(x[last] < UNDERFLOW)]
    assert x[qubit] < UNDERFLOW
    target = (params.sweeps - 1) * n + qubit  # the last sweep's uniform of that qubit

    def read_rng(r):
        rng = rng_from(params.seed, STREAM_READ, r)
        return ZeroDraw(rng, target) if r == read else rng

    zeroed = reference_simulated_anneal(pm, params, read_rng)
    assert zeroed.spins.tobytes() == want.spins.tobytes()  # exp(x) is 0, and 0 < 0 fails
    monkeypatch.setattr(
        sampler, "streams",
        lambda seed, stream: (read_rng(r) for r in itertools.count()),
    )
    assert_same_anneal(simulated_anneal(pm, params), zeroed)


# every state of 7 spins: state s holds spin i at +1 when bit 6 - i of s is set
SEVEN = np.array(list(itertools.product((-1, 1), repeat=7)))
# 40 sweeps leave 2 of 40 such models short of the law (too many reads
# still in the second-lowest state); 200 bring all 40 within half the bound
STATIONARY_READS, STATIONARY_SWEEPS, STATIONARY_BETA = 4000, 200, 1.0


def frustrated_model(seed):
    """7 spins on K7, fields and couplings in multiples of 1/8 (exact in
    binary) drawn from ``rng_from(seed)``; the triangle 0-1-2 is
    antiferromagnetic, so no state satisfies every coupler."""
    rng = rng_from(seed)
    linear = dict(enumerate((rng.integers(-4, 5, 7) / 8).tolist()))
    pairs = list(itertools.combinations(range(7), 2))
    quadratic = dict(zip(pairs, (rng.integers(-8, 9, len(pairs)) / 8).tolist()))
    for uv in ((0, 1), (1, 2), (0, 2)):
        quadratic[uv] = 0.5 + abs(quadratic[uv])
    return BinaryQuadraticModel.from_terms(ISING, linear, quadratic)


def boltzmann(model, beta):
    """The exact Boltzmann law of ``model`` over ``SEVEN`` at ``beta``."""
    energies = np.array([energy(model, dict(enumerate(state))) for state in SEVEN.tolist()])
    weights = np.exp(-beta * (energies - energies.min()))
    return weights / weights.sum()


def tv_bound(p, reads, failure=1e-9):
    """A total variation from ``p`` that the empirical law of ``reads``
    independent draws from ``p`` exceeds with probability below ``failure``.
    Each |p_hat - p| has mean at most sqrt(p(1 - p) / N) (Jensen), and one
    draw moves the total variation by at most 1/N, so McDiarmid's
    inequality adds sqrt(ln(1/failure) / 2N) to the mean."""
    mean = 0.5 * np.sqrt(p * (1 - p) / reads).sum()
    return mean + math.sqrt(math.log(1 / failure) / (2 * reads))


@pytest.mark.parametrize("model_seed", range(3))
def test_fixed_beta_anneal_samples_the_boltzmann_law(model_seed):
    model = frustrated_model(model_seed)
    pm = PhysicalModel(model, identity_embedding(model.variables()))
    beta = STATIONARY_BETA
    samples = simulated_anneal(pm, AnnealParams(
        STATIONARY_READS, STATIONARY_SWEEPS, (beta, beta * (1 + 1e-9)), seed=model_seed
    ))
    assert samples.qubits.tolist() == list(range(7))
    states = (samples.spins > 0) @ (1 << np.arange(6, -1, -1))
    found = np.bincount(states, minlength=len(SEVEN)) / STATIONARY_READS
    # within the multinomial noise of the law at beta, and far outside it at
    # 2 beta, so the bound can tell a sampler at the wrong temperature
    for law_beta, within in ((beta, True), (2 * beta, False)):
        p = boltzmann(model, law_beta)
        tv = 0.5 * np.abs(found - p).sum()
        assert (tv <= tv_bound(p, STATIONARY_READS)) == within, (law_beta, tv)


def witness_of(problem, row, g):
    """A boolean witness row in the set form the references build: its
    vertex set, or the partition of ``g`` with the row as plus side."""
    return members(row) if problem in ("max_clique", "min_vertex_cover") else sides(row, g)


@PROPERTY
@given(st.sampled_from(PROBLEMS), st.integers(2, 9), seeds, st.data(), p_breaks, seeds)
def test_repair_keeps_intact_chains(problem, n, graph_seed, data, p_break, seed):
    g, model, e, pm = physical(problem, n, graph_seed)
    row = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    samples = inject_chain_breaks(sample_set([row], range(n)), p_break, seed, pm)
    rs = decompose_set(samples.spins, chain_columns(e, samples.qubits))
    intact = {v: x for v, x, b in zip(rs.ids.tolist(), rs.high[0].tolist(), rs.broken[0]) if not b}
    ones = {v for v, x in intact.items() if x}
    zeros = set(intact) - ones
    for method in bench.METHODS:
        (row,) = bench.repair(method, rs, problem, g, model, seed)
        if method == "tailored" and problem == "max_clique" and not is_clique(g, ones):
            assert not row.any()
            continue
        if method == "tailored" and problem == "min_vertex_cover" and any(
            u in zeros and v in zeros for u, v in edge_set(g)
        ):
            assert row.all()
            continue
        # a row is True on a high chain, value 1 / +1
        assert {v: bool(row[v]) for v in intact} == intact, method


# every public repair function, called as (set, graph, model, generators)
REPAIRS = {
    "majority_vote": lambda rs, g, model, rngs: majority_vote(rs),
    "random_weighted": lambda rs, g, model, rngs: random_weighted(rs, rngs),
    "minimize_energy": lambda rs, g, model, rngs: minimize_energy(rs, model),
    "max_clique_rows": lambda rs, g, model, rngs: max_clique_rows(rs, g),
    "max_cut_rows": lambda rs, g, model, rngs: max_cut_rows(rs, g, rngs),
    "partitioning_rows": lambda rs, g, model, rngs: partitioning_rows(rs, g, rngs),
    "vertex_cover_rows": lambda rs, g, model, rngs: vertex_cover_rows(rs, g),
}


@PROPERTY
@given(st.sampled_from(sorted(REPAIRS)), st.sampled_from(PROBLEMS), st.integers(1, 9), seeds,
       st.data(), p_breaks, seeds)
def test_every_repair_returns_rows_that_keep_high(name, problem, n, graph_seed, data, p_break,
                                                  seed):
    # one set, decoded once whatever the model, feeds every function: each
    # returns a boolean (reads, n) row per read, equal to ``high`` on every
    # intact chain but for the two documented tailored exits
    g, model, e, pm = physical(problem, n, graph_seed)
    rows = data.draw(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
                              min_size=1, max_size=8))
    samples = inject_chain_breaks(sample_set(rows, range(n)), p_break, seed, pm)
    rs = decompose_set(samples.spins, chain_columns(e, samples.qubits))
    got = REPAIRS[name](rs, g, model, read_streams(seed))
    assert got.dtype == bool and got.shape == (len(rs), n)
    for high, broken, row in zip(rs.high, rs.broken, got):
        if np.array_equal(row[~broken], high[~broken]):
            continue
        core, zeros = members(high & ~broken), members(~high & ~broken)
        if name == "max_clique_rows":
            assert not is_clique(g, core) and not row.any()
        else:
            assert name == "vertex_cover_rows" and row.all()
            assert any(u in zeros and v in zeros for u, v in edge_set(g))
        event(f"{name}: documented exit")


@PROPERTY
@given(st.sampled_from(PROBLEMS), st.integers(1, 9), st.floats(0.0, 1.0), seeds, st.data(),
       p_breaks, seeds)
def test_tailored_witnesses_are_feasible(problem, n, density, graph_seed, data, p_break, seed):
    g, model, e, pm = physical(problem, n, graph_seed, density)
    rows = data.draw(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
                              min_size=1, max_size=8))
    samples = inject_chain_breaks(sample_set(rows, range(n)), p_break, seed, pm)
    rs = decompose_set(samples.spins, chain_columns(e, samples.qubits))
    rows = bench.repair("tailored", rs, problem, g, model, seed)
    assert rows.shape == (len(rs), n) and rows.dtype == bool
    for high, broken, row in zip(rs.high.tolist(), rs.broken, rows):
        witness = witness_of(problem, row, g)
        if problem == "max_clique":
            assert is_clique(g, witness)
        elif problem == "min_vertex_cover":
            assert is_vertex_cover(g, witness)
        else:
            assert witness.is_complete_for(g)
            intact = [x for x, b in zip(high, broken) if not b]
            largest_side = max(intact.count(False), intact.count(True))
            if problem == "graph_partitioning" and largest_side <= n // 2:
                assert witness.is_balanced()
                event("partitioning: intact sides within the cap")


@st.composite
def graphs(draw):
    """G(n, p) on 1-9 vertices, or on 65, as in the full-size K65 workload."""
    n = draw(st.one_of(st.integers(1, 9), st.just(65)))
    return erdos_renyi(n, draw(st.floats(0.0, 1.0)), draw(seeds))


def reference_erdos_renyi(n, p, seed):
    """One uniform draw per vertex pair, pairs in lexicographic order."""
    draws = rng_from(seed).random(n * (n - 1) // 2)
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, [pair for pair, x in zip(pairs, draws) if x < p])


def reference_complement(g):
    edges = edge_set(g)
    return Graph(g.n, [(u, v) for u, v in itertools.combinations(g.vertices(), 2)
                       if (u, v) not in edges])


@PROPERTY
@given(st.one_of(st.integers(1, 9), st.just(65)),
       st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)), seeds)
def test_generators_match_pair_loops(n, p, seed):
    # ``==`` compares the sorted edge arrays, which are the problem
    # builders' term order and so the compiled models'
    g, reference = erdos_renyi(n, p, seed), reference_erdos_renyi(n, p, seed)
    assert g == reference
    assert complement(g) == reference_complement(g)


@st.composite
def edge_lists(draw):
    """``(n, edges)``: pairs over 0..n-1 in either orientation, some of them
    repeated, and now and then a self-loop or an end outside 0..n-1."""
    n = draw(st.integers(0, 9))
    combinations = list(itertools.combinations(range(n), 2))
    pairs = draw(st.lists(st.sampled_from(combinations), max_size=20)) if combinations else []
    pairs = [pair if draw(st.booleans()) else pair[::-1] for pair in pairs]
    ends = st.integers(-2, n + 2)
    bad_edges = st.one_of(ends.map(lambda x: (x, x)), st.tuples(ends, ends))
    if draw(st.booleans()):
        pairs += draw(st.lists(bad_edges, max_size=2))
    return n, draw(st.permutations(pairs))


def reference_graph_error(n, edges):
    """The message for the first self-loop or out-of-range edge, or None."""
    for u, v in edges:
        if u == v:
            return f"self-loop at vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
    return None


@PROPERTY
@given(edge_lists(), edge_lists())
def test_graph_matches_set_normalisation(case, other_case):
    n, edges = case
    message = reference_graph_error(n, edges)
    if message is not None:
        with pytest.raises(ValueError) as info:
            Graph(n, edges)
        assert str(info.value) == message
        event("rejected: " + message.split()[0])
        return
    pairs = {(min(u, v), max(u, v)) for u, v in edges}
    g = Graph(n, edges)
    assert list(zip(g.u.tolist(), g.v.tolist())) == sorted(pairs)
    assert g.u.dtype.kind == g.v.dtype.kind == "i" and edge_set(g) == pairs
    expect = np.zeros((n + 1, n + 1))
    for u, v in pairs:
        expect[u, v] = expect[v, u] = 1.0
    assert np.array_equal(g.adjacency, expect)
    # the same graph from the pairs as an array, one orientation each
    same = Graph(n, np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2))
    assert g == same and hash(g) == hash(same)
    event(f"repeated pairs: {len(edges) > len(pairs)}")
    n2, edges2 = other_case
    if reference_graph_error(n2, edges2) is None:
        other = Graph(n2, edges2)
        pairs2 = {(min(u, v), max(u, v)) for u, v in edges2}
        assert (g == other) == ((n, pairs) == (n2, pairs2))
        if g == other:
            assert hash(g) == hash(other)


@PROPERTY
@given(st.integers(0, 10), st.floats(0.0, 1.0), seeds)
def test_brute_force_row_scores_its_value(n, density, seed):
    g = erdos_renyi(n, density, seed) if n else Graph(0, [])
    for problem in PROBLEMS:
        value, row = brute_force(problem, g)
        assert row.shape == (n,) and row.dtype == bool
        objectives, feasible = score_rows(problem, g, row[None])
        assert (objectives.tolist(), feasible.tolist()) == ([value], [True]), problem


def reference_is_clique(g, s):
    edges = edge_set(g)
    return all((min(u, v), max(u, v)) in edges for u, v in itertools.combinations(set(s), 2))


def reference_is_vertex_cover(g, s):
    return all(u in s or v in s for u, v in edge_set(g))


def reference_cut_size(g, b):
    return sum(1 for u, v in edge_set(g) if (u in b.side_minus) != (v in b.side_minus))


@PROPERTY
@given(graphs(), st.data())
def test_graph_arrays_match_edge_scans(g, data):
    # the queries read the adjacency matrix, so check them against scans of
    # the edges; the matrix's dummy vertex n is isolated
    edges = edge_set(g)
    a = g.adjacency
    assert a.shape == (g.n + 1, g.n + 1) and a.dtype == np.float64
    assert not a[g.n].any() and not a[:, g.n].any()
    for array in (g.u, g.v, a):
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0
    for v in g.vertices():
        expect = {u for u in g.vertices() if (min(u, v), max(u, v)) in edges}
        assert a[v, : g.n].tolist() == [float(u in expect) for u in g.vertices()]
    assert g.max_degree() == max(
        sum(1 for edge in edges if v in edge) for v in g.vertices()
    )
    vertices = st.sampled_from(range(g.n))
    subset = data.draw(st.lists(vertices, unique=True))
    # grow a clique and a cover out of the subset, so that both answers occur
    clique = []
    for v in subset:
        if all(has_edge(g, u, v) for u in clique):
            clique.append(v)
    cover = set(subset) | {u for u, v in edges if u not in subset and v not in subset}
    cover -= set(data.draw(st.lists(vertices, max_size=2)))
    for s in (subset, clique):
        assert is_clique(g, s) == reference_is_clique(g, s)
    for s in (set(subset), cover):
        assert is_vertex_cover(g, s) == reference_is_vertex_cover(g, s)
    event(f"clique {is_clique(g, subset)}, cover {is_vertex_cover(g, cover)}")
    minus = frozenset(subset)
    plus = frozenset(g.vertices()) - minus
    assert cut_size(g, plus) == reference_cut_size(g, Bipartition(minus, plus))

    stray = data.draw(st.sampled_from((-1, g.n, g.n + 5)))
    for check in (is_clique, is_vertex_cover, cut_size):
        with pytest.raises(ValueError, match="out of range"):
            check(g, subset + [stray])


@st.composite
def scored_graphs(draw):
    """G(n, p) on 1-9 or 65 vertices, edgeless and complete ones included."""
    n = draw(st.one_of(st.integers(1, 9), st.just(65)))
    density = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
    return erdos_renyi(n, density, draw(seeds))


def witness_rows_of(draw, g):
    """1-8 boolean rows over ``g``'s vertices: random, empty, full, a
    greedy clique, a greedy cover (the complement of a greedy independent
    set) and balanced splits, so that every score occurs."""
    rows = []
    for kind in draw(st.lists(st.sampled_from(("random", "empty", "full", "clique", "cover",
                                                 "balanced")), min_size=1, max_size=8)):
        order = draw(st.permutations(range(g.n)))
        if kind == "random":
            row = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        elif kind in ("empty", "full"):
            row = [kind == "full"] * g.n
        elif kind == "balanced":
            k = draw(st.sampled_from((g.n // 2, (g.n + 1) // 2)))
            row = [v in order[:k] for v in range(g.n)]
        else:
            chosen = []
            for v in order:
                # a clique takes v when adjacent to all chosen, an independent
                # set when adjacent to none
                adjacent = [has_edge(g, u, v) for u in chosen]
                if all(adjacent) if kind == "clique" else not any(adjacent):
                    chosen.append(v)
            row = [(v in chosen) == (kind == "clique") for v in range(g.n)]
        rows.append(row)
        event(kind)
    return np.array(rows, dtype=bool)


def reference_score(problem, g, witness):
    """(objective, feasible) of one witness from the edge scans: an
    infeasible clique scores 0, an infeasible cover ``n``, and a partition
    keeps its cut when unbalanced."""
    if problem == "max_clique":
        ok = reference_is_clique(g, witness)
        return (len(witness) if ok else 0), ok
    if problem == "min_vertex_cover":
        ok = reference_is_vertex_cover(g, witness)
        return (len(witness) if ok else g.n), ok
    balanced = abs(len(witness.side_minus) - len(witness.side_plus)) <= 1
    return reference_cut_size(g, witness), problem == "max_cut" or balanced


@PROPERTY
@given(scored_graphs(), st.data())
def test_score_rows_matches_edge_scans(g, data):
    rows = witness_rows_of(data.draw, g)
    for problem in PROBLEMS:
        objectives, feasible = score_rows(problem, g, rows)
        # the CSV writes what .tolist() gives: Python ints and bools
        assert objectives.dtype.kind == "i" and feasible.dtype == bool
        expected = [reference_score(problem, g, witness_of(problem, row, g)) for row in rows]
        assert list(zip(objectives.tolist(), feasible.tolist())) == expected, problem


def reference_majority_side(readout):
    if readout.frac_ones > 0.5:
        return 1
    if readout.frac_ones < 0.5:
        return -1
    return None


def reference_unembed_max_clique(readouts, g, rng):
    """Greedy clique growth over neighbour sets, recomputed at every step."""
    by_var = {r.variable: r for r in readouts}
    clique = {r.variable for r in readouts if not r.broken and r.value == 1}
    if not reference_is_clique(g, clique):
        return frozenset()
    broken = {r.variable for r in readouts if r.broken}
    while broken:
        candidates = [
            x for x in broken if all(has_edge(g, x, u) for u in clique)
        ]
        if not candidates:
            break
        cand_set = set(candidates)
        degree_in = {x: len(neighbors(g, x) & cand_set) for x in candidates}
        top = max(degree_in.values())
        pool = [x for x in candidates if degree_in[x] == top]
        pick = max(pool, key=lambda x: (by_var[x].frac_ones, -x))
        broken.remove(pick)
        clique.add(pick)
    return frozenset(clique)


def reference_unembed_max_cut(readouts, g, rng):
    """Cut placement over a side dict, counting placed neighbours one by one."""
    by_var = {r.variable: r for r in readouts}
    side = {r.variable: r.value for r in readouts if not r.broken}
    order = rng.permutation(sorted(r.variable for r in readouts if r.broken))
    for x in order:
        x = int(x)
        placed = [u for u in neighbors(g, x) if u in side]
        deg_minus = sum(1 for u in placed if side[u] == -1)
        deg_plus = len(placed) - deg_minus
        if deg_minus < deg_plus:
            side[x] = -1
        elif deg_plus < deg_minus:
            side[x] = 1
        else:
            majority = reference_majority_side(by_var[x])
            if majority is not None:
                side[x] = majority
            else:
                side[x] = 1 if rng.random() < 0.5 else -1
    return Bipartition(
        side_minus=frozenset(v for v, s in side.items() if s == -1),
        side_plus=frozenset(v for v, s in side.items() if s == 1),
    )


def reference_unembed_graph_partitioning(readouts, g, rng):
    """Balanced placement that recounts both side sizes at every step."""
    by_var = {r.variable: r for r in readouts}
    side = {r.variable: r.value for r in readouts if not r.broken}
    cap = g.n // 2

    def size(s):
        return sum(1 for v in side.values() if v == s)

    order = [int(x) for x in rng.permutation(sorted(r.variable for r in readouts if r.broken))]
    remaining = list(order)
    while remaining and size(-1) < cap and size(1) < cap:
        x = remaining.pop(0)
        placed = [u for u in neighbors(g, x) if u in side]
        deg_minus = sum(1 for u in placed if side[u] == -1)
        deg_plus = len(placed) - deg_minus
        if deg_minus > deg_plus:
            side[x] = -1
        elif deg_plus > deg_minus:
            side[x] = 1
        else:
            majority = reference_majority_side(by_var[x])
            if majority is not None:
                side[x] = majority
            else:
                side[x] = -1 if size(-1) <= size(1) else 1
    if remaining:
        smaller = -1 if size(-1) <= size(1) else 1
        for x in remaining:
            side[x] = smaller
    return Bipartition(
        side_minus=frozenset(v for v, s in side.items() if s == -1),
        side_plus=frozenset(v for v, s in side.items() if s == 1),
    )


def reference_unembed_vertex_cover(readouts, g, rng):
    """Cover completion over vertex sets, draining by a max over the rest."""
    by_var = {r.variable: r for r in readouts}
    cover = {r.variable for r in readouts if not r.broken and r.value == 1}
    zeros = {r.variable for r in readouts if not r.broken and r.value == 0}
    for u, v in edge_set(g):
        if u in zeros and v in zeros:
            return frozenset(g.vertices())
    remaining = {r.variable for r in readouts if r.broken}
    forced = {x for x in remaining if neighbors(g, x) & zeros}
    cover |= forced
    remaining -= forced
    while remaining:
        v = max(
            remaining,
            key=lambda v: (len(neighbors(g, v) & remaining) + by_var[v].frac_ones, -v),
        )
        remaining.remove(v)
        if neighbors(g, v) & zeros:
            cover.add(v)
        else:
            zeros.add(v)
    return frozenset(cover)


REFERENCE_TAILORED = {
    "max_clique": reference_unembed_max_clique,
    "max_cut": reference_unembed_max_cut,
    "graph_partitioning": reference_unembed_graph_partitioning,
    "min_vertex_cover": reference_unembed_vertex_cover,
}


def random_readouts(rng, n, domain, p_break, p_one):
    """One read of chains of 1, 2 or 4 qubits, so fractions of ones often tie;
    a chain breaks with probability ``p_break`` when it can, and an intact
    chain holds 1 / +1 with probability ``p_one``."""
    low = 0 if domain == QUBO else -1
    readouts = []
    for v in range(n):
        length = int(rng.choice((1, 2, 4)))
        if length > 1 and rng.random() < p_break:
            ones = int(rng.integers(1, length))
            value = int(rng.choice((low, 1)))
        else:
            value = 1 if rng.random() < p_one else low
            ones = length if value == 1 else 0
        readouts.append(ChainReadout(v, value, domain, 0 < ones < length, ones / length))
    return readouts


@PROPERTY
@given(st.sampled_from(PROBLEMS), graphs(), p_breaks, st.floats(0.0, 1.0), seeds, seeds)
def test_tailored_matches_set_reference(problem, g, p_break, p_one, readout_seed, seed):
    domain = QUBO if problem in ("max_clique", "min_vertex_cover") else ISING
    rng = np.random.default_rng(readout_seed)
    for read in range(4):
        readouts = random_readouts(rng, g.n, domain, p_break, p_one)
        (row,) = unembed_tailored(row_set(readouts), g, problem, [rng_from(seed + read)])
        want = REFERENCE_TAILORED[problem](readouts, g, rng_from(seed + read))
        assert witness_of(problem, row, g) == want
    event(f"{problem}, n {'65' if g.n == 65 else '1-9'}")


def cover_read(rng, g, kind):
    """One QUBO read over ``g``'s vertices: ``intact`` breaks no chain,
    ``broken`` every chain, ``mixed`` some, and ``uncoverable`` is mixed
    with both ends of one edge held at intact zeros."""
    if kind in ("intact", "broken"):
        readouts = random_readouts(rng, g.n, QUBO, 0.0, rng.random())
    else:
        readouts = random_readouts(rng, g.n, QUBO, rng.random(), rng.random())
    if kind == "broken":
        lengths = rng.choice((2, 3, 4), size=g.n).tolist()
        readouts = [
            ChainReadout(v, int(rng.integers(0, 2)), QUBO, True,
                         int(rng.integers(1, length)) / length)
            for v, length in enumerate(lengths)
        ]
    if kind == "uncoverable" and edge_set(g):
        u, w = sorted(edge_set(g))[int(rng.integers(len(g.u)))]
        for v in (u, w):
            readouts[v] = ChainReadout(v, 0, QUBO, False, 0.0)
    return readouts


@PROPERTY
@given(graphs(), st.lists(st.sampled_from(("intact", "broken", "mixed", "uncoverable")),
                          min_size=1, max_size=8), seeds)
def test_vertex_cover_rows_match_reference_read_by_read(g, kinds, readout_seed):
    rng = np.random.default_rng(readout_seed)
    reads = [cover_read(rng, g, kind) for kind in kinds]
    rows = vertex_cover_rows(stack(reads, g.vertices()), g)
    assert rows.shape == (len(reads), g.n) and rows.dtype == bool
    for readouts, row in zip(reads, rows):
        assert members(row) == reference_unembed_vertex_cover(readouts, g, None)
        # alone, the read drains to the same row
        assert np.array_equal(vertex_cover_rows(row_set(readouts), g)[0], row)
    event(f"{len(set(kinds))} kinds of read in one set")


READ_KINDS = ("intact", "broken", "even", "mixed", "capped", "non-clique")


def set_read(rng, g, domain, kind):
    """One read over ``g``'s vertices: ``intact`` breaks no chain, ``broken``
    every chain, ``even`` every chain at exactly half ones (a tie on every
    majority), ``mixed`` some; ``capped`` holds every intact chain at 1 / +1,
    so that partitioning meets its cap early, and ``non-clique`` is mixed
    with both ends of a non-edge held at intact ones."""
    low = 0 if domain == QUBO else -1
    if kind in ("broken", "even"):
        lengths = rng.choice((2, 4), size=g.n).tolist()
        return [
            ChainReadout(v, int(rng.choice((low, 1))), domain, True,
                         0.5 if kind == "even" else int(rng.integers(1, length)) / length)
            for v, length in enumerate(lengths)
        ]
    p_break = 0.0 if kind == "intact" else rng.random()
    readouts = random_readouts(rng, g.n, domain, p_break, 1.0 if kind == "capped" else rng.random())
    non_edges = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if not has_edge(g, u, v)]
    if kind == "non-clique" and non_edges:
        for v in non_edges[int(rng.integers(len(non_edges)))]:
            readouts[v] = ChainReadout(v, 1, domain, False, 1.0)
    return readouts


def read_streams(seed):
    """Read ``r``'s generator ``rng_from(seed, r)``, in read order."""
    return (rng_from(seed, r) for r in itertools.count())


@PROPERTY
@given(st.sampled_from(PROBLEMS), graphs(),
       st.lists(st.sampled_from(READ_KINDS), min_size=1, max_size=8), seeds, seeds, st.data())
def test_tailored_rows_match_reference_read_by_read(problem, g, kinds, readout_seed, seed, data):
    domain = QUBO if problem in ("max_clique", "min_vertex_cover") else ISING
    rng = np.random.default_rng(readout_seed)
    reads = [set_read(rng, g, domain, kind) for kind in kinds]
    rows = unembed_tailored(stack(reads, g.vertices()), g, problem, read_streams(seed))
    assert rows.shape == (len(reads), g.n) and rows.dtype == bool
    for r, (readouts, row) in enumerate(zip(reads, rows)):
        want = REFERENCE_TAILORED[problem](readouts, g, rng_from(seed, r))
        assert witness_of(problem, row, g) == want
    # the first k reads of a set give its first k rows
    k = data.draw(st.integers(1, len(reads)))
    head = unembed_tailored(stack(reads[:k], g.vertices()), g, problem, read_streams(seed))
    assert np.array_equal(head, rows[:k])
    event(f"{problem}, {len(set(kinds))} kinds of read in one set")


def reference_repair(method, reads, problem, g, model, seed):
    """The witnesses the per-read path gave: one ``{variable: value}`` dict
    per read turned into a vertex set by ``witness_from_values`` (the plus
    side of a cut or partition, as a ``Bipartition`` of ``g``), the
    tailored ones from the set-based references above, each read's
    generator built by ``rng_from(derive_seed(...))``."""
    witnesses = []
    for r, readouts in enumerate(reads):
        if method == "tailored":
            rng = rng_from(derive_seed(seed, STREAM_TAILORED, r))
            witnesses.append(REFERENCE_TAILORED[problem](readouts, g, rng))
            continue
        if method == "majority_vote":
            low = 0 if model.domain == QUBO else -1
            values = {c.variable: 1 if c.frac_ones >= 0.5 else low for c in readouts}
        elif method == "random_weighted":
            values = reference_random_weighted(
                readouts, rng_from(derive_seed(seed, STREAM_WEIGHTED, r))
            )
        else:
            values = reference_minimize_energy(readouts, model)
        witness = bench.witness_from_values(problem, values, g)
        if problem in ("max_cut", "graph_partitioning"):
            witness = Bipartition(frozenset(g.vertices()) - witness, witness)
        witnesses.append(witness)
    return witnesses


@PROPERTY
@given(st.sampled_from(PROBLEMS), st.integers(1, 9), st.floats(0.0, 1.0), seeds, st.data(),
       p_breaks, seeds)
def test_repair_rows_match_per_read_witnesses(problem, n, density, graph_seed, data, p_break,
                                              seed):
    g, model, e, pm = physical(problem, n, graph_seed, density)
    rows = data.draw(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
                              min_size=1, max_size=8))
    samples = inject_chain_breaks(sample_set(rows, range(n)), p_break, seed, pm)
    chains = chain_columns(e, samples.qubits)
    rs = decompose_set(samples.spins, chains)
    reads = [decompose(spins, chains, model.domain) for spins in samples.spins]
    for method in bench.METHODS:
        got = bench.repair(method, rs, problem, g, model, seed)
        assert got.shape == (len(reads), n) and got.dtype == bool
        want = reference_repair(method, reads, problem, g, model, seed)
        assert [witness_of(problem, row, g) for row in got] == want, method


def test_repair_rejects_reads_that_are_not_the_vertices():
    g = Graph(3, [(0, 1)])
    model = build_model("max_cut", g)
    rs = row_set([ChainReadout(v, 1, ISING, False, 1.0) for v in (0, 1)])
    for method in bench.METHODS:
        with pytest.raises(ValueError, match="^variables are not the vertices 0..2$"):
            bench.repair(method, rs, "max_cut", g, model, 0)


@PROPERTY
@given(st.integers(1, 9), st.floats(0.0, 1.0), seeds, st.data(), p_breaks, seeds)
def test_methods_read_columns_as_records(n, density, graph_seed, data, p_break, seed):
    g, _, e, pm = physical("max_cut", n, graph_seed, density)
    rows = data.draw(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
                              min_size=1, max_size=4))
    samples = inject_chain_breaks(sample_set(rows, range(n)), p_break, seed, pm)
    chains = chain_columns(e, samples.qubits)
    rs = decompose_set(samples.spins, chains)
    for problem in PROBLEMS:
        model = build_model(problem, g)
        # each read's records, in any order and in the model's domain, stack
        # back into the set
        records = [data.draw(st.permutations(decompose(spins, chains, model.domain)))
                   for spins in samples.spins]
        assert all(len(chain_records) == n for chain_records in records)
        again = stack(records, rs.ids)
        for name in ("high", "broken", "frac_ones"):
            a, b = getattr(rs, name), getattr(again, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        assert np.array_equal(majority_vote(rs), majority_vote(again))
        assert np.array_equal(random_weighted(rs, read_streams(seed)),
                              random_weighted(again, read_streams(seed)))
        assert np.array_equal(minimize_energy(rs, model), minimize_energy(again, model))
        assert np.array_equal(unembed_tailored(rs, g, problem, read_streams(seed)),
                              unembed_tailored(again, g, problem, read_streams(seed)))


@PROPERTY
@given(st.sampled_from((ISING, QUBO)), st.integers(0, 40), p_breaks, st.floats(0.0, 1.0),
       seeds, st.randoms(use_true_random=False), seeds)
def test_random_weighted_matches_per_chain_reference(domain, n, p_break, p_one,
                                                     readout_seed, shuffle, seed):
    readouts = random_readouts(np.random.default_rng(readout_seed), n, domain, p_break, p_one)
    shuffle.shuffle(readouts)
    (got,) = random_weighted(row_set(readouts), [rng_from(seed)]).tolist()
    want = reference_random_weighted(readouts, rng_from(seed))
    assert got == [want[v] == 1 for v in sorted(want)]


coefficients = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
chain_strengths = st.floats(0.1, 10.0)


# multiples of 0.1 are inexact, so their sums depend on the order of addition
tenths = st.integers(-9, 9).map(lambda k: k / 10)


def random_model(draw, variables, domain=ISING, coefficient=coefficients):
    """A random model over ``variables`` on a random logical graph;
    zero-weight couplers are kept, so they reach ``embed_bqm``."""
    pairs = list(itertools.combinations(sorted(variables), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    linear = {v: draw(coefficient) for v in variables}
    quadratic = {uv: draw(coefficient) for uv in edges}
    return BinaryQuadraticModel.from_terms(domain, linear, quadratic, offset=draw(coefficient))


def reference_minimize_energy(readouts, logical_model):
    """Greedy repair of one read, as a dict walk over the undecided chains."""
    by_var = {r.variable: r for r in readouts}
    if set(logical_model.variables()) != set(by_var):
        raise ValueError("model variables do not match readout variables")
    low = -1 if logical_model.domain == ISING else 0
    values = {r.variable: r.value for r in readouts if not r.broken}
    undecided = sorted(v for v in by_var if by_var[v].broken)
    linear = linear_terms(logical_model)
    coupling = {v: linear[v] for v in undecided}
    neighbors = {v: [] for v in undecided}
    for (u, v), c in quadratic_terms(logical_model).items():
        if u in coupling and v in coupling:
            neighbors[u].append((v, c))
            neighbors[v].append((u, c))
        elif u in coupling:
            coupling[u] += c * values[v]
        elif v in coupling:
            coupling[v] += c * values[u]

    def priority(v):
        c = coupling[v]
        return abs(c) if logical_model.domain == ISING else max(0.0, -c)

    while undecided:
        best = max(undecided, key=lambda v: (priority(v), -v))
        c = coupling.pop(best)
        value = low if c >= 0 else 1
        values[best] = value
        undecided.remove(best)
        for nb, j in neighbors[best]:
            if nb in coupling:
                coupling[nb] += j * value
    return values


@st.composite
def readout_sets(draw):
    """(model, reads): a random model of either domain and 1-12 reads of
    random chain readouts over its variables."""
    domain = draw(st.sampled_from((ISING, QUBO)))
    variables = draw(st.lists(st.integers(0, 40), min_size=1, max_size=10, unique=True))
    model = random_model(draw, variables, domain, draw(st.sampled_from((coefficients, tenths))))
    low = -1 if domain == ISING else 0
    readout = st.tuples(st.booleans(), st.sampled_from((low, 1)), st.integers(1, 8),
                        st.integers(0, 8))
    reads = []
    for _ in range(draw(st.integers(1, 12))):
        row = []
        for v in sorted(variables):
            broken, value, length, ones = draw(readout)
            row.append(ChainReadout(v, value, domain, broken, min(ones, length) / length))
        reads.append(row)
    return model, reads


@PROPERTY
@given(readout_sets(), st.data())
def test_minimize_energy_matches_per_read_reference(case, data):
    model, reads = case
    variables = model.variables()
    expected = [
        [values[v] == 1 for v in variables]
        for values in (reference_minimize_energy(readouts, model) for readouts in reads)
    ]
    got = minimize_energy(stack(reads, variables), model)
    assert got.dtype == bool and got.tolist() == expected
    k = data.draw(st.integers(1, len(reads)))
    assert minimize_energy(stack(reads[:k], variables), model).tolist() == expected[:k]
    r = data.draw(st.integers(0, len(reads) - 1))
    assert minimize_energy(row_set(reads[r]), model).tolist() == [expected[r]]


@PROPERTY
@given(readout_sets(), seeds, st.data())
def test_generic_methods_on_a_set_match_per_read_references(case, seed, data):
    model, reads = case
    variables = model.variables()
    rs, k = stack(reads, variables), data.draw(st.integers(1, len(reads)))
    head = stack(reads[:k], variables)
    want = {
        "majority": [[c.frac_ones >= 0.5 for c in readouts] for readouts in reads],
        "random": [
            [values[v] == 1 for v in variables]
            for values in (reference_random_weighted(readouts, rng_from(seed, r))
                           for r, readouts in enumerate(reads))
        ],
        "minenergy": [
            [values[v] == 1 for v in variables]
            for values in (reference_minimize_energy(readouts, model) for readouts in reads)
        ],
    }
    for subset, rows in ((rs, len(reads)), (head, k)):
        got = {
            "majority": majority_vote(subset),
            "random": random_weighted(subset, read_streams(seed)),
            "minenergy": minimize_energy(subset, model),
        }
        for name, rows_got in got.items():
            assert rows_got.dtype == bool and rows_got.tolist() == want[name][:rows], name


# multiples of 1/8 up to 8: products and sums of a few stay exact in binary
eighths = st.integers(-64, 64).map(lambda k: k / 8)


@PROPERTY
@given(st.sampled_from((ISING, QUBO)), st.booleans(), st.integers(1, 6), st.data())
def test_convert_keeps_energies(domain, dyadic, n, data):
    model = random_model(data.draw, range(n), domain, eighths if dyadic else coefficients)
    target = QUBO if domain == ISING else ISING
    image = convert(model, target)
    back = convert(image, domain)
    low = -1 if domain == ISING else 0
    for values in itertools.product((low, 1), repeat=n):
        assignment = dict(enumerate(values))
        # bit b <-> spin 2b - 1
        mapped = {v: 2 * x - 1 if domain == QUBO else (x + 1) // 2 for v, x in assignment.items()}
        energies = energy(model, assignment), energy(image, mapped), energy(back, assignment)
        if dyadic:
            assert energies[0] == energies[1] == energies[2]
        else:
            assert max(energies) - min(energies) <= 1e-9
    if dyadic:
        assert back == model


def reference_terms(linear, quadratic):
    """The ``{v: coefficient}`` and ``{(u, v): coefficient}`` dicts a model of
    ``linear`` and ``quadratic`` holds: pairs ascending, the coefficients of
    a pair given twice summed in the order given, starting from 0.0, and a
    0.0 linear coefficient for every pair end that ``linear`` lacks."""
    lin = {int(v): float(c) for v, c in linear.items()}
    quad = {}
    for (u, v), c in quadratic.items():
        key = (min(u, v), max(u, v))
        quad[key] = quad.get(key, 0.0) + float(c)
    for u, v in quad:
        lin.setdefault(u, 0.0)
        lin.setdefault(v, 0.0)
    return lin, quad


@st.composite
def term_mappings(draw):
    """(linear, quadratic, offset) as a caller may write them: pairs in
    either order, some given in both orders, ends missing from ``linear``,
    -0.0 and inexact coefficients."""
    value = st.one_of(st.sampled_from((0.0, -0.0)), tenths, st.floats(-2.0, 2.0))
    variable = st.integers(0, 12)
    linear = draw(st.dictionaries(variable, value, max_size=6))
    quadratic = {}
    for u, v in draw(st.lists(st.tuples(variable, variable).filter(lambda uv: uv[0] != uv[1]),
                              max_size=10)):
        quadratic[(u, v)] = draw(value)
        if draw(st.booleans()):
            quadratic[(v, u)] = draw(value)
    return linear, quadratic, draw(value)


@PROPERTY
@given(st.sampled_from((ISING, QUBO)), term_mappings())
def test_from_terms_matches_the_dict_rules(domain, terms):
    linear, quadratic, offset = terms
    model = BinaryQuadraticModel.from_terms(domain, linear, quadratic, offset)
    lin, quad = reference_terms(linear, quadratic)
    event("repeated pair" if len(quad) < len(quadratic) else "distinct pairs")

    def bits(items):  # repr tells -0.0 from 0.0
        return [(key, repr(c)) for key, c in items]

    assert bits(zip(model.variables(), model.h.tolist())) == bits(sorted(lin.items()))
    assert bits(zip(map(tuple, model.pairs.tolist()), model.j.tolist())) == bits(quad.items())
    assert repr(model.offset) == repr(float(offset))
    assert from_json(to_json(model)) == model
    doc = {
        "domain": domain,
        "linear": sorted(lin.items()),
        "quadratic": sorted((u, v, c) for (u, v), c in quad.items()),
        "offset": float(offset),
    }
    assert model_hash(model) == hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@PROPERTY
@given(st.integers(1, 3), st.data(), chain_strengths)
def test_embedding_keeps_chain_consistent_energies(m, data, chain_strength):
    hw = chimera(m, m, 4)
    n = data.draw(st.integers(1, 4 * m + 1))
    e = clique_embedding(n, hw)
    model = random_model(data.draw, range(n))
    pm = embed_bqm(model, e, hw, chain_strength)
    shift = chain_strength * len(intra_chain_couplers(pm))
    for row in data.draw(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=n,
                                           max_size=n), min_size=1, max_size=8)):
        logical = dict(enumerate(row))
        physical = {q: logical[v] for v in e.variables() for q in e.chain(v)}
        expected = energy(model, logical) - shift
        assert abs(energy(pm.ising, physical) - expected) <= 1e-9


def reference_violations(e: Embedding, logical: Graph, hw):
    """Violations of ``e`` as a minor of ``logical``, found qubit by qubit.

    A chain's qubits are checked once each, in chain order: a repeat is
    reported as the chain repeating a qubit, not again as an overlap."""
    violations = []
    adj = hardware_adjacency(hw)
    seen = {}
    for v in e.variables():
        chain = e.chain(v)
        if not chain:
            violations.append(f"chain {v} is empty")
            continue
        if len(set(chain)) != len(chain):
            violations.append(f"chain {v} repeats a qubit")
        for q in dict.fromkeys(chain):
            if q not in hw.qubits:
                violations.append(f"chain {v} uses qubit {q} absent from hardware")
            elif q in seen:
                violations.append(f"chains {seen[q]} and {v} overlap on qubit {q}")
            else:
                seen[q] = v
        members = set(chain)
        if all(q in hw.qubits for q in chain):
            frontier, reached = [chain[0]], {chain[0]}
            while frontier:
                for nb in adj[frontier.pop()]:
                    if nb in members and nb not in reached:
                        reached.add(nb)
                        frontier.append(nb)
            if reached != members:
                violations.append(f"chain {v} is disconnected")
    for u, v in sorted(edge_set(logical)):
        if u not in e.variables() or v not in e.variables():
            violations.append(f"logical edge ({u}, {v}) has an unmapped endpoint")
            continue
        cu, cv = set(e.chain(u)), set(e.chain(v))
        if not any(nb in cv for q in cu if q in adj for nb in adj[q]):
            violations.append(f"logical edge ({u}, {v}) has no inter-chain coupler")
    return violations


def reference_embed_bqm(m, e: Embedding, hw, chain_strength):
    """(linear, quadratic, intra-chain couplers), joining chains by testing
    every qubit pair of every logical edge for a hardware coupler.  Every
    chain of ``e`` gets its inside couplers, and their endpoints a field of
    0.0 when no variable of ``m`` gives them one."""
    linear = {}
    for v, h in linear_terms(m).items():
        chain = e.chain(v)
        for q in chain:
            linear[q] = linear.get(q, 0.0) + h / len(chain)
    couplers = coupler_set(hw)
    quadratic = {}
    for (u, v), j in quadratic_terms(m).items():
        if j == 0.0:
            continue
        links = [
            (min(p, q), max(p, q))
            for p in e.chain(u)
            for q in e.chain(v)
            if (min(p, q), max(p, q)) in couplers
        ]
        for key in links:
            quadratic[key] = quadratic.get(key, 0.0) + j / len(links)
    intra = []
    for v in e.variables():
        chain = e.chain(v)
        for i, p in enumerate(chain):
            for q in chain[i + 1:]:
                key = (min(p, q), max(p, q))
                if key in couplers:
                    quadratic[key] = -chain_strength
                    intra.append(key)
                    linear.setdefault(p, 0.0)
                    linear.setdefault(q, 0.0)
    return linear, quadratic, tuple(sorted(intra))


@PROPERTY
@given(st.one_of(embeddings(), faulty_embeddings(),
                 st.integers(1, 9).map(lambda k: clique_embedding(k, HW))),
       st.data(), chain_strengths)
def test_embed_bqm_matches_pair_loop_reference(e, data, chain_strength):
    # a model over every chained variable, or over some of them: the chains
    # of the others still bring their inside couplers
    variables = data.draw(st.one_of(
        st.just(e.variables()), st.lists(st.sampled_from(e.variables()), unique=True)
    ))
    event("all variables" if len(variables) == len(e.ids) else "some variables")
    model = random_model(data.draw, variables)
    problems = validate_embedding(e, interaction_graph(model), HW)
    assert problems == reference_violations(e, interaction_graph(model), HW)
    event("invalid" if problems else "valid")
    fault_events(problems)
    if problems:
        with pytest.raises(ValueError):
            embed_bqm(model, e, HW, chain_strength)
        return
    pm = embed_bqm(model, e, HW, chain_strength)
    linear, quadratic, intra = reference_embed_bqm(model, e, HW, chain_strength)
    assert pm.qubits() == sorted(linear)
    assert linear_terms(pm.ising) == linear
    assert quadratic_terms(pm.ising) == quadratic
    # the couplers between chains, then those inside chains in ascending order
    assert intra_chain_couplers(pm) == intra
    pairs = pm.ising.pairs
    assert list(map(tuple, pairs[len(pairs) - len(intra):].tolist())) == list(intra)


@st.composite
def any_embeddings(draw):
    """Chains over chimera(2,2,4) qubits and four absent ids (32-35) that may
    be empty, repeat a qubit or share qubits with other chains."""
    chain = st.lists(st.integers(0, len(QUBITS) + 3), max_size=5)
    return Embedding.from_chains(draw(st.dictionaries(st.integers(0, 9), chain, max_size=6)))


@PROPERTY
@given(st.one_of(any_embeddings(), faulty_embeddings()), st.data())
def test_validate_embedding_matches_reference(e, data):
    # edge endpoints: the chained variables and two without a chain
    pairs = list(itertools.combinations(e.variables() + [100, 101], 2))
    logical = Graph(102, data.draw(st.lists(st.sampled_from(pairs), max_size=12)))
    problems = validate_embedding(e, logical, HW)
    assert problems == reference_violations(e, logical, HW)
    fault_events(problems)


def reference_sampleset_to_json(ss, energies, model_hash, provenance):
    """The sample file as ``sampleset_to_json`` wrote it before it joined
    its samples block itself: the whole document through ``json.dumps``."""
    doc = dict(
        model_hash=model_hash,
        provenance=provenance,
        qubits=ss.qubits.tolist(),
        params={
            "num_reads": ss.params.num_reads,
            "sweeps": ss.params.sweeps,
            "beta_range": list(ss.params.beta_range),
            "seed": ss.params.seed,
        },
        samples=[
            {"energy": energy, "spins": "".join("+" if s > 0 else "-" for s in row)}
            for energy, row in zip(energies.tolist(), ss.spins.tolist())
        ],
    )
    return json.dumps(doc, indent=2)


EDGE_ENERGIES = (-0.0, 5e-324, 0.1, 1e16)
provenances = st.one_of(st.none(), st.fixed_dictionaries({
    "chain_strength": st.floats(1e-3, 1e3),
    "prefactor": st.floats(1e-3, 1e3),
    "topology": st.lists(st.integers(1, 16), min_size=3, max_size=3),
}))


@st.composite
def stored_sets(draw, energies, min_reads):
    """(set, energies, model hash, provenance) of ``min_reads``-6 reads over
    0-5 qubits, whose params count its reads when it holds any."""
    reads, width = draw(st.integers(min_reads, 6)), draw(st.integers(0, 5))
    qubits = sorted(draw(st.sets(st.integers(0, 2**62), min_size=width, max_size=width)))
    spins = draw(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=width, max_size=width),
                          min_size=reads, max_size=reads))
    values = draw(st.lists(st.one_of(st.sampled_from(EDGE_ENERGIES), energies),
                           min_size=reads, max_size=reads))
    beta_min = draw(st.floats(1e-3, 1.0))
    params = AnnealParams(max(reads, 1), draw(st.integers(1, 10**6)),
                          (beta_min, draw(st.floats(1.5, 1e3))), draw(seeds))
    ss = SampleSet(np.array(qubits, dtype=np.int64),
                   np.array(spins, dtype=np.int8).reshape(reads, width), params)
    return ss, np.array(values, dtype=np.float64), draw(st.text(max_size=8)), draw(provenances)


@PROPERTY
@given(stored_sets(st.floats(), 0))
@example((SampleSet(np.arange(2), np.ones((4, 2), dtype=np.int8), AnnealParams(4)),
          np.array([float("nan"), float("inf"), float("-inf"), -0.0]), "h", None))
def test_sample_writer_equals_json_dumps(case):
    # NaN and +-inf too, which the reader refuses but the writer spells as json does
    assert sampleset_to_json(*case) == reference_sampleset_to_json(*case)


@PROPERTY
@given(stored_sets(st.floats(allow_nan=False, allow_infinity=False), 1))
@example((SampleSet(np.arange(0), np.ones((4, 0), dtype=np.int8), AnnealParams(4)),
          np.array(EDGE_ENERGIES), "h", None))
def test_sample_reader_inverts_writer(case):
    ss, energies, stored_hash, provenance = case
    text = sampleset_to_json(*case)
    back, back_energies, back_hash, back_provenance = sampleset_from_json(text)
    assert (back_hash, back_provenance, back.params) == (stored_hash, provenance, ss.params)
    assert back.qubits.dtype == np.int64 and back.qubits.tolist() == ss.qubits.tolist()
    assert back.spins.dtype == np.int8 and back.spins.shape == ss.spins.shape
    assert back.spins.tobytes() == ss.spins.tobytes()
    assert back_energies.dtype == np.float64 and back_energies.tobytes() == energies.tobytes()
    assert sampleset_to_json(back, back_energies, back_hash, back_provenance) == text


# one setting of any kind: the values every boundary must decide alike
setting_scalars = st.one_of(
    st.integers(-2, 3),
    st.booleans(),
    st.floats(),
    st.sampled_from((float("nan"), float("inf"), float("-inf"), 1e308, 0.1, 10.0)),
    st.text(max_size=2),
)
any_setting = st.one_of(
    setting_scalars,
    st.lists(setting_scalars, max_size=3),
    st.lists(setting_scalars, max_size=3).map(tuple),
)


def _outcome(call):
    """The message of the ``ValueError`` that ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(
    st.one_of(st.just(1), any_setting),
    st.one_of(st.integers(1, 3), any_setting),
    st.one_of(st.tuples(st.floats(0.01, 1.0), st.floats(1.5, 1e308)), any_setting),
    st.one_of(seeds, any_setting),
)
@example(1, 1, (0.1, 1e308), 0)  # its doubled beta_max overflows
@example(1, 1, (0.1, 10.0), 2.5)  # a seed that is no integer
@example(1, 1, 5, 0)
@example(1, 1, [0.1], 0)
def test_anneal_settings_decided_by_anneal_params(num_reads, sweeps, beta_range, seed):
    config = bench.ExperimentConfig(
        "max_cut", (0.5,), n=4, graphs_per_density=1, reads=num_reads, sweeps=sweeps,
        beta_range=beta_range, seed=seed, topology=(1, 1, 4),
    )
    # a document of one read, or of as many as a valid count asks for
    stored = num_reads if is_int(num_reads) and 1 <= num_reads <= 3 else 1
    doc = json.dumps({
        "model_hash": "0" * 64,
        "qubits": [0],
        "params": {"num_reads": num_reads, "sweeps": sweeps, "beta_range": beta_range,
                   "seed": seed},
        "samples": [{"energy": 0.0, "spins": "+"}] * stored,
    })
    want = _outcome(lambda: AnnealParams(num_reads, sweeps, beta_range, seed))
    event("rejected" if want else "accepted")
    assert _outcome(config.validate) == want
    # the document holds lists for tuples, so the message names what it holds
    read_back = json.loads(doc)["params"]
    from_doc = _outcome(lambda: sampleset_from_json(doc))
    assert from_doc == _outcome(lambda: AnnealParams(**read_back))
    assert (from_doc is None) == (want is None)


@PROPERTY
@given(st.integers(-1, 18), st.tuples(*[st.integers(1, 4)] * 3))
def test_clique_capacity_decided_once(k, topology):
    fits = _outcome(lambda: clique_embedding(k, chimera(*topology))) is None
    event("fits" if fits else "does not fit")
    config = bench.ExperimentConfig(
        "max_cut", (0.5,), n=k, graphs_per_density=1, reads=1, sweeps=1, topology=topology
    )
    assert (_outcome(config.validate) is None) == fits
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["embed", "--k", str(k), "--topology", ",".join(map(str, topology)),
                     "--out", out])
    assert code == (0 if fits else 2), err.getvalue()
