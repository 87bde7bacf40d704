"""Classical stand-in for the annealer.

``simulated_anneal`` draws independent reads from a physical Ising model
with single-spin Metropolis updates over a geometric inverse-temperature
ladder.  ``anneal_grid`` does the same for several models over one set of
qubits and couplers (one logical model embedded at several chain
strengths) in one pass, and ``simulated_anneal`` is its one-model case.
``inject_chain_breaks`` manufactures physical samples with a controlled
per-qubit flip probability so unembedding behaviour can be tested without
any annealing at all.

Determinism contract: read ``r`` of ``simulated_anneal`` consumes only the
PCG64 stream seeded by ``derive_seed(params.seed, STREAM_READ, r)``,
drawing the initial state first and then one uniform per spin per sweep.
In ``anneal_grid`` that one stream serves read ``r`` of every model: each
model starts from the same initial spins and takes the same uniforms, by
its own qubit index, so it gets the reads it gets when annealed alone.
The initial spins are those of ``rng.integers(0, 2, n)``, read as the top
bits of ``ceil(n / 2)`` raw output words (``_initial_states``).  The
uniforms are taken several sweeps at a time (``_DRAWS_PER_CALL``) by one
``rng.random`` call per read; one call fills its values in stream order,
so each sweep gets the uniforms that a call per sweep would draw.
Reads are therefore independent, order-insensitive, and reproducible:
the spins of read ``r`` are the same whether reads run one at a time or in
batches, and whichever models share its draws.  The anneal sizes its spin
batches to the models (``_batch_shape``) and counts them in model-reads,
reads times models, since every model holds its own states: at least
``_READ_BATCH`` model-reads, and as many as keep
``reads * models * chunk * n`` float64s within ``_DRAW_BUFFER`` bytes, so
a small model anneals all its reads in one batch.  That product is a
per-model draw buffer, but the models share one buffer of
``reads * chunk * n`` uniforms: what grows with the models is the stacked
states and the class temporaries, and counting model-reads keeps them
near one model's size.  Read ``r`` of ``inject_chain_breaks`` likewise
draws one uniform per physical qubit, in ascending qubit id, from
``rng_from(derive_seed(seed, STREAM_INJECT, r))``, so injecting the
first k reads of a logical set gives the first k injected reads.  Both
take their per-read generators from ``seeding.streams``, which builds
exactly these streams.

A ``SampleSet``'s energies are computed from its spins the first time
``energies`` is read, so the fig2/3/4 experiments, which never read
them, never compute them.  The anneal sums them per block of
``_READ_BATCH`` reads (reads 0-63, 64-127, ...) with BLAS and scipy
products over ``pm``'s arrays, whatever the spin batches, so read ``r``'s
energy agrees with ``bqm.energy`` to 1e-9 but can differ in the last bit
between two read counts that end in a different last block.  The
injector sums all its reads as one block.

A sample file (``sampleset_to_json``) holds the bytes of
``json.dumps(doc, indent=2)``, but only its head goes through ``json``:
the samples block, whose indent would put ``json`` on its pure-Python
encoder, is one join of formatted records.  ``sampleset_from_json``
checks every read at once and decodes all spins in one array operation;
only a fault sends it through the reads one by one, to name the first bad
read.

The anneal and the energies are the package's only users of scipy: the
three functions that build a CSR (``_coupling_matrix``, ``_class_layout``
and ``_block_energies``) import ``scipy.sparse`` when first called, so a
process that neither anneals nor reads energies, such as ``brokenchains
gen``, ``embed`` or ``unembed``, starts without it.

Spin update order within a sweep is by independent color classes of the
interaction graph (greedy coloring by ascending qubit id), ascending id
within a class.  Spins in one class share no coupler, so the simultaneous
class update equals sequential single-spin updates in that order.  The
models of a grid share one interaction graph and so one colouring.  Their
states lie stacked in a class-major layout (``_class_layout``): rows run by
class, then by model, then by ascending qubit, so a class of every model is
one slice of rows, and its update writes the new spins into that slice in
place.  Each class's CSR holds, for every row, the entries of its model's
own CSR row in their stored order (ascending qubit), with the columns moved
to the layout's rows, so each field is summed in the order
``_coupling_matrix`` gives it, which it builds from the pairs of
``pm.ising`` in their order.  The anneal and the energies read the arrays
of ``pm.ising`` as they stand.

A flip of spin ``s`` in local field ``f`` changes the energy by
``delta = -2 s f`` and is accepted when ``delta <= 0`` or
``u < exp(-beta delta)``.  The class update computes ``x = 2 beta s f`` in
place instead: ``s f`` is exact for ``s = +-1`` and ``2 beta`` is an exact
doubling, so ``x`` is the same rounding of the same real number as
``-beta delta``, and ``u < exp(x)`` is the whole test, because a downhill
move has ``exp(x) >= 1 > u`` (``exp`` may overflow to inf there).  The
update takes that test as the sign of ``u - exp(x)``, which is negative
exactly when ``u < exp(x)`` and +0 when they are equal, and flips ``s``
by xor-ing that sign bit into the sign bit of ``s``: the new spin is
``copysign(1, s (u - exp(x)))``.  Accept decisions, and so spins, are
those of the explicit ``delta`` form bit for bit.

A class whose fields can take ``x`` past about -707.5, where numpy's
``exp`` leaves its vector path (on an AVX-512 Xeon, about 17 ns a value
there and 140-200 ns where the result is subnormal, against 0.9 ns
inside), floors ``x`` at ``_EXP_FLOOR`` = -707 before the ``exp``.
That changes no decision: for ``x < -707``, ``exp(x)`` and ``exp(-707)`` both lie below 1e-307 < 2**-53,
the smallest nonzero uniform, so both reject every nonzero ``u``.  They
part only at ``u = 0.0`` when ``exp(x)`` underflows to 0, where
``0 - 0 = +0`` keeps ``s`` but ``0 - exp(-707) < 0`` flips it, so a draw
call that holds a 0.0 uniform takes no floor (checked once per call, and
only when some class would floor).  A class floors when its static field
bound (the largest ``|h| + sum |J|`` over its rows, taken once per anneal
from the models' own arrays) times ``2 beta`` exceeds ``_FLOOR_FROM`` =
700; a model whose fields stay small, such as max cut at fig4's chain
strengths, pays one compare per class update.

A class whose field ``h`` is zero on every qubit of every model (max cut
and partitioning have no field) skips the add ``x += h``, which is exact:
``x + 0.0`` differs from ``x`` only at ``x = -0.0``, and that value goes
through ``* s`` and ``* 2 beta`` to a zero of either sign, whose ``exp``
is 1.0 either way.
"""

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from brokenchains.bqm import BinaryQuadraticModel, require_keys
from brokenchains.graphs import require_int, require_probability, require_real
from brokenchains.seeding import STREAM_INJECT, STREAM_READ, streams
from brokenchains.topology import (
    PhysicalModel,
    chain_columns,
    columns_of,
    is_id,
    require_topology,
)

# reads per energy block, and the fewest reads per spin batch
_READ_BATCH = 64
# uniforms one ``rng.random`` call fills per read: each call covers
# max(1, _DRAWS_PER_CALL // qubits) sweeps
_DRAWS_PER_CALL = 1024
# bytes that bound reads * models * chunk * n float64s of a spin batch (the
# models share one draw buffer of reads * chunk * n): a batch holds as many
# reads as fit, but never fewer than _READ_BATCH model-reads, so a sweep of
# more than 1024 qubits takes more
_DRAW_BUFFER = 512 * 1024
# the sign bit of a float64, as the anneal flips it
_SIGN_BIT = np.uint64(1 << 63)
# below about -707.5 numpy's exp leaves its vector path; any x below the
# floor rejects every nonzero uniform, as the floor itself does
_EXP_FLOOR = -707.0
# a class floors x when its field bound times 2 beta exceeds this
_FLOOR_FROM = 700.0


@dataclass(frozen=True)
class AnnealParams:
    """Anneal settings, and the one place that decides them: a bad one raises
    ``ValueError`` naming it and its value.  ``beta_range`` is kept as a tuple."""

    num_reads: int = 1000
    sweeps: int = 1000
    beta_range: tuple = (0.1, 10.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("num_reads", "sweeps"):
            require_int(getattr(self, name), name, positive=True)
        require_int(self.seed, "seed")
        beta_range = self.beta_range
        if not (isinstance(beta_range, (tuple, list)) and len(beta_range) == 2):
            raise ValueError(f"beta_range must be two real numbers, not {beta_range!r}")
        lo, hi = (require_real(beta, "beta_range entry") for beta in beta_range)
        if not (0 < lo < hi):
            raise ValueError("beta_range must satisfy 0 < beta_min < beta_max,"
                             f" not {beta_range!r}")
        # the anneal scales each field by 2 beta, and inf there turns spins to NaN
        if not math.isfinite(2.0 * hi):
            raise ValueError(f"beta_range maximum {hi!r} overflows when doubled")
        object.__setattr__(self, "beta_range", tuple(beta_range))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Reads of one model: ``spins[r, i]`` is read ``r``'s spin on ``qubits[i]``."""

    qubits: np.ndarray  # read-only int64 ascending qubit ids: the physical model's ids
    spins: np.ndarray  # (reads, len(qubits)) int8 of -1 | +1
    # float64, one per read, or a function of no arguments computing them from
    # ``spins``, which ``energies`` calls the first time it is read
    energy_source: object
    params: AnnealParams

    def __len__(self):
        return len(self.spins)

    @functools.cached_property
    def energies(self) -> np.ndarray:
        """One float64 energy per read."""
        source = self.energy_source
        return source() if callable(source) else source


def _coupling_matrix(m: BinaryQuadraticModel):
    """The symmetric CSR of ``m``'s couplings over its variable indices,
    built from its pairs in order, then the same pairs transposed: the
    order every row of the anneal and every energy is summed in."""
    # imported here and in the two other CSR builders, not with the module:
    # it adds about 0.15 s to a process's start-up, which gen, embed and
    # unembed would pay for nothing
    import scipy.sparse as sp

    n = len(m.ids)
    i, j = m.positions().T
    return sp.csr_matrix(
        (np.concatenate([m.j, m.j]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )


def _colour_classes(j_sym) -> list:
    """Colour classes of the interaction graph of the symmetric CSR
    ``j_sym``: greedy colouring by ascending qubit index, each class
    ascending."""
    indptr, indices = j_sym.indptr.tolist(), j_sym.indices.tolist()
    color = []
    for v in range(j_sym.shape[0]):
        taken = {color[u] for u in indices[indptr[v] : indptr[v + 1]] if u < v}
        color.append(next(c for c in itertools.count() if c not in taken))
    color = np.array(color, dtype=np.intp)
    return [np.flatnonzero(color == c) for c in range(color.max(initial=-1) + 1)]


def _batch_shape(n: int, sweeps: int, models: int) -> tuple:
    """(reads per spin batch, sweeps per draw call) of an anneal of
    ``models`` models of ``n`` qubits each.  A batch counts model-reads,
    reads times ``models``: it holds at least ``_READ_BATCH`` of them, and
    as many as keep ``reads * models * chunk * n`` float64s within
    ``_DRAW_BUFFER`` bytes.  The models share one draw buffer of
    ``reads * chunk * n`` uniforms; the budget counts models so that the
    stacked states and class temporaries, which grow with them, stay near
    one model's size."""
    n = max(n, 1)
    chunk = min(max(1, _DRAWS_PER_CALL // n), sweeps)
    return max(-(-_READ_BATCH // models), _DRAW_BUFFER // (8 * n * chunk * models)), chunk


def simulated_anneal(pm: PhysicalModel, params: AnnealParams) -> SampleSet:
    """Independent Metropolis anneals of the physical model, one per read:
    the one-model case of ``anneal_grid``."""
    return anneal_grid([pm], params)[0]


def _class_layout(j_syms) -> tuple:
    """The class-major layout of the stacked states of models whose
    symmetric CSRs ``j_syms`` share one structure (the same qubits and
    couplers in the same order).

    Rows run by colour class of the shared interaction graph, then by model
    within a class, then by ascending qubit index within a model:
    ``row_of[g, i]`` is the row of model ``g``'s qubit ``i``, and class
    ``c`` of every model is one slice of rows.  ``classes[c]`` is
    ``(cls, rows, j_rows)``: the class's qubit indices, that slice, and the
    CSR of those rows over the layout's rows.  Each row of ``j_rows`` holds
    the entries of its model's CSR row in the order that CSR stores them,
    so every field is summed in the order ``_coupling_matrix`` gives it.
    """
    import scipy.sparse as sp

    j0 = j_syms[0]
    models, n = len(j_syms), j0.shape[0]
    qubit_classes = _colour_classes(j0)
    sizes = np.array([len(cls) for cls in qubit_classes], dtype=np.intp)
    firsts = np.cumsum(sizes) - sizes  # where each class starts in class order
    order = np.concatenate([np.empty(0, dtype=np.intp), *qubit_classes])
    row_of = np.empty((models, n), dtype=np.intp)
    row_of[:, order] = ((models - 1) * np.repeat(firsts, sizes) + np.arange(n)
                        + np.arange(models)[:, None] * np.repeat(sizes, sizes))
    # the CSR entries of every qubit's row, the rows taken in class order
    counts = np.diff(j0.indptr)[order]
    ends = np.cumsum(counts)
    entries = np.repeat(j0.indptr[order] + counts - ends, counts) + np.arange(j0.nnz)
    columns = row_of[:, j0.indices[entries]].astype(np.int32)
    data = np.stack([j_sym.data[entries] for j_sym in j_syms])
    bounds = np.concatenate([[0], ends]).tolist()
    classes = []
    for cls, first in zip(qubit_classes, firsts.tolist()):
        last = first + len(cls)
        lo, hi = bounds[first], bounds[last]
        indptr = np.concatenate([[0], np.cumsum(np.tile(counts[first:last], models))])
        j_rows = sp.csr_matrix(
            (data[:, lo:hi].ravel(), columns[:, lo:hi].ravel(), indptr.astype(np.int32)),
            shape=(models * len(cls), models * n),
        )
        classes.append((cls, slice(models * first, models * last), j_rows))
    return row_of, classes


def anneal_grid(pms, params: AnnealParams) -> list:
    """``simulated_anneal`` of each of several physical models over the same
    qubits and couplers (one logical model at several chain strengths, say),
    in one pass: read ``r`` of every model draws from read ``r``'s one
    stream, so each model's reads are those it gets annealed alone.

    The models' states lie stacked in the class-major layout of
    ``_class_layout``, so each colour class updates in all models at once
    as one slice of rows, in place.  Raises ``ValueError`` for an empty
    list, or when the models' qubits or couplers differ.
    """
    if not pms:
        raise ValueError("anneal_grid needs at least one model")
    for pm in pms[1:]:
        if not np.array_equal(pm.ising.ids, pms[0].ising.ids):
            raise ValueError("the models of a grid must have the same qubits")
        if not np.array_equal(pm.ising.pairs, pms[0].ising.pairs):
            raise ValueError("the models of a grid must have the same couplers")
    models, n = len(pms), len(pms[0].ising.ids)
    two_betas = (
        2.0 * np.geomspace(params.beta_range[0], params.beta_range[1], params.sweeps)
    ).tolist()
    batch, chunk = _batch_shape(n, params.sweeps, models)
    j_syms = [_coupling_matrix(pm.ising) for pm in pms]
    row_of, layout = _class_layout(j_syms)
    h = np.empty(models * n)
    # |h| + sum |J| of each row bounds its |f|: summed here from the models'
    # arrays, since scipy's abs of a class CSR would sort its entries in place
    # and so change the order its fields are summed in
    field_bound = np.empty(models * n)
    entry_rows = np.repeat(np.arange(n), np.diff(j_syms[0].indptr))
    for pm, j_sym, rows in zip(pms, j_syms, row_of):
        h[rows] = pm.ising.h
        field_bound[rows] = np.abs(pm.ising.h) + np.bincount(
            entry_rows, np.abs(j_sym.data), n
        )
    classes = [
        # adding a zero field changes no spin
        (cls, rows, h[rows, None] if h[rows].any() else None,
         float(field_bound[rows].max(initial=0.0)), j_rows)
        for cls, rows, j_rows in layout
    ]

    read_rngs = streams(params.seed, STREAM_READ)
    # one draw buffer serves every batch: buffer[r, t, i] is the uniform of
    # read r for qubit i in sweep t of the current draw call
    buffer = np.empty((min(batch, params.num_reads), chunk, n))
    spins = [np.empty((params.num_reads, n), dtype=np.int8) for _ in pms]
    for start in range(0, params.num_reads, batch):
        rngs = list(itertools.islice(read_rngs, min(batch, params.num_reads - start)))
        # column r of ``states`` is one read of every model, so a class's CSR
        # rows multiply the block as it lies, with no transposed copy of either
        states = np.empty((models * n, len(rngs)))
        draws = buffer[: len(rngs)]
        # the initial spins borrow the draw buffer, which the sweeps refill
        initial = draws.reshape(-1)[: n * len(rngs)].reshape(n, len(rngs))
        _initial_states(rngs, n, out=initial)
        for rows in row_of:
            states[rows] = initial
        # each class's spins in every model: a view of ``states``, updated in
        # place through its bits
        updates = [
            (cls, states[rows], states[rows].view(np.uint64), h_rows, bound, j_rows)
            for cls, rows, h_rows, bound, j_rows in classes
        ]
        # exp overflows to inf on steep downhill moves, which accept all the same
        with np.errstate(over="ignore"):
            for first in range(0, params.sweeps, chunk):
                chunk_two_betas = two_betas[first : first + chunk]
                filled = draws[:, : len(chunk_two_betas)]  # this call's uniforms
                for rng, block in zip(rngs, filled):
                    rng.random(out=block)
                # whether this call may floor x: decided when a class first
                # would, since a 0.0 uniform tells the floor from exp(x)
                floor = None
                for t, two_beta in enumerate(chunk_two_betas):
                    uniforms = draws[:, t].T  # uniforms[i, r]
                    for cls, s, s_bits, h_rows, bound, j_rows in updates:
                        # x = 2 beta s_i f_i, where f_i = h_i + sum_j J_ij s_j
                        x = j_rows @ states
                        if h_rows is not None:
                            x += h_rows
                        x *= s
                        x *= two_beta
                        if bound * two_beta > _FLOOR_FROM:
                            if floor is None:
                                floor = bool(filled.all())
                            if floor:
                                np.maximum(x, _EXP_FLOOR, out=x)
                        np.exp(x, out=x)
                        # u - exp(x) < 0 exactly when the flip is accepted, so
                        # its sign bit flips s (a zero keeps s); every model
                        # takes the class's uniforms of each read
                        by_model = x.reshape(models, len(cls), len(rngs))
                        np.subtract(uniforms[cls], by_model, out=by_model)
                        signs = x.view(np.uint64)
                        signs &= _SIGN_BIT
                        s_bits ^= signs
        for rows, out in zip(row_of, spins):
            out[start : start + len(rngs)] = states[rows].T
    return [
        SampleSet(pm.ising.ids, out, functools.partial(_block_energies, pm.ising, out), params)
        for pm, out in zip(pms, spins)
    ]


def _initial_states(rngs, n: int, out: np.ndarray) -> np.ndarray:
    """``rng.integers(0, 2, n) * 2.0 - 1.0`` of each generator, as column ``r``
    of the C-ordered float64 ``(n, reads)`` array ``out``, which it returns.

    ``integers`` takes each of those bits as the top bit of one 32-bit half
    of a PCG64 output word, low half first, so it reads ``ceil(n / 2)``
    words; reading them raw gives the same bits and leaves each stream
    where ``integers`` leaves it for the ``random`` draws that follow.
    """
    words = np.stack([rng.bit_generator.random_raw((n + 1) // 2) for rng in rngs], axis=1)
    # built in place: every full-size temporary adds to the anneal's peak memory
    bits = words >> 31
    out[0::2] = np.bitwise_and(bits, 1, out=bits)
    out[1::2] = np.right_shift(words[: n // 2], 63, out=bits[: n // 2])
    out *= 2.0
    out -= 1.0
    return out


def _block_energies(m: BinaryQuadraticModel, spins, block: int = _READ_BATCH) -> np.ndarray:
    """The energy under Ising model ``m`` of each read of ``spins``, summed
    over C-ordered float64 ``(reads, variables)`` blocks of ``block`` rows:
    the last bits of a BLAS sum depend on the shape and layout it is given."""
    import scipy.sparse as sp

    j_upper = sp.triu(_coupling_matrix(m), k=1).tocsr()
    energies = np.empty(len(spins))
    for first in range(0, len(spins), block):
        s = spins[first : first + block].astype(np.float64, order="C")
        energies[first : first + block] = (s @ m.h + np.einsum("ri,ri->r", s @ j_upper.T, s)
                                           + m.offset)
    return energies


def inject_chain_breaks(
    logical: SampleSet,
    p_break: float,
    seed: int,
    pm: PhysicalModel,
) -> SampleSet:
    """Copy each read's logical spins onto the chains of ``pm``, then flip qubits.

    The chains are those of ``pm.source_embedding``, and ``logical`` has one
    column per variable of that embedding.  Every physical qubit is flipped
    with probability ``p_break`` (one uniform per qubit, ascending qubit id,
    from read ``r``'s own stream), so a chain of length L stays unbroken
    exactly when all or none of its qubits flip.
    """
    require_probability(p_break, "p_break")
    e = pm.source_embedding
    variables = columns_of(e.ids, logical.qubits)  # each chain's logical column
    if not np.all(np.abs(logical.spins) == 1):
        raise ValueError("logical samples must be Ising spins (-1/+1)")
    qubits = pm.ising.ids
    chains = chain_columns(e, qubits)
    if len(chains.qubits) != len(qubits):
        raise ValueError("the physical model has qubits outside the chains")
    source = np.empty(len(qubits), dtype=np.intp)  # logical column of each qubit
    source[chains.qubits] = np.repeat(variables, chains.lengths)
    copied = logical.spins[:, source]
    flips = np.empty(copied.shape, dtype=bool)
    for row, rng in zip(flips, streams(seed, STREAM_INJECT, 0)):
        np.less(rng.random(len(qubits)), p_break, out=row)
    spins = np.where(flips, -copied, copied)
    # summed over all reads as one block, when first read
    energies = functools.partial(_block_energies, pm.ising, spins, max(len(spins), 1))
    return SampleSet(qubits, spins, energies, logical.params)


def model_hash(model: BinaryQuadraticModel) -> str:
    pairs, j = model.sorted_terms()
    doc = {
        "domain": model.domain,
        "linear": list(zip(model.ids.tolist(), model.h.tolist())),
        "quadratic": [(u, v, c) for (u, v), c in zip(pairs.tolist(), j.tolist())],
        "offset": model.offset,
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _spin_strings(ss: SampleSet) -> list:
    """One '+'/'-' string per read, in column order, cut from one decoded
    buffer: '+' is 43 and '-' 45 in ASCII, so 44 - s spells s."""
    reads, width = ss.spins.shape
    text = (44 - ss.spins).astype(np.uint8).tobytes().decode("ascii")
    return [text[r * width : (r + 1) * width] for r in range(reads)]


def sampleset_to_json(ss: SampleSet, model_hash: str, provenance: dict) -> str:
    """The sample set as JSON, with the hash of its physical model and the
    record of how that model was built, as given: ``sampleset_from_json``'s
    inverse.

    The text is that of ``json.dumps(doc, indent=2)`` on the whole document,
    ``samples`` last; the head is dumped so, and the samples block is
    written as one join of formatted records, since ``indent`` puts
    ``json`` on its pure-Python encoder.  An energy is spelled as ``json``
    spells a float: its repr, or ``NaN``, ``Infinity`` and ``-Infinity``.
    """
    head = json.dumps(
        dict(
            model_hash=model_hash,
            provenance=provenance,
            qubits=ss.qubits.tolist(),
            params={
                "num_reads": ss.params.num_reads,
                "sweeps": ss.params.sweeps,
                "beta_range": list(ss.params.beta_range),
                "seed": ss.params.seed,
            },
        ),
        indent=2,
    )
    spell = repr if np.isfinite(ss.energies).all() else json.dumps
    records = ",\n".join(
        f'    {{\n      "energy": {spell(energy)},\n      "spins": "{spins}"\n    }}'
        for energy, spins in zip(ss.energies.tolist(), _spin_strings(ss))
    )
    samples = f"[\n{records}\n  ]" if records else "[]"
    # the head ends in "\n}", which the samples close again
    return f'{head[:-2]},\n  "samples": {samples}\n}}'


def _read_records(records: list) -> tuple:
    """(energies, spin rows) of the reads ``records``, once every read is a
    JSON object holding 'energy' and 'spins' and its energy is a finite real
    number; otherwise ``ValueError`` naming the first read that is not,
    checked key and then energy, read by read.

    All reads are checked at once; only a failure walks them one by one,
    to name the first bad read.
    """
    try:
        values = [rec["energy"] for rec in records]
        rows = [rec["spins"] for rec in records]
        # json gives bool, None, str, list and dict for the other values
        if set(map(type, values)) <= {float, int}:
            energies = np.array(values, dtype=np.float64)
            if np.isfinite(energies).all():
                return energies, rows
    except (KeyError, TypeError, OverflowError):
        pass  # a read that is not an object, lacks a key, or overflows a float
    for read, rec in enumerate(records):
        require_keys(rec, ("energy", "spins"), f"read {read}")
        require_real(rec["energy"], f"read {read} energy")
    raise AssertionError("the reads failed together but passed one by one")


def sampleset_from_json(text: str) -> tuple:
    """Read ``sampleset_to_json`` output as ``(samples, model_hash,
    provenance)``, the ``SampleSet`` and the hash and record stored with it;
    ``provenance`` is ``None`` for a file that holds none.

    Raises ``ValueError`` on a missing key, on malformed qubits or spins,
    on ``params`` that ``AnnealParams`` rejects, on an energy that is not a
    finite real number, on a provenance chain strength or prefactor that is
    not a positive real number, on a provenance topology that
    ``require_topology`` rejects, or when ``params.num_reads`` is not the
    number of stored reads.  The reads are checked and decoded in bulk; a
    fault names the first read that holds one.
    """
    doc = require_keys(
        json.loads(text), ("model_hash", "qubits", "params", "samples"), "sample set"
    )
    provenance = doc.get("provenance")
    if provenance is not None:
        require_keys(provenance, ("chain_strength", "prefactor", "topology"), "provenance")
        for key in ("chain_strength", "prefactor"):
            require_real(provenance[key], f"provenance {key}", positive=True)
        require_topology(provenance["topology"], "provenance topology")
    qubits = doc["qubits"]
    if not (isinstance(qubits, list) and all(map(is_id, qubits))):
        raise ValueError("qubits must be a list of qubit ids")
    if qubits != sorted(set(qubits)):
        raise ValueError("qubits must be distinct and ascending")
    qubits = np.array(qubits, dtype=np.int64)
    qubits.flags.writeable = False
    p = require_keys(doc["params"], ("num_reads", "sweeps", "beta_range", "seed"), "params")
    params = AnnealParams(p["num_reads"], p["sweeps"], p["beta_range"], p["seed"])
    records = doc["samples"]
    if not isinstance(records, list):
        raise ValueError("samples must be a list of reads")
    energies, rows = _read_records(records)
    if params.num_reads != len(rows):
        raise ValueError(
            f"params.num_reads is {params.num_reads} but {len(rows)} reads are stored"
        )
    width = len(qubits)
    shaped = set(map(type, rows)) <= {str} and set(map(len, rows)) <= {width}
    # one byte per character: "replace" turns each non-ASCII one into '?'
    joined = "".join(rows).encode("ascii", "replace") if shaped else b"?"
    # translate deletes every '+' and '-', so bytes remain exactly when a bad
    # character does; only then are the reads searched for the first bad one
    if joined.translate(None, b"+-"):
        read = next(
            read for read, row in enumerate(rows)
            # strip leaves something exactly when a character is neither '+' nor '-'
            if not isinstance(row, str) or len(row) != width or row.strip("+-")
        )
        raise ValueError(f"read {read}: spins must be {width} characters of '+' and '-'")
    # 44 - c is +1 for '+' (43) and -1 for '-' (45)
    chars = np.frombuffer(joined, dtype=np.uint8)
    spins = np.subtract(44, chars, dtype=np.int8).reshape(len(rows), width)
    return SampleSet(qubits, spins, energies, params), doc["model_hash"], provenance


def sampleset_to_csv(ss: SampleSet) -> str:
    # the bytes ``csv.writer`` gives: no field needs quoting, because the repr
    # of a float and a '+'/'-' string hold no comma, quote or newline
    rows = zip(ss.energies.tolist(), _spin_strings(ss))
    return "energy,spins\n" + "".join(f"{energy!r},{spins}\n" for energy, spins in rows)
