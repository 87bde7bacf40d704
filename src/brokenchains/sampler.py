"""Classical stand-in for the annealer.

``simulated_anneal`` draws independent reads from a physical Ising model
with single-spin Metropolis updates over a geometric inverse-temperature
ladder.  ``inject_chain_breaks`` manufactures physical samples with a
controlled per-qubit flip probability so unembedding behaviour can be
tested without any annealing at all.

Determinism contract: read ``r`` of ``simulated_anneal`` consumes only the
PCG64 stream seeded by ``derive_seed(params.seed, STREAM_READ, r)``,
drawing the initial state first and then one uniform per spin per sweep.
Those uniforms are taken several sweeps at a time (``_DRAWS_PER_CALL``)
by one ``rng.random`` call per read; one call fills its values in stream
order, so each sweep gets the uniforms that a call per sweep would draw.
Reads are therefore independent, order-insensitive, and reproducible:
the spins of read ``r`` are the same whether reads run one at a time or in
batches.  The anneal sizes its spin batches to the model
(``_batch_shape``): at least ``_READ_BATCH`` reads, and as many as keep
the draw buffer within ``_DRAW_BUFFER`` bytes, so a small model anneals
all its reads in one batch.  Energies are still summed per block of
``_READ_BATCH`` reads (reads 0-63, 64-127, ...) with BLAS and scipy
products, whatever the spin batches, so read ``r``'s energy agrees with
``bqm.energy`` to 1e-9 but can differ in the last bit between two read
counts that end in a different last block.  Read ``r`` of
``inject_chain_breaks`` likewise draws one uniform per physical qubit, in
ascending qubit id, from ``rng_from(derive_seed(seed, STREAM_INJECT, r))``,
so injecting the first k reads of a logical set gives the first k
injected reads.  Both take their per-read generators from
``seeding.streams``, which builds exactly these streams.

Spin update order within a sweep is by independent color classes of the
interaction graph (greedy coloring by ascending qubit id), ascending id
within a class.  Spins in one class share no coupler, so the simultaneous
class update equals sequential single-spin updates in that order.

A flip of spin ``s`` in local field ``f`` changes the energy by
``delta = -2 s f`` and is accepted when ``delta <= 0`` or
``u < exp(-beta delta)``.  The class update computes ``x = 2 beta s f`` in
place instead: ``s f`` is exact for ``s = +-1`` and ``2 beta`` is an exact
doubling, so ``x`` is the same rounding of the same real number as
``-beta delta``, and ``u < exp(x)`` is the whole test, because a downhill
move has ``exp(x) >= 1 > u`` (``exp`` may overflow to inf there).  The
update takes that test as the sign of ``u - exp(x)``, which is negative
exactly when ``u < exp(x)`` and +0 when they are equal, and the new spin is
``copysign(1, s (u - exp(x)))``.  Accept decisions, and so spins, are those
of the explicit ``delta`` form bit for bit.
"""

import csv
import functools
import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from brokenchains.bqm import BinaryQuadraticModel, is_int, require_keys, require_real
from brokenchains.seeding import STREAM_INJECT, STREAM_READ, streams
from brokenchains.topology import PhysicalModel, chain_columns, identity_embedding

# reads per energy block, and the fewest reads per spin batch
_READ_BATCH = 64
# uniforms one ``rng.random`` call fills per read: each call covers
# max(1, _DRAWS_PER_CALL // qubits) sweeps
_DRAWS_PER_CALL = 1024
# bytes of a spin batch's draw buffer: a batch holds as many reads as fit,
# but never fewer than _READ_BATCH, so a sweep of more than 1024 qubits
# takes a larger buffer
_DRAW_BUFFER = 512 * 1024


@dataclass(frozen=True)
class AnnealParams:
    num_reads: int = 1000
    sweeps: int = 1000
    beta_range: tuple = (0.1, 10.0)
    seed: int = 0

    def __post_init__(self):
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        lo, hi = self.beta_range
        if not (0 < lo < hi):
            raise ValueError("beta_range must satisfy 0 < beta_min < beta_max")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Reads of one model: ``spins[r, i]`` is read ``r``'s spin on ``qubits[i]``."""

    qubits: tuple  # ascending qubit ids
    spins: np.ndarray  # (reads, len(qubits)) int8 of -1 | +1
    energies: np.ndarray  # float64, one per read
    params: AnnealParams
    model: PhysicalModel = field(repr=False, default=None)
    # read back by ``sampleset_from_json``: the stored ``model_hash`` of the
    # physical model the reads came from, and the provenance record of how
    # ``brokenchains sample`` built it (chain strength, prefactor, topology)
    model_hash: str = None
    provenance: dict = None

    def __len__(self):
        return len(self.spins)


class _CompiledModel:
    """Array form of a physical Ising model for vectorized sweeps."""

    def __init__(self, model: BinaryQuadraticModel):
        self.qubits = tuple(model.variables())
        index = {q: i for i, q in enumerate(self.qubits)}
        n = len(self.qubits)
        self.h = np.zeros(n)
        for q, c in model.linear.items():
            self.h[index[q]] = c
        rows, cols, vals = [], [], []
        for (p, q), c in model.quadratic.items():
            i, j = index[p], index[q]
            rows += [i, j]
            cols += [j, i]
            vals += [c, c]
        self.j_sym = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        self.j_upper = sp.triu(self.j_sym, k=1).tocsr()
        self.offset = model.offset

    @functools.cached_property
    def classes(self):
        """Colour classes of the interaction graph, built on first use: only
        the anneal needs them."""
        n = len(self.qubits)
        adj = [set() for _ in range(n)]
        mat = self.j_sym.tocoo()
        for i, j in zip(mat.row, mat.col):
            if i != j:
                adj[i].add(j)
        color = [-1] * n
        for v in range(n):
            taken = {color[u] for u in adj[v] if color[u] >= 0}
            c = 0
            while c in taken:
                c += 1
            color[v] = c
        ncolors = max(color, default=-1) + 1
        return [
            np.array([v for v in range(n) if color[v] == c], dtype=np.intp)
            for c in range(ncolors)
        ]

    @functools.cached_property
    def class_rows(self):
        """The rows of ``j_sym`` of each colour class."""
        return [self.j_sym[cls] for cls in self.classes]

    def energies(self, states: np.ndarray) -> np.ndarray:
        # states: (reads, n) of +-1
        return states @ self.h + np.einsum(
            "ri,ri->r", states @ self.j_upper.T, states
        ) + self.offset


def _batch_shape(n: int, sweeps: int) -> tuple:
    """(reads per spin batch, sweeps per draw call) of an anneal of ``n``
    qubits: a batch's draws, ``reads * chunk * n`` float64s, fill at most
    ``_DRAW_BUFFER`` bytes unless ``_READ_BATCH`` reads alone do."""
    n = max(n, 1)
    chunk = min(max(1, _DRAWS_PER_CALL // n), sweeps)
    return max(_READ_BATCH, _DRAW_BUFFER // (8 * n * chunk)), chunk


def simulated_anneal(pm: PhysicalModel, params: AnnealParams) -> SampleSet:
    """Independent Metropolis anneals of the physical model, one per read."""
    compiled = _CompiledModel(pm.ising)
    n = len(compiled.qubits)
    two_betas = (
        2.0 * np.geomspace(params.beta_range[0], params.beta_range[1], params.sweeps)
    ).tolist()
    batch, chunk = _batch_shape(n, params.sweeps)
    classes = [
        (cls, compiled.h[cls][:, None], j_rows)
        for cls, j_rows in zip(compiled.classes, compiled.class_rows)
    ]

    read_rngs = streams(params.seed, STREAM_READ)
    # one draw buffer serves every batch: buffer[r, t, i] is the uniform of
    # read r for qubit i in sweep t of the current draw call
    buffer = np.empty((min(batch, params.num_reads), chunk, n))
    spins = []
    for start in range(0, params.num_reads, batch):
        rngs = list(itertools.islice(read_rngs, min(batch, params.num_reads - start)))
        # column r of ``states`` is one read, so a class's CSR rows multiply
        # the block as it lies, with no transposed copy of either operand
        states = np.stack(
            [rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0 for rng in rngs],
            axis=1,
        )
        draws = buffer[: len(rngs)]
        # exp overflows to inf on steep downhill moves, which accept all the same
        with np.errstate(over="ignore"):
            for first in range(0, params.sweeps, chunk):
                chunk_two_betas = two_betas[first : first + chunk]
                for rng, block in zip(rngs, draws):
                    rng.random(out=block[: len(chunk_two_betas)])
                for t, two_beta in enumerate(chunk_two_betas):
                    uniforms = draws[:, t].T  # uniforms[i, r]
                    for cls, h_cls, j_rows in classes:
                        s = states[cls]
                        # x = 2 beta s_i f_i, where f_i = h_i + sum_j J_ij s_j
                        x = j_rows @ states
                        x += h_cls
                        x *= s
                        x *= two_beta
                        np.exp(x, out=x)
                        # u - exp(x) < 0 exactly when the flip is accepted, and
                        # its sign times s is the new spin (a zero keeps s)
                        np.subtract(uniforms[cls], x, out=x)
                        x *= s
                        states[cls] = np.copysign(1.0, x, out=x)
        spins.append(states.T.astype(np.int8, order="C"))
    spins = np.concatenate(spins)
    # energies are summed over C-ordered (reads, qubits) blocks of
    # _READ_BATCH rows: the last bits of a BLAS sum depend on the shape and
    # layout it is given
    energies = [
        compiled.energies(spins[first : first + _READ_BATCH].astype(np.float64))
        for first in range(0, len(spins), _READ_BATCH)
    ]
    return SampleSet(compiled.qubits, spins, np.concatenate(energies), params, pm)


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
    if not (0.0 <= p_break <= 1.0):
        raise ValueError("p_break must be in [0, 1]")
    e = pm.source_embedding
    variables = chain_columns(identity_embedding(e.variables()), logical.qubits)
    if not np.all(np.abs(logical.spins) == 1):
        raise ValueError("logical samples must be Ising spins (-1/+1)")
    compiled = _CompiledModel(pm.ising)
    qubits = compiled.qubits
    chains = chain_columns(e, qubits)
    if len(chains.columns) != len(qubits):
        raise ValueError("the physical model has qubits outside the chains")
    source = np.empty(len(qubits), dtype=np.intp)  # logical column of each qubit
    source[chains.columns] = np.repeat(variables.columns, chains.lengths)
    copied = logical.spins[:, source]
    flips = np.empty(copied.shape, dtype=bool)
    for row, rng in zip(flips, streams(seed, STREAM_INJECT, 0)):
        np.less(rng.random(len(qubits)), p_break, out=row)
    spins = np.where(flips, -copied, copied)
    energies = compiled.energies(spins.astype(np.float64))
    return SampleSet(qubits, spins, energies, logical.params, pm)


def chain_break_probability(p_break: float, length: int) -> float:
    """Probability a length-L chain breaks under independent qubit flips."""
    return 1.0 - p_break**length - (1.0 - p_break) ** length


def model_hash(model: BinaryQuadraticModel) -> str:
    doc = {
        "domain": model.domain,
        "linear": sorted(model.linear.items()),
        "quadratic": sorted((u, v, c) for (u, v), c in model.quadratic.items()),
        "offset": model.offset,
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _spin_strings(ss: SampleSet) -> list:
    """One '+'/'-' string per read, in column order."""
    chars = np.where(ss.spins > 0, ord("+"), ord("-")).astype(np.uint8)
    return [row.tobytes().decode("ascii") for row in chars]


def sampleset_to_json(ss: SampleSet, provenance: dict = None) -> str:
    """The sample set as JSON, with the hash of its physical model and, when
    given, the ``provenance`` record of how that model was built."""
    doc = {"model_hash": model_hash(ss.model.ising)}
    if provenance is not None:
        doc["provenance"] = provenance
    doc.update(
        qubits=list(ss.qubits),
        params={
            "num_reads": ss.params.num_reads,
            "sweeps": ss.params.sweeps,
            "beta_range": list(ss.params.beta_range),
            "seed": ss.params.seed,
        },
        samples=[
            {"energy": energy, "spins": spins}
            for energy, spins in zip(ss.energies.tolist(), _spin_strings(ss))
        ],
    )
    return json.dumps(doc, indent=2)


def sampleset_from_json(text: str, pm: PhysicalModel = None) -> SampleSet:
    """Read ``sampleset_to_json`` output.

    Raises ``ValueError`` on a missing key, on malformed qubits or spins,
    on a ``params`` value of the wrong type, on an energy that is not a
    finite real number, on a provenance chain strength or prefactor that is
    not a positive real number, or when ``params.num_reads`` is not the
    number of stored reads.
    """
    doc = require_keys(
        json.loads(text), ("model_hash", "qubits", "params", "samples"), "sample set"
    )
    provenance = doc.get("provenance")
    if provenance is not None:
        require_keys(provenance, ("chain_strength", "prefactor", "topology"), "provenance")
        for key in ("chain_strength", "prefactor"):
            require_real(provenance[key], f"provenance {key}", positive=True)
        topology = provenance["topology"]
        if not (isinstance(topology, list) and len(topology) == 3
                and all(isinstance(x, int) for x in topology)):
            raise ValueError("provenance topology must be a list of three integers")
    qubits = doc["qubits"]
    if not (isinstance(qubits, list) and all(map(is_int, qubits))):
        raise ValueError("qubits must be a list of integers")
    qubits = tuple(qubits)
    if list(qubits) != sorted(set(qubits)):
        raise ValueError("qubits must be distinct and ascending")
    p = require_keys(doc["params"], ("num_reads", "sweeps", "beta_range", "seed"), "params")
    for key in ("num_reads", "sweeps", "seed"):
        if not is_int(p[key]):
            raise ValueError(f"params.{key} must be an integer, not {p[key]!r}")
    beta_range = p["beta_range"]
    if not (isinstance(beta_range, list) and len(beta_range) == 2):
        raise ValueError(
            f"params.beta_range must be a list of two real numbers, not {beta_range!r}"
        )
    for beta in beta_range:
        require_real(beta, "params.beta_range entry")
    params = AnnealParams(p["num_reads"], p["sweeps"], tuple(beta_range), p["seed"])
    records = doc["samples"]
    if not isinstance(records, list):
        raise ValueError("samples must be a list of reads")
    for read, rec in enumerate(records):
        require_keys(rec, ("energy", "spins"), f"read {read}")
        require_real(rec["energy"], f"read {read} energy")
    rows = [rec["spins"] for rec in records]
    if params.num_reads != len(rows):
        raise ValueError(
            f"params.num_reads is {params.num_reads} but {len(rows)} reads are stored"
        )
    for read, row in enumerate(rows):
        # strip leaves something exactly when a character is neither '+' nor '-'
        if not isinstance(row, str) or len(row) != len(qubits) or row.strip("+-"):
            raise ValueError(
                f"read {read}: spins must be {len(qubits)} characters of '+' and '-'"
            )
    chars = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    spins = np.where(chars == ord("+"), 1, -1).astype(np.int8).reshape(len(rows), len(qubits))
    energies = np.array([rec["energy"] for rec in records], dtype=np.float64)
    return SampleSet(qubits, spins, energies, params, pm, doc["model_hash"], provenance)


def sampleset_to_csv(ss: SampleSet) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["energy", "spins"])
    writer.writerows(zip(map(repr, ss.energies.tolist()), _spin_strings(ss)))
    return buf.getvalue()
