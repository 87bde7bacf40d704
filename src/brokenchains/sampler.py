"""Classical stand-in for the annealer.

``simulated_anneal`` draws independent reads from a physical Ising model
with single-spin Metropolis updates over a geometric inverse-temperature
ladder.  ``inject_chain_breaks`` manufactures physical samples with a
controlled per-qubit flip probability so unembedding behaviour can be
tested without any annealing at all.

Determinism contract: read ``r`` consumes only the PCG64 stream seeded by
``derive_seed(params.seed, STREAM_READ, r)``, drawing the initial state
first and then one uniform per spin per sweep.  Reads are therefore
independent, order-insensitive, and reproducible; batching them (as done
here for speed) returns bit-identical results to a sequential loop.

Spin update order within a sweep is by independent color classes of the
interaction graph (greedy coloring by ascending qubit id), ascending id
within a class.  Spins in one class share no coupler, so the simultaneous
class update equals sequential single-spin updates in that order.
"""

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from brokenchains.bqm import BinaryQuadraticModel, energy
from brokenchains.seeding import STREAM_READ, rng_from
from brokenchains.topology import Embedding, PhysicalModel

_READ_BATCH = 64


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


@dataclass(frozen=True)
class PhysicalSample:
    spins: dict  # qubit id -> -1 | +1
    energy: float


@dataclass(frozen=True)
class SampleSet:
    samples: tuple
    params: AnnealParams
    model: PhysicalModel = field(repr=False, default=None)

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])


class _CompiledModel:
    """Array form of a physical Ising model for vectorized sweeps."""

    def __init__(self, model: BinaryQuadraticModel):
        self.qubits = model.variables()
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
        self.classes = self._color_classes(n)
        self.class_rows = [self.j_sym[cls] for cls in self.classes]

    def _color_classes(self, n):
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

    def energies(self, states: np.ndarray) -> np.ndarray:
        # states: (reads, n) of +-1
        return states @ self.h + np.einsum(
            "ri,ri->r", states @ self.j_upper.T, states
        ) + self.offset


def simulated_anneal(pm: PhysicalModel, params: AnnealParams) -> SampleSet:
    """Independent Metropolis anneals of the physical model, one per read."""
    compiled = _CompiledModel(pm.ising)
    n = len(compiled.qubits)
    betas = np.geomspace(params.beta_range[0], params.beta_range[1], params.sweeps)

    samples = []
    for start in range(0, params.num_reads, _READ_BATCH):
        reads = range(start, min(start + _READ_BATCH, params.num_reads))
        rngs = [rng_from(params.seed, STREAM_READ, r) for r in reads]
        states = np.stack(
            [rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0 for rng in rngs]
        )
        for beta in betas:
            uniforms = np.stack([rng.random(n) for rng in rngs])
            for cls, j_rows in zip(compiled.classes, compiled.class_rows):
                fields = compiled.h[cls] + states @ j_rows.T
                # flipping s_i changes the energy by -2 s_i (h_i + sum_j J_ij s_j)
                delta = -2.0 * states[:, cls] * fields
                accept = (delta <= 0.0) | (
                    uniforms[:, cls] < np.exp(-beta * np.clip(delta, 0.0, None))
                )
                states[:, cls] = np.where(accept, -states[:, cls], states[:, cls])
        for row, e in zip(states, compiled.energies(states)):
            spins = {q: int(s) for q, s in zip(compiled.qubits, row)}
            samples.append(PhysicalSample(spins, float(e)))
    return SampleSet(tuple(samples), params, pm)


def inject_chain_breaks(
    logical: dict,
    e: Embedding,
    p_break: float,
    seed: int,
    pm: PhysicalModel,
) -> PhysicalSample:
    """Copy each chain from its logical spin, then flip qubits independently.

    Every physical qubit is flipped with probability ``p_break`` (one
    uniform per qubit, ascending qubit id), so a chain of length L stays
    unbroken exactly when all or none of its qubits flip.
    """
    if not (0.0 <= p_break <= 1.0):
        raise ValueError("p_break must be in [0, 1]")
    for v in e.variables():
        if v not in logical:
            raise ValueError(f"logical assignment missing variable {v}")
        if logical[v] not in (-1, 1):
            raise ValueError("logical assignment must be Ising spins (-1/+1)")
    spins = {}
    for v in e.variables():
        for q in e.chain(v):
            spins[q] = logical[v]
    rng = rng_from(seed)
    qubits = sorted(spins)
    flips = rng.random(len(qubits)) < p_break
    for q, flip in zip(qubits, flips):
        if flip:
            spins[q] = -spins[q]
    return PhysicalSample(spins, energy(pm.ising, spins))


def chain_break_probability(p_break: float, length: int) -> float:
    """Probability a length-L chain breaks under independent qubit flips."""
    return 1.0 - p_break**length - (1.0 - p_break) ** length


def _model_hash(model: BinaryQuadraticModel) -> str:
    doc = {
        "domain": model.domain,
        "linear": sorted(model.linear.items()),
        "quadratic": sorted((u, v, c) for (u, v), c in model.quadratic.items()),
        "offset": model.offset,
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _spin_string(sample: PhysicalSample, qubits) -> str:
    return "".join("+" if sample.spins[q] > 0 else "-" for q in qubits)


def sampleset_to_json(ss: SampleSet) -> str:
    qubits = ss.model.ising.variables()
    doc = {
        "model_hash": _model_hash(ss.model.ising),
        "qubits": qubits,
        "params": {
            "num_reads": ss.params.num_reads,
            "sweeps": ss.params.sweeps,
            "beta_range": list(ss.params.beta_range),
            "seed": ss.params.seed,
        },
        "samples": [
            {"energy": s.energy, "spins": _spin_string(s, qubits)} for s in ss.samples
        ],
    }
    return json.dumps(doc, indent=2)


def sampleset_from_json(text: str, pm: PhysicalModel = None) -> SampleSet:
    doc = json.loads(text)
    qubits = doc["qubits"]
    p = doc["params"]
    params = AnnealParams(p["num_reads"], p["sweeps"], tuple(p["beta_range"]), p["seed"])
    samples = tuple(
        PhysicalSample(
            {q: (1 if ch == "+" else -1) for q, ch in zip(qubits, rec["spins"])},
            rec["energy"],
        )
        for rec in doc["samples"]
    )
    return SampleSet(samples, params, pm)


def sampleset_to_csv(ss: SampleSet) -> str:
    qubits = ss.model.ising.variables()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["energy", "spins"])
    for s in ss.samples:
        writer.writerow([repr(s.energy), _spin_string(s, qubits)])
    return buf.getvalue()
