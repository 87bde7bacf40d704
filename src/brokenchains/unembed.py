"""Resolve chained-qubit samples into logical assignments.

``decompose_set`` turns a sample set's whole ``(reads, qubits)`` spin
array, in one pass, into one ``ReadoutSet`` of ``(reads, chains)``
arrays; it is the one place that decides whether a chain is broken.  The
set is the one input of every repair method, and one read is a one-row
set, ``decompose_set(spins[None], chains)``.  ``decompose``, the one-row
case as a list of ``ChainReadout`` records, is called by no experiment:
it is kept only because the perf harness wraps it by name on ``bench``
and ``cli`` and counts chains from its records.  Every repair method
returns one boolean witness row per read, True on a chain whose repaired
first qubit is at +1: the value-1 set of a clique or cover, or the plus
side of a cut or partition.  Values fixed by unbroken chains are never
revisited.

The greedy algorithms run all reads at once: each step takes, in every
read, what the one-read definition takes next, so no read depends on the
others.  They read the graph's read-only ``adjacency`` matrix, whose
dummy vertex ``n`` is coupled to nothing: a read with nothing left takes
that column, appended past the last variable, so no step drops finished
rows.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from brokenchains.bqm import ISING, QUBO, BinaryQuadraticModel
from brokenchains.graphs import Graph
from brokenchains.topology import Embedding


@dataclass(frozen=True)
class ChainReadout:
    """One chain of one read."""

    variable: int
    value: int  # value of the chain's first qubit, in the readout domain
    domain: str
    broken: bool
    frac_ones: float


@dataclass(frozen=True, eq=False)
class ReadoutSet:
    """Every read of a sample set as ``(reads, chains)`` arrays, row ``r``
    for read ``r`` and column ``i`` for chain ``ids[i]`` of the embedding's
    read-only ``ids``: bool ``high``, its first qubit at +1 (value 1 in a
    QUBO); bool ``broken``, its qubits disagree; float64 ``frac_ones``, the
    share of them at +1.  ``len`` is the number of reads; no method writes."""

    ids: np.ndarray
    high: np.ndarray
    broken: np.ndarray
    frac_ones: np.ndarray

    def __len__(self):
        return len(self.high)


def decompose_set(spins, chains: Embedding) -> ReadoutSet:
    """Every read of a sample set as one ``ReadoutSet``: the one place that
    decides whether a chain is broken.

    ``spins`` is the set's ``(reads, qubits)`` spin array and ``chains`` the
    embedding over its columns that ``chain_columns`` gives.  A chain is
    broken when some but not all of its qubits are at +1.  ``ValueError`` on
    an array that is not 2-D, or naming the first empty chain.
    """
    spins = np.asarray(spins)
    if spins.ndim != 2:
        raise ValueError(f"spins must be a 2-D (reads, qubits) array, not {spins.ndim}-D")
    if not chains.lengths.all():
        raise ValueError(f"chain {chains.ids[np.argmin(chains.lengths)]} is empty")
    high = spins[:, chains.qubits] > 0
    ones = np.add.reduceat(high, chains.starts, axis=1)
    return ReadoutSet(
        chains.ids,
        high[:, chains.starts],
        (ones > 0) & (ones < chains.lengths),
        ones / chains.lengths,  # the IEEE quotient k / n of each chain
    )


def decompose(spins, chains: Embedding, domain: str = ISING) -> list:
    """``decompose_set`` of the one row ``spins`` as ``ChainReadout`` records
    in ascending variable order, a high chain valued 1 in ``domain``."""
    if domain not in (ISING, QUBO):
        raise ValueError(f"unknown domain {domain!r}")
    low = 0 if domain == QUBO else -1
    rs = decompose_set(np.asarray(spins)[None], chains)
    return [
        ChainReadout(v, 1 if x else low, domain, b, f)
        for v, x, b, f in zip(
            rs.ids.tolist(), rs.high[0].tolist(), rs.broken[0].tolist(), rs.frac_ones[0].tolist()
        )
    ]


def _generators(rngs, reads: int) -> list:
    """The first ``reads`` generators of ``rngs``, one per read in read
    order; ``ValueError`` naming the first read without one."""
    generators = list(itertools.islice(rngs, reads))
    if len(generators) < reads:
        raise ValueError(f"read {len(generators)} has no generator")
    return generators


def majority_vote(rs: ReadoutSet) -> np.ndarray:
    """Per chain, the most common side; exact ties go high.  One boolean
    row per read, in ascending variable order."""
    return rs.frac_ones >= 0.5


def random_weighted(rs: ReadoutSet, rngs) -> np.ndarray:
    """Broken chains draw high with probability equal to their fraction of
    ones; unbroken chains keep their side.  One boolean row per read.

    ``rngs`` yields read ``r``'s generator in read order, one for every
    read (``ValueError`` naming the first read without one).  Read ``r`` draws one uniform per broken chain in ascending
    variable order, in one ``rng.random`` call (the values of one call per
    chain), so its row is a pure function of its generator's state.
    """
    generators = _generators(rngs, len(rs))
    broken = rs.broken
    counts = broken.sum(axis=1)
    ends = np.cumsum(counts)
    draws = np.empty(counts.sum())
    for start, end, rng in zip((ends - counts).tolist(), ends.tolist(), generators):
        rng.random(out=draws[start:end])
    out = rs.high.copy()
    # a boolean mask visits cells row by row, so read r's draws fill its
    # broken chains in ascending variable order
    out[broken] = draws < rs.frac_ones[broken]
    return out


def _with_dummy(columns: np.ndarray, fill) -> np.ndarray:
    """``columns`` with the dummy column, set to ``fill``, appended."""
    return np.concatenate([columns, np.full((len(columns), 1), fill, columns.dtype)], axis=1)


def _key_mask(active: np.ndarray) -> np.ndarray:
    """Added to keys >= 0, a row's argmax is its best active cell, or the
    dummy when none is left: 0 on ``active`` cells, -inf elsewhere, -1 on
    the dummy.  Each pick sets its cell to -inf and the dummy back to -1."""
    return _with_dummy(np.where(active, 0.0, -np.inf), -1.0)


def minimize_energy(rs: ReadoutSet, logical_model: BinaryQuadraticModel) -> np.ndarray:
    """Greedy chain repair by largest energy swing first, row by row.

    ``rs`` must be over the model's variables (``ValueError`` otherwise);
    one boolean row per read.  High chains count as 1, low ones as 0 (QUBO) or -1 (Ising).

    With the unbroken chains fixed, each broken chain i gets the partial
    model values v_i(low), v_i(high) obtained by adding chain i at its low
    or high value to the determined set; its priority is
    v0 - min(v_i(low), v_i(high)).  Chains are fixed in decreasing priority
    (ties to the lowest variable id), taking the low value (0 / -1) when
    v_i(low) <= v_i(high), and all remaining priorities are recomputed over
    the enlarged determined set after every fix.  Each chain's coupling
    receives its additions in the order a one-read greedy makes them
    (quadratic terms in model order, then one per fix).
    """
    if not np.array_equal(rs.ids, logical_model.ids):
        raise ValueError("variables are not the model variables")
    m = len(rs.ids)
    ising = logical_model.domain == ISING
    low = -1 if ising else 0
    i, j = logical_model.positions().T
    c = logical_model.j
    # term (i, j, c) adds c * fixed[j] to column i and c * fixed[i] to
    # column j; an undecided neighbour adds a signed zero.  Round k adds
    # every column's k-th term at once, keeping each column's order.
    target, source, coef = np.stack([i, j], 1).ravel(), np.stack([j, i], 1).ravel(), c.repeat(2)
    order = np.argsort(target, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.searchsorted(target[order], target[order])
    fixed = np.where(rs.broken, 0.0, np.where(rs.high, 1, low))
    coupling = np.tile(np.append(logical_model.h, 0.0), (len(rs), 1))
    for k in range(int(rank.max(initial=-1)) + 1):
        now = rank == k
        coupling[:, target[now]] += coef[now] * fixed[:, source[now]]
    j_dense = np.zeros((m + 1, m + 1))  # the dummy's row is zero
    j_dense[i, j] = j_dense[j, i] = c

    value, mask = _with_dummy(rs.high, False), _key_mask(rs.broken)
    every = np.arange(len(rs))
    for _ in range(int(rs.broken.sum(axis=1).max(initial=0))):
        # v0 - min over the two completions of the partial model value
        priority = np.abs(coupling) if ising else np.maximum(0.0, -coupling)
        best = (priority + mask).argmax(axis=1)  # first maximum: the lowest variable id
        # v_low <= v_high reduces to c >= 0 for QUBO and Ising alike
        chosen = np.where(coupling[every, best] >= 0, low, 1)
        value[every, best] = chosen == 1
        mask[every, best] = -np.inf
        mask[:, m] = -1.0
        # fixing a chain only shifts the coupling of its neighbours, which is
        # exactly the recomputation the full-model definition prescribes
        coupling += j_dense[best] * chosen[:, None]
    return value[:, :m]


def require_vertices(rs: ReadoutSet, graph: Graph):
    """``ValueError`` unless ``rs`` is over the vertices ``0..n-1`` of ``graph``."""
    if not np.array_equal(rs.ids, graph.vertices()):
        raise ValueError(f"variables are not the vertices 0..{graph.n - 1}")


def max_clique_rows(rs: ReadoutSet, graph: Graph) -> np.ndarray:
    """Greedy clique growth from the unbroken value-1 core, row by row.

    A read whose unbroken 1-set is not a clique gets the empty row.
    Otherwise broken vertices adjacent to the whole current clique are
    candidates; the highest degree within the candidate set wins, then the
    highest fraction of ones, then the lowest id.  With ``k`` core vertices,
    ``core @ A`` counts each vertex's core neighbours: the core is a clique
    when each member has ``k - 1``, and the candidates are the broken
    vertices with ``k``.
    """
    require_vertices(rs, graph)
    a = graph.adjacency
    core = _with_dummy(~rs.broken & rs.high, False)
    size = core.sum(axis=1, keepdims=True)
    core_neighbours = core @ a
    is_clique = ~(core & (core_neighbours != size - 1)).any(axis=1, keepdims=True)
    clique = core & is_clique
    candidates = _with_dummy(rs.broken, False) & (core_neighbours == size) & is_clique
    frac = _with_dummy(rs.frac_ones, -0.5)  # the dummy: above a non-candidate
    every = np.arange(len(rs))
    while candidates.any():
        degree = np.where(candidates, candidates @ a, -1.0)
        top = candidates & (degree == degree.max(axis=1, keepdims=True))
        top[:, graph.n] = True
        pick = np.where(top, frac, -1.0).argmax(axis=1)  # first maximum: lowest id
        clique[every, pick] = True
        candidates &= a[pick] > 0
    return clique[:, : graph.n]


def _placement(rs: ReadoutSet, graph: Graph, rngs):
    """Sides (+1 / -1 for intact chains, 0 to place), each read's visiting
    order ``rng.permutation(broken vertices)`` padded with the dummy, each
    chain's majority side (0 when even; never for the dummy) and the
    generators as a list."""
    rows, vertices = np.nonzero(rs.broken)
    counts = rs.broken.sum(axis=1)
    starts = np.cumsum(counts) - counts
    generators = _generators(rngs, len(rs))
    for start, end, rng in zip(starts.tolist(), (starts + counts).tolist(), generators):
        rng.shuffle(vertices[start:end])  # what permutation draws for a 1-d array
    order = np.full((len(rs), counts.max(initial=0)), graph.n)
    order[rows, np.arange(len(rows)) - starts.repeat(counts)] = vertices
    side = _with_dummy(np.where(rs.broken, 0.0, np.where(rs.high, 1.0, -1.0)), 0.0)
    majority = np.sign(_with_dummy(rs.frac_ones, 1.0) - 0.5)
    return side, order, majority, generators


def max_cut_rows(rs: ReadoutSet, graph: Graph, rngs) -> np.ndarray:
    """Place broken vertices on the side holding fewer placed neighbors.

    ``rngs`` yields read ``r``'s generator in read order, one for every
    read (``ValueError`` naming the first read without one); its broken
    vertices are visited in the generator's random order, degree ties follow
    the chain's majority value, and an even chain falls to a coin
    ``rng.random() < 0.5``, drawn only when needed.  Step t places every
    read's t-th vertex ``x``: ``(A[x] * side).sum(1)`` is its placed plus
    neighbours less its placed minus ones.
    """
    require_vertices(rs, graph)
    side, order, majority, rngs = _placement(rs, graph, rngs)
    a = graph.adjacency
    every = np.arange(len(rs))
    for x in order.T:
        choice = -np.sign((a[x] * side).sum(axis=1))
        choice = np.where(choice != 0, choice, majority[every, x])
        for r in np.flatnonzero(choice == 0).tolist():
            choice[r] = 1 if rngs[r].random() < 0.5 else -1
        side[every, x] = choice
    return side[:, : graph.n] == 1


def partitioning_rows(rs: ReadoutSet, graph: Graph, rngs) -> np.ndarray:
    """Balanced variant of the cut placement; the generators draw only the
    visiting order.

    Each broken vertex goes to the side already holding more of its placed
    neighbors (the smaller cut); full ties follow the majority value, then
    the smaller side (minus side when equal).  A read stops placing as soon
    as one of its sides holds floor(|V|/2) vertices, and its still-unplaced
    broken vertices go to its smaller side.  The partition can still be
    unbalanced when the intact chains already are; the scorers say so.
    """
    require_vertices(rs, graph)
    side, order, majority, _ = _placement(rs, graph, rngs)
    a = graph.adjacency
    n, cap = graph.n, graph.n // 2
    n_minus, n_plus = (side == -1).sum(axis=1), (side == 1).sum(axis=1)
    every = np.arange(len(rs))
    for x in order.T:
        placing = (n_minus < cap) & (n_plus < cap) & (x < n)
        choice = np.sign((a[x] * side).sum(axis=1))
        choice = np.where(choice != 0, choice, majority[every, x])
        choice = np.where(choice != 0, choice, np.where(n_minus <= n_plus, -1.0, 1.0))
        side[every, np.where(placing, x, n)] = choice
        n_minus += placing & (choice == -1)
        n_plus += placing & (choice == 1)
    smaller = np.where(n_minus <= n_plus, -1.0, 1.0)[:, None]
    return np.where(side[:, :n] == 0, smaller, side[:, :n]) == 1


def vertex_cover_rows(rs: ReadoutSet, graph: Graph) -> np.ndarray:
    """Cover completion from the unbroken core, row by row.

    An edge between two unbroken zeros is uncoverable without revisiting
    fixed values, so such a read gets the trivial all-vertices cover.
    Broken neighbors of zeros are forced into the cover; the rest drain by
    descending degree-within-remaining plus fraction of ones (ties to the
    lowest id), joining the cover exactly when they touch a zero.  Degrees
    are whole numbers in float64, so each key is the float sum the one-read
    definition gives.
    """
    require_vertices(rs, graph)
    a = graph.adjacency
    broken = _with_dummy(rs.broken, False)
    zero = ~broken & _with_dummy(~rs.high, False)
    cover = ~broken & _with_dummy(rs.high, False)
    zero_neighbours = zero @ a
    touches_zero = zero_neighbours > 0
    uncoverable = (zero & touches_zero).any(axis=1)
    cover |= broken & touches_zero
    remaining = broken & ~touches_zero & ~uncoverable[:, None]
    degree = remaining @ a
    frac = _with_dummy(rs.frac_ones, 0.0)
    mask = _key_mask(remaining[:, : graph.n])
    every = np.arange(len(rs))
    for _ in range(int(remaining.sum(axis=1).max(initial=0))):
        drained = (degree + frac + mask).argmax(axis=1)  # first maximum: the lowest id
        mask[every, drained] = -np.inf
        mask[:, graph.n] = -1.0
        neighbours = a[drained]
        degree -= neighbours
        joins = zero_neighbours[every, drained] > 0
        cover[every, drained] |= joins
        zero_neighbours += neighbours * ~joins[:, None]
    cover[uncoverable] = True
    return cover[:, : graph.n]


def unembed_tailored(rs: ReadoutSet, graph: Graph, problem: str, rngs) -> np.ndarray:
    """One boolean ``(reads, n)`` witness row per read from the tailored
    algorithm of ``problem``.  ``rngs`` yields read ``r``'s generator in read
    order; only max cut and partitioning draw, so only they take one."""
    if problem == "max_clique":
        return max_clique_rows(rs, graph)
    if problem == "min_vertex_cover":
        return vertex_cover_rows(rs, graph)
    if problem == "max_cut":
        return max_cut_rows(rs, graph, rngs)
    if problem == "graph_partitioning":
        return partitioning_rows(rs, graph, rngs)
    raise ValueError(f"no tailored algorithm for problem {problem!r}")
