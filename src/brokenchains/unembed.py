"""Resolve chained-qubit samples into logical assignments.

``decompose`` turns one row of a sample set's spin array into a
``Readout``: the read's chains as columns (variables, values, broken flags
and fractions of ones) in ascending variable order, through the columns
``chain_columns`` assigns each chain.  It is the one place that decides
whether a chain is broken.  A ``Readout`` also iterates as one
``ChainReadout`` per chain, and ``Readout.of`` turns a list of
``ChainReadout`` records into columns; every repair method calls it first
and then reads the columns.  Three generic strategies work on any model
and return values in the model's domain, in ascending variable order:
majority vote and random weighting one list per read, minimize energy one
``(reads, variables)`` array for a whole set in a single call.  Four
problem-tailored algorithms use the instance graph to return a feasible
witness:

* ``unembed_max_clique`` grows the unbroken value-1 clique greedily by
  degree, preferring chains with more 1s on ties.
* ``unembed_max_cut`` places broken vertices, in seeded random order, on
  the side where they have fewer already-placed neighbors.
* ``unembed_graph_partitioning`` places them on the side with more placed
  neighbors (fewer cut edges) under a balance cap of floor(|V|/2); once
  one side reaches the cap the rest go to the other.
* ``unembed_vertex_cover`` forces neighbors of unbroken zeros into the
  cover, then drains remaining broken vertices by descending degree plus
  fraction of ones.

Only broken chains are ever resolved; values fixed by unbroken chains are
never revisited.

A witness is a vertex bitmask: the value-1 set of a clique or cover, the
plus side of a cut or partition.  Max clique, max cut and partitioning
work read by read on the instance graph's neighbourhood bitmasks
(``Graph.masks``): each read's intact and broken chains become vertex
masks, the candidate set, the sides and the cover are masks updated as
vertices are placed, and a degree within a set is one popcount.  The
vertex-cover drain runs for all reads of a set at once over ``(reads, n)``
arrays (``vertex_cover_rows``), and one read is the one-row case of it.
``unembed_tailored`` repairs a whole set and returns one boolean witness
row per read.  This is bookkeeping only: every witness is the one the
definitions above give.
"""

import itertools
from array import array
from dataclasses import dataclass

import numpy as np

from brokenchains.bqm import ISING, QUBO, BinaryQuadraticModel
from brokenchains.graphs import Graph, is_clique, vertices_of
from brokenchains.topology import ChainColumns


@dataclass(frozen=True)
class ChainReadout:
    """One chain of one read."""

    variable: int
    value: int  # value of the chain's first qubit, in the readout domain
    domain: str
    broken: bool
    frac_ones: float


@dataclass(frozen=True)
class Readout:
    """One read's chains as columns, in ascending variable order.

    Entry ``i`` of each list belongs to chain ``variables[i]``: ``values``
    holds its first qubit's value in ``domain``, ``broken`` whether its
    qubits disagree, ``frac_ones`` the fraction of them at 1 / +1.
    ``len`` is the number of chains, and iterating yields one
    ``ChainReadout`` per chain.
    """

    variables: tuple
    values: list
    broken: list
    frac_ones: list
    domain: str

    def __len__(self):
        return len(self.variables)

    def __iter__(self):
        domain = self.domain
        for v, x, b, f in zip(self.variables, self.values, self.broken, self.frac_ones):
            yield ChainReadout(v, x, domain, b, f)

    @classmethod
    def of(cls, readouts) -> "Readout":
        """``readouts`` as columns: a ``Readout`` is returned unchanged, an
        iterable of ``ChainReadout`` records is sorted by variable.  An empty
        iterable has domain ``None``; ``ValueError`` on mixed domains."""
        if isinstance(readouts, Readout):
            return readouts
        chains = sorted(readouts, key=lambda r: r.variable)
        domains = {r.domain for r in chains}
        if len(domains) > 1:
            raise ValueError(f"readouts mix the domains {sorted(domains)}")
        return cls(
            tuple(r.variable for r in chains),
            [r.value for r in chains],
            [r.broken for r in chains],
            [r.frac_ones for r in chains],
            domains.pop() if domains else None,
        )


@dataclass(frozen=True)
class UnembedContext:
    """Instance data for the tailored algorithms: graph, problem kind, and
    the read's generator.

    Max cut and partitioning draw their visiting order, and max cut its
    coin for an even chain, from ``rng``; one context serves one read, as
    its draws advance the generator.  Max clique and vertex cover draw
    nothing, and ``rng`` may be ``None`` for them.
    """

    graph: Graph
    problem: str
    rng: np.random.Generator


def decompose(spins, chains: ChainColumns, domain: str = ISING) -> Readout:
    """The chains of one read as a ``Readout``, values mapped into ``domain``.

    ``spins`` is one row of a sample set's spin array and ``chains`` the
    embedding laid over its columns by ``chain_columns``.  A chain is
    broken when some but not all of its qubits are at +1.
    """
    if domain not in (ISING, QUBO):
        raise ValueError(f"unknown domain {domain!r}")
    high = spins[chains.columns] > 0
    ones = np.add.reduceat(high, chains.starts)
    return Readout(
        chains.variables,
        np.where(high[chains.starts], 1, 0 if domain == QUBO else -1).tolist(),
        ((ones > 0) & (ones < chains.lengths)).tolist(),
        (ones / chains.lengths).tolist(),  # the IEEE quotient k / n of each chain
        domain,
    )


def majority_vote(readouts) -> list:
    """Per chain, the most common value; exact ties go to 1 / +1.

    One value per chain, in ascending variable order.
    """
    r = Readout.of(readouts)
    zero = 0 if r.domain == QUBO else -1
    return [1 if f >= 0.5 else zero for f in r.frac_ones]


def random_weighted(readouts, rng: np.random.Generator) -> list:
    """Broken chains draw 1 / +1 with probability equal to their fraction of ones.

    Unbroken chains keep their value; one value per chain, in ascending
    variable order.  One uniform is drawn from ``rng`` per broken chain in
    ascending variable order, so the result is a pure function of the
    generator's state; the k uniforms of a read come from one
    ``rng.random(k)`` call, which gives the values of k calls for one
    uniform each.
    """
    r = Readout.of(readouts)
    zero = 0 if r.domain == QUBO else -1
    draws = iter(rng.random(sum(r.broken)).tolist())
    return [
        (1 if next(draws) < f else zero) if b else x
        for x, b, f in zip(r.values, r.broken, r.frac_ones)
    ]


def _stack(reads, variables: tuple, domain=None):
    """The ``values``, ``broken`` and ``frac_ones`` columns of every read
    as ``(reads, len(variables))`` float64, bool and float64 arrays.

    ``reads`` is consumed once, and each read's columns are copied into
    flat buffers as it passes, so no read's lists outlive it.
    ``ValueError`` unless every read covers exactly ``variables``, or, when
    ``domain`` is given, when a read with chains is in another domain.
    """
    values, broken, frac = array("d"), array("b"), array("d")
    count = 0
    for readouts in reads:
        r = Readout.of(readouts)
        if r.variables != variables:
            raise ValueError("readouts must cover exactly the model variables")
        if domain is not None and variables and r.domain != domain:
            raise ValueError(f"readouts must be in the {domain} domain, not {r.domain}")
        values.extend(r.values)
        broken.extend(r.broken)
        frac.extend(r.frac_ones)
        count += 1
    shape = (count, len(variables))
    return (
        np.frombuffer(values, np.float64).reshape(shape),
        np.frombuffer(broken, np.bool_).reshape(shape),
        np.frombuffer(frac, np.float64).reshape(shape),
    )


def minimize_energy(reads, logical_model: BinaryQuadraticModel) -> np.ndarray:
    """Greedy chain repair by largest energy swing first, for every read of a set.

    ``reads`` is an iterable of per-read readouts (a ``Readout`` or a list
    of ``ChainReadout`` records), consumed once; the result is an int8
    ``(reads, variables)`` array of values, row ``r`` for read ``r`` and
    columns in ascending variable order.

    With the unbroken chains fixed, each broken chain i gets the partial
    model values v_i(low), v_i(high) obtained by adding chain i at its low
    or high value to the determined set; its priority is
    v0 - min(v_i(low), v_i(high)).  Chains are fixed in decreasing priority
    (ties to the lowest variable id), taking the low value (0 / -1) when
    v_i(low) <= v_i(high), and all remaining priorities are recomputed over
    the enlarged determined set after every fix.

    All reads run together over ``(reads, variables)`` arrays.  Each
    chain's coupling to the determined set receives its additions in the
    order a read-by-read greedy makes them (quadratic terms in model order,
    then one per fix), so read ``r``'s result does not depend on which
    other reads share the call.
    """
    variables = tuple(sorted(logical_model.linear))
    value, undecided, _ = _stack(reads, variables)
    shape = value.shape

    # coupling of each undecided chain to the determined set, summed term by
    # term in model order; an undecided neighbour adds a signed zero
    position = {v: i for i, v in enumerate(variables)}
    fixed = np.where(undecided, 0.0, value)
    coupling = np.repeat(
        np.array([logical_model.linear[v] for v in variables])[None, :], shape[0], axis=0
    )
    j_dense = np.zeros((shape[1], shape[1]))
    for (u, v), c in logical_model.quadratic.items():
        i, j = position[u], position[v]
        j_dense[i, j] = j_dense[j, i] = c
        coupling[:, i] += c * fixed[:, j]
        coupling[:, j] += c * fixed[:, i]

    ising = logical_model.domain == ISING
    low = -1 if ising else 0
    rows = np.flatnonzero(undecided.any(axis=1))
    while rows.size:
        c_rows = coupling[rows]
        # v0 - min over the two completions of the partial model value
        priority = np.abs(c_rows) if ising else np.maximum(0.0, -c_rows)
        priority[~undecided[rows]] = -1.0
        best = priority.argmax(axis=1)  # first maximum: the lowest variable id
        # v_low <= v_high reduces to c >= 0 in both domains
        chosen = np.where(c_rows[np.arange(rows.size), best] >= 0, low, 1)
        value[rows, best] = chosen
        undecided[rows, best] = False
        # fixing a chain only shifts the coupling of its neighbours, which is
        # exactly the recomputation the full-model definition prescribes
        coupling[rows] += j_dense[best] * chosen[:, None]
        rows = rows[undecided[rows].any(axis=1)]
    return value.astype(np.int8)


def _split(readouts, ctx: UnembedContext, domain: str, algorithm: str):
    """One read as bitmasks over ``ctx.graph``: its intact chains of value 1,
    its other intact chains and its broken chains, plus each variable's
    fraction of ones.  ``ValueError`` on another domain or a variable that
    is not a vertex."""
    r = Readout.of(readouts)
    if r.variables and r.domain != domain:
        raise ValueError(f"{algorithm} expects {domain} readouts")
    high, low, broken = [], [], []
    for v, x, b in zip(r.variables, r.values, r.broken):
        if b:
            broken.append(v)
        elif x == 1:
            high.append(v)
        else:
            low.append(v)
    g = ctx.graph
    frac = dict(zip(r.variables, r.frac_ones))
    return g.mask_of(high), g.mask_of(low), g.mask_of(broken), frac


def unembed_max_clique(readouts, ctx: UnembedContext) -> int:
    """Greedy clique growth from the unbroken value-1 core; the clique's
    vertex bitmask.

    If the unbroken 1-set is not a clique the empty clique (0) is returned.
    Otherwise broken vertices adjacent to the whole current clique are
    candidates; the highest degree within the candidate set wins, then the
    highest fraction of ones, then the lowest id.

    The candidates are one bitmask: the broken vertices ANDed with the
    neighbourhood mask of every core vertex, then with that of each pick,
    so a candidate's degree is one popcount.
    """
    clique, _, broken, frac = _split(readouts, ctx, QUBO, "unembed_max_clique")
    g = ctx.graph
    core = vertices_of(clique)
    if not is_clique(g, core):
        return 0
    candidates = broken
    for u in core:
        candidates &= g.masks[u]
    while candidates:
        pick = max(
            vertices_of(candidates),
            key=lambda x: ((g.masks[x] & candidates).bit_count(), frac[x], -x),
        )
        clique |= 1 << pick
        candidates &= g.masks[pick]
    return clique


def _majority_side(frac_ones: float):
    """-1, +1, or None when the chain holds both values equally often."""
    if frac_ones > 0.5:
        return 1
    if frac_ones < 0.5:
        return -1
    return None


def unembed_max_cut(readouts, ctx: UnembedContext) -> int:
    """Place broken vertices on the side holding fewer placed neighbors;
    the plus side's vertex bitmask.

    Broken vertices are visited in seeded random order; degree ties follow
    the chain's majority value, and an even chain falls to a seeded coin.
    Each side is a bitmask of its placed vertices, so a vertex's placed
    neighbours on a side are one popcount.
    """
    plus, minus, broken, frac = _split(readouts, ctx, ISING, "unembed_max_cut")
    masks = ctx.graph.masks
    rng = ctx.rng
    for x in rng.permutation(vertices_of(broken)).tolist():
        deg_minus = (masks[x] & minus).bit_count()
        deg_plus = (masks[x] & plus).bit_count()
        if deg_minus != deg_plus:
            side = -1 if deg_minus < deg_plus else 1
        else:
            side = _majority_side(frac[x])
            if side is None:
                side = 1 if rng.random() < 0.5 else -1
        if side == -1:
            minus |= 1 << x
        else:
            plus |= 1 << x
    return plus


def unembed_graph_partitioning(readouts, ctx: UnembedContext) -> int:
    """Balanced variant of the cut placement; the plus side's vertex bitmask.

    Each broken vertex, visited in seeded random order, goes to the side
    that minimizes its cut contribution, i.e. the side already holding more
    of its placed neighbors.  Placement stops as soon as one side has
    reached floor(|V|/2) vertices; every still-unplaced broken vertex then
    goes to the smaller side.  Full ties during placement prefer the
    smaller side (minus side when equal).  The partition can still be
    unbalanced when the intact chains already are; the scorers say so.

    Sides are bitmasks as in ``unembed_max_cut``, and their sizes are two
    counters that each placement increments.
    """
    plus, minus, broken, frac = _split(readouts, ctx, ISING, "unembed_graph_partitioning")
    masks = ctx.graph.masks
    cap = ctx.graph.n // 2
    n_minus, n_plus = minus.bit_count(), plus.bit_count()
    rng = ctx.rng
    order = rng.permutation(vertices_of(broken)).tolist()
    placed = 0
    while placed < len(order) and n_minus < cap and n_plus < cap:
        x = order[placed]
        placed += 1
        deg_minus = (masks[x] & minus).bit_count()
        deg_plus = (masks[x] & plus).bit_count()
        if deg_minus != deg_plus:
            side = -1 if deg_minus > deg_plus else 1
        else:
            side = _majority_side(frac[x])
            if side is None:
                side = -1 if n_minus <= n_plus else 1
        if side == -1:
            minus |= 1 << x
            n_minus += 1
        else:
            plus |= 1 << x
            n_plus += 1
    rest = sum(1 << x for x in order[placed:])
    if n_minus <= n_plus:
        minus |= rest
    else:
        plus |= rest
    return plus


def vertex_cover_rows(reads, graph: Graph) -> np.ndarray:
    """Cover completion from the unbroken core, for every read of a set:
    one boolean ``(reads, n)`` row per read, True on the cover.

    Every read must cover exactly the vertices ``0..n-1`` in the QUBO
    domain.  An edge between two unbroken zeros is uncoverable without
    revisiting fixed values, so such a read gets the trivial all-vertices
    cover.  Broken neighbors of zeros are forced into the cover; the rest
    drain by descending degree-within-remaining plus fraction of ones
    (ties to the lowest id), joining the cover exactly when they touch a
    zero.

    All reads drain together, as ``minimize_energy``'s greedy does: each
    step takes, in every read with vertices left, the first argmax of its
    drain keys, and subtracts that vertex's adjacency row from the read's
    degrees and, when it became a zero, adds it to its zero-neighbour
    counts.  Degrees are whole numbers in float64, so each key is the
    float sum the one-read definition gives, and no read's step depends on
    another's.
    """
    value, broken, frac = _stack(reads, tuple(graph.vertices()), QUBO)
    adjacency = np.zeros((graph.n, graph.n))
    for u, v in graph.edges:
        adjacency[u, v] = adjacency[v, u] = 1.0
    zero = ~broken & (value != 1)
    cover = ~broken & (value == 1)
    zero_neighbours = zero @ adjacency
    touches_zero = zero_neighbours > 0
    uncoverable = (zero & touches_zero).any(axis=1)
    cover |= broken & touches_zero
    remaining = broken & ~touches_zero & ~uncoverable[:, None]
    degree = remaining @ adjacency
    rows = np.flatnonzero(remaining.any(axis=1))
    while rows.size:
        key = degree[rows] + frac[rows]
        key[~remaining[rows]] = -1.0
        drained = key.argmax(axis=1)  # first maximum: the lowest id
        remaining[rows, drained] = False
        degree[rows] -= adjacency[drained]
        joins = zero_neighbours[rows, drained] > 0
        cover[rows[joins], drained[joins]] = True
        zero_neighbours[rows[~joins]] += adjacency[drained[~joins]]
        rows = rows[remaining[rows].any(axis=1)]
    cover[uncoverable] = True
    return cover


def unembed_vertex_cover(readouts, ctx: UnembedContext) -> int:
    """The cover of one read, as a vertex bitmask: the one-read case of
    ``vertex_cover_rows``."""
    (row,) = vertex_cover_rows([readouts], ctx.graph)
    return ctx.graph.mask_of(np.flatnonzero(row).tolist())


TAILORED = {
    "max_clique": unembed_max_clique,
    "max_cut": unembed_max_cut,
    "graph_partitioning": unembed_graph_partitioning,
    "min_vertex_cover": unembed_vertex_cover,
}


def witness_rows(masks, n: int) -> np.ndarray:
    """Vertex bitmasks as one boolean ``(len(masks), n)`` array: entry
    ``[r, v]`` is bit ``v`` of ``masks[r]``, unpacked in one step."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(
        packed.reshape(len(masks), width), axis=1, count=n, bitorder="little"
    ).view(bool)


def unembed_tailored(reads, graph: Graph, problem: str, rngs) -> np.ndarray:
    """The tailored algorithm of ``problem`` for every read of a set: one
    boolean witness row per read, as ``witness_rows`` lays out masks.

    ``reads`` is consumed once.  ``rngs`` yields read ``r``'s generator in
    read order; only max cut and partitioning draw, so only they take one.
    The vertex cover runs as one ``vertex_cover_rows`` call.
    """
    try:
        algorithm = TAILORED[problem]
    except KeyError:
        raise ValueError(f"no tailored algorithm for problem {problem!r}")
    if problem == "min_vertex_cover":
        return vertex_cover_rows(reads, graph)
    if problem == "max_clique":
        rngs = itertools.repeat(None)
    masks = [algorithm(r, UnembedContext(graph, problem, rng)) for r, rng in zip(reads, rngs)]
    return witness_rows(masks, graph.n)
