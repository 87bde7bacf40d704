"""Resolve chained-qubit samples into logical assignments.

``decompose`` splits a physical sample into per-chain readouts and is the
one place that decides whether a chain is broken.  Three generic
strategies (majority vote, random weighted, minimize energy) work on any
model and return a ``{variable: value}`` assignment; four problem-tailored
algorithms use the instance graph to return a feasible witness:

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
"""

from dataclasses import dataclass

from brokenchains.bqm import ISING, QUBO, BinaryQuadraticModel
from brokenchains.graphs import Bipartition, Graph, is_clique
from brokenchains.sampler import PhysicalSample
from brokenchains.seeding import rng_from
from brokenchains.topology import Embedding


@dataclass(frozen=True)
class ChainReadout:
    variable: int
    values: tuple  # physical values in chain order, in the readout domain
    domain: str
    broken: bool
    frac_ones: float

    def zero_value(self) -> int:
        return 0 if self.domain == QUBO else -1

    def unbroken_value(self) -> int:
        return self.values[0]

    def majority_value(self) -> int:
        """Most common chain value; exact ties resolve to 1 / +1."""
        return 1 if self.frac_ones >= 0.5 else self.zero_value()


@dataclass(frozen=True)
class UnembedContext:
    """Instance data for the tailored algorithms: graph, problem kind, tie seed."""

    graph: Graph
    problem: str
    seed: int = 0


def decompose(s: PhysicalSample, e: Embedding, domain: str = ISING):
    """One readout per logical variable, values mapped into ``domain``."""
    readouts = []
    for v in e.variables():
        raw = []
        for q in e.chain(v):
            if q not in s.spins:
                raise ValueError(f"sample missing qubit {q} of chain {v}")
            raw.append(s.spins[q])
        ones = sum(1 for x in raw if x > 0)
        if domain == QUBO:
            values = tuple((x + 1) // 2 for x in raw)
        elif domain == ISING:
            values = tuple(raw)
        else:
            raise ValueError(f"unknown domain {domain!r}")
        readouts.append(
            ChainReadout(
                variable=v,
                values=values,
                domain=domain,
                broken=len(set(raw)) > 1,
                frac_ones=ones / len(raw),
            )
        )
    return readouts


def broken_variables(readouts):
    return [r.variable for r in readouts if r.broken]


def majority_vote(readouts) -> dict:
    """Per chain, the most common value; exact ties go to 1 / +1."""
    return {r.variable: r.majority_value() for r in readouts}


def random_weighted(readouts, seed: int) -> dict:
    """Broken chains draw 1 / +1 with probability equal to their fraction of ones.

    Unbroken chains keep their value.  One uniform is consumed per broken
    chain in ascending variable order, so the draw is a pure function of
    the seed.
    """
    rng = rng_from(seed)
    values = {}
    for r in sorted(readouts, key=lambda r: r.variable):
        if not r.broken:
            values[r.variable] = r.unbroken_value()
        else:
            hit = rng.random() < r.frac_ones
            values[r.variable] = 1 if hit else r.zero_value()
    return values


def minimize_energy(readouts, logical_model: BinaryQuadraticModel) -> dict:
    """Greedy chain repair by largest energy swing first.

    With the unbroken chains fixed, each broken chain i gets the partial
    model values v_i(low), v_i(high) obtained by adding chain i at its low
    or high value to the determined set; its priority is
    v0 - min(v_i(low), v_i(high)).  Chains are fixed in decreasing priority
    (ties to the lowest variable id), taking the low value (0 / -1) when
    v_i(low) <= v_i(high), and all remaining priorities are recomputed over
    the enlarged determined set after every fix.
    """
    by_var = {r.variable: r for r in readouts}
    model_vars = set(logical_model.linear)
    if model_vars != set(by_var):
        raise ValueError("model variables do not match readout variables")
    low = -1 if logical_model.domain == ISING else 0

    values = {
        r.variable: r.unbroken_value() for r in readouts if not r.broken
    }
    undecided = sorted(v for v in by_var if by_var[v].broken)

    # coupling of each undecided variable to the determined set; fixing a
    # chain only shifts the coupling of its undecided neighbors, which is
    # exactly the recomputation the full-model definition prescribes
    coupling = {v: logical_model.linear[v] for v in undecided}
    neighbors = {v: [] for v in undecided}
    for (u, v), c in logical_model.quadratic.items():
        if u in coupling and v in coupling:
            neighbors[u].append((v, c))
            neighbors[v].append((u, c))
        elif u in coupling:
            coupling[u] += c * values[v]
        elif v in coupling:
            coupling[v] += c * values[u]

    def priority(v):
        # v0 - min over the two completions of the partial model value
        c = coupling[v]
        if logical_model.domain == ISING:
            return abs(c)
        return max(0.0, -c)

    while undecided:
        best = max(undecided, key=lambda v: (priority(v), -v))
        c = coupling.pop(best)
        # v_low <= v_high reduces to c >= 0 in both domains
        value = low if c >= 0 else 1
        values[best] = value
        undecided.remove(best)
        for nb, j in neighbors[best]:
            if nb in coupling:
                coupling[nb] += j * value
    return values


def _require_domain(readouts, domain: str, algorithm: str):
    for r in readouts:
        if r.domain != domain:
            raise ValueError(f"{algorithm} expects {domain} readouts")


def unembed_max_clique(readouts, ctx: UnembedContext) -> frozenset:
    """Greedy clique growth from the unbroken value-1 core.

    If the unbroken 1-set is not a clique the empty clique is returned.
    Otherwise broken vertices adjacent to the whole current clique are
    candidates; the highest degree within the candidate set wins, then the
    highest fraction of ones, then the lowest id.
    """
    _require_domain(readouts, QUBO, "unembed_max_clique")
    g = ctx.graph
    by_var = {r.variable: r for r in readouts}
    clique = {r.variable for r in readouts if not r.broken and r.unbroken_value() == 1}
    if not is_clique(g, clique):
        return frozenset()
    broken = set(broken_variables(readouts))
    while broken:
        candidates = [
            x for x in broken if all(g.has_edge(x, u) for u in clique)
        ]
        if not candidates:
            break
        cand_set = set(candidates)
        degree_in = {x: len(g.neighbors(x) & cand_set) for x in candidates}
        top = max(degree_in.values())
        pool = [x for x in candidates if degree_in[x] == top]
        pick = max(pool, key=lambda x: (by_var[x].frac_ones, -x))
        broken.remove(pick)
        clique.add(pick)
    return frozenset(clique)


def _majority_side(readout: ChainReadout):
    """-1, +1, or None when the chain holds both values equally often."""
    if readout.frac_ones > 0.5:
        return 1
    if readout.frac_ones < 0.5:
        return -1
    return None


def unembed_max_cut(readouts, ctx: UnembedContext) -> Bipartition:
    """Place broken vertices on the side holding fewer placed neighbors.

    Broken vertices are visited in seeded random order; degree ties follow
    the chain's majority value, and an even chain falls to a seeded coin.
    """
    _require_domain(readouts, ISING, "unembed_max_cut")
    g = ctx.graph
    by_var = {r.variable: r for r in readouts}
    side = {
        r.variable: r.unbroken_value() for r in readouts if not r.broken
    }
    rng = rng_from(ctx.seed)
    order = rng.permutation(sorted(broken_variables(readouts)))
    for x in order:
        x = int(x)
        placed = [u for u in g.neighbors(x) if u in side]
        deg_minus = sum(1 for u in placed if side[u] == -1)
        deg_plus = len(placed) - deg_minus
        if deg_minus < deg_plus:
            side[x] = -1
        elif deg_plus < deg_minus:
            side[x] = 1
        else:
            majority = _majority_side(by_var[x])
            if majority is not None:
                side[x] = majority
            else:
                side[x] = 1 if rng.random() < 0.5 else -1
    return Bipartition(
        side_minus=frozenset(v for v, s in side.items() if s == -1),
        side_plus=frozenset(v for v, s in side.items() if s == 1),
    )


def unembed_graph_partitioning(readouts, ctx: UnembedContext) -> Bipartition:
    """Balanced variant of the cut placement.

    Each broken vertex, visited in seeded random order, goes to the side
    that minimizes its cut contribution, i.e. the side already holding more
    of its placed neighbors.  Placement stops as soon as one side has
    reached floor(|V|/2) vertices; every still-unplaced broken vertex then
    goes to the smaller side.  Full ties during placement prefer the
    smaller side (minus side when equal).  The partition can still be
    unbalanced when the intact chains already are; ``is_balanced`` says so.
    """
    _require_domain(readouts, ISING, "unembed_graph_partitioning")
    g = ctx.graph
    by_var = {r.variable: r for r in readouts}
    side = {r.variable: r.unbroken_value() for r in readouts if not r.broken}
    cap = g.n // 2

    def size(s):
        return sum(1 for v in side.values() if v == s)

    rng = rng_from(ctx.seed)
    order = [int(x) for x in rng.permutation(sorted(broken_variables(readouts)))]
    remaining = list(order)
    while remaining and size(-1) < cap and size(1) < cap:
        x = remaining.pop(0)
        placed = [u for u in g.neighbors(x) if u in side]
        deg_minus = sum(1 for u in placed if side[u] == -1)
        deg_plus = len(placed) - deg_minus
        if deg_minus > deg_plus:
            side[x] = -1
        elif deg_plus > deg_minus:
            side[x] = 1
        else:
            majority = _majority_side(by_var[x])
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


def unembed_vertex_cover(readouts, ctx: UnembedContext) -> frozenset:
    """Cover completion from the unbroken core.

    An edge between two unbroken zeros is uncoverable without revisiting
    fixed values, so the trivial all-vertices cover is returned.  Broken
    neighbors of zeros are forced into the cover; the rest drain by
    descending degree-within-remaining plus fraction of ones (ties to the
    lowest id), joining the cover exactly when they touch a zero.
    """
    _require_domain(readouts, QUBO, "unembed_vertex_cover")
    g = ctx.graph
    by_var = {r.variable: r for r in readouts}
    cover = {r.variable for r in readouts if not r.broken and r.unbroken_value() == 1}
    zeros = {r.variable for r in readouts if not r.broken and r.unbroken_value() == 0}
    for u, v in g.edges:
        if u in zeros and v in zeros:
            return frozenset(g.vertices())
    remaining = set(broken_variables(readouts))
    forced = {x for x in remaining if g.neighbors(x) & zeros}
    cover |= forced
    remaining -= forced
    while remaining:
        v = max(
            remaining,
            key=lambda v: (len(g.neighbors(v) & remaining) + by_var[v].frac_ones, -v),
        )
        remaining.remove(v)
        if g.neighbors(v) & zeros:
            cover.add(v)
        else:
            zeros.add(v)
    return frozenset(cover)


TAILORED = {
    "max_clique": unembed_max_clique,
    "max_cut": unembed_max_cut,
    "graph_partitioning": unembed_graph_partitioning,
    "min_vertex_cover": unembed_vertex_cover,
}


def unembed_tailored(readouts, ctx: UnembedContext):
    """Dispatch to the tailored algorithm for ``ctx.problem``."""
    try:
        algorithm = TAILORED[ctx.problem]
    except KeyError:
        raise ValueError(f"no tailored algorithm for problem {ctx.problem!r}")
    return algorithm(readouts, ctx)
