import itertools
from dataclasses import dataclass, field

import numpy as np

from brokenchains.bqm import ISING, BinaryQuadraticModel
from brokenchains.graphs import Graph
from brokenchains.sampler import AnnealParams, SampleSet
from brokenchains.seeding import rng_from
from brokenchains.topology import PhysicalModel, identity_embedding
from brokenchains.unembed import ReadoutSet


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint vertex sets, the set-based form of a cut or partition
    witness that the reference implementations build and compare; a
    complete partition covers all vertices."""

    side_minus: frozenset = field(default_factory=frozenset)
    side_plus: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        overlap = set(self.side_minus) & set(self.side_plus)
        if overlap:
            raise ValueError(f"sides overlap on vertices {sorted(overlap)}")
        object.__setattr__(self, "side_minus", frozenset(self.side_minus))
        object.__setattr__(self, "side_plus", frozenset(self.side_plus))

    def is_complete_for(self, g: Graph) -> bool:
        return self.side_minus | self.side_plus == frozenset(g.vertices())

    def is_balanced(self) -> bool:
        return abs(len(self.side_minus) - len(self.side_plus)) <= 1


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n):
    return Graph(n, [])


def sample_set(rows, qubits):
    """A SampleSet over ``qubits`` holding ``rows``, one sequence of +-1 per read."""
    spins = np.array(rows, dtype=np.int8).reshape(-1, len(qubits))
    return SampleSet(
        tuple(qubits), spins, np.zeros(len(spins)), AnnealParams(num_reads=len(spins))
    )


def one_read(assignment, reads=1):
    """``reads`` copies of one ``{variable: spin}`` assignment as a SampleSet."""
    qubits = sorted(assignment)
    return sample_set([[assignment[q] for q in qubits]] * reads, qubits)


def spins_of(ss, read):
    """Read ``read`` of ``ss`` as a ``{qubit: spin}`` dict."""
    return dict(zip(ss.qubits, ss.spins[read].tolist()))


def spin_glass(hw, seed, scale=1.0):
    """A PhysicalModel with uniform [-1, 1) fields and couplers, times ``scale``,
    on every qubit and coupler of ``hw``, drawn from ``rng_from(seed)``."""
    rng = rng_from(seed)
    qubits, couplers = list(hw.qubits), sorted(coupler_set(hw))
    linear = dict(zip(qubits, (scale * rng.uniform(-1.0, 1.0, len(qubits))).tolist()))
    quadratic = dict(zip(couplers, (scale * rng.uniform(-1.0, 1.0, len(couplers))).tolist()))
    ising = BinaryQuadraticModel.from_terms(ISING, linear, quadratic)
    return PhysicalModel(ising, 1.0, identity_embedding(qubits))


def intra_chain_couplers(pm):
    """The couplers of ``pm`` with both ends in one chain of its embedding,
    as ascending ``(p, q)`` tuples."""
    chain_of = {q: v for v, chain in chains_of(pm.source_embedding).items() for q in chain}
    return tuple(sorted(
        (p, q) for p, q in pm.ising.pairs.tolist()
        if p in chain_of and chain_of[p] == chain_of.get(q)
    ))


def chains_of(e):
    """The chains of embedding ``e`` as ``{variable: chain}``."""
    return {v: e.chain(v) for v in e.variables()}


def chain_break_probability(p_break, length):
    """Probability a length-L chain breaks under independent qubit flips."""
    return 1.0 - p_break**length - (1.0 - p_break) ** length


def edge_set(g):
    """The edges of ``g`` as a frozenset of ``(u, v)`` pairs, ``u < v``."""
    return frozenset(zip(g.u.tolist(), g.v.tolist()))


def neighbors(g, v):
    """The vertices that share an edge with ``v`` in ``g``."""
    return frozenset(np.flatnonzero(g.adjacency[v]).tolist())


def has_edge(g, u, v):
    return bool(g.adjacency[u, v])


def interaction_graph(m):
    """The graph on ``0..max variable`` of ``m`` with an edge per nonzero
    quadratic term."""
    return Graph(int(m.ids.max(initial=-1)) + 1, m.pairs[m.j != 0.0])


def linear_terms(m):
    """The linear coefficients of model ``m`` as ``{variable: coefficient}``."""
    return dict(zip(m.ids.tolist(), m.h.tolist()))


def quadratic_terms(m):
    """The quadratic coefficients of model ``m`` as ``{(u, v): coefficient}``,
    in term order."""
    return dict(zip(map(tuple, m.pairs.tolist()), m.j.tolist()))


def coupler_set(hw):
    """The couplers of ``hw`` as a set of ``(p, q)`` tuples, ``p < q``."""
    return set(map(tuple, hw.couplers.tolist()))


def hardware_adjacency(hw):
    """``{qubit: set of the qubits it shares a coupler with}`` over ``hw``."""
    adj = {q: set() for q in hw.qubits}
    for p, q in hw.couplers.tolist():
        adj[p].add(q)
        adj[q].add(p)
    return adj


def stack(reads, variables):
    """``reads``, lists of hand-built ``ChainReadout`` records (in any order
    within a read), consumed once as one ``ReadoutSet`` over ``variables``
    in read 0's domain.  ``ValueError`` on a read that mixes domains, and
    naming the read whose variables are not ``variables`` or whose chains
    are in another domain than read 0's."""
    variables = tuple(variables)
    values, broken, frac = [], [], []
    domain = None
    for index, records in enumerate(reads):
        chains = sorted(records, key=lambda r: r.variable)
        domains = {r.domain for r in chains}
        if len(domains) > 1:
            raise ValueError(f"readouts mix the domains {sorted(domains)}")
        if tuple(r.variable for r in chains) != variables:
            raise ValueError(f"read {index}: variables are not the model variables")
        if index == 0:
            domain = domains.pop() if domains else None
        elif chains and domains != {domain}:
            raise ValueError(f"read {index}: domain {chains[0].domain} is not read 0's {domain}")
        values.append([r.value for r in chains])
        broken.append([r.broken for r in chains])
        frac.append([r.frac_ones for r in chains])
    shape = (len(values), len(variables))
    return ReadoutSet(
        variables,
        np.array(values, dtype=np.int8).reshape(shape),
        np.array(broken, dtype=bool).reshape(shape),
        np.array(frac, dtype=np.float64).reshape(shape),
        domain,
    )


def row_set(records):
    """One read's hand-built ``ChainReadout`` records as a one-row set."""
    return stack([records], sorted(r.variable for r in records))


def members(row):
    """A boolean witness row as its vertex set."""
    return frozenset(np.flatnonzero(row).tolist())


def sides(row, g):
    """A plus-side row as the ``Bipartition`` it makes of ``g``'s vertices."""
    plus = members(row)
    return Bipartition(frozenset(g.vertices()) - plus, plus)
