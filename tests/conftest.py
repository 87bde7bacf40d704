import itertools

import numpy as np

from brokenchains.bqm import ISING, BinaryQuadraticModel
from brokenchains.graphs import Bipartition, Graph, vertices_of
from brokenchains.sampler import AnnealParams, SampleSet
from brokenchains.seeding import rng_from
from brokenchains.topology import PhysicalModel, identity_embedding


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
    qubits, couplers = sorted(hw.qubits), sorted(hw.couplers)
    linear = dict(zip(qubits, (scale * rng.uniform(-1.0, 1.0, len(qubits))).tolist()))
    quadratic = dict(zip(couplers, (scale * rng.uniform(-1.0, 1.0, len(couplers))).tolist()))
    ising = BinaryQuadraticModel(ISING, linear, quadratic)
    return PhysicalModel(ising, 1.0, identity_embedding(qubits), ())


def members(mask):
    """A witness bitmask as its vertex set."""
    return frozenset(vertices_of(mask))


def sides(mask, g):
    """A plus-side bitmask as the ``Bipartition`` it makes of ``g``'s vertices."""
    plus = members(mask)
    return Bipartition(frozenset(g.vertices()) - plus, plus)
