"""Chimera hardware graphs, complete-graph minor embedding, model compilation.

A Chimera graph is an m x n grid of unit cells, each a complete bipartite
K_{t,t} between a horizontal shore (couples to the same-index qubit in the
cell to the right) and a vertical shore (couples to the cell below).
Qubit ids are linear: ``((row * n + col) * 2 + shore) * t + index`` with
shore 0 horizontal and shore 1 vertical.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from brokenchains.bqm import ISING, BinaryQuadraticModel, convert
from brokenchains.graphs import Graph

HORIZONTAL = 0
VERTICAL = 1


@dataclass(frozen=True)
class HardwareGraph:
    qubits: frozenset
    couplers: frozenset
    shape: tuple  # (rows m, cols n, shore t)

    def __post_init__(self):
        object.__setattr__(self, "qubits", frozenset(self.qubits))
        object.__setattr__(
            self, "couplers", frozenset(tuple(sorted(c)) for c in self.couplers)
        )
        for p, q in self.couplers:
            if p == q:
                raise ValueError(f"self-coupler on qubit {p}")
            if p not in self.qubits or q not in self.qubits:
                raise ValueError(f"coupler ({p}, {q}) references missing qubit")

    def adjacency(self) -> dict:
        adj = {q: set() for q in self.qubits}
        for p, q in self.couplers:
            adj[p].add(q)
            adj[q].add(p)
        return adj


def chimera_qubit(m: int, n: int, t: int, row: int, col: int, shore: int, k: int) -> int:
    return ((row * n + col) * 2 + shore) * t + k


def chimera(m: int, n: int, t: int) -> HardwareGraph:
    """Chimera graph with ``m * n`` cells of ``2t`` qubits each."""
    if m < 1 or n < 1 or t < 1:
        raise ValueError("chimera dimensions must be positive")

    def q(row, col, shore, k):
        return chimera_qubit(m, n, t, row, col, shore, k)

    qubits = range(2 * t * m * n)
    couplers = []
    for row in range(m):
        for col in range(n):
            for i in range(t):
                for j in range(t):
                    couplers.append((q(row, col, HORIZONTAL, i), q(row, col, VERTICAL, j)))
            for k in range(t):
                if col + 1 < n:
                    couplers.append((q(row, col, HORIZONTAL, k), q(row, col + 1, HORIZONTAL, k)))
                if row + 1 < m:
                    couplers.append((q(row, col, VERTICAL, k), q(row + 1, col, VERTICAL, k)))
    return HardwareGraph(frozenset(qubits), frozenset(couplers), (m, n, t))


@dataclass(frozen=True)
class Embedding:
    """Map from logical variable id to its chain of physical qubit ids."""

    chains: dict

    def __post_init__(self):
        object.__setattr__(
            self, "chains", {int(v): tuple(c) for v, c in self.chains.items()}
        )

    def variables(self):
        return sorted(self.chains)

    def chain(self, v: int) -> tuple:
        return self.chains[v]

    def max_chain_length(self) -> int:
        return max((len(c) for c in self.chains.values()), default=0)


@dataclass(frozen=True, eq=False)
class ChainColumns:
    """An embedding laid over the columns of a sample set's spin array."""

    variables: tuple  # ascending logical variables
    columns: np.ndarray  # column of every chain qubit, chains in variable order
    starts: np.ndarray  # offset of each chain in ``columns``
    lengths: tuple  # chain lengths


def chain_columns(e: Embedding, qubits) -> ChainColumns:
    """Each chain's column indices in a spin array whose columns are ``qubits``.

    The one check that a sample set holds every chain qubit: raises
    ``ValueError`` when a chain qubit is not a column.
    """
    column = {q: i for i, q in enumerate(qubits)}
    chains = [e.chain(v) for v in e.variables()]
    missing = sorted(q for chain in chains for q in chain if q not in column)
    if missing:
        raise ValueError(
            f"{len(missing)} chain qubits of the embedding are not sample columns,"
            f" e.g. qubit {missing[0]}"
        )
    lengths = tuple(len(chain) for chain in chains)
    return ChainColumns(
        variables=tuple(e.variables()),
        columns=np.array([column[q] for chain in chains for q in chain], dtype=np.intp),
        starts=np.cumsum(lengths, dtype=np.intp) - lengths,
        lengths=lengths,
    )


def identity_embedding(variables) -> Embedding:
    """One single-qubit chain per variable (qubit id = variable id)."""
    return Embedding({v: (v,) for v in variables})


def clique_embedding(k: int, hw: HardwareGraph) -> Embedding:
    """Deterministic embedding of the complete graph K_k into a square Chimera.

    For k <= t*m the chains live in the smallest sufficient ceil(k/t) x
    ceil(k/t) top-left block: chain (b, a) bends at diagonal cell (b, b),
    running up column b on vertical-shore index a and right along row b on
    horizontal-shore index a, so every chain has length block+1 and any two
    chains meet inside a shared cell.

    For k = t*m + 1 the bends of shore index t-1 are replaced by m+1
    staircase chains: a full top row, a full rightmost column, and one
    chain per remaining row s pairing column s-1 (rows 0..s) with row s
    (columns s-1 onward).  That yields t*m + 1 pairwise-coupled chains:
    (t-1)*m of length m+1, two of length m and m-1 of length m+2 (at
    m = 16, t = 4: 48 x 17, 2 x 16 and 15 x 18).  The longest chain is
    m+2 for m >= 2 and m+1 = 2 at m = 1.  For t = 4 an exhaustive search
    (``test_exhaustive_search_bounds_chain_length`` in
    ``tests/test_acceptance.py``) shows that no K_{4m+1} minor of
    chimera(m, m, 4) has a shorter longest chain at m = 1 and m = 2; for
    m >= 3 it is not known whether one exists.
    """
    m, n, t = hw.shape
    if m != n:
        raise ValueError(f"clique embedding requires a square Chimera, got {m}x{n}")
    if k < 1:
        raise ValueError("clique size must be >= 1")
    if k > t * m + 1:
        raise ValueError(f"K_{k} exceeds capacity {t * m + 1} of chimera({m},{m},{t})")

    def hq(row, col, a):
        return chimera_qubit(m, n, t, row, col, HORIZONTAL, a)

    def vq(row, col, a):
        return chimera_qubit(m, n, t, row, col, VERTICAL, a)

    chains = {}
    if k <= t * m:
        size = max(1, math.ceil(k / t))
        for i in range(k):
            b, a = divmod(i, t)
            chains[i] = tuple(
                [vq(r, b, a) for r in range(b + 1)]
                + [hq(b, c, a) for c in range(b, size)]
            )
        return Embedding(chains)

    # k == t*m + 1: triangle on shore indices 0..t-2 plus staircase chains
    i = 0
    for b in range(m):
        for a in range(t - 1):
            chains[i] = tuple(
                [vq(r, b, a) for r in range(b + 1)]
                + [hq(b, c, a) for c in range(b, m)]
            )
            i += 1
    a = t - 1
    chains[i] = tuple(hq(0, c, a) for c in range(m))  # full top row
    i += 1
    for s in range(1, m):
        chains[i] = tuple(
            [vq(r, s - 1, a) for r in range(s + 1)]
            + [hq(s, c, a) for c in range(s - 1, m)]
        )
        i += 1
    chains[i] = tuple(vq(r, m - 1, a) for r in range(m))  # full rightmost column
    return Embedding(chains)


@dataclass(frozen=True, eq=False)
class _ChainCouplers:
    """The hardware couplers of an embedding, sorted by the chains they join."""

    inside: dict  # variable -> couplers inside its chain, ascending
    between: dict  # (u, v) with u < v -> couplers joining chains u and v, ascending
    violations: list  # chains in variable order, then edges in ascending order


def _chain_couplers(e: Embedding, hw: HardwareGraph, edges) -> _ChainCouplers:
    """One pass over the hardware couplers through a qubit -> chain owner map.

    The one place that decides whether an embedding is valid for the
    logical ``edges``: a chain must be nonempty, repeat no qubit, use only
    hardware qubits, share none with another chain and be connected by
    the couplers inside it, and each edge needs a coupler between the
    chains of its endpoints.
    """
    found = {v: [] for v in e.variables()}
    owners = {}  # qubit -> variables whose chains hold it, usually one
    for v, problems in found.items():
        chain = e.chain(v)
        if not chain:
            problems.append(f"chain {v} is empty")
            continue
        if len(set(chain)) != len(chain):
            problems.append(f"chain {v} repeats a qubit")
        for q in chain:
            if q not in hw.qubits:
                problems.append(f"chain {v} uses qubit {q} absent from hardware")
                continue
            holders = owners.setdefault(q, [])
            if holders:
                problems.append(f"chains {holders[0]} and {v} overlap on qubit {q}")
            if v not in holders:
                holders.append(v)

    inside = {v: [] for v in found}
    between = {}
    for p, q in sorted(hw.couplers):
        for a in owners.get(p, ()):
            for b in owners.get(q, ()):
                if a == b:
                    inside[a].append((p, q))
                else:
                    between.setdefault((min(a, b), max(a, b)), []).append((p, q))

    for v, problems in found.items():
        chain = e.chain(v)
        if chain and all(q in hw.qubits for q in chain):
            if not _connected(chain, inside[v]):
                problems.append(f"chain {v} is disconnected")
    violations = [text for problems in found.values() for text in problems]
    for u, v in sorted(edges):
        if u not in e.chains or v not in e.chains:
            violations.append(f"logical edge ({u}, {v}) has an unmapped endpoint")
        elif (u, v) not in between:
            violations.append(f"logical edge ({u}, {v}) has no inter-chain coupler")
    return _ChainCouplers(inside, between, violations)


def _connected(chain, couplers) -> bool:
    """Whether ``couplers`` (all inside ``chain``) connect every chain qubit."""
    adj = {q: [] for q in chain}
    for p, q in couplers:
        adj[p].append(q)
        adj[q].append(p)
    frontier, reached = [chain[0]], {chain[0]}
    while frontier:
        for nb in adj[frontier.pop()]:
            if nb not in reached:
                reached.add(nb)
                frontier.append(nb)
    return len(reached) == len(adj)


def validate_embedding(e: Embedding, logical: Graph, hw: HardwareGraph):
    """List of violation strings; empty when the embedding is a valid minor.

    Checks chain qubits exist in the hardware graph, chains are nonempty
    and pairwise disjoint, each chain induces a connected subgraph, and
    every logical edge has at least one coupler between its two chains.
    The violations come from the same pass over the hardware couplers
    that ``embed_bqm`` compiles from, so the two always agree.
    """
    return _chain_couplers(e, hw, logical.edges).violations


def uniform_torque_compensation(
    m: BinaryQuadraticModel,
    logical: Graph | None = None,
    prefactor: float = 1.414,
) -> float:
    """Chain strength heuristic: prefactor * RMS(|couplers|) * sqrt(avg degree).

    The model is converted to Ising form first.  Average degree is taken
    from the model's interaction graph unless an explicit logical graph is
    supplied.  Models with no quadratic terms fall back to ``prefactor``.
    """
    ising = convert(m, ISING)
    couplers = [c for c in ising.quadratic.values() if c != 0.0]
    if not couplers:
        return prefactor * 1.0
    rms = math.sqrt(sum(c * c for c in couplers) / len(couplers))
    if logical is not None:
        degrees = [logical.degree(v) for v in logical.vertices()]
    else:
        degrees = list(ising.degrees().values())
    avg_degree = sum(degrees) / len(degrees) if degrees else 1.0
    return prefactor * rms * math.sqrt(avg_degree)


@dataclass(frozen=True)
class PhysicalModel:
    """Ising model over physical qubits plus the embedding that produced it."""

    ising: BinaryQuadraticModel
    chain_strength: float
    source_embedding: Embedding
    intra_chain_couplers: tuple = field(default=())

    def qubits(self):
        return self.ising.variables()


def embed_bqm(
    m: BinaryQuadraticModel,
    e: Embedding,
    hw: HardwareGraph,
    chain_strength: float,
) -> PhysicalModel:
    """Compile a logical Ising model onto hardware through an embedding.

    Logical linear biases are split equally across chain qubits; each
    logical coupler is split equally across *all* physical couplers joining
    the two chains; every hardware coupler inside a chain is set to
    ``-chain_strength``.  For any chain-consistent physical assignment the
    physical energy equals the logical energy minus ``chain_strength``
    times the number of intra-chain couplers.

    One pass over the hardware couplers both sorts them by chain and
    decides validity: raises ``ValueError`` when a model variable has no
    chain or when ``validate_embedding`` would report a violation for the
    model's nonzero couplers.
    """
    if m.domain != ISING:
        raise ValueError("embed_bqm requires an Ising model; convert QUBO input first")
    if chain_strength <= 0:
        raise ValueError("chain strength must be positive")
    unmapped = [v for v in m.variables() if v not in e.chains]
    if unmapped:
        raise ValueError(f"model variable {unmapped[0]} has no chain in the embedding")
    links = _chain_couplers(e, hw, [uv for uv, j in m.quadratic.items() if j != 0.0])
    if links.violations:
        raise ValueError("invalid embedding: " + "; ".join(links.violations))

    linear = {}
    for v, h in m.linear.items():
        chain = e.chain(v)
        share = h / len(chain)
        for q in chain:
            linear[q] = linear.get(q, 0.0) + share

    quadratic = {}
    for uv, j in m.quadratic.items():
        if j == 0.0:
            continue
        couplers = links.between[uv]
        share = j / len(couplers)
        for key in couplers:
            quadratic[key] = share

    intra = sorted(key for couplers in links.inside.values() for key in couplers)
    for key in intra:
        quadratic[key] = -chain_strength

    physical = BinaryQuadraticModel(ISING, linear, quadratic, m.offset)
    return PhysicalModel(physical, chain_strength, e, tuple(intra))


def embedding_to_json(e: Embedding) -> str:
    return json.dumps(
        {str(v): list(e.chain(v)) for v in e.variables()}, indent=2, sort_keys=True
    )


def embedding_from_json(text: str) -> Embedding:
    doc = json.loads(text)
    return Embedding({int(v): tuple(chain) for v, chain in doc.items()})
