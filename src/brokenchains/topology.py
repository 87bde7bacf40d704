"""Chimera hardware graphs, complete-graph minor embedding, model compilation.

A Chimera graph is an m x n grid of unit cells, each a complete bipartite
K_{t,t} between a horizontal shore (couples to the same-index qubit in the
cell to the right) and a vertical shore (couples to the cell below).
Qubit ids are linear: ``((row * n + col) * 2 + shore) * t + index`` with
shore 0 horizontal and shore 1 vertical.  An ``Embedding`` is its chain
arrays, and ``chain_columns`` gives the same embedding over a sample set's
spin-array columns instead of qubit ids.  ``embed_bqm`` compiles a logical
Ising model into a ``PhysicalModel``, which stores the compiled model, a
``BinaryQuadraticModel`` over qubit ids, next to the embedding.
"""

import itertools
import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from brokenchains.bqm import ISING, BinaryQuadraticModel, convert, require_keys
from brokenchains.graphs import Graph, is_int, require_real

HORIZONTAL = 0
VERTICAL = 1


@dataclass(frozen=True, eq=False)
class HardwareGraph:
    """Qubits ``0 .. len(qubits) - 1`` and the couplers between them."""

    qubits: range
    couplers: np.ndarray  # (k, 2) int: rows (p, q) with p < q, in ascending order
    shape: tuple  # (rows m, cols n, shore t)


def chimera_qubit(m: int, n: int, t: int, row: int, col: int, shore: int, k: int) -> int:
    return ((row * n + col) * 2 + shore) * t + k


def require_topology(shape, what: str = "topology") -> tuple:
    """``shape`` as a tuple, once it is three positive integers ``(m, n, t)``
    (``bool`` is not one); otherwise ``ValueError`` naming ``what``."""
    if not (
        isinstance(shape, (tuple, list))
        and len(shape) == 3
        and all(is_int(x) and x >= 1 for x in shape)
    ):
        raise ValueError(f"{what} must be three positive integers, not {shape!r}")
    return tuple(shape)


def require_clique_fits(k: int, shape) -> None:
    """``ValueError`` unless ``clique_embedding`` embeds K_k into
    ``chimera(*shape)``: only when ``m == n`` and ``1 <= k <= t * m + 1``."""
    m, n, t = shape
    if m != n:
        raise ValueError(
            f"K_{k} does not fit chimera{tuple(shape)}: clique embedding requires m == n"
        )
    if not 1 <= k <= t * m + 1:
        raise ValueError(
            f"K_{k} does not fit chimera{tuple(shape)}, which embeds K_1 to K_{t * m + 1}"
        )


def chimera(m: int, n: int, t: int) -> HardwareGraph:
    """Chimera graph with ``m * n`` cells of ``2t`` qubits each."""
    require_topology((m, n, t))
    qubits = range(2 * t * m * n)
    cells = (np.arange(m * n) * 2 * t).reshape(m, n, 1)  # first qubit of each cell
    horizontal = cells + np.arange(t)  # (m, n, t) qubits of each horizontal shore
    vertical = horizontal + t
    ends = [
        # K_{t,t} inside each cell
        np.broadcast_arrays(horizontal[..., :, None], vertical[..., None, :]),
        # each shore index to the same index one cell right, or one cell down
        (horizontal[:, :-1], horizontal[:, 1:]),
        (vertical[:-1], vertical[1:]),
    ]
    p = np.concatenate([a.ravel() for a, _ in ends])
    q = np.concatenate([b.ravel() for _, b in ends])
    # stable, as every sort of the compile, so a process pages in one sort's code
    order = np.argsort(p * len(qubits) + q, kind="stable")
    return HardwareGraph(qubits, np.stack([p[order], q[order]], axis=1), (m, n, t))


def is_id(value) -> bool:
    """Whether ``value`` names a qubit or a variable: an integer (``bool`` is
    not one) that an int64 array holds."""
    return is_int(value) and -(2**63) <= value < 2**63


@dataclass(frozen=True, eq=False)
class Embedding:
    """Each logical variable's chain of physical qubit ids, as read-only
    int arrays: chain ``i`` is ``qubits[starts[i] : starts[i] + lengths[i]]``,
    that of variable ``ids[i]``, with ``ids`` ascending.  ``from_chains``
    builds one from ``{variable: chain}``."""

    ids: np.ndarray
    qubits: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        for array in (self.ids, self.qubits, self.starts, self.lengths):
            array.flags.writeable = False

    @classmethod
    def from_chains(cls, chains: dict) -> "Embedding":
        chains = dict(sorted((int(v), tuple(c)) for v, c in chains.items()))
        lengths = np.fromiter(map(len, chains.values()), np.intp, len(chains))
        qubits = np.fromiter(itertools.chain.from_iterable(chains.values()), np.int64,
                             lengths.sum())
        ids = np.fromiter(chains, np.int64, len(chains))
        return cls(ids, qubits, np.cumsum(lengths) - lengths, lengths)

    def variables(self) -> list:
        return self.ids.tolist()

    def chain(self, v: int) -> tuple:
        i = int(np.searchsorted(self.ids, v))
        if i == len(self.ids) or self.ids[i] != v:
            raise KeyError(v)
        return tuple(self.qubits[self.starts[i] : self.starts[i] + self.lengths[i]].tolist())

    def max_chain_length(self) -> int:
        return int(self.lengths.max(initial=0))


def chain_columns(e: Embedding, qubits) -> Embedding:
    """``e`` with each chain qubit replaced by its column in a spin array
    whose columns are the ascending ``qubits``."""
    return replace(e, qubits=columns_of(e.qubits, qubits))


def columns_of(chained, qubits) -> np.ndarray:
    """The column of each of the ``chained`` qubits in a spin array whose
    columns are the ascending ``qubits``.

    The one check that a sample set holds every chain qubit: raises
    ``ValueError`` when a chained qubit is not a column.
    """
    qubits = np.asarray(qubits, dtype=np.int64)
    columns = np.searchsorted(qubits, chained)
    found = columns < len(qubits)
    found[found] = qubits[columns[found]] == chained[found]
    missing = chained[~found]
    if len(missing):
        raise ValueError(
            f"{len(missing)} chain qubits of the embedding are not sample columns,"
            f" e.g. qubit {missing.min()}"
        )
    return columns


def identity_embedding(variables) -> Embedding:
    """One single-qubit chain per variable (qubit id = variable id)."""
    return Embedding.from_chains({v: (v,) for v in variables})


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
    require_clique_fits(k, hw.shape)

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
        return Embedding.from_chains(chains)

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
    return Embedding.from_chains(chains)


@dataclass(frozen=True, eq=False)
class _ChainCouplers:
    """The hardware couplers of an embedding sorted by the chains they join.
    Chain ``i`` is that of the embedding's ``ids[i]``."""

    inside: np.ndarray  # (k, 2) couplers inside a chain, ascending
    pairs: np.ndarray  # ascending keys i * len(ids) + j, i < j, of joined chains
    pair_starts: np.ndarray  # offset of each pair's couplers in ``between``
    pair_counts: np.ndarray  # number of couplers of each pair
    between: np.ndarray  # (k, 2) couplers joining two chains, by pair, ascending in one
    violations: list  # chains in variable order, then edges in ascending order


def _ranges(starts, lengths):
    """``concatenate([arange(s, s + k) for s, k in zip(starts, lengths)])``."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def _chain_couplers(e: Embedding, hw: HardwareGraph, edges) -> _ChainCouplers:
    """One pass over the hardware couplers through a qubit -> chain holder map.

    The one place that decides whether an embedding is valid for the
    logical ``edges``, a ``(k, 2)`` array of variable pairs ``u < v``: a
    chain must be nonempty, repeat no qubit, use only hardware qubits,
    share none with another chain and be connected by the couplers inside
    it, and each edge needs a coupler between the chains of its endpoints.
    Violation strings are built only for the chains and edges that fail.
    """
    variables, qubits, lengths = e.ids, e.qubits, e.lengths
    owner = np.repeat(np.arange(len(variables)), lengths)  # chain of each entry
    # an entry repeats when its chain holds its qubit at an earlier position:
    # sorted by chain, then qubit, ties keeping their position order
    order = np.argsort(qubits, kind="stable")
    order = order[np.argsort(owner[order], kind="stable")]
    repeat = np.zeros(len(qubits), dtype=bool)
    repeat[order[1:]] = (owner[order[1:]] == owner[order[:-1]]) & (
        qubits[order[1:]] == qubits[order[:-1]]
    )
    on_hw = (qubits >= 0) & (qubits < len(hw.qubits))
    held = np.flatnonzero(on_hw & ~repeat)  # one entry per chain and hardware qubit
    # the entries holding hardware qubit q are holders[first[q] : first[q] + count[q]],
    # chains ascending
    holders = held[np.argsort(qubits[held], kind="stable")]
    count = np.bincount(qubits[held], minlength=len(hw.qubits))
    first = np.cumsum(count) - count
    first_owner = np.full(len(qubits), -1)
    first_owner[held] = owner[holders[first[qubits[held]]]]

    # every (holder of p, holder of q) of every coupler (p, q): one link per
    # coupler that touches chains, unless chains overlap
    p, q = hw.couplers.T
    links = count[p] * count[q]
    c = np.repeat(np.arange(len(p)), links)
    k = _ranges(np.zeros_like(links), links)
    a = holders[first[p[c]] + k // count[q[c]]]
    b = holders[first[q[c]] + k % count[q[c]]]
    same = owner[a] == owner[b]

    # connected parts by min-label propagation over the couplers inside chains
    label = np.arange(len(qubits))
    x, y = a[same], b[same]
    while True:
        low = np.minimum(label[x], label[y])
        lower = label.copy()
        np.minimum.at(lower, x, low)
        np.minimum.at(lower, y, low)
        lower = lower[lower]
        if (lower == label).all():
            break
        label = lower

    def per_chain(mask):
        return np.bincount(owner[mask], minlength=len(variables))

    repeats = per_chain(repeat) > 0
    absent = per_chain(~on_hw) > 0
    overlaps = per_chain((first_owner >= 0) & (first_owner != owner)) > 0
    parts = per_chain(held[label[held] == held])
    disconnected = (lengths > 0) & ~absent & (parts > 1)
    violations = []
    for i in np.flatnonzero((lengths == 0) | repeats | absent | overlaps | disconnected):
        v = int(variables[i])
        if not lengths[i]:
            violations.append(f"chain {v} is empty")
            continue
        if repeats[i]:
            violations.append(f"chain {v} repeats a qubit")
        for j, qubit in enumerate(e.chain(v), int(e.starts[i])):
            if repeat[j]:
                continue
            if not on_hw[j]:
                violations.append(f"chain {v} uses qubit {qubit} absent from hardware")
            elif first_owner[j] != i:
                holder = variables[first_owner[j]]
                violations.append(f"chains {holder} and {v} overlap on qubit {qubit}")
        if disconnected[i]:
            violations.append(f"chain {v} is disconnected")

    lo = np.minimum(owner[a], owner[b])[~same]
    hi = np.maximum(owner[a], owner[b])[~same]
    keys = lo * len(variables) + hi
    by_pair = np.argsort(keys, kind="stable")  # couplers stay ascending in each pair
    keys = keys[by_pair]
    pair_starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
    pairs = keys[pair_starts]
    pair_counts = np.diff(pair_starts, append=len(keys))

    index = np.searchsorted(variables, edges)
    mapped = np.isin(edges, variables).all(axis=1)
    joined = mapped & np.isin(index[:, 0] * len(variables) + index[:, 1], pairs)
    failed = zip(map(tuple, edges[~joined].tolist()), mapped[~joined].tolist())
    for (u, v), both in sorted(failed):
        if both:
            violations.append(f"logical edge ({u}, {v}) has no inter-chain coupler")
        else:
            violations.append(f"logical edge ({u}, {v}) has an unmapped endpoint")
    return _ChainCouplers(hw.couplers[c[same]], pairs, pair_starts, pair_counts,
                          hw.couplers[c[~same]][by_pair], violations)


def validate_embedding(e: Embedding, logical: Graph, hw: HardwareGraph):
    """List of violation strings; empty when the embedding is a valid minor.

    Checks chain qubits exist in the hardware graph, chains are nonempty
    and pairwise disjoint, each chain induces a connected subgraph, and
    every logical edge has at least one coupler between its two chains.
    The violations come from the same pass over the hardware couplers
    that ``embed_bqm`` compiles from, so the two always agree.
    """
    edges = np.stack([logical.u, logical.v], axis=1)
    return _chain_couplers(e, hw, edges).violations


def uniform_torque_compensation(m: BinaryQuadraticModel, prefactor: float = 1.414) -> float:
    """Chain strength heuristic: prefactor * RMS(|couplers|) * sqrt(avg degree).

    The model is converted to Ising form first.  Average degree is taken
    from the model's interaction graph.  Models with no quadratic terms
    fall back to ``prefactor``, which must be a positive real number.
    """
    require_real(prefactor, "prefactor", positive=True)
    ising = convert(m, ISING)
    couplers = ising.j[ising.j != 0.0].tolist()
    if not couplers:
        return prefactor * 1.0
    rms = math.sqrt(sum(c * c for c in couplers) / len(couplers))
    avg_degree = 2 * len(ising.pairs) / len(ising.ids)
    return prefactor * rms * math.sqrt(avg_degree)


@dataclass(frozen=True, eq=False)
class PhysicalModel:
    """An Ising model over physical qubits and the embedding that produced
    it; the chain strength lives in its chain couplers.  ``embed_bqm`` lists
    the couplers between chains in the logical model's term order, then
    those inside chains in ascending order; the anneal and the energies sum
    in that order.  A logical model annealed directly is its own physical
    model, over qubits named by its variables."""

    ising: BinaryQuadraticModel
    source_embedding: Embedding

    def qubits(self) -> list:
        return self.ising.variables()


def embed_bqm(
    m: BinaryQuadraticModel,
    e: Embedding,
    hw: HardwareGraph,
    chain_strength: float,
) -> PhysicalModel:
    """Compile a logical Ising model onto hardware through an embedding.

    Logical linear biases are split equally across chain qubits; each
    nonzero logical coupler is split equally across *all* physical couplers
    joining the two chains; every hardware coupler inside a chain is set to
    ``-chain_strength``, so a chain of a variable the model lacks joins with
    fields 0.0, unless it is one qubit.  For any chain-consistent physical
    assignment the physical energy equals the logical energy minus
    ``chain_strength`` times the number of intra-chain couplers.

    One pass over the hardware couplers both sorts them by chain and
    decides validity: raises ``ValueError`` when ``chain_strength`` is not
    a positive real number, when a model variable has no chain or when
    ``validate_embedding`` would report a violation for the model's nonzero
    couplers.
    """
    if m.domain != ISING:
        raise ValueError("embed_bqm requires an Ising model; convert QUBO input first")
    require_real(chain_strength, "chain strength", positive=True)
    unmapped = m.ids[~np.isin(m.ids, e.ids)].tolist()
    if unmapped:
        raise ValueError(f"model variable {unmapped[0]} has no chain in the embedding")
    nonzero = m.j != 0.0
    terms, j = m.pairs[nonzero], m.j[nonzero]
    links = _chain_couplers(e, hw, terms)
    if links.violations:
        raise ValueError("invalid embedding: " + "; ".join(links.violations))

    chain = np.searchsorted(e.ids, m.ids)
    lengths = e.lengths[chain]
    chained = e.qubits[_ranges(e.starts[chain], lengths)]
    # counted, not sorted: np.unique would page in more numpy code, and peak RSS counts it
    qubit_ids = np.flatnonzero(np.bincount(np.concatenate([chained, links.inside.ravel()])))
    fields = np.zeros(len(qubit_ids))
    # 0.0 + share, as a sum into a fresh model entry: a -0.0 share gives 0.0
    fields[np.searchsorted(qubit_ids, chained)] = 0.0 + np.repeat(m.h / lengths, lengths)

    u, v = np.searchsorted(e.ids, terms).T
    pair = np.searchsorted(links.pairs, u * len(e.ids) + v)
    counts = links.pair_counts[pair]
    couplers = np.concatenate([links.between[_ranges(links.pair_starts[pair], counts)],
                               links.inside])
    j = np.concatenate([np.repeat(j / counts, counts),
                        np.full(len(links.inside), -float(chain_strength))])
    return PhysicalModel(BinaryQuadraticModel(ISING, qubit_ids, fields, couplers, j, m.offset), e)


def embedding_to_json(e: Embedding) -> str:
    return json.dumps(
        {str(v): list(e.chain(v)) for v in e.variables()}, indent=2, sort_keys=True
    )


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; ``ValueError`` on a key it lists twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"variable {key!r} is listed twice")
        doc[key] = value
    return doc


def embedding_from_json(text: str) -> Embedding:
    """Read ``embedding_to_json`` output; raises ``ValueError`` on a bad
    shape, on a variable key listed twice or not written as ``str`` writes
    an id (``"01"``, ``" 2"`` and ``"-0"`` are not), or on a chain entry
    that is not an id."""
    doc = require_keys(json.loads(text, object_pairs_hook=_unique_keys), (), "embedding")
    for v, chain in doc.items():
        if not (re.fullmatch("0|-?[1-9][0-9]*", v) and is_id(int(v))):
            raise ValueError(f"variable key {v!r} is not an integer id")
        if not isinstance(chain, list):
            raise ValueError(f"the chain of variable {v} must be a list of qubits")
        for q in chain:
            if not is_id(q):
                raise ValueError(f"the chain of variable {v} holds {q!r}, not a qubit id")
    return Embedding.from_chains({int(v): chain for v, chain in doc.items()})
