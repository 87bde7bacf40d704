"""Undirected simple graphs, random instances, witness scoring and
exhaustive oracles.

Vertices are dense integer ids ``0..n-1`` throughout the package; problem
builders, embeddings and unembedding algorithms all index by these ids.
A ``Graph`` is its sorted edge arrays ``u``, ``v``, plus the ``adjacency``
matrix built once from them; its ``edges`` set is a view derived from the
arrays.  A witness is a vertex set (a clique, a cover, or the plus side
of a cut or partition) or its boolean row: ``score_rows`` is the one
witness check, it scores rows over the edge arrays, and ``is_clique``,
``is_vertex_cover`` and ``cut_size`` are its one-row calls.

The number rules ``is_int``, ``require_int``, ``require_real`` and
``require_probability`` live here, at the bottom of the import graph.
"""

import math

import numpy as np

from brokenchains.seeding import rng_from

# problems accepted by brute_force() and the benchmark harness
MAX_CLIQUE = "max_clique"
MAX_CUT = "max_cut"
MIN_VERTEX_COVER = "min_vertex_cover"
GRAPH_PARTITIONING = "graph_partitioning"
PROBLEMS = (MAX_CLIQUE, MAX_CUT, MIN_VERTEX_COVER, GRAPH_PARTITIONING)

BRUTE_FORCE_MAX_N = 24


def is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(value, what: str, positive: bool = False):
    """``value``, once it is an integer (``bool`` is not one), and one >= 1
    when ``positive``; otherwise ``ValueError`` naming ``what`` and ``value``."""
    if not is_int(value):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if positive and value < 1:
        raise ValueError(f"{what} must be >= 1, not {value!r}")
    return value


def require_real(value, what: str, positive: bool = False):
    """``value``, once it is a finite real number (``bool`` is not one), and a
    positive one when ``positive``; otherwise ``ValueError`` naming ``what``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or (positive and value <= 0)
    ):
        kind = "a positive real number" if positive else "a real number"
        raise ValueError(f"{what} must be {kind}, not {value!r}")
    return value


def require_probability(value, what: str):
    """``value``, once it is a real number (``bool`` is not one) in [0, 1];
    otherwise ``ValueError`` naming ``what`` and ``value``."""
    if not 0.0 <= require_real(value, what) <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], not {value!r}")
    return value


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    ``u`` and ``v`` are the graph's identity: its edges as int arrays, one
    pair ``(u[i], v[i])`` with ``u[i] < v[i]`` per edge, in ascending pair
    order.  ``adjacency`` is the float64 matrix of the graph plus an
    isolated dummy vertex ``n``: entry ``[u, v]`` is 1.0 on an edge and 0.0
    elsewhere, and row and column ``n`` are zero.  All three are built once
    and read-only; the queries below, the witness check ``score_rows``, the
    tailored unembeddings and ``brute_force`` read them.  ``edges`` is a
    frozenset of the pairs, built from the arrays on every read.

    ``edges`` given to the constructor are pairs of vertices in either
    orientation, and a pair given twice is one edge.  ``ValueError`` names
    the first self-loop or out-of-range edge in input order.
    """

    __slots__ = ("n", "u", "v", "adjacency")

    def __init__(self, n: int, edges):
        if require_int(n, "vertex count") < 0:
            raise ValueError("vertex count must be nonnegative")
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.intp)
        elif pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError("edges must be pairs of integer vertices")
        p, q = pairs.T
        bad = (p == q) | (np.minimum(p, q) < 0) | (np.maximum(p, q) >= n)
        if bad.any():
            p, q = pairs[np.argmax(bad)].tolist()
            if p == q:
                raise ValueError(f"self-loop at vertex {p}")
            raise ValueError(f"edge ({p}, {q}) out of range for n={n}")
        a = np.zeros((n + 1, n + 1))
        a[p, q] = a[q, p] = 1.0
        u, v = np.nonzero(np.triu(a))
        for array in (u, v, a):
            array.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "adjacency", a)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def _key(self):
        return self.n, self.u.tobytes(), self.v.tobytes()

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.u)})"

    @property
    def edges(self) -> frozenset:
        """The pairs ``(u, v)``, ``u < v``, as a frozenset built from the arrays."""
        return frozenset(zip(self.u.tolist(), self.v.tolist()))

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return frozenset(np.flatnonzero(self.adjacency[v]).tolist())

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(np.count_nonzero(self.adjacency[v]))

    def max_degree(self) -> int:
        return int(np.count_nonzero(self.adjacency, axis=1).max())

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adjacency[u, v])

    def vertices(self) -> range:
        return range(self.n)

    def _check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) random graph; deterministic for fixed ``(n, p, seed)``.

    Each of the n(n-1)/2 vertex pairs is included independently with
    probability ``p``, consuming one uniform draw per pair in lexicographic
    pair order.
    """
    require_int(n, "n", positive=True)
    require_probability(p, "edge probability")
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    return Graph(n, pairs[rng_from(seed).random(len(pairs)) < p])


def complement(g: Graph) -> Graph:
    """Graph with an edge exactly where ``g`` has none."""
    return Graph(g.n, np.argwhere(np.triu(g.adjacency[: g.n, : g.n] == 0, 1)))


def score_rows(problem: str, g: Graph, rows: np.ndarray) -> tuple:
    """The score of every witness row of a set, as an int64 array of
    objectives and a bool array of feasibility flags; the one place that
    decides whether a witness is a clique, a cover or a balanced partition,
    and what it scores.

    ``rows`` is a boolean ``(reads, g.n)`` array: True on the value-1 set
    of a clique or cover, on the plus side of a cut or partition.  Over the
    edge arrays ``u``, ``v`` of ``g``, with ``k`` the size of a row's set, a
    clique holds k(k-1)/2 edges, a cover touches every edge, a cut counts
    the edges whose ends differ, and a partition is balanced when
    |2k - n| <= 1.  Infeasible witnesses score conservatively: an
    infeasible clique 0, an infeasible cover the trivial all-vertices size
    ``n``, and an unbalanced partition keeps its cut size but is flagged
    infeasible.
    """
    u, v = rows[:, g.u], rows[:, g.v]
    k = rows.sum(axis=1)
    if problem == MAX_CLIQUE:
        ok = (u & v).sum(axis=1) == k * (k - 1) // 2
        return np.where(ok, k, 0), ok
    if problem == MIN_VERTEX_COVER:
        ok = (u | v).all(axis=1)
        return np.where(ok, k, g.n), ok
    if problem == MAX_CUT:
        return (u != v).sum(axis=1), np.ones(len(rows), dtype=bool)
    if problem == GRAPH_PARTITIONING:
        return (u != v).sum(axis=1), np.abs(2 * k - g.n) <= 1
    raise ValueError(f"unknown problem {problem!r}")


def witness_row(g: Graph, vertices) -> np.ndarray:
    """The one-row ``score_rows`` input True on ``vertices``; ``ValueError``
    naming the first out-of-range vertex."""
    vertices = list(vertices)
    bad = next((x for x in vertices if not 0 <= x < g.n), None)
    if bad is not None:
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    row = np.zeros((1, g.n), dtype=bool)
    row[0, vertices] = True
    return row


def is_clique(g: Graph, s) -> bool:
    """True iff every pair of vertices in ``s`` is adjacent (vacuously for |s| <= 1)."""
    return bool(score_rows(MAX_CLIQUE, g, witness_row(g, s))[1][0])


def is_vertex_cover(g: Graph, s) -> bool:
    """True iff every edge has at least one endpoint in ``s``."""
    return bool(score_rows(MIN_VERTEX_COVER, g, witness_row(g, s))[1][0])


def cut_size(g: Graph, plus) -> int:
    """Number of edges with one end in the vertex set ``plus`` and one outside it."""
    return int(score_rows(MAX_CUT, g, witness_row(g, plus))[0][0])


def _subset_matrix(lo: int, hi: int, n: int) -> np.ndarray:
    # rows = bitmask-indexed subsets lo..hi-1, columns = membership indicators
    masks = np.arange(lo, hi, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)


def brute_force(problem: str, g: Graph, block: int = 1 << 18):
    """Exact optimum by exhaustive enumeration over subsets / partitions.

    Returns ``(value, row)``, where ``row`` is a boolean ``(g.n,)`` witness
    in ``score_rows`` form: True on the clique or cover, or on the plus side
    of the cut or (balanced) partition, so that
    ``score_rows(problem, g, row[None])`` gives ``value`` as feasible.
    Among equally good solutions, the one with the lowest subset bitmask
    (bit ``v`` set for vertex ``v`` in the set) wins.  Refuses graphs with
    more than ``BRUTE_FORCE_MAX_N`` vertices.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"graph has {g.n} > {BRUTE_FORCE_MAX_N} vertices; enumeration refused"
        )
    n = g.n
    adj = g.adjacency[:n, :n]
    nonadj = 1.0 - adj - np.eye(n)

    best_val = None
    best_mask = None
    maximize = problem in (MAX_CLIQUE, MAX_CUT)
    for lo in range(0, 1 << n, block):
        hi = min(lo + block, 1 << n)
        x = _subset_matrix(lo, hi, n)
        sizes = x.sum(axis=1)
        if problem == MAX_CLIQUE:
            viol = np.einsum("si,ij,sj->s", x, nonadj, x)
            vals = np.where(viol == 0, sizes, -1.0)
        elif problem == MIN_VERTEX_COVER:
            y = 1.0 - x
            viol = np.einsum("si,ij,sj->s", y, adj, y)
            vals = np.where(viol == 0, sizes, np.inf)
        elif problem == MAX_CUT:
            vals = np.einsum("si,ij,sj->s", x, adj, 1.0 - x)
        else:  # graph_partitioning: minimize cut over balanced splits
            cuts = np.einsum("si,ij,sj->s", x, adj, 1.0 - x)
            balanced = np.abs(2.0 * sizes - n) <= 1.0
            vals = np.where(balanced, cuts, np.inf)
        ix = int(np.argmax(vals)) if maximize else int(np.argmin(vals))
        val = float(vals[ix])
        better = (
            best_val is None
            or (maximize and val > best_val)
            or (not maximize and val < best_val)
        )
        if better:
            best_val = val
            best_mask = lo + ix

    return int(best_val), ((best_mask >> np.arange(n)) & 1).astype(bool)


def write_edge_list(g: Graph, path):
    """Plain-text edge list: first line ``n m``, then one ``u v`` line per edge."""
    lines = [f"{g.n} {len(g.u)}"]
    lines += [f"{u} {v}" for u, v in zip(g.u.tolist(), g.v.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path) -> Graph:
    """Read ``write_edge_list`` output; ``ValueError`` on a malformed file,
    an edge listed twice (in either orientation) included."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("expected header line 'n m'")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * m:
        raise ValueError(f"expected {m} edges, found {len(body) // 2}")
    edges = [(int(body[2 * i]), int(body[2 * i + 1])) for i in range(m)]
    g = Graph(n, edges)
    if len(g.u) < m:
        seen = set()
        for edge in edges:
            if frozenset(edge) in seen:
                raise ValueError(f"edge {edge} is listed twice")
            seen.add(frozenset(edge))
    return g
