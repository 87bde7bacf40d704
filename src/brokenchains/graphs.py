"""Undirected simple graphs, random instances, witness scoring and
exhaustive oracles.

Vertices are dense integer ids ``0..n-1`` throughout the package; problem
builders, embeddings and unembedding algorithms all index by these ids.
A ``Graph`` is its edge set plus two read-only array forms built once from
it: the sorted edge arrays ``u``, ``v`` and the ``adjacency`` matrix.
``score_rows`` is the one witness check: it scores boolean witness rows
over the edge arrays, and ``is_clique``, ``is_vertex_cover`` and
``cut_size`` are its one-row calls.
"""

from dataclasses import dataclass, field

import numpy as np

from brokenchains.seeding import rng_from

# problems accepted by brute_force() and the benchmark harness
MAX_CLIQUE = "max_clique"
MAX_CUT = "max_cut"
MIN_VERTEX_COVER = "min_vertex_cover"
GRAPH_PARTITIONING = "graph_partitioning"
PROBLEMS = (MAX_CLIQUE, MAX_CUT, MIN_VERTEX_COVER, GRAPH_PARTITIONING)

BRUTE_FORCE_MAX_N = 24


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    ``edges`` is the frozenset of pairs ``(u, v)``, ``u < v``, and the
    graph's identity.  ``u`` and ``v`` hold the same pairs as int arrays in
    ascending order, and ``adjacency`` is the float64 matrix of the graph
    plus an isolated dummy vertex ``n``: entry ``[u, v]`` is 1.0 on an edge
    and 0.0 elsewhere, and row and column ``n`` are zero.  All three are
    built once and read-only; the queries below, the witness check
    ``score_rows``, the tailored unembeddings and ``brute_force`` read them.
    """

    __slots__ = ("n", "edges", "u", "v", "adjacency")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            normalized.add((min(u, v), max(u, v)))
        u, v = np.array(sorted(normalized), dtype=np.intp).reshape(-1, 2).T.copy()
        a = np.zeros((n + 1, n + 1))
        a[u, v] = a[v, u] = 1.0
        for array in (u, v, a):
            array.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "adjacency", a)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

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


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint vertex sets; a complete partition covers all vertices."""

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


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) random graph; deterministic for fixed ``(n, p, seed)``.

    Each of the n(n-1)/2 vertex pairs is included independently with
    probability ``p``, consuming one uniform draw per pair in lexicographic
    pair order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    u, v = np.triu_indices(n, 1)
    keep = rng_from(seed).random(len(u)) < p
    return Graph(n, zip(u[keep].tolist(), v[keep].tolist()))


def complement(g: Graph) -> Graph:
    """Graph with an edge exactly where ``g`` has none."""
    u, v = np.nonzero(np.triu(g.adjacency[: g.n, : g.n] == 0, 1))
    return Graph(g.n, zip(u.tolist(), v.tolist()))


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


def _witness_row(g: Graph, vertices) -> np.ndarray:
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
    return bool(score_rows(MAX_CLIQUE, g, _witness_row(g, s))[1][0])


def is_vertex_cover(g: Graph, s) -> bool:
    """True iff every edge has at least one endpoint in ``s``."""
    return bool(score_rows(MIN_VERTEX_COVER, g, _witness_row(g, s))[1][0])


def cut_size(g: Graph, b: Bipartition) -> int:
    """Number of edges with endpoints on different sides of a complete partition."""
    if not b.is_complete_for(g):
        raise ValueError("partition does not cover all vertices exactly once")
    return int(score_rows(MAX_CUT, g, _witness_row(g, b.side_plus))[0][0])


def _subset_matrix(lo: int, hi: int, n: int) -> np.ndarray:
    # rows = bitmask-indexed subsets lo..hi-1, columns = membership indicators
    masks = np.arange(lo, hi, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)


def brute_force(problem: str, g: Graph, block: int = 1 << 18):
    """Exact optimum by exhaustive enumeration over subsets / partitions.

    Returns ``(value, witness)`` where the witness is a vertex set for
    max_clique / min_vertex_cover and a :class:`Bipartition` for max_cut /
    graph_partitioning (balanced partitions only).  Among equally good
    solutions, the one with the lowest subset bitmask wins.  Refuses graphs
    with more than ``BRUTE_FORCE_MAX_N`` vertices.
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

    members = frozenset(v for v in range(n) if (best_mask >> v) & 1)
    if problem in (MAX_CLIQUE, MIN_VERTEX_COVER):
        return int(best_val), members
    witness = Bipartition(side_minus=frozenset(range(n)) - members, side_plus=members)
    return int(best_val), witness


def write_edge_list(g: Graph, path):
    """Plain-text edge list: first line ``n m``, then one ``u v`` line per edge."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in zip(g.u.tolist(), g.v.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path) -> Graph:
    """Read ``write_edge_list`` output; ``ValueError`` on a malformed file."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("expected header line 'n m'")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * m:
        raise ValueError(f"expected {m} edges, found {len(body) // 2}")
    edges = [(int(body[2 * i]), int(body[2 * i + 1])) for i in range(m)]
    return Graph(n, edges)
