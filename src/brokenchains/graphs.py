"""Undirected simple graphs, random instances, and exhaustive oracles.

Vertices are dense integer ids ``0..n-1`` throughout the package; problem
builders, embeddings and unembedding algorithms all index by these ids.
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

    ``masks[v]`` is the neighbourhood of ``v`` as a Python-int bitmask (bit
    ``u`` set when ``u`` and ``v`` are adjacent).  The queries below and the
    witness checks read them; the tailored unembeddings build an adjacency
    matrix from ``edges``.
    """

    __slots__ = ("n", "edges", "masks")

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))
        masks = [0] * n
        for u, v in normalized:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "masks", tuple(masks))

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
        return frozenset(vertices_of(self.masks[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.masks[v].bit_count()

    def max_degree(self) -> int:
        return max((mask.bit_count() for mask in self.masks), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.masks[u] >> v & 1)

    def vertices(self) -> range:
        return range(self.n)

    def mask_of(self, vertices) -> int:
        """The bitmask of a vertex subset; ``ValueError`` naming the first
        out-of-range vertex."""
        vertices = tuple(vertices)
        if vertices and not (0 <= min(vertices) and max(vertices) < self.n):
            bad = next(v for v in vertices if not 0 <= v < self.n)
            raise ValueError(f"vertex {bad} out of range for n={self.n}")
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return mask

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

    def sizes(self) -> tuple:
        return len(self.side_minus), len(self.side_plus)


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
    rng = rng_from(seed)
    npairs = n * (n - 1) // 2
    draws = rng.random(npairs)
    edges = []
    ix = 0
    for u in range(n):
        for v in range(u + 1, n):
            if draws[ix] < p:
                edges.append((u, v))
            ix += 1
    return Graph(n, edges)


def complement(g: Graph) -> Graph:
    """Graph with an edge exactly where ``g`` has none."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return Graph(g.n, edges)


def vertices_of(mask: int) -> list:
    """The vertices whose bits are set in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_clique(g: Graph, s) -> bool:
    """True iff every pair of vertices in ``s`` is adjacent (vacuously for |s| <= 1)."""
    mask = g.mask_of(s)
    # the only vertex of s that v is not adjacent to is v itself
    return all(mask & ~g.masks[v] == 1 << v for v in vertices_of(mask))


def is_vertex_cover(g: Graph, s) -> bool:
    """True iff every edge has at least one endpoint in ``s``."""
    outside = ((1 << g.n) - 1) ^ g.mask_of(s)
    return not any(g.masks[v] & outside for v in vertices_of(outside))


def cut_size(g: Graph, b: Bipartition) -> int:
    """Number of edges with endpoints on different sides of a complete partition."""
    if not b.is_complete_for(g):
        raise ValueError("partition does not cover all vertices exactly once")
    plus = g.mask_of(b.side_plus)
    return sum((g.masks[v] & plus).bit_count() for v in b.side_minus)


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
    adj = np.zeros((n, n))
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1.0
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
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
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
