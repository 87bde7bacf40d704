"""Binary quadratic models: energy evaluation, domain conversion, builders.

A model stores its linear and quadratic terms as arrays, a constant
offset, and its variable domain (``qubo`` over {0, 1} or ``ising`` over
{-1, +1}); the physical model ``topology.embed_bqm`` compiles is one too.
Minimizing the four problem models built here solves the corresponding
graph problem:

* max_clique (QUBO):     -sum_v x_v + 2 * sum_{(u,v) not in E} x_u x_v
* min_vertex_cover (QUBO): sum_v x_v + 2 * sum_{(u,v) in E} (1-x_u)(1-x_v)
* max_cut (Ising):        sum_{(u,v) in E} x_u x_v
* graph_partitioning (Ising):
    A * (sum_v x_v)^2 + sum_{(u,v) in E} (1 - x_u x_v) / 2
    with A = min(|V|, max degree) / 8 (|V|/8 for edgeless graphs).

Note the clique penalty runs over the *complement* edge set: a quadratic
penalty on graph edges would punish exactly the pairs a clique must
contain, so only the complement placement makes the minima coincide with
maximum cliques.

The builders lay their terms out in ascending pair order, from the graph's
sorted edge arrays ``u`` and ``v``; a model's term order, and with it the
coupler order every anneal and energy sums in, is that pair order.
``energy`` and ``convert`` add one term at a time: linear terms by
ascending variable, then quadratic terms in order.
"""

import json
from dataclasses import dataclass

import numpy as np

from brokenchains.graphs import Graph, complement, is_int, require_problem, require_real

QUBO = "qubo"
ISING = "ising"

_DOMAIN_VALUES = {QUBO: (0, 1), ISING: (-1, 1)}


def _pair(u, v):
    if u == v:
        raise ValueError(f"quadratic term pairs variable {u} with itself")
    return (u, v) if u < v else (v, u)


def _running_sum(start: float, *terms) -> float:
    """``start`` plus every entry of the ``terms`` arrays, added one at a
    time from left to right (``np.sum`` adds pairwise, in another order)."""
    return float(np.add.accumulate(np.concatenate([[start], *terms]))[-1])


@dataclass(frozen=True, eq=False)
class BinaryQuadraticModel:
    """Immutable quadratic model over integer variable ids, as read-only
    arrays: ``ids`` ascending, with linear coefficients ``h``, and distinct
    ``pairs`` ``u < v`` of ids in term order, with couplings ``j``, each
    stored as ``0.0 + c``.  Equal models have the same terms in any order.
    """

    domain: str
    ids: np.ndarray  # int64
    h: np.ndarray  # float64, one per id
    pairs: np.ndarray  # (k, 2) int64
    j: np.ndarray  # float64, one per pair
    offset: float = 0.0

    def __post_init__(self):
        if self.domain not in (QUBO, ISING):
            raise ValueError(f"domain must be {QUBO!r} or {ISING!r}")
        arrays = {
            "ids": np.array(self.ids, dtype=np.int64),
            "h": np.array(self.h, dtype=np.float64),
            "pairs": np.array(self.pairs, dtype=np.int64).reshape(-1, 2),
            "j": 0.0 + np.asarray(self.j, dtype=np.float64),
        }
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def from_terms(cls, domain: str, linear, quadratic, offset: float = 0.0):
        """The model of ``linear`` ``{v: c}`` and ``quadratic`` ``{(u, v): c}``.

        A pair may come in either order; given in both, it is summed in the
        order given and keeps its first place.  Every end of a pair gets a
        0.0 linear coefficient unless ``linear`` gives it one.
        ``ValueError`` on a pair of a variable with itself."""
        fields = {int(v): float(c) for v, c in linear.items()}
        couplings = {}
        for (u, v), c in quadratic.items():
            key = _pair(int(u), int(v))
            couplings[key] = couplings.get(key, 0.0) + float(c)
        for u, v in couplings:
            fields.setdefault(u, 0.0)
            fields.setdefault(v, 0.0)
        ids = sorted(fields)
        return cls(domain, ids, [fields[v] for v in ids], list(couplings),
                   list(couplings.values()), offset)

    def variables(self) -> list:
        return self.ids.tolist()

    def positions(self) -> np.ndarray:
        """The ``(k, 2)`` positions in ``ids`` of the ends of every pair."""
        return np.searchsorted(self.ids, self.pairs)

    def sorted_terms(self) -> tuple:
        """``(pairs, j)`` in ascending pair order, ``u`` then ``v``."""
        order = np.lexsort(self.pairs.T[::-1])
        return self.pairs[order], self.j[order]

    def __eq__(self, other):
        return (
            isinstance(other, BinaryQuadraticModel)
            and self.domain == other.domain
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.h, other.h)
            and all(map(np.array_equal, self.sorted_terms(), other.sorted_terms()))
            and self.offset == other.offset
        )


def energy(m: BinaryQuadraticModel, assignment: dict) -> float:
    """sum a_i x_i + sum a_ij x_i x_j + offset for a complete assignment,
    added term by term after the offset."""
    allowed = _DOMAIN_VALUES[m.domain]
    variables = m.variables()
    for v in variables:
        if v not in assignment:
            raise ValueError(f"assignment missing variable {v}")
        if assignment[v] not in allowed:
            raise ValueError(
                f"value {assignment[v]} for variable {v} outside {m.domain} domain"
            )
    x = np.array([assignment[v] for v in variables], dtype=np.float64)
    u, v = m.positions().T
    return _running_sum(m.offset, m.h * x, m.j * x[u] * x[v])


def convert(m: BinaryQuadraticModel, target: str) -> BinaryQuadraticModel:
    """Equivalent model in the target domain under bit b <-> spin 2b - 1.

    Energies agree for every assignment and its image: exactly when every
    coefficient is a small dyadic rational (as those of the four builders
    are), and otherwise up to rounding, a few units in the last place.
    Constants are absorbed into the offset.  Converting to the same domain
    returns the model unchanged.
    """
    if target not in (QUBO, ISING):
        raise ValueError(f"target must be {QUBO!r} or {ISING!r}")
    if target == m.domain:
        return m
    # each term's share of a linear coefficient goes to u, then v, term by term
    ends = m.positions().ravel()
    if target == ISING:
        # x = (s + 1) / 2
        h, j = m.h / 2.0, m.j / 4.0
        offset = _running_sum(m.offset, h, j)
        np.add.at(h, ends, j.repeat(2))
    else:
        # s = 2x - 1
        h, j = 2.0 * m.h, 4.0 * m.j
        offset = _running_sum(m.offset, -m.h, m.j)
        np.subtract.at(h, ends, (2.0 * m.j).repeat(2))
    return BinaryQuadraticModel(target, m.ids, h, m.pairs, j, offset)


def build_max_clique_qubo(g: Graph) -> BinaryQuadraticModel:
    """QUBO whose minima are maximum cliques, with H = -(clique size) there."""
    missing = complement(g)
    pairs = np.stack([missing.u, missing.v], axis=1)
    return BinaryQuadraticModel(QUBO, np.arange(g.n), np.full(g.n, -1.0), pairs,
                                np.full(len(pairs), 2.0))


def build_min_vertex_cover_qubo(g: Graph) -> BinaryQuadraticModel:
    """QUBO whose minima are minimum vertex covers, with H = cover size there."""
    # 2 (1 - x_u)(1 - x_v) = 2 - 2 x_u - 2 x_v + 2 x_u x_v per edge
    degree = np.bincount(np.concatenate([g.u, g.v]), minlength=g.n)
    return BinaryQuadraticModel(QUBO, np.arange(g.n), 1.0 - 2.0 * degree,
                                np.stack([g.u, g.v], axis=1), np.full(len(g.u), 2.0),
                                2.0 * len(g.u))


def build_max_cut_ising(g: Graph) -> BinaryQuadraticModel:
    """Ising model with +1 per edge; cut size = (|E| - H) / 2."""
    return BinaryQuadraticModel(ISING, np.arange(g.n), np.zeros(g.n),
                                np.stack([g.u, g.v], axis=1), np.ones(len(g.u)))


def partition_weight(g: Graph) -> float:
    """Balance penalty A = min(|V|, max degree) / 8, or |V|/8 when edgeless."""
    if not len(g.u):
        return g.n / 8.0
    return min(g.n, g.max_degree()) / 8.0


def build_graph_partitioning_ising(g: Graph) -> BinaryQuadraticModel:
    """Ising model trading cut size against a quadratic balance penalty.

    Expanding A (sum x_v)^2 gives offset A*n, a 2A coupler on every vertex
    pair, and the edge sum adds |E|/2 to the offset and -1/2 per edge, with
    A = ``partition_weight(g)``.
    """
    a = partition_weight(g)
    u, v = np.triu_indices(g.n, 1)
    return BinaryQuadraticModel(ISING, np.arange(g.n), np.zeros(g.n), np.stack([u, v], axis=1),
                                2.0 * a - 0.5 * g.adjacency[u, v], a * g.n + len(g.u) / 2.0)


def build_model(problem: str, g: Graph) -> BinaryQuadraticModel:
    builders = {
        "max_clique": build_max_clique_qubo,
        "min_vertex_cover": build_min_vertex_cover_qubo,
        "max_cut": build_max_cut_ising,
        "graph_partitioning": build_graph_partitioning_ising,
    }
    return builders[require_problem(problem)](g)


def scale_to_unit_range(m: BinaryQuadraticModel) -> BinaryQuadraticModel:
    """Divide all coefficients by max |coefficient| so the largest is 1.

    The offset is scaled by the same factor, which preserves the set of
    minimizing assignments.  All-zero models are returned unchanged.
    """
    largest = max(np.abs(m.h).max(initial=0.0), np.abs(m.j).max(initial=0.0))
    if largest == 0.0:
        return m
    return BinaryQuadraticModel(m.domain, m.ids, m.h / largest, m.pairs, m.j / largest,
                                m.offset / largest)


def to_json(m: BinaryQuadraticModel) -> str:
    pairs, j = m.sorted_terms()
    doc = {
        "domain": m.domain,
        "linear": {str(v): c for v, c in zip(m.ids.tolist(), m.h.tolist())},
        "quadratic": [[u, v, c] for (u, v), c in zip(pairs.tolist(), j.tolist())],
        "offset": m.offset,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def require_keys(doc, keys, what: str):
    """``doc``, once it is a JSON object holding every one of ``keys``.

    Raises ``ValueError`` naming ``what`` and its shape or first missing
    key, so that a malformed file fails with a message, not a ``KeyError``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} has no {key!r}")
    return doc


def from_json(text: str) -> BinaryQuadraticModel:
    """Read ``to_json`` output; raises ``ValueError`` on a missing key, a bad
    shape or a coefficient that is not a real number."""
    doc = require_keys(json.loads(text), ("domain", "linear", "quadratic"), "model")
    linear = require_keys(doc["linear"], (), "model linear")
    quadratic = doc["quadratic"]
    if not isinstance(quadratic, list) or not all(
        isinstance(term, list) and len(term) == 3
        and all(map(is_int, term[:2]))
        for term in quadratic
    ):
        raise ValueError("model quadratic must be a list of [u, v, coefficient] triples")
    return BinaryQuadraticModel.from_terms(
        doc["domain"],
        {int(v): require_real(c, f"model linear {v}") for v, c in linear.items()},
        {(u, v): require_real(c, f"model quadratic ({u}, {v})") for u, v, c in quadratic},
        require_real(doc.get("offset", 0.0), "model offset"),
    )
