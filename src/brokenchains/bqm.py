"""Binary quadratic models: energy evaluation, domain conversion, builders.

A model stores linear coefficients, quadratic coefficients on unordered
variable pairs, a constant offset, and its variable domain (``qubo`` over
{0, 1} or ``ising`` over {-1, +1}).  Minimizing the four problem models
built here solves the corresponding graph problem:

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

The builders add their terms in ascending pair order, from the graph's
sorted edge arrays ``u`` and ``v``, so a model's term order, and with it
the coupler order every anneal and energy sums in, does not follow the
hash order of the edge set.
"""

import json
import math
from dataclasses import dataclass, field

from brokenchains.graphs import Graph, complement

QUBO = "qubo"
ISING = "ising"

_DOMAIN_VALUES = {QUBO: (0, 1), ISING: (-1, 1)}


def _pair(u, v):
    if u == v:
        raise ValueError(f"quadratic term pairs variable {u} with itself")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class BinaryQuadraticModel:
    """Immutable quadratic model over integer variable ids."""

    domain: str
    linear: dict
    quadratic: dict
    offset: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.domain not in (QUBO, ISING):
            raise ValueError(f"domain must be {QUBO!r} or {ISING!r}")
        lin = {int(v): float(c) for v, c in self.linear.items()}
        quad = {}
        for (u, v), c in self.quadratic.items():
            key = _pair(int(u), int(v))
            quad[key] = quad.get(key, 0.0) + float(c)
        for u, v in quad:
            lin.setdefault(u, 0.0)
            lin.setdefault(v, 0.0)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "offset", float(self.offset))

    def variables(self):
        return sorted(self.linear)

    def interaction_graph(self) -> Graph:
        """Graph on 0..max_var with an edge per nonzero quadratic term."""
        n = max(self.linear, default=-1) + 1
        return Graph(n, [uv for uv, c in self.quadratic.items() if c != 0.0])

    def __eq__(self, other):
        return (
            isinstance(other, BinaryQuadraticModel)
            and self.domain == other.domain
            and self.linear == other.linear
            and self.quadratic == other.quadratic
            and self.offset == other.offset
        )


def energy(m: BinaryQuadraticModel, assignment: dict) -> float:
    """sum a_i x_i + sum a_ij x_i x_j + offset for a complete assignment."""
    allowed = _DOMAIN_VALUES[m.domain]
    for v in m.linear:
        if v not in assignment:
            raise ValueError(f"assignment missing variable {v}")
        if assignment[v] not in allowed:
            raise ValueError(
                f"value {assignment[v]} for variable {v} outside {m.domain} domain"
            )
    total = m.offset
    for v, c in m.linear.items():
        total += c * assignment[v]
    for (u, v), c in m.quadratic.items():
        total += c * assignment[u] * assignment[v]
    return total


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
    linear = {}
    quadratic = {}
    offset = m.offset
    if target == ISING:
        # x = (s + 1) / 2
        for v, a in m.linear.items():
            linear[v] = a / 2.0
            offset += a / 2.0
        for (u, v), a in m.quadratic.items():
            quadratic[(u, v)] = a / 4.0
            linear[u] += a / 4.0
            linear[v] += a / 4.0
            offset += a / 4.0
    else:
        # s = 2x - 1
        for v, h in m.linear.items():
            linear[v] = 2.0 * h
            offset -= h
        for (u, v), j in m.quadratic.items():
            quadratic[(u, v)] = 4.0 * j
            linear[u] -= 2.0 * j
            linear[v] -= 2.0 * j
            offset += j
    return BinaryQuadraticModel(target, linear, quadratic, offset, dict(m.metadata))


def build_max_clique_qubo(g: Graph) -> BinaryQuadraticModel:
    """QUBO whose minima are maximum cliques, with H = -(clique size) there."""
    linear = {v: -1.0 for v in g.vertices()}
    missing = complement(g)
    quadratic = {(u, v): 2.0 for u, v in zip(missing.u.tolist(), missing.v.tolist())}
    return BinaryQuadraticModel(QUBO, linear, quadratic, 0.0)


def build_min_vertex_cover_qubo(g: Graph) -> BinaryQuadraticModel:
    """QUBO whose minima are minimum vertex covers, with H = cover size there."""
    linear = {v: 1.0 for v in g.vertices()}
    quadratic = {}
    offset = 0.0
    for u, v in zip(g.u.tolist(), g.v.tolist()):
        # 2 (1 - x_u)(1 - x_v) = 2 - 2 x_u - 2 x_v + 2 x_u x_v
        offset += 2.0
        linear[u] -= 2.0
        linear[v] -= 2.0
        quadratic[(u, v)] = 2.0
    return BinaryQuadraticModel(QUBO, linear, quadratic, offset)


def build_max_cut_ising(g: Graph) -> BinaryQuadraticModel:
    """Ising model with +1 per edge; cut size = (|E| - H) / 2."""
    linear = {v: 0.0 for v in g.vertices()}
    quadratic = {(u, v): 1.0 for u, v in zip(g.u.tolist(), g.v.tolist())}
    return BinaryQuadraticModel(ISING, linear, quadratic, 0.0)


def partition_weight(g: Graph) -> float:
    """Balance penalty A = min(|V|, max degree) / 8, or |V|/8 when edgeless."""
    if not g.edges:
        return g.n / 8.0
    return min(g.n, g.max_degree()) / 8.0


def build_graph_partitioning_ising(g: Graph) -> BinaryQuadraticModel:
    """Ising model trading cut size against a quadratic balance penalty.

    Expanding A (sum x_v)^2 gives offset A*n, a 2A coupler on every vertex
    pair, and the edge sum adds |E|/2 to the offset and -1/2 per edge.  The
    penalty weight is kept in ``metadata['partition_weight']``.
    """
    a = partition_weight(g)
    linear = {v: 0.0 for v in g.vertices()}
    quadratic = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            quadratic[(u, v)] = 2.0 * a
    for u, v in zip(g.u.tolist(), g.v.tolist()):
        quadratic[(u, v)] -= 0.5
    offset = a * g.n + len(g.edges) / 2.0
    return BinaryQuadraticModel(
        ISING, linear, quadratic, offset, {"partition_weight": a}
    )


def build_model(problem: str, g: Graph) -> BinaryQuadraticModel:
    builders = {
        "max_clique": build_max_clique_qubo,
        "min_vertex_cover": build_min_vertex_cover_qubo,
        "max_cut": build_max_cut_ising,
        "graph_partitioning": build_graph_partitioning_ising,
    }
    if problem not in builders:
        raise ValueError(f"unknown problem {problem!r}")
    return builders[problem](g)


def scale_to_unit_range(m: BinaryQuadraticModel) -> BinaryQuadraticModel:
    """Divide all coefficients by max |coefficient| so the largest is 1.

    The offset is scaled by the same factor, which preserves the set of
    minimizing assignments.  All-zero models are returned unchanged.
    """
    largest = max(
        [abs(c) for c in m.linear.values()] + [abs(c) for c in m.quadratic.values()],
        default=0.0,
    )
    if largest == 0.0:
        return m
    return BinaryQuadraticModel(
        m.domain,
        {v: c / largest for v, c in m.linear.items()},
        {uv: c / largest for uv, c in m.quadratic.items()},
        m.offset / largest,
        dict(m.metadata),
    )


def to_json(m: BinaryQuadraticModel) -> str:
    doc = {
        "domain": m.domain,
        "linear": {str(v): c for v, c in sorted(m.linear.items())},
        "quadratic": [[u, v, c] for (u, v), c in sorted(m.quadratic.items())],
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


def is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


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


def from_json(text: str) -> BinaryQuadraticModel:
    """Read ``to_json`` output; raises ``ValueError`` on a missing key, a bad
    shape or a coefficient that is not a real number."""
    doc = require_keys(json.loads(text), ("domain", "linear", "quadratic"), "model")
    linear = require_keys(doc["linear"], (), "model linear")
    quadratic = doc["quadratic"]
    if not isinstance(quadratic, list) or not all(
        isinstance(term, list) and len(term) == 3
        and all(isinstance(x, int) and not isinstance(x, bool) for x in term[:2])
        for term in quadratic
    ):
        raise ValueError("model quadratic must be a list of [u, v, coefficient] triples")
    return BinaryQuadraticModel(
        doc["domain"],
        {int(v): require_real(c, f"model linear {v}") for v, c in linear.items()},
        {(u, v): require_real(c, f"model quadratic ({u}, {v})") for u, v, c in quadratic},
        require_real(doc.get("offset", 0.0), "model offset"),
    )
