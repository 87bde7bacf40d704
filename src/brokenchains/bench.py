"""Experiment harness: instance generation, pipeline runs, metric tables.

Three experiment families mirror the benchmark layout this package
reproduces at desk scale:

* ``run_fig2``  - broken-chain proportion vs graph density at a fixed
  per-problem chain strength.
* ``run_fig3``  - solution quality of every unembedding method vs density,
  with improvement ratios of the tailored algorithm over each baseline.
* ``run_fig4``  - tailored-method quality across a chain-strength grid,
  normalized per (problem, density) group.

Each experiment builds its Chimera graph and clique embedding once;
``run_graph_pipeline`` compiles every graph onto them, decomposes every
read once and records its broken-chain fraction and, for each method the
experiment scores, its witness; ``repair`` is the one place a method
name turns into a repair call.  Rows score those witnesses at emission
time.  A fixed seed makes the emitted CSV byte-identical across runs.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from brokenchains import bqm as bqmlib
from brokenchains.bqm import ISING, convert, scale_to_unit_range
from brokenchains.graphs import (
    Bipartition,
    Graph,
    PROBLEMS,
    cut_size,
    erdos_renyi,
    is_clique,
    is_vertex_cover,
)
from brokenchains.sampler import AnnealParams, inject_chain_breaks, simulated_anneal
from brokenchains.seeding import (
    STREAM_GRAPH,
    STREAM_LOGICAL,
    STREAM_TAILORED,
    STREAM_WEIGHTED,
    derive_seed,
)
from brokenchains.topology import (
    Embedding,
    HardwareGraph,
    PhysicalModel,
    chain_columns,
    chimera,
    clique_embedding,
    embed_bqm,
    identity_embedding,
    uniform_torque_compensation,
)
from brokenchains.unembed import (
    UnembedContext,
    decompose,
    majority_vote,
    minimize_energy,
    random_weighted,
    unembed_tailored,
)

MAXIMIZATION = {"max_clique", "max_cut"}
MINIMIZATION = {"min_vertex_cover", "graph_partitioning"}

FIG2_CHAIN_STRENGTH = {
    "max_cut": 2.0,
    "max_clique": 0.3,
    "min_vertex_cover": 2.0,
    "graph_partitioning": 10.0,
}

# repair method -> short name, as in the CLI's --method and fig3's ratio_vs_*
SHORT_NAMES = {
    "majority_vote": "majority",
    "random_weighted": "random",
    "minimize_energy": "minenergy",
    "tailored": "tailored",
}
METHODS = tuple(SHORT_NAMES)
BASELINES = METHODS[:-1]

CSV_COLUMNS = [
    "problem",
    "density",
    "chain_strength",
    "method",
    "graph_seed",
    "objective",
    "feasible",
    "broken_frac_mean",
    "broken_frac_std",
    "ratio_vs_majority",
    "ratio_vs_random",
    "ratio_vs_minenergy",
]


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    densities: tuple
    n: int = 30
    graphs_per_density: int = 20
    reads: int = 200
    sweeps: int = 1000
    beta_range: tuple = (0.1, 10.0)
    chain_strength: object = None  # None (experiment default) | float | "utc"
    prefactor: float = 1.414
    seed: int = 0
    topology: tuple = (8, 8, 4)
    aggregate: str = "best"
    source: str = "anneal"  # "anneal" | "inject"
    p_break: float = 0.0
    chain_strength_grid: tuple = ()

    def validate(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if not self.densities:
            raise ValueError("at least one density is required")
        for p in self.densities:
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"density {p} outside [0, 1]")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.graphs_per_density < 1:
            raise ValueError("graphs_per_density must be >= 1")
        if self.reads < 1 or self.sweeps < 1:
            raise ValueError("reads and sweeps must be >= 1")
        if self.aggregate not in ("best", "mean"):
            raise ValueError("aggregate must be 'best' or 'mean'")
        if self.source not in ("anneal", "inject"):
            raise ValueError("source must be 'anneal' or 'inject'")
        if not (0.0 <= self.p_break <= 1.0):
            raise ValueError("p_break must be in [0, 1]")
        m, n, t = self.topology
        if self.n > t * m + 1 or m != n:
            raise ValueError(
                f"{self.n} logical vertices do not fit chimera{tuple(self.topology)}"
            )
        if isinstance(self.chain_strength, str) and self.chain_strength != "utc":
            raise ValueError("chain_strength must be a number or 'utc'")
        if isinstance(self.chain_strength, (int, float)) and self.chain_strength <= 0:
            raise ValueError("chain_strength must be positive")
        if self.prefactor <= 0:
            raise ValueError("prefactor must be positive")
        for s in self.chain_strength_grid:
            if s <= 0:
                raise ValueError(f"chain strength {s} must be positive")


@dataclass
class MetricRow:
    problem: str
    density: float
    chain_strength: float
    method: str
    graph_seed: int
    objective: object = None
    feasible: object = None
    broken_frac_mean: float = None
    broken_frac_std: float = None
    ratio_vs_majority: float = None
    ratio_vs_random: float = None
    ratio_vs_minenergy: float = None


def improvement_ratio(problem: str, ours: float, baseline: float):
    """Directional objective quotient; values above 1 favor ``ours``.

    Maximization problems divide ours by the baseline, minimization the
    reciprocal.  A zero denominator returns ``None`` so the caller can flag
    and exclude the row from averages.
    """
    if problem in MAXIMIZATION:
        return None if baseline == 0 else ours / baseline
    if problem in MINIMIZATION:
        return None if ours == 0 else baseline / ours
    raise ValueError(f"unknown problem {problem!r}")


def normalize_group(values):
    """Scale a group of objective values by |min|; returns (scaled, ok).

    The group's minimum maps to +-1.  Groups whose minimum is zero are
    returned unchanged with ``ok`` False.
    """
    values = list(values)
    smallest = min(values)
    if smallest == 0:
        return values, False
    return [v / abs(smallest) for v in values], True


def normalize_objectives(rows):
    """Normalize ``objective`` across rows grouped by (problem, density)."""
    groups = {}
    for row in rows:
        groups.setdefault((row.problem, row.density), []).append(row)
    for group in groups.values():
        scaled, ok = normalize_group([row.objective for row in group])
        if not ok:
            for row in group:
                row.feasible = "unnormalized"
            continue
        for row, value in zip(group, scaled):
            row.objective = value
    return rows


def broken_chain_proportion(fractions) -> tuple:
    """Mean and population std of per-read (#broken chains) / (#chains)."""
    arr = np.array(fractions)
    return float(arr.mean()), float(arr.std())


def witness_from_values(problem: str, values: dict, g: Graph):
    """Turn a full logical assignment into the problem's witness object."""
    if problem in ("max_clique", "min_vertex_cover"):
        return frozenset(v for v, x in values.items() if x == 1)
    minus = frozenset(v for v, x in values.items() if x == -1)
    plus = frozenset(g.vertices()) - minus
    return Bipartition(side_minus=minus, side_plus=plus)


def score_witness(problem: str, g: Graph, witness):
    """(objective, feasible) with infeasible witnesses scored conservatively.

    Infeasible maximization witnesses score 0; an infeasible cover scores
    the trivial all-vertices size; an unbalanced partition keeps its cut
    size but is flagged infeasible.
    """
    if problem == "max_clique":
        ok = is_clique(g, witness)
        return (len(witness) if ok else 0), ok
    if problem == "min_vertex_cover":
        ok = is_vertex_cover(g, witness)
        return (len(witness) if ok else g.n), ok
    if problem == "max_cut":
        return cut_size(g, witness), True
    if problem == "graph_partitioning":
        return cut_size(g, witness), witness.is_balanced()
    raise ValueError(f"unknown problem {problem!r}")


def repair(method: str, readouts, problem: str, g: Graph, model, seed: int, read: int):
    """Witness of one read's chain readouts under one repair method.

    ``model`` is the logical problem model (for minimize energy).  Random
    weighting and the tailored algorithm draw from their own sub-stream of
    ``seed`` for ``read``, so which other methods run changes nothing here.
    """
    if method == "majority_vote":
        values = majority_vote(readouts)
    elif method == "random_weighted":
        values = random_weighted(readouts, derive_seed(seed, STREAM_WEIGHTED, read))
    elif method == "minimize_energy":
        values = minimize_energy(readouts, model)
    elif method == "tailored":
        ctx = UnembedContext(g, problem, derive_seed(seed, STREAM_TAILORED, read))
        return unembed_tailored(readouts, ctx)
    else:
        raise ValueError(f"unknown repair method {method!r}")
    return witness_from_values(problem, values, g)


@dataclass
class GraphRun:
    """Raw material of one (graph, chain strength) pipeline execution."""

    graph: Graph
    graph_seed: int
    chain_strength: float
    ising: object  # logical Ising model, as embedded
    broken_fracs: list  # per read: broken chains / chains
    witnesses: dict = field(default_factory=dict)  # method -> list per read


def _resolve_chain_strength(strength, ising, prefactor):
    if strength == "utc":
        return uniform_torque_compensation(ising, prefactor=prefactor)
    return float(strength)


def _draw_physical_samples(config, pm, ising, graph_seed):
    stream = STREAM_GRAPH if config.source == "anneal" else STREAM_LOGICAL
    params = AnnealParams(
        num_reads=config.reads,
        sweeps=config.sweeps,
        beta_range=tuple(config.beta_range),
        seed=derive_seed(graph_seed, stream),
    )
    if config.source == "anneal":
        return simulated_anneal(pm, params)
    # inject: anneal the *logical* model, then copy each read onto the
    # chains and flip qubits with probability p_break
    logical_pm = PhysicalModel(ising, 1.0, identity_embedding(ising.variables()), ())
    logical_samples = simulated_anneal(logical_pm, params)
    return inject_chain_breaks(
        logical_samples, pm.source_embedding, config.p_break, graph_seed, pm
    )


def run_graph_pipeline(
    config: ExperimentConfig,
    hw: HardwareGraph,
    embedding: Embedding,
    density: float,
    index: int,
    strength,
    scale: bool = False,
    methods=METHODS,
) -> GraphRun:
    """Generate one instance, compile it onto ``embedding`` over ``hw``,
    sample it, and repair every read.

    ``hw`` and ``embedding`` are the experiment's ``chimera(*topology)``
    and ``clique_embedding(n, hw)``.  Only ``methods`` run; each read's
    broken-chain fraction is always kept.
    """
    graph_seed = derive_seed(config.seed, STREAM_GRAPH, int(round(density * 1e9)), index)
    g = erdos_renyi(config.n, density, graph_seed)
    problem_model = bqmlib.build_model(config.problem, g)
    ising = convert(problem_model, ISING)
    if scale:
        ising = scale_to_unit_range(ising)
    chain_strength = _resolve_chain_strength(strength, ising, config.prefactor)
    pm = embed_bqm(ising, embedding, hw, chain_strength)
    samples = _draw_physical_samples(config, pm, ising, graph_seed)

    chains = chain_columns(embedding, samples.qubits)
    broken_fracs = []
    witnesses = {name: [] for name in methods}
    for read, spins in enumerate(samples.spins):
        readouts = decompose(spins, chains, domain=problem_model.domain)
        broken_fracs.append(sum(r.broken for r in readouts) / len(readouts))
        for name in methods:
            witnesses[name].append(
                repair(name, readouts, config.problem, g, problem_model, graph_seed, read)
            )
    return GraphRun(g, graph_seed, chain_strength, ising, broken_fracs, witnesses)


def aggregate_objective(config: ExperimentConfig, run: GraphRun, method: str):
    """Per-graph score of a method over its reads.

    Returns (objective, feasible).  The default best-of aggregation takes
    the best objective among *feasible* reads; a method with no feasible
    read at all falls back to the conservative convention (0 for
    maximization, |V| for covers, the best raw cut for partitions) and is
    flagged infeasible.  The mean aggregation averages the per-read scores
    and reports the feasible fraction.
    """
    scored = [
        score_witness(config.problem, run.graph, w) for w in run.witnesses[method]
    ]
    objectives = [s[0] for s in scored]
    if config.aggregate == "mean":
        feas = sum(1 for _, ok in scored if ok) / len(scored)
        return float(np.mean(objectives)), feas
    feasible = [obj for obj, ok in scored if ok]
    if feasible:
        value = max(feasible) if config.problem in MAXIMIZATION else min(feasible)
        return value, True
    if config.problem in MAXIMIZATION:
        return 0, False
    if config.problem == "min_vertex_cover":
        return run.graph.n, False
    return min(objectives), False


def chain_strength_setting(experiment: str, config: ExperimentConfig):
    """The chain strength an experiment runs at, with its default resolved.

    fig2 defaults to ``FIG2_CHAIN_STRENGTH`` of the problem, fig3 to
    ``"utc"``; fig4 runs at every strength of its grid.
    """
    if experiment == "fig4":
        return list(config.chain_strength_grid)
    if config.chain_strength is not None:
        return config.chain_strength
    return FIG2_CHAIN_STRENGTH[config.problem] if experiment == "fig2" else "utc"


def _topology(config: ExperimentConfig):
    """The experiment's hardware graph and the clique embedding on it."""
    hw = chimera(*config.topology)
    return hw, clique_embedding(config.n, hw)


def run_fig2(config: ExperimentConfig):
    """Broken-chain proportion per graph at a fixed per-problem chain strength."""
    config.validate()
    strength = chain_strength_setting("fig2", config)
    hw, embedding = _topology(config)
    rows = []
    for density in config.densities:
        for index in range(config.graphs_per_density):
            run = run_graph_pipeline(
                config, hw, embedding, density, index, strength, methods=()
            )
            mean, std = broken_chain_proportion(run.broken_fracs)
            degenerate = not any(c != 0.0 for c in run.ising.quadratic.values())
            rows.append(
                MetricRow(
                    problem=config.problem,
                    density=density,
                    chain_strength=run.chain_strength,
                    method="",
                    graph_seed=run.graph_seed,
                    feasible="degenerate" if degenerate else "",
                    broken_frac_mean=mean,
                    broken_frac_std=std,
                )
            )
    return rows


def run_fig3(config: ExperimentConfig):
    """Per-graph objectives for every method plus tailored-vs-baseline ratios."""
    config.validate()
    strength = chain_strength_setting("fig3", config)
    hw, embedding = _topology(config)
    rows = []
    for density in config.densities:
        for index in range(config.graphs_per_density):
            run = run_graph_pipeline(config, hw, embedding, density, index, strength)
            mean, std = broken_chain_proportion(run.broken_fracs)
            scores = {m: aggregate_objective(config, run, m) for m in METHODS}
            ratios = {
                f"ratio_vs_{SHORT_NAMES[b]}": improvement_ratio(
                    config.problem, scores["tailored"][0], scores[b][0]
                )
                for b in BASELINES
            }
            for method in METHODS:
                objective, feasible = scores[method]
                rows.append(
                    MetricRow(
                        problem=config.problem,
                        density=density,
                        chain_strength=run.chain_strength,
                        method=method,
                        graph_seed=run.graph_seed,
                        objective=objective,
                        feasible=feasible,
                        broken_frac_mean=mean,
                        broken_frac_std=std,
                        **(ratios if method == "tailored" else {}),
                    )
                )
    return rows


def run_fig4(config: ExperimentConfig):
    """Tailored-method quality across a chain-strength grid.

    Emits one row per (density, strength, graph) with the raw objective,
    plus one aggregate row per (density, strength) with ``graph_seed``
    empty whose objective is the graph mean, normalized within each
    (problem, density) group.  Graph partitioning models are scaled into
    (-1, 1) before embedding.
    """
    config.validate()
    if not config.chain_strength_grid:
        raise ValueError("run_fig4 requires a chain_strength_grid")
    scale = config.problem == "graph_partitioning"
    hw, embedding = _topology(config)
    rows = []
    aggregate_rows = []
    for density in config.densities:
        per_strength = []
        for strength in config.chain_strength_grid:
            per_graph = []
            for index in range(config.graphs_per_density):
                run = run_graph_pipeline(
                    config, hw, embedding, density, index, strength,
                    scale=scale, methods=("tailored",),
                )
                mean, std = broken_chain_proportion(run.broken_fracs)
                objective, feasible = aggregate_objective(config, run, "tailored")
                per_graph.append(objective)
                rows.append(
                    MetricRow(
                        problem=config.problem,
                        density=density,
                        chain_strength=run.chain_strength,
                        method="tailored",
                        graph_seed=run.graph_seed,
                        objective=objective,
                        feasible=feasible,
                        broken_frac_mean=mean,
                        broken_frac_std=std,
                    )
                )
            per_strength.append(
                MetricRow(
                    problem=config.problem,
                    density=density,
                    chain_strength=float(strength),
                    method="tailored",
                    graph_seed="",
                    objective=float(np.mean(per_graph)),
                )
            )
        aggregate_rows.extend(per_strength)
    normalize_objectives(aggregate_rows)
    return rows + aggregate_rows


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))  # plain shortest round-trip repr
    return str(value)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_experiment(out_dir, name: str, config: ExperimentConfig, rows, started: float):
    """Write <name>.csv and <name>_manifest.json into ``out_dir``.

    The manifest echoes the config and records the chain strength the run
    used (``chain_strength_setting``), version and wall time.  ``started``
    is the run's ``time.perf_counter()`` reading at its start.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(csv_path, "w") as fh:
        fh.write(rows_to_csv(rows))
    manifest = {
        "experiment": name,
        "config": asdict(config),
        "chain_strength": chain_strength_setting(name, config),
        "rows": len(rows),
        "tool_version": __import__("brokenchains").__version__,
        "wall_time_s": time.perf_counter() - started,
    }
    with open(os.path.join(out_dir, f"{name}_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=list)
    return csv_path
