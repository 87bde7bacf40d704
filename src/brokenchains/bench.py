"""Experiment harness: instance generation, pipeline runs, metric tables.

Three experiment families mirror the benchmark layout this package
reproduces at desk scale:

* ``run_fig2``  - broken-chain proportion vs graph density at a fixed
  per-problem chain strength.
* ``run_fig3``  - solution quality of every unembedding method vs density,
  with improvement ratios of the tailored algorithm over each baseline.
* ``run_fig4``  - tailored-method quality across a chain-strength grid,
  normalized per (problem, density) group.

All three are reports over one loop, ``_graph_runs``, which builds the
Chimera graph and clique embedding once and yields one ``GraphRun`` per
graph and chain strength in CSV row order.  ``run_graph_pipeline`` builds
each graph, its problem model and its Ising model once, compiles that
model onto them at every strength of the experiment (fig4's grid, or the
one strength of fig2 and fig3), and anneals all those physical models in
one ``anneal_grid`` pass, which draws each read's uniforms once for every
strength (with injected breaks, the logical model is annealed once and
each strength's chains get their own injected copy).  It decodes each
strength's sample set in one pass with ``decompose_set`` into one
``ReadoutSet`` of ``(reads, chains)`` arrays, and records each read's
broken-chain fraction and, for each method the experiment scores, the
witnesses of all reads; ``repair`` is the one place a method name turns
into a repair call, once per sample set, and every method runs on that
one set.  A method's witnesses are one
boolean ``(reads, n)`` array, row ``r`` for read ``r`` and column ``v``
for vertex ``v``, and ``graphs.score_rows`` scores a whole array at once
over the graph's edge arrays.
``_row`` fills the cells every row shares; the report adds the scores,
computed from those witnesses at emission time.  A fixed seed makes the
emitted CSV byte-identical across runs.
"""

import csv
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from brokenchains import __version__
from brokenchains import bqm as bqmlib
from brokenchains.bqm import ISING, convert, scale_to_unit_range
from brokenchains.graphs import (  # noqa: F401 (cut_size, is_*: wrapped by the harness)
    MAXIMIZED,
    Graph,
    cut_size,
    erdos_renyi,
    is_clique,
    is_vertex_cover,
    require_int,
    require_probability,
    require_problem,
    require_real,
    score_rows,
    witness_row,
)
from brokenchains.sampler import AnnealParams, anneal_grid, inject_chain_breaks, simulated_anneal
from brokenchains.seeding import (
    STREAM_GRAPH,
    STREAM_LOGICAL,
    STREAM_TAILORED,
    STREAM_WEIGHTED,
    derive_seed,
    streams,
)
from brokenchains.topology import (
    UTC_PREFACTOR,
    Embedding,
    HardwareGraph,
    PhysicalModel,
    chain_columns,
    chimera,
    clique_embedding,
    embed_bqm,
    identity_embedding,
    require_clique_fits,
    require_topology,
    uniform_torque_compensation,
)
from brokenchains.unembed import decompose  # noqa: F401 (wrapped by the harness)
from brokenchains.unembed import (
    ReadoutSet,
    decompose_set,
    majority_vote,
    minimize_energy,
    random_weighted,
    require_vertices,
    unembed_tailored,
)

# The layer calls above are looked up as module globals each time they run,
# never bound into tables or defaults at import: the perf harness times each
# layer by replacing these names on this module.  ``decompose_set`` decodes
# each sample set once, and each repair name runs once per set, on that one
# ``ReadoutSet``.  ``decompose_set`` is not wrapped, so the decode counts as
# this module's own time.
#
# The harness wraps ``simulated_anneal`` but not ``anneal_grid``, so a
# one-model anneal (fig2, fig3 and the logical anneal of injected breaks)
# goes through ``simulated_anneal``; the anneal of a grid of several
# strengths (fig4) counts as this module's own time.
#
# Bound here only because the harness wraps them by name, and called by no
# experiment: ``decompose``, ``witness_from_values``, ``score_witness`` and
# the three graph checks ``is_clique``, ``is_vertex_cover`` and
# ``cut_size``, which are one-row ``score_rows`` calls.  They go when the
# harness stops wrapping them.

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
    prefactor: float = UTC_PREFACTOR
    seed: int = 0
    topology: tuple = (8, 8, 4)
    aggregate: str = "best"
    source: str = "anneal"  # "anneal" | "inject"
    p_break: float = 0.0
    chain_strength_grid: tuple = ()

    def validate(self):
        """``ValueError`` naming the first bad setting and its value, a
        non-number where a number belongs included.  The anneal settings
        are decided by ``AnnealParams``, the topology by
        ``require_topology`` and whether ``n`` vertices fit it by
        ``require_clique_fits``, as everywhere else."""
        require_problem(self.problem)
        if not self.densities:
            raise ValueError("at least one density is required")
        for p in self.densities:
            require_probability(p, "density")
        for name in ("n", "graphs_per_density"):
            require_int(getattr(self, name), name, positive=True)
        AnnealParams(self.reads, self.sweeps, self.beta_range, self.seed)
        if self.aggregate not in ("best", "mean"):
            raise ValueError("aggregate must be 'best' or 'mean'")
        if self.source not in ("anneal", "inject"):
            raise ValueError("source must be 'anneal' or 'inject'")
        require_probability(self.p_break, "p_break")
        if self.source == "anneal" and self.p_break != 0:
            raise ValueError(f"p_break {self.p_break!r} needs source 'inject', not 'anneal'")
        require_clique_fits(self.n, require_topology(self.topology))
        if isinstance(self.chain_strength, str):
            if self.chain_strength != "utc":
                raise ValueError(
                    f"chain_strength must be a number or 'utc', not {self.chain_strength!r}"
                )
        elif self.chain_strength is not None:
            require_real(self.chain_strength, "chain_strength", positive=True)
        require_real(self.prefactor, "prefactor", positive=True)
        for s in self.chain_strength_grid:
            require_real(s, "chain_strength_grid entry", positive=True)


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


CSV_COLUMNS = [f.name for f in fields(MetricRow)]


def improvement_ratio(problem: str, ours: float, baseline: float):
    """Directional objective quotient; values above 1 favor ``ours``.

    Maximization problems divide ours by the baseline, minimization the
    reciprocal.  A zero denominator returns ``None`` so the caller can flag
    and exclude the row from averages.
    """
    if require_problem(problem) in MAXIMIZED:
        return None if baseline == 0 else ours / baseline
    return None if ours == 0 else baseline / ours


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
    """Normalize ``objective`` across rows grouped by (problem, density).

    Groups are keyed by the value of that pair, not by position: the rows
    of a density listed twice share one group and one |min|.
    """
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
    """The witness of a full logical assignment, for every problem: the
    vertex set valued 1, a clique or cover in the QUBO domain and the plus
    side of a cut or partition in the Ising domain."""
    return frozenset(v for v, x in values.items() if x == 1)


def score_witness(problem: str, g: Graph, witness):
    """(objective, feasible) of one witness vertex set, as ``score_rows``
    scores its row."""
    objectives, feasible = score_rows(problem, g, witness_row(g, witness))
    return int(objectives[0]), bool(feasible[0])


def repair(method: str, rs: ReadoutSet, problem: str, g: Graph, model, seed: int) -> np.ndarray:
    """The witnesses of every read of a sample set under one repair method,
    as one boolean ``(reads, g.n)`` array of rows (see ``score_rows``).

    ``rs`` must hold one chain per vertex, since the problem builders give
    every vertex a variable, or ``ValueError`` is raised.  Every method
    runs on the set's arrays and returns one row per read.  ``model`` is
    the logical problem model (for minimize energy).  Random weighting, max
    cut and partitioning give read ``r`` its own sub-stream of ``seed``,
    taken from its position, so which other methods run changes nothing
    here: the generator
    ``rng_from(derive_seed(seed, STREAM_WEIGHTED, r))`` (or
    ``STREAM_TAILORED``), which ``streams`` builds in read order.
    """
    require_vertices(rs, g)
    if method == "majority_vote":
        return majority_vote(rs)
    if method == "random_weighted":
        return random_weighted(rs, streams(seed, STREAM_WEIGHTED, 0))
    if method == "minimize_energy":
        return minimize_energy(rs, model)
    if method == "tailored":
        return unembed_tailored(rs, g, problem, streams(seed, STREAM_TAILORED, 0))
    raise ValueError(f"unknown repair method {method!r}")


@dataclass
class GraphRun:
    """Raw material of one (graph, chain strength) pipeline execution."""

    graph: Graph
    graph_seed: int
    chain_strength: float
    ising: object  # logical Ising model, as embedded
    broken_fracs: np.ndarray  # per read: broken chains / chains
    witnesses: dict = field(default_factory=dict)  # method -> (reads, n) bool rows


def _draw_physical_samples(config, pms, ising, graph_seed):
    """One sample set per model of ``pms``, each ``ising`` embedded at one
    chain strength, from one anneal."""
    stream = STREAM_GRAPH if config.source == "anneal" else STREAM_LOGICAL
    params = AnnealParams(
        num_reads=config.reads,
        sweeps=config.sweeps,
        beta_range=config.beta_range,
        seed=derive_seed(graph_seed, stream),
    )
    if config.source == "anneal":
        return [simulated_anneal(pms[0], params)] if len(pms) == 1 else anneal_grid(pms, params)
    # inject: anneal the *logical* model once, then copy each read onto the
    # chains of every model and flip qubits with probability p_break
    logical_pm = PhysicalModel(ising, identity_embedding(ising.variables()))
    logical_samples = simulated_anneal(logical_pm, params)
    return [inject_chain_breaks(logical_samples, config.p_break, graph_seed, pm) for pm in pms]


def run_graph_pipeline(
    config: ExperimentConfig,
    hw: HardwareGraph,
    embedding: Embedding,
    density: float,
    index: int,
    strengths,
    scale: bool = False,
    methods=METHODS,
) -> list:
    """Generate one instance, compile it onto ``embedding`` over ``hw`` at
    each chain strength setting of ``strengths``, sample every compiled
    model in one pass, and repair every read; one ``GraphRun`` per
    strength, in order.

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
    chain_strengths = [
        uniform_torque_compensation(ising, prefactor=config.prefactor) if s == "utc" else float(s)
        for s in strengths
    ]
    pms = [embed_bqm(ising, embedding, hw, c) for c in chain_strengths]
    sample_sets = _draw_physical_samples(config, pms, ising, graph_seed)

    chains = chain_columns(embedding, sample_sets[0].qubits)
    runs = []
    for chain_strength, samples in zip(chain_strengths, sample_sets):
        rs = decompose_set(samples.spins, chains)
        witnesses = {
            name: repair(name, rs, config.problem, g, problem_model, graph_seed)
            for name in methods
        }
        runs.append(
            GraphRun(g, graph_seed, chain_strength, ising, rs.broken.mean(axis=1), witnesses)
        )
    return runs


def aggregate_objective(config: ExperimentConfig, run: GraphRun, method: str):
    """Per-graph score of a method over its reads.

    Returns (objective, feasible).  The default best-of aggregation takes
    the best objective among *feasible* reads; a method with no feasible
    read at all takes the best over all reads, whose conservative
    ``score_rows`` scores (0 for a clique, |V| for a cover, the raw cut for
    a partition) it keeps, and is flagged infeasible.  The mean aggregation
    averages the per-read scores and reports the feasible fraction.
    """
    objectives, ok = score_rows(config.problem, run.graph, run.witnesses[method])
    objectives, ok = objectives.tolist(), ok.tolist()
    if config.aggregate == "mean":
        return float(np.mean(objectives)), sum(ok) / len(ok)
    feasible = [obj for obj, good in zip(objectives, ok) if good]
    best = max if config.problem in MAXIMIZED else min
    return best(feasible or objectives), bool(feasible)


def chain_strength_setting(experiment: str, config: ExperimentConfig):
    """The chain strength an experiment runs at, with its default resolved,
    and the one rule for which settings an experiment reads.

    fig2 defaults to ``FIG2_CHAIN_STRENGTH`` of the problem, fig3 to
    ``"utc"``; fig4 runs at its grid, which must not be empty.
    ``ValueError`` names another experiment or a setting it does not read:
    a grid at fig2 or fig3, a strength at fig4, fig2's ``aggregate`` unless
    ``"best"``, and a non-default prefactor unless the strength is UTC.
    """
    if experiment not in ("fig2", "fig3", "fig4"):
        raise ValueError(f"unknown experiment {experiment!r}; expected fig2, fig3 or fig4")
    grid, strength = config.chain_strength_grid, config.chain_strength
    if experiment == "fig2" and config.aggregate != "best":
        raise ValueError(f"fig2 does not read aggregate {config.aggregate!r}")
    if experiment == "fig4":
        if strength is not None:
            raise ValueError(f"fig4 does not read chain_strength {strength!r}")
        if not grid:
            raise ValueError("fig4 requires a chain_strength_grid")
        strength = list(grid)
    elif grid:
        raise ValueError(f"{experiment} does not read chain_strength_grid {grid!r}")
    elif strength is None:
        strength = FIG2_CHAIN_STRENGTH[config.problem] if experiment == "fig2" else "utc"
    require_prefactor_read(experiment, config.prefactor, strength)
    return strength


def require_prefactor_read(command: str, prefactor, strength):
    """``ValueError`` for a prefactor other than the default, which every
    run records, where ``command`` runs at a strength other than UTC."""
    if prefactor != UTC_PREFACTOR and strength != "utc":
        raise ValueError(
            f"{command} does not read prefactor {prefactor!r}; only chain strength 'utc' does"
        )


def _graph_runs(config: ExperimentConfig, strengths, methods, scale: bool = False):
    """Every graph of an experiment through ``run_graph_pipeline``, in CSV
    row order: density, then strength, then graph index.

    Builds the experiment's hardware graph and clique embedding once, and
    each graph once for all ``strengths``, and yields
    ``(density, strength, run)``; ``strength`` is the setting as given,
    ``run.chain_strength`` its resolved value.
    """
    hw = chimera(*config.topology)
    embedding = clique_embedding(config.n, hw)
    for density in config.densities:
        # graphs[index][k] is graph index at strengths[k]
        graphs = [
            run_graph_pipeline(config, hw, embedding, density, index, strengths, scale, methods)
            for index in range(config.graphs_per_density)
        ]
        for strength, runs in zip(strengths, zip(*graphs)):
            for run in runs:
                yield density, strength, run


def _row(config: ExperimentConfig, density: float, run: GraphRun, method: str, **cells):
    """One CSV row of ``run``: the cells every experiment fills, plus ``cells``."""
    mean, std = broken_chain_proportion(run.broken_fracs)
    return MetricRow(
        problem=config.problem,
        density=density,
        chain_strength=run.chain_strength,
        method=method,
        graph_seed=run.graph_seed,
        broken_frac_mean=mean,
        broken_frac_std=std,
        **cells,
    )


def run_fig2(config: ExperimentConfig):
    """Broken-chain proportion per graph at a fixed per-problem chain strength."""
    config.validate()
    strength = chain_strength_setting("fig2", config)
    return [
        _row(config, density, run, "",
             feasible="" if run.ising.j.any() else "degenerate")
        for density, _, run in _graph_runs(config, [strength], methods=())
    ]


def run_fig3(config: ExperimentConfig):
    """Per-graph objectives for every method plus tailored-vs-baseline ratios."""
    config.validate()
    strength = chain_strength_setting("fig3", config)
    rows = []
    for density, _, run in _graph_runs(config, [strength], METHODS):
        scores = {m: aggregate_objective(config, run, m) for m in METHODS}
        ratios = {
            f"ratio_vs_{SHORT_NAMES[b]}": improvement_ratio(
                config.problem, scores["tailored"][0], scores[b][0]
            )
            for b in BASELINES
        }
        for method, (objective, feasible) in scores.items():
            extra = ratios if method == "tailored" else {}
            rows.append(
                _row(config, density, run, method, objective=objective, feasible=feasible, **extra)
            )
    return rows


def run_fig4(config: ExperimentConfig):
    """Tailored-method quality across a chain-strength grid.

    Emits one row per (density, strength, graph) with the raw objective,
    plus one aggregate row per (density, strength) with ``graph_seed``
    empty whose objective is the graph mean, normalized within each
    (problem, density) group.  Each aggregate row averages one consecutive
    block of ``graphs_per_density`` rows, so a density or strength listed
    twice gets two.  Graph partitioning models are scaled into (-1, 1)
    before embedding.
    """
    config.validate()
    strengths = chain_strength_setting("fig4", config)
    scale = config.problem == "graph_partitioning"
    rows = []
    for density, _, run in _graph_runs(config, strengths, ("tailored",), scale):
        objective, feasible = aggregate_objective(config, run, "tailored")
        rows.append(_row(config, density, run, "tailored", objective=objective, feasible=feasible))
    k = config.graphs_per_density
    aggregate_rows = [
        MetricRow(
            problem=config.problem,
            density=block[0].density,
            chain_strength=block[0].chain_strength,
            method="tailored",
            graph_seed="",
            objective=float(np.mean([row.objective for row in block])),
        )
        for block in (rows[i : i + k] for i in range(0, len(rows), k))
    ]
    return rows + normalize_objectives(aggregate_rows)


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
    is the run's ``time.perf_counter()`` reading at its start.  Another
    ``name`` than fig2, fig3 or fig4 raises ``ValueError`` and writes nothing.
    """
    strength = chain_strength_setting(name, config)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(csv_path, "w") as fh:
        fh.write(rows_to_csv(rows))
    manifest = {
        "experiment": name,
        "config": asdict(config),
        "chain_strength": strength,
        "rows": len(rows),
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    with open(os.path.join(out_dir, f"{name}_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=list)
    return csv_path
