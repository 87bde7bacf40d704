"""Workloads: job inputs derived from a workload seed, job runners, checks.

A *job* is one graph taken through one experiment call (``run_fig3`` or
``run_fig4`` plus ``rows_to_csv``), or one CLI round trip (``gen``,
``sample``, then ``unembed`` once per method).  Job ``i`` of a run at
workload seed ``s`` gets its package seed from SHA-256 of
``"<workload>/<s>/<i>"``, so the inputs do not depend on the package's own
seeding code.  The package receives only the generated configs or argv.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass

from brokenchains import bench, cli
from brokenchains.graphs import PROBLEMS

WORKLOADS = ("fig3-anneal", "fig3-inject", "k65-fig4", "cli-stepwise")
DEFAULT_SEED = 0

# "full" is what the benchmark measures; "small" keeps the self-test quick
SIZES = {
    "full": {
        "fig3-anneal": dict(n=30, topology=(8, 8, 4), reads=200, sweeps=1000),
        "fig3-inject": dict(n=30, topology=(8, 8, 4), reads=200, sweeps=10),
        "k65-fig4": dict(n=65, topology=(16, 16, 4), reads=100, sweeps=100),
        "cli-stepwise": dict(n=30, topology=(8, 8, 4), reads=1000, sweeps=20),
    },
    "small": {
        "fig3-anneal": dict(n=8, topology=(2, 2, 4), reads=8, sweeps=20),
        "fig3-inject": dict(n=8, topology=(2, 2, 4), reads=8, sweeps=5),
        "k65-fig4": dict(n=9, topology=(2, 2, 4), reads=8, sweeps=10),
        "cli-stepwise": dict(n=8, topology=(2, 2, 4), reads=16, sweeps=5),
    },
}
DENSITY = 0.5
P_BREAK = 0.3
FIG4_GRID = (0.5, 2.0, 5.0)
CLI_METHODS = ("majority", "random", "minenergy", "tailored")
# tailored witnesses of these problems are feasible by construction
ALWAYS_FEASIBLE = ("max_cut", "max_clique", "min_vertex_cover")

# jobs per traced run: whole cycles through the problems the workload uses
TRACE_JOBS = {"fig3-anneal": 4, "fig3-inject": 16, "k65-fig4": 3, "cli-stepwise": 4}


class JobFailed(Exception):
    """A job ran to the end but its output is wrong, or a CLI call failed."""


def job_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Job:
    workload: str
    index: int
    problem: str
    seed: int
    n: int
    topology: tuple
    reads: int
    sweeps: int

    @property
    def reads_taken(self) -> int:
        """Reads taken end to end by this job (fig4 samples each grid point)."""
        if self.workload == "k65-fig4":
            return self.reads * len(FIG4_GRID)
        return self.reads

    def config(self):
        """The experiment config handed to ``run_fig3`` / ``run_fig4``."""
        common = dict(
            problem=self.problem,
            densities=(DENSITY,),
            n=self.n,
            graphs_per_density=1,
            reads=self.reads,
            sweeps=self.sweeps,
            seed=self.seed,
            topology=self.topology,
        )
        if self.workload == "fig3-anneal":
            return bench.ExperimentConfig(chain_strength="utc", **common)
        if self.workload == "fig3-inject":
            return bench.ExperimentConfig(
                chain_strength="utc", source="inject", p_break=P_BREAK, **common
            )
        return bench.ExperimentConfig(chain_strength_grid=FIG4_GRID, **common)

    def argv(self, workdir):
        """The CLI calls of one round trip, in order."""
        graph = os.path.join(workdir, "graph.txt")
        seed = str(self.seed)
        topology = ",".join(map(str, self.topology))
        calls = [
            ["gen", "--n", str(self.n), "--density", str(DENSITY), "--seed", seed,
             "--out", workdir],
            ["sample", "--graph", graph, "--problem", self.problem,
             "--reads", str(self.reads), "--sweeps", str(self.sweeps),
             "--topology", topology, "--seed", seed, "--out", workdir],
        ]
        for method in CLI_METHODS:
            calls.append(
                ["unembed", "--graph", graph, "--problem", self.problem,
                 "--samples", os.path.join(workdir, "samples.json"),
                 "--embedding", os.path.join(workdir, "embedding.json"),
                 "--model", os.path.join(workdir, "model.json"),
                 "--method", method, "--seed", seed,
                 "--out", os.path.join(workdir, method)]
            )
        return calls


def make_job(workload: str, seed: int, index: int, size: str = "full") -> Job:
    problems = ("max_cut",) if workload == "k65-fig4" else PROBLEMS
    return Job(
        workload=workload,
        index=index,
        problem=problems[index % len(problems)],
        seed=job_seed(workload, seed, index),
        **SIZES[size][workload],
    )


def execute(job: Job, workdir: str):
    """The timed part of a job: the package calls and nothing else."""
    if job.workload == "cli-stepwise":
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in job.argv(workdir):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad argv this way
                    code = exc.code
                if code != 0:
                    raise JobFailed(
                        f"brokenchains {argv[0]} exited {code}: {sink.getvalue().strip()}"
                    )
        return None
    run = bench.run_fig4 if job.workload == "k65-fig4" else bench.run_fig3
    return bench.rows_to_csv(run(job.config()))


def collect(job: Job, workdir: str, result) -> dict:
    """The job's output files as ``{name: text}``."""
    if job.workload != "cli-stepwise":
        return {"rows.csv": result}
    names = ["samples.csv"] + [f"{m}/unembedded.csv" for m in CLI_METHODS]
    outputs = {}
    for name in names:
        with open(os.path.join(workdir, name)) as fh:
            outputs[name] = fh.read()
    return outputs


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(f"{name}:{hashlib.sha256(outputs[name].encode()).hexdigest()}\n".encode())
    return h.hexdigest()


def _number(text: str):
    return int(text) if text.lstrip("-").isdigit() else float(text)


def _require(condition, message):
    if not condition:
        raise JobFailed(message)


def _check_broken_frac(rows, column):
    for row in rows:
        frac = float(row[column])
        _require(0.0 <= frac <= 1.0, f"{column} {frac} outside [0, 1]")


def _check_fig3(job, rows):
    _require(len(rows) == len(bench.METHODS), f"expected {len(bench.METHODS)} rows")
    _check_broken_frac(rows, "broken_frac_mean")
    objective = {row["method"]: _number(row["objective"]) for row in rows}
    ratio_columns = {
        "majority_vote": "ratio_vs_majority",
        "random_weighted": "ratio_vs_random",
        "minimize_energy": "ratio_vs_minenergy",
    }
    for row in rows:
        if row["method"] != "tailored":
            _require(all(row[c] == "" for c in ratio_columns.values()),
                     f"{row['method']} row carries a ratio")
            continue
        if job.problem in ALWAYS_FEASIBLE:
            _require(row["feasible"] == "True", "tailored witness infeasible")
        for baseline, column in ratio_columns.items():
            want = bench.improvement_ratio(
                job.problem, objective["tailored"], objective[baseline]
            )
            got = None if row[column] == "" else float(row[column])
            _require(got == want, f"{column} is {got}, objectives give {want}")


def _check_fig4(job, rows):
    per_graph = [row for row in rows if row["graph_seed"] != ""]
    aggregate = [row for row in rows if row["graph_seed"] == ""]
    _require(len(per_graph) == len(aggregate) == len(FIG4_GRID),
             f"expected {len(FIG4_GRID)} graph rows and as many aggregate rows")
    _check_broken_frac(per_graph, "broken_frac_mean")
    if job.problem in ALWAYS_FEASIBLE:
        _require(all(row["feasible"] == "True" for row in per_graph),
                 "tailored witness infeasible")
    # aggregate objective: graph mean per strength, divided by |smallest mean|
    means = {}
    for row in per_graph:
        means.setdefault(row["chain_strength"], []).append(_number(row["objective"]))
    means = {s: math.fsum(v) / len(v) for s, v in means.items()}
    smallest = min(means.values())
    for row in aggregate:
        want = means[row["chain_strength"]]
        if smallest != 0:
            want /= abs(smallest)
        _require(float(row["objective"]) == want,
                 f"aggregate objective {row['objective']}, graph rows give {want}")


def _check_cli(job, outputs):
    samples = list(csv.reader(io.StringIO(outputs["samples.csv"])))
    _require(samples[0] == ["energy", "spins"] and len(samples) == job.reads + 1,
             "samples.csv does not hold one row per read")
    broken = None
    for method in CLI_METHODS:
        rows = list(csv.DictReader(io.StringIO(outputs[f"{method}/unembedded.csv"])))
        _require(len(rows) == job.reads, f"{method}: expected {job.reads} rows")
        _require(all(row["method"] == method for row in rows), f"{method}: wrong method")
        _check_broken_frac(rows, "broken_frac")
        if method == "tailored" and job.problem in ALWAYS_FEASIBLE:
            _require(all(row["feasible"] == "True" for row in rows),
                     "tailored witness infeasible")
        counts = [row["broken_chains"] for row in rows]
        _require(broken is None or counts == broken,
                 f"{method}: broken chain counts differ between methods")
        broken = counts


def check(job: Job, outputs: dict, golden=None):
    """Raise ``JobFailed`` if the job's outputs are wrong.

    ``golden`` maps workload -> list of pinned digests by job index at the
    default seed; jobs beyond the list get the seed-independent checks only.
    """
    if job.workload == "cli-stepwise":
        _check_cli(job, outputs)
    else:
        reader = csv.DictReader(io.StringIO(outputs["rows.csv"]))
        _require(reader.fieldnames == bench.CSV_COLUMNS, "unexpected CSV header")
        rows = list(reader)
        _require(all(row["problem"] == job.problem for row in rows), "wrong problem")
        if job.workload == "k65-fig4":
            _check_fig4(job, rows)
        else:
            _check_fig3(job, rows)
    pinned = (golden or {}).get(job.workload, [])
    if job.index < len(pinned):
        _require(digest(outputs) == pinned[job.index],
                 f"output digest differs from the pinned one for job {job.index}")
