"""One workload in one fresh process; prints its result as a JSON line.

Run by ``run.py``; standalone use:

    python3 perfbench/worker.py --workload fig3-inject --seed 0 --seconds 10 --trace 0

``--trace 0`` runs jobs until the next one would overrun ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed list of jobs
twice each, untraced and traced, and reports the per-layer metrics.
``--setup-only`` imports the package, generates the inputs and exits; the
parent times it in a fresh interpreter.
"""

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
GOLDEN = ROOT / "perfbench" / "golden.json"

if not (SRC / "brokenchains" / "__init__.py").is_file():
    sys.exit(f"no package source at {SRC / 'brokenchains'}")
sys.path.insert(0, str(SRC))

import brokenchains  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

if not Path(brokenchains.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"brokenchains imported from {brokenchains.__file__}, not from {SRC}")

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    TRACE_JOBS,
    WORKLOADS,
    check,
    collect,
    digest,
    execute,
    make_job,
)

# inputs generated in a --setup-only run (more than any run consumes today)
SETUP_JOBS = 256


@dataclass
class Outcome:
    job: object
    seconds: float
    digest: str = None
    error: str = None


def run_one(job, golden=None, tracer=None) -> Outcome:
    """Run, time and check one job; any failure is recorded, not raised."""
    workdir = tempfile.mkdtemp(prefix="job-", dir=OUT)
    span = tracer.job(job.index) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            result = execute(job, workdir)
        seconds = time.perf_counter() - start
        outputs = collect(job, workdir, result)
        check(job, outputs, golden)
        return Outcome(job, seconds, digest(outputs))
    except Exception as exc:  # a failing job is counted and the run goes on
        return Outcome(job, time.perf_counter() - start,
                       error=f"job {job.index}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def reads_per_s(outcomes) -> float:
    reads = sum(o.job.reads_taken for o in outcomes if o.error is None)
    return reads / sum(o.seconds for o in outcomes)


def timed_run(workload, seed, seconds, golden=None):
    """Untraced run: end-to-end metrics."""
    outcomes = []
    start = time.perf_counter()
    while True:
        outcome = run_one(make_job(workload, seed, len(outcomes)), golden)
        outcomes.append(outcome)
        if time.perf_counter() - start + outcome.seconds > seconds:
            break  # the next job would overrun the budget
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    metrics = {
        "reads_per_s": reads_per_s(outcomes),
        "job_s_p50": statistics.median(o.seconds for o in outcomes),
        "peak_rss_mib": sum(usage) / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    return outcomes, [], metrics


def traced_run(workload, seed, size="full", jobs=None, golden=None):
    """Each job untraced and traced, in alternating order: per-layer metrics."""
    from spans import Tracer

    job_list = [make_job(workload, seed, i, size) for i in range(jobs or TRACE_JOBS[workload])]
    tracer = Tracer()

    def run_traced(job):
        tracer.install()
        try:
            return run_one(job, golden, tracer)
        finally:
            tracer.uninstall()

    plain, traced = [], []
    for job in job_list:
        # alternate which side runs first, so drift and warm-up cancel
        if job.index % 2:
            traced.append(run_traced(job))
            plain.append(run_one(job, golden))
        else:
            plain.append(run_one(job, golden))
            traced.append(run_traced(job))
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json.gz")
    mismatches = [
        f"job {a.job.index}: traced digest differs from untraced"
        for a, b in zip(plain, traced)
        if a.error is None and b.error is None and a.digest != b.digest
    ]

    metrics = dict(tracer.layer_seconds())
    metrics.update(tracer.counts)
    updates = metrics["sampler.spin_updates"]
    decoded = metrics["unembed.chains_decoded"]
    metrics["sampler.ns_per_spin_update"] = (
        metrics["sampler.anneal_s"] * 1e9 / updates if updates else 0.0
    )
    metrics["unembed.broken_frac"] = (
        metrics["unembed.chains_broken"] / decoded if decoded else 0.0
    )
    untraced_rate, traced_rate = reads_per_s(plain), reads_per_s(traced)
    metrics["trace.untraced_reads_per_s"] = untraced_rate
    metrics["trace.reads_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    metrics["trace.job_s"] = sum(o.seconds for o in traced)
    return plain + traced, mismatches, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        for i in range(SETUP_JOBS):
            job = make_job(args.workload, args.seed, i)
            job.argv("work") if args.workload == "cli-stepwise" else job.config()
        return 0

    golden = json.loads(GOLDEN.read_text()) if args.seed == DEFAULT_SEED else None
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        outcomes, mismatches, metrics = traced_run(args.workload, args.seed, golden=golden)
    else:
        outcomes, mismatches, metrics = timed_run(
            args.workload, args.seed, args.seconds, golden)
    errors = [o.error for o in outcomes if o.error] + mismatches
    print(json.dumps({
        "attempted": len(outcomes),
        "failed": len(errors),
        "errors": errors,
        "jobs": [{"index": o.job.index, "problem": o.job.problem, "seconds": o.seconds,
                  "digest": o.digest} for o in outcomes],
        "metrics": metrics,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
