"""Benchmark entry point: one workload per call, from the repository root.

    python3 perfbench/run.py --workload fig3-anneal --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, each by name and unit, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
workload runs in a fresh worker process; ``setup_s`` is the median wall
time of fresh interpreters that import the package and generate the
inputs.  Every result is also written, with the facts of the host, to
``perfbench/out/``.  This file uses the standard library only and starts
one child process at a time.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole call, set-up included, ends well within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _worker(args, timeout):
    cmd = [sys.executable, str(WORKER), *args]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)


def setup_seconds(workload, seed):
    """Median wall time of a fresh interpreter importing and generating inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _worker(["--workload", workload, "--seed", str(seed), "--setup-only"], 60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_facts(versions):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **versions,
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def run_workload(spec, workload, seed, seconds, trace):
    started = time.perf_counter()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = {}
    if not trace:
        values["setup_s"] = setup_seconds(workload, seed)
    remaining = DEADLINE_S - (time.perf_counter() - started)
    proc = _worker(["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)], remaining)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    values.update(report["metrics"])
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "result": result, "errors": report["errors"], "jobs": report["jobs"],
              "facts": host_facts(report["versions"])}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"{workload} seed {seed}: {result['attempted']} jobs, {result['failed']} failed, "
          f"failed_frac {result['failed'] / result['attempted']:.4g}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    for error in report["errors"][:5]:
        print(f"  FAILED {error}")
    facts = record["facts"]
    print(f"  host: nproc {facts['nproc']}, {facts['cpu_model']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}, commit {facts['commit']}")
    print(f"  written to {path.relative_to(ROOT)}")
    return result


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "brokenchains" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/brokenchains to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="brokenchains benchmark")
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(spec, w, args.seed, args.seconds, args.trace)
                   for w in workloads}
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
