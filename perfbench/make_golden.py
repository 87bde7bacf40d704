"""Regenerate golden.json: output digests of the first jobs at the default seed.

    python3 perfbench/make_golden.py

Run it only when a change to the package is meant to change output bytes;
the new digests then go into the same commit as that change.  Each
workload pins more jobs than a run of it completes today, so a faster
package still meets pinned digests; later jobs get the seed-independent
checks only.
"""

import json
import sys

from worker import GOLDEN, OUT, run_one
from workloads import DEFAULT_SEED, WORKLOADS, make_job

PINNED_JOBS = {"fig3-anneal": 48, "fig3-inject": 256, "k65-fig4": 32, "cli-stepwise": 64}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    golden = {}
    for workload in WORKLOADS:
        golden[workload] = []
        for index in range(PINNED_JOBS[workload]):
            outcome = run_one(make_job(workload, DEFAULT_SEED, index))
            if outcome.error:
                sys.exit(f"{workload}: {outcome.error}")
            golden[workload].append(outcome.digest)
        print(f"{workload}: {len(golden[workload])} digests", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
