"""Record the reference answers the benchmark compares reports with.

    python3 bench/record_golden.py

Runs every job of every workload, plus ``validate`` on every scenario, on
the default seed with the checkout's ``src/`` and writes the signature of
each report (``check.signature``) to ``bench/golden.json``.  Run it only on
a commit whose answers are trusted; later commits must reproduce every
recorded key.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from check import check_job, signature
from workloads import WORKLOADS, Job, families, scenario_paths


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.ROOT))
    try:
        every = [job for jobs in WORKLOADS.values() for job in jobs]
        generated = run.generate.write_scenarios(
            families(every, run.generate.FAMILIES), run.DEFAULT_SEED, work / "scenarios")
        scenarios = scenario_paths(every, generated, run.BUNDLED_DIR)
        jobs = list(dict.fromkeys(every + [Job("validate", s) for s in scenarios]))
        env = run.child_env()
        recorded = {}
        for job in jobs:
            res = run.run_job(job, scenarios[job.scenario], work / "out", env)
            problems = check_job(job.command, res.returncode, res.report)
            if problems:
                print(f"{job.key}: {problems}", file=sys.stderr)
                return 1
            recorded[job.key] = signature(json.loads(res.report))
            print(f"{job.key} {res.wall:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps({"seed": run.DEFAULT_SEED, "jobs": recorded},
                      indent=1, sort_keys=True)
    run.GOLDEN.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
