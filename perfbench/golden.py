#!/usr/bin/env python3
"""Record the golden sha256 digests that the benchmark checks outputs against.

    python3 perfbench/golden.py

Runs every shipped ``configs/e*.json`` and every workload's jobs at the
default seed, at full and tiny size, and rewrites ``perfbench/golden.json``
with the digests of each job's report.json and artifacts. Record them only
from a commit whose outputs are trusted: every later run must reproduce
them byte for byte.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from worker import GOLDEN, ROOT, SRC, Runner
from workloads import DEFAULT_SEED, WORKLOADS


def record(work: Path) -> dict:
    golden: dict = {}
    runner = Runner(work / "configs")
    runner.run_configs()
    golden["configs"] = dict(runner.first_digests)
    for scale in ("full", "tiny"):
        golden[scale] = {}
        for name, make in WORKLOADS.items():
            runner_wl = Runner(work / scale / name)
            for job in make(DEFAULT_SEED, tiny=scale == "tiny"):
                runner_wl.run_job(job, None)
            runner.failures += runner_wl.failures
            golden[scale][name] = {
                job.name: runner_wl.first_digests.get(job.name, {})
                for job in make(DEFAULT_SEED, tiny=scale == "tiny")
            }
    if runner.failures:
        raise SystemExit("jobs failed:\n" + "\n".join(runner.failures))
    return golden


def main() -> int:
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench-work"
    try:
        golden = record(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
