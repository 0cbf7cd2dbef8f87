"""Workload process: runs one workload in a closed loop and records it.

Started by ``run.py`` in a process of its own, so that the parent can take
this process's peak RSS from ``os.wait4``. It runs, in order:

1. the warm-up: the workload's first job, untimed;
2. whole job cycles until ``--seconds`` have passed. With ``--trace 1`` the
   cycles alternate untraced and traced, at least ``MIN_TRACE_PAIRS`` of
   each, so that every traced cycle has an untraced neighbour to be
   compared with. The reference probe of ``refspeed.py`` runs before every
   job and after the last one, outside the jobs' timings; each job's times
   are also recorded at reference speed (``scaled_*``).

With ``--gate`` it runs only the correctness gate instead: every shipped
``configs/e*.json``, untimed, each followed by ``verify`` and compared with
its golden digests. The gate has a process of its own so that its peak RSS
does not count as the workload's.

Every job is checked: its exit code, ``verify`` on its report, its sha256
digests against the golden ones at the default seed and against its own
first run at every seed, and ap-find's answer against a brute-force search.
The measurements go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

MIN_TRACE_PAIRS = 3

sys.path.insert(0, str(HERE))
from refspeed import factor, probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Job  # noqa: E402


def digest_dir(path: Path) -> dict[str, str]:
    """sha256 of every file a job wrote (report.json and its CSVs)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def parse_ap(stdout: str) -> tuple[int, int] | None:
    """(k, a) from ap-find's output; None for "none"."""
    m = re.search(r"a=(\d+) k=(\d+)", stdout)
    return (int(m.group(2)), int(m.group(1))) if m else None


@dataclass
class Outcome:
    run_s: float
    verify_s: float | None
    nbytes: int
    ok: bool


class Runner:
    """Calls orbitlab's CLI in-process and checks every job it runs."""

    def __init__(self, work: Path):
        from orbitlab import expcli, shiftops

        self.main = expcli.main
        self.shiftops = shiftops
        self.work = work
        self.first_digests: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        """One CLI call, starting from the cold state a fresh ``orbitlab``
        process has: shiftops' process-wide product-table cache is emptied."""
        tables = getattr(self.shiftops, "_TABLES", None)
        if tables is not None:
            tables.clear()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.main(argv)
        return rc, buf.getvalue(), time.perf_counter() - t0

    def execute(self, key: str, argv: list[str], out: Path | None,
                expect_ap: tuple[int, int] | None = None,
                golden: dict | None = None) -> Outcome:
        """Run one job (and verify its report when ``out`` is given)."""
        self.attempted += 1
        run_s, verify_s, nbytes = 0.0, None, 0
        try:
            if out is not None:
                shutil.rmtree(out, ignore_errors=True)
            rc, stdout, run_s = self.call(argv)
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")
            if out is None:
                got = parse_ap(stdout)
                if got != expect_ap:
                    raise RuntimeError(f"ap-find gave {got}, brute force {expect_ap}")
            else:
                rv, vout, verify_s = self.call(["verify", "--report", str(out / "report.json")])
                if rv != 0:
                    raise RuntimeError(f"verify exit code {rv}: {vout.strip()}")
                digests = digest_dir(out)
                nbytes = sum(p.stat().st_size for p in out.iterdir())
                first = self.first_digests.setdefault(key, digests)
                if digests != first:
                    raise RuntimeError("outputs differ from this job's first run")
                if golden is not None and digests != golden:
                    raise RuntimeError("outputs differ from the golden digests")
        except Exception as e:  # a failed job is counted, and the loop goes on
            self.failures.append(f"{key}: {type(e).__name__}: {e}")
            return Outcome(run_s, verify_s, nbytes, False)
        return Outcome(run_s, verify_s, nbytes, True)

    def run_job(self, job: Job, golden: dict | None) -> Outcome:
        out = None if job.command == "ap-find" else self.work / "out" / job.name
        argv = job.argv(self.work / "in", out)
        return self.execute(job.name, argv, out, job.expect_ap, golden)

    def run_configs(self, golden: dict | None = None) -> None:
        """Run and verify every shipped config; compare with ``golden``'s
        digests when it is given. The digests land in ``first_digests``."""
        for path in shipped_configs():
            out = self.work / "gate" / path.stem
            self.execute(path.name, ["run", "--config", str(path), "--out", str(out)],
                         out, golden=None if golden is None else golden[path.name])

    def gate(self, golden: dict) -> None:
        """Shipped configs, untimed: byte-identical to their golden digests."""
        names = {p.name for p in shipped_configs()}
        if not names or set(golden) != names:
            self.attempted += 1
            self.failures.append("gate: shipped configs do not match golden.json")
            return
        self.run_configs(golden)


def shipped_configs() -> list[Path]:
    return sorted((ROOT / "configs").glob("e*.json"))


def environment() -> dict:
    import numpy
    import scipy
    from orbitlab import _kernels

    backend = getattr(_kernels, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "ORBITLAB_BACKEND": os.environ.get("ORBITLAB_BACKEND", "(unset)"),
        "effective_backend": backend() if backend else "numpy",
    }


def measure(ns) -> dict:
    import orbitlab

    if Path(orbitlab.__file__).resolve().parent != (SRC / "orbitlab").resolve():
        raise SystemExit(f"imported orbitlab from {orbitlab.__file__}, not {SRC}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    runner = Runner(Path(ns.work))
    if ns.gate:
        runner.gate(golden.get("configs", {}))
        return {"attempted": runner.attempted, "failed": len(runner.failures),
                "failures": runner.failures}

    scale = "tiny" if ns.tiny else "full"
    jobs = WORKLOADS[ns.workload](ns.seed, tiny=ns.tiny)
    # golden digests per job name; only the default seed has them
    expected: dict = {}
    if ns.seed == DEFAULT_SEED:
        expected = golden.get(scale, {}).get(ns.workload, {})
        if set(expected) != {j.name for j in jobs}:
            raise SystemExit(f"golden.json does not cover {scale}/{ns.workload}")

    runner.run_job(jobs[0], expected.get(jobs[0].name))  # warm-up

    tracer = Tracer()
    cycles = []
    refs = [probe()]  # one before every job and one after the last
    min_cycles = 2 * MIN_TRACE_PAIRS if ns.trace else 1
    t_start = time.perf_counter()
    while True:
        traced = bool(ns.trace) and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        done = []  # (outcome, wall time, factor to reference speed) per job
        try:
            for j in jobs:
                j0 = time.perf_counter()
                outcome = runner.run_job(j, expected.get(j.name))
                wall = time.perf_counter() - j0
                refs.append(probe())
                done.append((outcome, wall, factor(refs[-2], refs[-1])))
        finally:
            if traced:
                tracer.uninstall()
        verified = [(o, f) for o, _, f in done if o.verify_s is not None]
        cycles.append({
            "traced": traced,
            "wall_s": sum(w for _, w, _ in done),
            "scaled_wall_s": sum(w * f for _, w, f in done),
            "jobs_ok": sum(o.ok for o, _, _ in done),
            "run_s": [o.run_s for o, _, _ in done],
            "scaled_run_s": [o.run_s * f for o, _, f in done],
            "verify_s": [o.verify_s for o, _ in verified],
            "scaled_verify_s": [o.verify_s * f for o, f in verified],
            "bytes": sum(o.nbytes for o, _, _ in done),
        })
        elapsed = time.perf_counter() - t_start
        # a traced run ends on a traced cycle, so every one has its pair
        if (elapsed >= ns.seconds and len(cycles) >= min_cycles
                and not (ns.trace and len(cycles) % 2)):
            break

    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "jobs_per_cycle": len(jobs),
        "cycles": cycles,
        "environment": environment(),
    }
    if ns.trace:
        n_traced = sum(c["traced"] for c in cycles)
        layers = tracer.layer_metrics()
        result["layers"] = {
            k: v if k.endswith(".peak_mb") else v / n_traced for k, v in layers.items()
        }
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--gate", action="store_true",
                    help="run only the shipped-config correctness gate")
    ap.add_argument("--work", required=True, help="scratch directory for job files")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    ns = ap.parse_args(argv)
    if not ns.gate and ns.workload is None:
        ap.error("--workload is required without --gate")
    sys.path.insert(0, str(SRC))
    result = measure(ns)
    Path(ns.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
