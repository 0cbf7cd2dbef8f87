#!/usr/bin/env python3
"""orbitlab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload fu_pipeline --seed 0 --seconds 40 --trace 0

Run from a source checkout; the program is imported from ``src/``. The
workload runs in a child process (``worker.py``) whose peak RSS comes from
``os.wait4``; the shipped-config correctness gate runs before it in a child
of its own. Set-up time is measured separately, on fresh interpreters that
import ``orbitlab.expcli``, half of them before the workload and half after
it. Every metric is printed by name with its
unit and sample count; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. The exit
code is 0 only when every job's outputs checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from refspeed import factor, probe
from worker import HERE, ROOT, SRC
from workloads import WORKLOADS

WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 170
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import orbitlab.expcli"


def setup_samples(n: int, importtime: bool) -> tuple[list[float], list[float], list[float]]:
    """Wall times of ``n`` fresh interpreters importing orbitlab.expcli, the
    factor that takes each to reference speed, and (with ``importtime``) the
    cumulative import time of orbitlab.seqcore in each."""
    walls, seqcore = [], []
    probes = [probe()]
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"importing orbitlab.expcli failed:\n{proc.stderr}")
        m = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*orbitlab\.seqcore$",
                      proc.stderr, re.M)
        if m:
            seqcore.append(int(m.group(1)) / 1e6)
        probes.append(probe())
    return walls, [factor(a, b) for a, b in zip(probes, probes[1:])], seqcore


def run_worker(args: list[str], result: Path) -> tuple[int, float, dict | None]:
    """Run ``worker.py`` in a child; return its exit code, its peak RSS in
    MB and the result it wrote (None if it wrote none)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--work", str(WORK), "--result", str(result)]
    # a fixed hash seed: with a random one, set and dict order changes from
    # process to process, and fu_pipeline's peak RSS fell into two groups
    # 4 MB apart (about one run in four 112 MB instead of 108 MB)
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = json.loads(result.read_text()) if proc.returncode == 0 and result.is_file() else None
    return proc.returncode, usage.ru_maxrss / 1024.0, res  # ru_maxrss is in KiB


def high_percentile(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75 with at least 10 samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return "no higher percentile has 10 samples beyond it"


def end_to_end(res: dict, setup: list[tuple[float, float]], peak_rss_mb: float) -> list[tuple]:
    """(name, value, unit, note) for every end-to-end metric. Times are at
    reference speed (see refspeed.py); each note gives the raw median too."""
    cycles = res["cycles"]
    jobs = sum(c["jobs_ok"] for c in cycles)
    wall = sum(c["wall_s"] for c in cycles)
    per = f"{len(cycles)} cycles of {res['jobs_per_cycle']} jobs"

    def timing(scaled: list[float], raw: list[float]) -> tuple[float, str]:
        return (statistics.median(scaled),
                f"{high_percentile(scaled)}; raw median {statistics.median(raw):.6g}")

    def cycle_means(key: str) -> list[float]:
        return [statistics.fmean(c[key]) for c in cycles if c[key]]

    # medians over cycles, so that a spell of a faster or slower machine
    # covering less than half of the run does not move them
    setup_s, setup_note = timing([t * f for t, f in setup], [t for t, _ in setup])
    run_s, run_note = timing(cycle_means("scaled_run_s"), cycle_means("run_s"))
    rows = [
        ("setup_s", setup_s, "s", f"median of {len(setup)} fresh interpreters; {setup_note}"),
        ("jobs_per_s", statistics.median(c["jobs_ok"] / c["scaled_wall_s"] for c in cycles),
         "1/s", f"median over {per} of the cycle's completed jobs per second; "
         f"raw: {jobs} jobs in {wall:.2f} s"),
        ("run_s.p50", run_s, "s", f"median over {per} of the mean run call; {run_note}"),
    ]
    verifies = cycle_means("scaled_verify_s")
    if verifies:
        verify_s, verify_note = timing(verifies, cycle_means("verify_s"))
        rows.append(("verify_s.p50", verify_s, "s",
                     f"median over {len(verifies)} cycles of the mean verify call; "
                     f"{verify_note}"))
    rows += [
        ("peak_rss_mb", peak_rss_mb, "MB", "peak RSS of the workload process"),
        ("artifact_mb", statistics.median(c["bytes"] for c in cycles) / 1e6, "MB",
         "report and CSV bytes written per cycle"),
    ]
    return rows


def layer_unit(name: str) -> str:
    if name.endswith(".peak_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def per_layer(res: dict, seqcore_import: list[float]) -> list[tuple]:
    layers = dict(res["layers"])
    cycles = res["cycles"]
    # cycles alternate untraced, traced; each traced cycle is compared with
    # the untraced one just before it, so slow drift of the machine cancels
    pairs = [(cycles[i]["wall_s"], cycles[i + 1]["wall_s"])
             for i in range(0, len(cycles) - 1, 2)]
    untraced = [u for u, _ in pairs]
    overhead = statistics.median(t - u for u, t in pairs)
    layers["seqcore.import_s"] = statistics.median(seqcore_import) if seqcore_import else 0.0
    layers["trace.untraced_cycle_s"] = statistics.median(untraced)
    layers["trace.overhead_s"] = overhead
    note = f"per traced cycle, {len(pairs)} pairs of untraced and traced cycles"
    q1, _, q3 = statistics.quantiles(untraced, n=4)
    notes = {"trace.overhead_s": note + (
        f"; unresolved, below the untraced cycles' spread of {q3 - q1:.3g} s"
        if abs(overhead) < q3 - q1 else "")}
    return [(k, v, layer_unit(k), notes.get(k, note)) for k, v in sorted(layers.items())]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny horizons, for smoke tests; not a measurement")
    ns = ap.parse_args(argv)

    if not (SRC / "orbitlab" / "expcli.py").is_file():
        print(f"error: no orbitlab sources under {SRC}", file=sys.stderr)
        return 2

    print(f"orbitlab benchmark: workload={ns.workload} seed={ns.seed} "
          f"seconds={ns.seconds:g} trace={ns.trace}{' tiny' if ns.tiny else ''}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # half the set-up samples before the workload and half after it, so
        # that their median spans the run rather than its first seconds
        walls, fs, seqcore_import = setup_samples(SETUP_SAMPLES // 2, bool(ns.trace))
        rc, _, gate = run_worker(["--gate"], WORK / "gate.json")
        if gate is None:
            print(f"error: gate process exited with {rc}", file=sys.stderr)
            return 1
        rc, peak_rss_mb, res = run_worker([
            "--workload", ns.workload, "--seed", str(ns.seed),
            "--seconds", str(ns.seconds), "--trace", str(ns.trace),
        ] + (["--tiny"] if ns.tiny else []), WORK / "result.json")
        if res is None:
            print(f"error: workload process exited with {rc}", file=sys.stderr)
            return 1
        more = setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2, bool(ns.trace))
        setup = list(zip(walls + more[0], fs + more[1]))
        seqcore_import += more[2]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    rows = per_layer(res, seqcore_import) if ns.trace else end_to_end(res, setup, peak_rss_mb)
    for name, value, unit, note in rows:
        print(f"{name:<40} {value:>14.6g} {unit:<6} ({note})")
    attempted = gate["attempted"] + res["attempted"]
    failed = gate["failed"] + res["failed"]
    print(f"{'failed_ratio':<40} {failed / attempted:>14.6g} {'':<6} "
          f"({failed} of {attempted} jobs failed, shipped-config gate and warm-up included)")
    for f in gate["failures"] + res["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
