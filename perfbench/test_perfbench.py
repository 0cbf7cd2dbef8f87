"""Tests of the benchmark itself: span arithmetic, seeded inputs, and a
tiny-size smoke run of every workload at the default seed.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, default_k, smallest_ap  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, 0, "b", 1.0, 4.0),
        Span(3, 1, "d", 2.0, 3.0),
        Span(2, 0, "c", 5.0, 6.0),
        Span(0, None, "a", 0.0, 10.0),
        Span(4, None, "c", 11.0, 13.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"a": 6.0, "b": 2.0, "c": 3.0, "d": 1.0})
    # self times of nested spans add up to the outermost span's duration
    assert sum(got.values()) == pytest.approx(10.0 + 2.0)


def test_reference_speed_factor_uses_the_probes_either_side():
    from refspeed import REF_S, factor

    assert factor(REF_S, REF_S) == pytest.approx(1.0)
    # a machine at half the reference speed doubles the probe; a job timed
    # between such probes took twice its reference-speed time
    assert factor(2 * REF_S, 2 * REF_S) == pytest.approx(0.5)
    assert factor(REF_S, 2 * REF_S) == pytest.approx(2 / 3)


def test_trace_overhead_compares_neighbouring_cycles():
    from run import per_layer

    # the machine slows down over the run; each traced cycle is compared
    # with the untraced cycle just before it
    walls = [10.0, 11.0, 20.0, 21.5, 30.0, 30.5]
    cycles = [{"traced": i % 2 == 1, "wall_s": w} for i, w in enumerate(walls)]
    rows = {name: (value, note) for name, value, _, note in
            per_layer({"layers": {}, "cycles": cycles}, [])}
    assert rows["trace.overhead_s"][0] == pytest.approx(1.0)
    assert rows["trace.untraced_cycle_s"][0] == 20.0
    assert "unresolved" in rows["trace.overhead_s"][1]  # 1 s < the 20 s spread


def test_tracer_patches_every_lookup_name_and_restores_it():
    from orbitlab import expcli, fhbuilder, lspace, orbits

    originals = (expcli.build, fhbuilder.build, orbits.dist, lspace.dist, expcli.dist)
    tracer = Tracer()
    tracer.install()
    try:
        assert expcli.build is fhbuilder.build is not originals[0]
        assert orbits.dist is lspace.dist is expcli.dist is not originals[2]
    finally:
        tracer.uninstall()
    assert (expcli.build, fhbuilder.build, orbits.dist, lspace.dist, expcli.dist) == originals


def test_traced_job_records_nested_layers(tmp_path):
    from worker import Runner

    job = WORKLOADS["fu_pipeline"](DEFAULT_SEED, tiny=True)[0]
    runner = Runner(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        outcome = runner.run_job(job, None)
    finally:
        tracer.uninstall()
    assert outcome.ok, runner.failures
    m = tracer.layer_metrics()
    assert m["fhbuilder.build.coeffs"] > 0
    assert m["expcli.write_csv.rows"] > 0 and m["expcli.write_csv.bytes"] > 0
    assert m["kernels.flat_orbit_dist2.rows"] > 0
    assert m["orbits.find_ap.k_scanned"] > 0
    assert m["orbits.mr_witness_search.hits"] > 0
    assert m["kernels.general_orbit_dist2.rows"] == 0
    assert all(v >= 0 for k, v in m.items() if k.endswith(".s"))
    layer_names = {p["name"] for p in BENCH["per_layer"]}
    assert set(m) <= layer_names


def test_brute_force_progression_matches_find_ap():
    from orbitlab.orbits import HittingSet, find_ap

    rng = random.Random(7)
    for _ in range(30):
        nmax = rng.randint(50, 400)
        members = sorted(rng.sample(range(1, nmax + 1), rng.randint(3, 40)))
        for m in (2, 3):
            w = find_ap(HittingSet(members, nmax), m)
            want = smallest_ap(members, nmax, m, default_k(nmax, m))
            assert (None if w is None else (w.k, w.a)) == want


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_inputs_are_reproducible_and_vary(name):
    make = WORKLOADS[name]
    assert make(3) == make(3)
    assert any(make(s) != make(0) for s in range(1, 4))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_inputs_pass_their_scenario_checks(name, tmp_path):
    from worker import Runner

    for seed in range(1, 6):
        runner = Runner(tmp_path / str(seed))
        for job in WORKLOADS[name](seed, tiny=True):
            runner.run_job(job, None)
        assert runner.failures == []


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name):
    proc = _bench("--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key] and metric["value"] > 0


def test_tiny_traced_run_reports_every_layer():
    proc = _bench("--workload", "criteria_search", "--seed", str(DEFAULT_SEED),
                  "--seconds", "1", "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert result["metrics"]["kernels.general_orbit_dist2.rows"]["value"] > 0
    assert result["metrics"]["orbits.recurrence_scan.steps"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fu_pipeline", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
