"""Acceptance suite: one test per exit criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
each criterion prints.
"""

import math
import time

import numpy as np
import pytest

from orbitlab.criteria import (
    fhc_series_check,
    mr_invertible_check,
    mr_shift_check,
    salas_check,
    superratio_decay_check,
)
from orbitlab.expcli import run_scenario
from orbitlab.fhbuilder import build
from orbitlab.lspace import Ball, CoefVec, Side, dist, norm
from orbitlab.orbits import HittingSet, density_stats, find_ap, hitting_set, mr_witness_search
from orbitlab.seqcore import ScalingSeq, ratio_classify
from orbitlab.shiftops import ShiftOp, WeightSeq
from orbitlab.symbolops import PolySymbol, RangeKind, classify_adjoint, range_circle_test
from oracles import shift_once

TWO_B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
ONE = ScalingSeq.constant(1.0)


def e(k, side=Side.UNILATERAL):
    return CoefVec.basis(side, k)


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fu_criterion2():
    targets = [
        (e(1), 1e-3),
        (CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (2, 1.0)]), 1e-3),
        (e(2), 1e-3),
    ]
    return build(ONE, TWO_B, targets, 10**5, g=16)


def test_criterion_1_ratio_classifier_table():
    cases = [
        (ScalingSeq.log_pow(1.0), "good", None),
        (ScalingSeq.log_pow(-1.0), "good", None),
        (ScalingSeq.log_pow(2.0), "good", None),
        (ScalingSeq.rational_poly([1.0, 0.0, 1.0], [5.0, 3.0]), "good", None),
        (ScalingSeq.exp_pow(0.3), "good", None),
        (ScalingSeq.exp_pow(0.9), "good", None),
        (ScalingSeq.exp_over_log(), "good", None),
        (ScalingSeq.exp_pow(1.0), "bad", 1.0 / math.e),
        (ScalingSeq.exp_pow(1.5), "bad", 0.0),
        (ScalingSeq.factorial(), "bad", 0.0),
        (ScalingSeq.power_of_w(0.25 ** -0.5), "bad", 0.25),
        (ScalingSeq.power_of_w(4.0 ** -0.5), "bad", 4.0),
        (ScalingSeq.geom_inverse(4.0), "bad", 4.0),
    ]
    t0 = time.perf_counter()
    failures = []
    for seq, want, limit in cases:
        v = ratio_classify(seq, 1, N=10**6, tol=1e-4)
        if v.kind != want:
            failures.append(f"{seq.family}{seq.params!r}: {v.kind} != {want}")
        elif limit is not None and not (
            v.limit == limit or abs(v.limit - limit) <= 1e-6 * max(1.0, limit)
        ):
            failures.append(f"{seq.family}: limit {v.limit} != {limit}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    report(1, ok, f"12 named families classified in {elapsed:.2f}s "
                  f"(< 5s); mismatches: {failures or 'none'}")


def test_criterion_2_fu_builder_density(fu_criterion2):
    v = fu_criterion2
    lows = [density_stats(h).lower_est for h in v.hits]
    in_band = all(abs(lo - 1.0 / 48.0) <= 0.002 for lo in lows)
    zero_misses = v.report["worst_miss"] < 1e-3 and all(
        np.all(np.isin(v.plan.planned(i, v.horizon), h.indices))
        for i, h in enumerate(v.hits)
    )
    ok = in_band and zero_misses
    report(2, ok, f"per-target lower_est {['%.6f' % v for v in lows]} "
                  f"vs 1/48 = {1/48:.6f} +- 0.002; zero planned misses: {zero_misses}")


def test_criterion_3_progression_pipeline(fu_criterion2):
    h0 = fu_criterion2.hits[0]

    def brute(members, n_max, m, K):
        for k in range(1, K + 1):
            for a in sorted(members):
                if a + m * k > n_max:
                    break
                if all(a + j * k in members for j in range(m + 1)):
                    return a, k
        return None

    ok = True
    detail = []
    truncated = set(int(n) for n in h0.indices[h0.indices <= 2000])
    for m in (3, 4, 5):
        w = find_ap(h0, m, 1)
        if w is None or w.k % 48 != 0 or not w.verify(h0):
            ok = False
            detail.append(f"m={m}: missing/invalid")
            continue
        w2 = find_ap(HittingSet(h0.indices[h0.indices <= 2000], 2000), m, 1)
        want = brute(truncated, 2000, m, max(1, 2000 // (m * 4)))
        if want is None or (w2.a, w2.k) != want:
            ok = False
            detail.append(f"m={m}: oracle mismatch {want} vs {(w2.a, w2.k)}")
        else:
            detail.append(f"m={m}: (a={w.a}, k={w.k})")

    t0 = time.perf_counter()
    targets = [(e(1), 1e-3), (CoefVec.from_pairs(Side.UNILATERAL, [(1, 1), (2, 1)]), 1e-3),
               (e(2), 1e-3)]
    v_big = build(ONE, TWO_B, targets, 10**6, g=16)
    h_big = hitting_set(v_big.x, ONE, TWO_B, Ball(e(1), 1e-3), 10**6)
    w_big = find_ap(h_big, 5, 1)
    elapsed = time.perf_counter() - t0
    if w_big is None or w_big.k % 48 != 0:
        ok = False
    ok = ok and elapsed < 10.0
    report(3, ok, f"{'; '.join(detail)}; full N=1e6 scan {elapsed:.2f}s (< 10s)")


def test_criterion_4_mr_witness(fu_criterion2):
    v = fu_criterion2
    out = mr_witness_search(v.x, ONE, TWO_B, Ball(e(1), 0.01), 3, 1, 10**5)
    ok = bool(out)
    dmax = None
    if ok:
        w = out.witness
        dists = [dist(TWO_B.power_apply(j * w.ell, w.u), e(1)) for j in range(4)]
        dmax = max(dists)
        ok = all(d < 0.01 for d in dists) and w.verify(TWO_B)
    report(4, ok, f"witness ell={out.witness.ell if out else None}, "
                  f"re-verified max distance {dmax} < 0.01")


def test_criterion_5_shift_criteria():
    inv, step = WeightSeq.inverse_step_bilateral(), WeightSeq.step_bilateral()
    out = mr_shift_check(inv, 3, 2, 0.1, 100)
    ok_mr = bool(out) and out.certificate.n <= 100 and out.certificate.verify()
    n_products = len(out.certificate.forward_logs) + len(out.certificate.backward_logs) if out else 0
    ok_salas = not salas_check(step, 0.5, 0, 10**4)
    ns = mr_invertible_check(inv, 2, 200, 1e3)
    ok_inv = np.all(np.isin(np.arange(11, 201), ns))
    ok = ok_mr and n_products == 2 * 3 * 5 and ok_salas and bool(ok_inv)
    report(5, ok, f"mr witness n={out.certificate.n if out else None} with "
                  f"{n_products} re-verified products; step-salas none: {ok_salas}; "
                  f"invertible contains all n >= 11: {bool(ok_inv)}")


def test_criterion_6_products_and_series():
    n = np.arange(1, 10**6 + 1, dtype=np.int64)
    got = WeightSeq.sqrt_ratio().cum(n)  # forward(0, n) = C(n)
    want = 0.5 * np.log(n.astype(np.float64) + 1.0)
    max_dev = float(np.max(np.abs(got - want)))
    sv_div = fhc_series_check(WeightSeq.sqrt_ratio(), 10**6, cap=12.0)
    sv_conv = fhc_series_check(WeightSeq.constant(2.0), 50)
    ok = (
        max_dev <= 1e-9
        and sv_div.kind == "diverges_observed"
        and sv_div.partial_sum > 12.0
        and sv_conv.kind == "converges_certified"
        and abs(sv_conv.partial_sum - 1.0 / 3.0) <= 1e-9
    )
    report(6, ok, f"product deviation {max_dev:.2e} <= 1e-9; harmonic S_N = "
                  f"{sv_div.partial_sum:.3f} > 12; geometric sum within "
                  f"{abs(sv_conv.partial_sum - 1/3):.2e} of 1/3")


def test_criterion_7_symbol_classification():
    c_half = range_circle_test(PolySymbol((0, 0.5)))
    c_out = range_circle_test(PolySymbol((2, 1)))
    c_cross = range_circle_test(PolySymbol((0.8, 1)))
    ok = (
        c_half.kind is RangeKind.DISJOINT_INSIDE
        and c_out.kind is RangeKind.DISJOINT_OUTSIDE
        and c_out.winding == 0
        and c_cross.kind is RangeKind.INTERSECTS
        and abs(abs(PolySymbol((0.8, 1))(c_cross.witness)) - 1.0) <= 1e-9
    )
    ok = ok and classify_adjoint(PolySymbol.constant(1j)).kind.value == "constant_recurrent"
    ok = ok and classify_adjoint(PolySymbol.constant(2)).kind.value == "constant_not_recurrent"
    report(7, ok, f"z/2 inside, z+2 outside (winding 0), z+0.8 witness "
                  f"|phi|-1 = {c_cross.margin:.1e}; constants i and 2 classified")


def test_criterion_8_decay_checks():
    lam = ScalingSeq.inverse(ScalingSeq.factorial())
    x = CoefVec.from_pairs(Side.UNILATERAL, [(i, 1.0) for i in range(1, 11)])
    rep = superratio_decay_check(lam, TWO_B, x, 500)
    ok_super = rep.ok and rep.n_o is not None

    T9 = ShiftOp(Side.BILATERAL, WeightSeq.constant(1.0), 0.9)
    e5 = CoefVec.basis(Side.BILATERAL, 5)
    ratios = [norm(T9.power_apply(n, e5)) / 0.9**n for n in range(1, 201)]
    ok_rate = all(abs(r - 1.0) <= 1e-9 for r in ratios)
    ok = ok_super and ok_rate
    report(8, ok, f"superratio bound holds for n <= 500 with n_o = {rep.n_o}; "
                  f"contraction ratio within {max(abs(r - 1) for r in ratios):.1e} of 1")


def test_criterion_9_oracle_equivalence():
    families = [
        WeightSeq.constant(1.0),
        WeightSeq.constant(2.0),
        WeightSeq.constant(0.7),
        WeightSeq.sqrt_ratio(),
        WeightSeq.step_bilateral(),
        WeightSeq.inverse_step_bilateral(),
        WeightSeq.table(list(np.random.default_rng(0).uniform(0.3, 2.5, 400)), start=-150),
    ]
    rng = np.random.default_rng(99)
    checked = 0
    ok = True
    for w in families:
        side = Side.BILATERAL if w.bilateral_ok else Side.UNILATERAL
        T = ShiftOp(side, w)
        for _ in range(100 // len(families) + 1):
            lo = 1 if side is Side.UNILATERAL else -40
            idx = rng.choice(np.arange(lo, 90), size=rng.integers(1, 40), replace=False)
            x = CoefVec.from_pairs(
                side, [(int(i), complex(rng.normal(), rng.normal())) for i in idx]
            )
            n = int(rng.integers(0, 51))
            fast = T.power_apply(n, x)
            slow = x
            for _ in range(n):
                slow = shift_once(T, slow)
            checked += 1
            if not np.array_equal(fast.indices, slow.indices):
                ok = False
            elif fast.nnz and np.max(
                np.abs(fast.log_mags - slow.log_mags)
            ) > 1e-9 * max(1.0, float(np.max(np.abs(slow.log_mags)))):
                ok = False

    def brute(members, n_max, m, tau, K):
        for k in range(1, K + 1):
            for a in sorted(members):
                if a + m * tau * k > n_max:
                    break
                if all(a + j * tau * k in members for j in range(m + 1)):
                    return a, k
        return None

    ap_ok = True
    for _ in range(100):
        density = rng.uniform(0.1, 0.9)
        idx = np.flatnonzero(rng.random(2000) < density) + 1
        if idx.size == 0:
            continue
        h = HittingSet(idx.astype(np.int64), 2000)
        m = int(rng.integers(1, 6))
        K = max(1, 2000 // (m * 4))
        got = find_ap(h, m, 1, K)
        want = brute(set(map(int, idx)), 2000, m, 1, K)
        if (got is None) != (want is None) or (got and (got.a, got.k) != want):
            ap_ok = False
    ok = ok and ap_ok
    report(9, ok, f"power_apply == iterated apply on {checked} random vectors "
                  f"across {len(families)} families; find_ap == brute force on 100 sets")


def test_criterion_10_determinism(tmp_path):
    cfg = {"scenario": "E6", "N": 10**5, "g": 16}
    run_scenario(cfg, tmp_path / "r1")
    run_scenario(cfg, tmp_path / "r2")
    names = ["report.json", "hitting_0.csv", "hitting_1.csv", "hitting_2.csv",
             "fu_vector.csv", "witness_u.csv"]
    ok = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes()
        for n in names
    )
    report(10, ok, f"E6 byte-identical across reruns: {ok}")
