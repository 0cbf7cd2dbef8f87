"""The certified decisions of the orbit scans: the per-n scan's
window-plus-tail enclosure and norm bound, and the flat scan's misses at
times whose window holds no entry of x.

Decided times must give the per-n kernel's own float answer: hits and the
distances at planned times equal, bit for bit, a scan that runs the kernel at
every time (``oracles.exact_ball_scan``). Points on the open-ball boundary
stay undecided and go to the kernel, and the kernel's squared distance stays
within ``d2_error_bound`` of a 50-digit evaluation. Every miss the norm bound
decides is a kernel miss, also next to the bound, and times where the bound
is too loose go to the kernel. Every miss the flat scan decides is a flat
kernel miss, also with r^2 planted on y's window squares.
"""

import cmath
import json
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import exact_ball_scan

from orbitlab import _kernels, expcli, orbits
from orbitlab.fhbuilder import build
from orbitlab.lspace import Ball, CoefVec, Side
from orbitlab.orbits import _ball_scan, recurrence_scan
from orbitlab.seqcore import ScalingSeq, eval_at
from orbitlab.shiftops import ShiftOp, WeightSeq

ONE = ScalingSeq.constant(1.0)
SQRT_RATIO_2B = ShiftOp(Side.UNILATERAL, WeightSeq.sqrt_ratio(), 2.0)


def e(k):
    return CoefVec.basis(Side.UNILATERAL, k)


def e12():
    return CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (2, 1.0)])


def _table_weights(size, seed):
    rng = np.random.default_rng(seed)
    return WeightSeq.table(rng.uniform(0.7, 1.4, size=size))


def _recorded_rows(run):
    """Call run() and return the times the per-n kernel was given, in order."""
    rows = []
    kernel = _kernels.general_orbit_dist2

    def recording(n_arr, *rest):
        rows.append(n_arr.copy())
        return kernel(n_arr, *rest)

    with mock.patch.object(_kernels, "general_orbit_dist2", recording):
        out = run()
    return out, (np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64))


def _decisions(x, lam, T, b, N):
    """The enclosure's (hit times, open times) over n = 1..N."""
    decide = orbits._orbit_scan(x, lam, T, b.center, b.radius, N, N)[1]
    return decide(np.arange(1, N + 1, dtype=np.int64), b.radius * b.radius)


# (operator, targets, N, g): FU builds whose scans take the enclosure
ORACLE_BUILDS = {
    "sqrt_ratio_2e4": (SQRT_RATIO_2B, [(e(1), 1e-3)], 20_000, None),
    "table_w": (ShiftOp(Side.UNILATERAL, _table_weights(3_100, 5), 2.0),
                [(e(1), 1e-3), (e12(), 1e-2)], 3_000, 12),
}


@pytest.mark.parametrize("case", ORACLE_BUILDS.values(), ids=ORACLE_BUILDS)
def test_build_scan_matches_exact_oracle(case):
    T, targets, N, g = case
    v = build(ONE, T, targets, N, g=g)
    for i, (y, eps) in enumerate(targets):
        b, at = Ball(y, eps), v.plan.planned(i, v.horizon)
        (hits, d2), rows = _recorded_rows(lambda: _ball_scan(v.x, ONE, T, b, N, at))
        want_hits, want_d2 = exact_ball_scan(v.x, ONE, T, b, N, at)
        assert hits.tobytes() == want_hits.tobytes()
        assert d2.tobytes() == want_d2.tobytes()
        assert v.hits[i].indices.tobytes() == want_hits.tobytes()
        # the kernel ran on the planned times and not on every time
        assert np.isin(at, rows).all() and rows.size < N // 2


def _random_x(rng, n_hi, density=0.4):
    """A unilateral vector with entries on about ``density`` of 1..n_hi,
    |x_i| near 2^-i and random phases."""
    idx = np.flatnonzero(rng.random(n_hi) < density) + 1
    lm = -idx * math.log(2.0) + rng.normal(0.0, 0.5, size=idx.size)
    return CoefVec.from_log_entries(Side.UNILATERAL, idx, lm,
                                    rng.uniform(-math.pi, math.pi, size=idx.size))


def _random_case(seed, family):
    """(x, lam, T, y, N) with general weights: x, y and the scaling drawn
    from the seed."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(40, 400))
    weights = {
        "sqrt_ratio": WeightSeq.sqrt_ratio,
        "step": WeightSeq.step_bilateral,
        "table_w": lambda: _table_weights(N + 60, seed),
    }[family]()
    T = ShiftOp(Side.UNILATERAL, weights, float(rng.uniform(1.5, 2.5)))
    lam = ONE if rng.random() < 0.5 else ScalingSeq.power_of_w(cmath.exp(0.37j))
    x = _random_x(rng, N + 40)
    y = CoefVec.from_pairs(Side.UNILATERAL, [
        (1, complex(rng.normal(), rng.normal())), (int(rng.integers(2, 5)), 0.3)])
    return x, lam, T, y, N


FAMILIES = ("sqrt_ratio", "step", "table_w")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("quantile", [0.05, 0.3, 0.7])
def test_random_scans_match_exact_oracle(family, quantile):
    for seed in range(4):
        x, lam, T, y, N = _random_case(seed, family)
        _, d2 = exact_ball_scan(x, lam, T, Ball(y, 1.0), N, np.arange(1, N + 1))
        b = Ball(y, float(np.sqrt(np.quantile(d2[np.isfinite(d2)], quantile))))
        at = np.arange(3, N + 1, 7)
        hits, got = _ball_scan(x, lam, T, b, N, at)
        want_hits, want = exact_ball_scan(x, lam, T, b, N, at)
        assert hits.tobytes() == want_hits.tobytes()
        assert got.tobytes() == want.tobytes()
        _, rest = _decisions(x, lam, T, b, N)
        assert rest.size < N


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(FAMILIES), st.data())
def test_boundary_point_goes_to_the_kernel(seed, family, data):
    x, lam, T, y, N = _random_case(seed, family)
    n = data.draw(st.integers(1, N), label="n")
    d2 = exact_ball_scan(x, lam, T, Ball(y, 1.0), N, np.array([n]))[1][0]
    assume(np.isfinite(d2) and d2 > 0.0)
    r = math.sqrt(d2)
    for radius in (math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)):
        b = Ball(y, radius)
        inside, rest = _decisions(x, lam, T, b, N)
        assert n in rest and n not in inside
        (hits, _), rows = _recorded_rows(lambda: _ball_scan(x, lam, T, b, N))
        assert n in rows
        want_hits, want_d2 = exact_ball_scan(x, lam, T, b, N, np.array([n]))
        assert hits.tobytes() == want_hits.tobytes()
        assert (n in hits) == (want_d2[0] < radius * radius)


def _mp_dist2(s_lm, s_ph, x, cum, y_re, y_im, n):
    """sum_i |c_i - y_{i-n}|^2 over i >= n + 1 and y's window, with
    c_i = exp(s + cum[i] - cum[i-n] + log|x_i|) e^{i (phase + phase_i)}
    evaluated on the float inputs at 50 digits."""
    with mpmath.workdps(50):
        ys = {j + 1: mpmath.mpc(float(a), float(b)) for j, (a, b) in enumerate(zip(y_re, y_im))}
        total = mpmath.mpf(0)
        for i, lm, ph in zip(x.indices.tolist(), x.log_mags.tolist(), x.phases.tolist()):
            if i <= n:
                continue
            mag = mpmath.exp(mpmath.mpf(s_lm) + mpmath.mpf(cum[i]) - mpmath.mpf(cum[i - n])
                             + mpmath.mpf(lm))
            c = mag * mpmath.expjpi((mpmath.mpf(s_ph) + mpmath.mpf(ph)) / mpmath.pi)
            total += abs(c - ys.pop(i - n, 0)) ** 2
        return total + sum(abs(v) ** 2 for v in ys.values())


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(FAMILIES), st.data())
def test_kernel_within_error_bound_of_50_digits(seed, family, data):
    x, lam, T, y, N = _random_case(seed, family)
    n = data.draw(st.integers(1, N), label="n")
    n_arr = np.array([n], dtype=np.int64)
    # the per-n kernel's inputs, its overflow pre-filter off
    lam_lm, lam_ph, _ = eval_at(lam, n_arr)
    s_lm = lam_lm + n * T.pm_log
    s_ph = lam_ph + n * T.pm_arg
    cum = T.weights.cum(np.arange(0, int(x.indices.max()) + 1, dtype=np.int64))
    width = int(y.indices.max())
    y_vals = np.zeros(width, dtype=complex)
    y_vals[y.indices - 1] = y.to_complex_array()
    y_re, y_im = y_vals.real.copy(), y_vals.imag.copy()
    y2 = math.fsum((y_re * y_re).tolist() + (y_im * y_im).tolist())
    d2 = _kernels.general_orbit_dist2(
        n_arr, s_lm, s_ph, x.indices, x.log_mags, x.phases, cum, 0, 1, width,
        y_re, y_im, y2, math.inf, True,
    )[0]
    assume(np.isfinite(d2))
    want = _mp_dist2(s_lm[0], s_ph[0], x, cum, y_re, y_im, n)
    with mpmath.workdps(50):
        dy = float(abs(mpmath.mpf(y2) - sum(mpmath.mpf(v) ** 2 for v in y_re.tolist() + y_im.tolist())))
    lm_terms = abs(float(s_lm[0])) + 2.0 * float(np.abs(cum).max()) + float(np.abs(x.log_mags).max())
    ph_terms = abs(float(s_ph[0])) + float(np.abs(x.phases).max())
    eta = _kernels.d2_error_bound(lm_terms, ph_terms, x.nnz + 2 * width, float(want), y2,
                                  2.0 * dy)
    assume(np.isfinite(eta))
    with mpmath.workdps(50):
        err = abs(mpmath.mpf(float(d2)) - want)
    assert err <= eta, (float(err), float(eta))


# ---------------------------------------------------------------------------
# the norm bound: certified misses where y's window leaves no tail
# ---------------------------------------------------------------------------

def _decided_misses(x, lam, T, b, N):
    """The times the norm bound decides over n = 1..N; it decides no hit."""
    inside, rest = _decisions(x, lam, T, b, N)
    assert inside.size == 0
    return np.setdiff1d(np.arange(1, N + 1), rest)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(FAMILIES), st.data())
def test_norm_bound_misses_are_kernel_misses(seed, family, data):
    # return-time balls (y = x) and a target whose window covers x's support
    # and is wider than the scan: every decided miss has the kernel's
    # d2 >= r^2, also at radii planted on a time's own distance
    x, lam, T, _, N = _random_case(seed, family)
    far = CoefVec.from_pairs(Side.UNILATERAL, [(int(x.indices[-1]) + 1, 0.5)])
    n = data.draw(st.integers(1, N), label="n")
    for y in (x, far):
        d2 = exact_ball_scan(x, lam, T, Ball(y, 1.0), N, np.arange(1, N + 1))[1]
        finite = d2[np.isfinite(d2)]
        radii = [float(np.sqrt(q)) for q in np.quantile(finite, [0.05, 0.5])
                 ] if finite.size else []
        if np.isfinite(d2[n - 1]) and d2[n - 1] > 0.0:
            r = math.sqrt(d2[n - 1])
            radii += [math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)]
        for radius in radii:
            b = Ball(y, radius)
            missed = _decided_misses(x, lam, T, b, N)
            want_hits, want_d2 = exact_ball_scan(x, lam, T, b, N, np.arange(1, N + 1))
            assert (want_d2[missed - 1] >= radius * radius).all()
            assert _ball_scan(x, lam, T, b, N)[0].tobytes() == want_hits.tobytes()


@settings(deadline=None)
@given(st.integers(5, 30), st.integers(0, 3), st.sampled_from([2.0, 1e-4]), st.data())
def test_norm_bound_planted_near_its_boundary(q, count, delta, data):
    # y = (1 + delta) c e(q) and x = a e(q + n0) plus ``count`` small entries
    # past it, unweighted, c = a pm^n0: at n0, T^n0 x points along y, so the
    # exact d2 is the bound L = (|y| - |T^n0 x|)^2 (count = 0) or just above
    # it; the scan (N < q) is narrower than y's window. With delta = 1e-4 the
    # kernel's d2 cancels |y|^2 down to about 1e-8 |y|^2, so its rounding is
    # about 1e-8 of L, and the band eta must keep the decided misses sound.
    # Radii a few thousand ulp around L and on to the kernel's d2: each
    # decided miss is a kernel miss, and r^2 = L (1 - 1e-9) (delta = 2) or
    # L (1 - 1e-3) (delta = 1e-4) is decided, so the band stays tight
    pm = data.draw(st.floats(0.5, 2.0), label="pm")
    N = data.draw(st.integers(1, q - 1), label="N")
    n0 = data.draw(st.integers(1, N), label="n0")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), pm)
    a = float(rng.uniform(0.5, 2.0))
    small = [(q + n0 + k, complex(*rng.normal(0.0, 1e-6, 2))) for k in range(1, count + 1)]
    x = CoefVec.from_pairs(Side.UNILATERAL, [(q + n0, a), *small])
    y = CoefVec.from_pairs(Side.UNILATERAL, [(q, (1.0 + delta) * a * pm**n0)])
    d2 = exact_ball_scan(x, ONE, T, Ball(y, 1.0), N, np.array([n0]))[1][0]
    with mpmath.workdps(50):
        cx = mpmath.sqrt(sum(mpmath.mpf(pm) ** (2 * n0) * abs(mpmath.mpc(v)) ** 2
                             for v in x.to_complex_array().tolist()))
        L = float((abs(mpmath.mpc(y.to_complex_array()[0])) - cx) ** 2)
    r2s = [*(L * (1.0 + np.arange(-16, 17) * 2.0**-40)), *np.linspace(L, max(L, d2), 5),
           math.nextafter(d2, 0.0), d2, math.nextafter(d2, math.inf)]
    for r2 in r2s:
        b = Ball(y, math.sqrt(r2))
        if n0 in _decided_misses(x, ONE, T, b, N):
            assert d2 >= b.radius * b.radius
    tight = L * (1.0 - (1e-9 if delta == 2.0 else 1e-3))
    assert n0 in _decided_misses(x, ONE, T, Ball(y, math.sqrt(tight)), N)


def test_norm_bound_too_loose_goes_to_the_kernel():
    # x = e(5) + e(6) and y = x under unit table weights (the per-n kernel):
    # T^n x keeps norm |x| for n <= 4 and norm 1 at n = 5, so
    # (|x| - |T^n x|)^2 < r^2 = 1.5 although every d2 >= 2; those times run
    # the kernel, and only n >= 6 (T^n x = 0) is decided
    x = CoefVec.from_pairs(Side.UNILATERAL, [(5, 1.0), (6, 1.0)])
    T = ShiftOp(Side.UNILATERAL, WeightSeq.table([1.0] * 20))
    b = Ball(x, math.sqrt(1.5))
    assert _decided_misses(x, ONE, T, b, 10).tolist() == list(range(6, 11))
    (hits, _), rows = _recorded_rows(lambda: _ball_scan(x, ONE, T, b, 10))
    assert rows.tolist() == [1, 2, 3, 4, 5] and hits.size == 0
    assert exact_ball_scan(x, ONE, T, b, 10)[0].size == 0


E2_CONFIGS = {
    "shipped": Path(__file__).parents[1] / "configs" / "e2.json",
    "N2e4_recurrence300": {"scenario": "E2", "N": 20_000, "recurrence_N": 300},
}


@pytest.mark.parametrize("config", E2_CONFIGS.values(), ids=E2_CONFIGS)
def test_e2_return_scan_runs_the_kernel_below_the_first_index(config, tmp_path):
    # lam_n = n! builds x from index 11 on; for n >= 11 the norm bound puts
    # T^n x far from x, and below it T^n x keeps all of x's norm, so the
    # kernel runs at exactly n = 1..10 and the scan comes back empty
    if isinstance(config, dict):
        path = tmp_path / "e2.json"
        path.write_text(json.dumps(config))
        config = path
    seen = {}

    def scan(T, x, eps, N):
        seen["x"] = x
        return recurrence_scan(T, x, eps, N)

    run = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    with mock.patch.object(expcli, "recurrence_scan", scan):
        code, rows = _recorded_rows(lambda: expcli.main(run))
    first = int(seen["x"].indices[0])
    assert code == 0 and first == 11
    assert rows.tolist() == list(range(1, first))


# ---------------------------------------------------------------------------
# the flat scan: a time whose window holds no entry of x is an exact miss
# ---------------------------------------------------------------------------

def _window_squares(y):
    """Y: the squares of y's window, over its least to its largest index,
    summed from 0.0 in the flat kernel's order: re^2 then im^2 at each
    offset."""
    vals = np.zeros(int(y.indices[-1] - y.indices[0]) + 1, dtype=complex)
    vals[y.indices - y.indices[0]] = y.to_complex_array()
    total = 0.0
    for v in vals.tolist():
        total += v.real * v.real
        total += v.imag * v.imag
    return total


@st.composite
def _flat_cases(draw):
    """(x, lam, T, y, N): constant weights on either side,
    a window of width 1-6 whose ends hold entries of y, and a sparse x that
    starts and ends within a few indices of the scanned windows."""
    side = draw(st.sampled_from([Side.UNILATERAL, Side.BILATERAL]), label="side")
    width = draw(st.integers(1, 6), label="width")
    w_lo = 1 if side is Side.UNILATERAL else draw(st.integers(-4, 3), label="w_lo")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    N = draw(st.integers(10, 200), label="N")
    y_vals = rng.normal(size=width) + 1j * rng.normal(size=width)
    y_vals[1:-1] *= rng.random(max(width - 2, 0)) < 0.5  # zeros inside the window
    y = CoefVec.from_pairs(side, [(w_lo + k, v) for k, v in enumerate(y_vals)])
    lo = 1 if side is Side.UNILATERAL else w_lo - 8
    dense = rng.random(N + width + 16) < draw(st.floats(0.02, 0.3))
    dense[rng.integers(dense.size)] = True  # x is not zero
    idx = np.flatnonzero(dense) + lo
    x = CoefVec.from_log_entries(side, idx, rng.normal(0.0, 2.0, size=idx.size),
                                 rng.uniform(-math.pi, math.pi, size=idx.size))
    T = ShiftOp(side, WeightSeq.constant(float(rng.uniform(0.5, 1.5))),
                complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)))
    lam = draw(st.sampled_from([ONE, ScalingSeq.power_of_w(cmath.exp(0.37j)),
                                ScalingSeq.table([0.0, 2.0] * 100)]), label="lam")
    return x, lam, T, y, N


@settings(deadline=None)
@given(_flat_cases())
def test_flat_empty_window_misses_are_kernel_misses(case):
    # r^2 planted at Y, at its neighbouring floats and above |y|^2: each
    # decided miss has the flat kernel's d2 >= r^2, bit for bit, the open
    # times are exactly those whose window meets x's support (all of them
    # when Y < r^2), and the hit sets are the exact scan's
    x, lam, T, y, N = case
    n_arr = np.arange(max(1, lam.min_n), N + 1, dtype=np.int64)
    dist2, decide = orbits._orbit_scan(x, lam, T, y, 1.0, N, n_arr.size)
    d2 = dist2(n_arr)
    Y = _window_squares(y)
    w_lo, w_hi = int(y.indices[0]), int(y.indices[-1])
    meets = np.array([np.any((x.indices >= n + w_lo) & (x.indices <= n + w_hi))
                      for n in n_arr.tolist()], dtype=bool)
    above = 2.0 * Y + 1.0  # above |y|^2
    for r2 in (math.nextafter(Y, 0.0), Y, math.nextafter(Y, math.inf), above):
        inside, rest = decide(n_arr, r2)
        assert inside.size == 0
        want_open = n_arr[meets] if Y >= r2 else n_arr
        assert rest.tobytes() == want_open.tobytes()
        missed = ~np.isin(n_arr, rest)
        assert (d2[missed] >= r2).all()
        b = Ball(y, math.sqrt(r2))
        got_hits, got_d2 = _ball_scan(x, lam, T, b, N, n_arr[::3])
        want_hits, want_d2 = exact_ball_scan(x, lam, T, b, N, n_arr[::3])
        assert got_hits.tobytes() == want_hits.tobytes()
        assert got_d2.tobytes() == want_d2.tobytes()
