"""The certified window-plus-tail enclosure of the per-n orbit scan.

Decided times must give the per-n kernel's own float answer: hits and the
distances at planned times equal, bit for bit, a scan that runs the kernel at
every time (``oracles.exact_ball_scan``). Points on the open-ball boundary
stay undecided and go to the kernel, and the kernel's squared distance stays
within ``d2_error_bound`` of a 50-digit evaluation.
"""

import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import exact_ball_scan

from orbitlab import _kernels, orbits
from orbitlab.fhbuilder import build
from orbitlab.lspace import Ball, CoefVec, Side
from orbitlab.orbits import _ball_scan
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
