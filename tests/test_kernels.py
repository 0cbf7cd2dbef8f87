"""Scan kernels against brute-force and direct-distance oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from orbitlab import _kernels
from orbitlab.lspace import Ball, CoefVec, Side
from orbitlab.orbits import (
    HittingSet,
    _ball_scan,
    _prefix_lse,
    _suffix_lse,
    _window_positions,
    ap_k_members,
    find_ap,
    hitting_set,
    orbit_distances,
)
from orbitlab.seqcore import SCAN_CHUNK, ScalingSeq
from orbitlab.shiftops import ShiftOp, WeightSeq


def _random_sets(rng, count, n_max=2000, lo=0.05, hi=0.9):
    for _ in range(count):
        density = rng.uniform(lo, hi)
        idx = np.flatnonzero(rng.random(n_max) < density) + 1
        if idx.size:
            yield HittingSet(idx.astype(np.int64), n_max)


def _brute_starts(members: set, n_max: int, m: int, tau: int, k: int) -> list:
    return [a for a in sorted(members) if a + m * tau * k <= n_max
            and all(a + j * tau * k in members for j in range(1, m + 1))]


def _brute_scan(members: set, n_max: int, m: int, tau: int, K: int, need: int):
    """(smallest k with >= need starts, its starts, largest start count seen)."""
    largest = 0
    for k in range(1, K + 1):
        starts = _brute_starts(members, n_max, m, tau, k)
        largest = max(largest, len(starts))
        if len(starts) >= need:
            return k, starts, largest
    return -1, [], largest


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_find_ap_matches_brute_force(tau):
    # the sparse sets fall on both sides of the pair-count switch
    rng = np.random.default_rng(77 + tau)
    sparse = _random_sets(rng, 15, n_max=4000, lo=0.002, hi=0.012)
    for h in [*sparse, *_random_sets(rng, 15, n_max=4000)]:
        members = set(map(int, h.indices))
        for m in (1, 2, 3, 5):
            K = max(1, h.n_max // (m * tau * 4))
            got = find_ap(h, m, tau)
            k, starts, _ = _brute_scan(members, h.n_max, m, tau, K, 1)
            assert (None if got is None else (got.k, got.a)) == (
                None if k < 0 else (k, starts[0]))


def test_ap_k_members_matches_brute_force():
    rng = np.random.default_rng(78)
    for h in _random_sets(rng, 10):
        members = set(map(int, h.indices))
        k = int(rng.integers(1, 50))
        m = int(rng.integers(1, 5))
        tau = int(rng.integers(1, 4))
        want = _brute_starts(members, h.n_max, m, tau, k)
        assert ap_k_members(h, k, m, tau).tolist() == want


def _pairs(members: set) -> int:
    return len(members) * (len(members) - 1) // 2


@st.composite
def _sparse_case(draw):
    # at most 22 members (231 pairs) against K > 231: the pair-difference gaps
    n_max = draw(st.integers(500, 20000))
    m, tau = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    members = draw(st.sets(st.integers(1, n_max), max_size=10))
    K = draw(st.integers(232, 1500))
    # plant up to two progressions of one gap, so that both needs can be met
    k = draw(st.integers(1, min(K, (n_max - 1) // (m * tau))))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(1, n_max - m * tau * k))
        members |= {a + j * tau * k for j in range(m + 1)}
    return members, n_max, m, tau, K, k


@st.composite
def _dense_case(draw):
    # about half of 1..n_max, so the pairs outnumber K: every k in 1..K
    n_max = draw(st.integers(4, 300))
    mask = draw(st.lists(st.booleans(), min_size=n_max, max_size=n_max))
    members = {i + 1 for i, b in enumerate(mask) if b}
    m, tau = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    K = draw(st.integers(1, max(1, n_max // (m * tau * 4))))
    return members, n_max, m, tau, K, draw(st.integers(1, K))


def _check_against_brute(members, n_max, m, tau, K, k):
    h = HittingSet(np.array(sorted(members), dtype=np.int64), n_max)
    k1, starts1, _ = _brute_scan(members, n_max, m, tau, K, 1)
    w = find_ap(h, m, tau, K)
    assert (None if w is None else (w.k, w.a)) == (None if k1 < 0 else (k1, starts1[0]))
    got = _kernels.ap_scan(h.lookup, h.indices, n_max, m, tau, K, 2)
    assert (got[0], got[1].tolist(), got[2]) == _brute_scan(members, n_max, m, tau, K, 2)
    for kk in {k, max(k1, 1)}:
        assert ap_k_members(h, kk, m, tau).tolist() == _brute_starts(members, n_max, m, tau, kk)


@settings(deadline=None)
@given(_sparse_case())
def test_progression_search_property_sparse(case):
    members, K = case[0], case[4]
    assert _pairs(members) < K
    _check_against_brute(*case)


@settings(deadline=None)
@given(_dense_case())
def test_progression_search_property_dense(case):
    members, K = case[0], case[4]
    assume(_pairs(members) >= K)
    _check_against_brute(*case)


def test_sparse_and_dense_paths_agree(monkeypatch):
    # the same sets scanned over every k in 1..K and over the pair-difference
    # gaps, whichever side of the pair-count switch each set falls on
    rng = np.random.default_rng(79)
    sparse = _random_sets(rng, 8, n_max=5000, lo=0.002, hi=0.008)
    for h in [*sparse, *_random_sets(rng, 8, n_max=600)]:
        for m, tau, need in ((1, 1, 1), (2, 1, 1), (2, 3, 2), (3, 2, 2)):
            args = (h.lookup, h.indices, h.n_max, m, tau, h.n_max // (4 * m * tau), need)
            scans = []
            for gaps in (lambda members, tau, K: range(1, K + 1), _kernels._pair_gaps):
                monkeypatch.setattr(_kernels, "_gap_candidates", gaps)
                k, starts, largest = _kernels.ap_scan(*args)
                scans.append((k, starts.tolist(), largest))
            assert scans[0] == scans[1]


def _orbit_setup(flat: bool):
    side = Side.UNILATERAL
    if flat:
        T = ShiftOp(side, WeightSeq.constant(1.0), 2.0)
    else:
        T = ShiftOp(side, WeightSeq.sqrt_ratio(), 0.5)
    rng = np.random.default_rng(5 if flat else 6)
    idx = np.unique(rng.integers(1, 400, size=60)).astype(np.int64)
    x = CoefVec.from_pairs(
        side, [(int(i), complex(rng.normal(), rng.normal())) for i in idx]
    )
    y = CoefVec.from_pairs(side, [(1, 1.0), (2, -0.5j)])
    return x, ScalingSeq.constant(1.0), T, y


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "general"])
def test_orbit_distance_matches_direct(flat):
    # both kernels against the direct scaled_orbit_point + dist oracle
    from orbitlab.lspace import dist
    from orbitlab.shiftops import scaled_orbit_point

    x, lam, T, y = _orbit_setup(flat)
    n_arr = np.arange(1, 120, dtype=np.int64)
    d2 = orbit_distances(x, lam, T, y, 0.5, n_arr)
    for t, n in enumerate(n_arr):
        want = dist(scaled_orbit_point(lam, T, int(n), x), y) ** 2
        if np.isfinite(d2[t]):
            assert d2[t] == pytest.approx(want, rel=1e-9, abs=1e-250)
        else:
            assert want > 0.25  # pre-filtered rows are certain misses


@pytest.mark.parametrize("side", [Side.UNILATERAL, Side.BILATERAL], ids=lambda s: s.value)
def test_flat_kernel_matches_window_loop_oracle(side):
    # the flat kernel sums y's window in window_dist2; bit for bit a loop of
    # its own over the window (oracles.flat_orbit_dist2), on windows of
    # width 1-6, vanished scalings (-inf) and rows whose entries pass
    # log_cap, some beyond exp's range, which the pre-filter reports as +inf
    unilateral = side is Side.UNILATERAL
    rng = np.random.default_rng(31 if unilateral else 32)
    fired = vanished = 0
    for _ in range(300):
        lo = 1 if unilateral else -60
        idx = np.unique(rng.integers(lo, 200, size=int(rng.integers(1, 80))))
        x = CoefVec.from_log_entries(side, idx, rng.normal(-1.0, 2.0, idx.size),
                                     rng.uniform(-4.0, 4.0, idx.size))
        w_lo = 1 if unilateral else int(rng.integers(-5, 3))
        w_hi = w_lo + int(rng.integers(0, 6))
        n_arr = np.unique(rng.integers(1, 250, size=int(rng.integers(1, 120))))
        scale_lm = rng.normal(0.0, 2.0, n_arr.size)
        scale_lm[rng.random(n_arr.size) < 0.1] = -np.inf
        scale_lm[rng.random(n_arr.size) < 0.05] = 800.0
        scale_ph = rng.uniform(-30.0, 30.0, n_arr.size)
        y_re, y_im = rng.normal(size=(2, w_hi - w_lo + 1))
        pos, pos_lo = _window_positions(x, n_arr, w_lo, w_hi)
        args = (n_arr, scale_lm, scale_ph, x.indices, x.log_mags, x.phases, pos, pos_lo,
                _prefix_lse(2.0 * x.log_mags), _suffix_lse(2.0 * x.log_mags), w_lo, w_hi,
                y_re, y_im, float(rng.uniform(0.0, 4.0)), unilateral)
        got = _kernels.flat_orbit_dist2(*args)
        want = oracles.flat_orbit_dist2(*args)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        fired += int(np.isposinf(want).sum())
        vanished += int(np.isneginf(scale_lm).sum())
    assert fired > 100 and vanished > 100


def test_bilateral_negative_support_matches_direct():
    # negative target support exercises the prefix tail and the offset lookup
    from orbitlab.lspace import dist
    from orbitlab.shiftops import scaled_orbit_point

    side = Side.BILATERAL
    T = ShiftOp(side, WeightSeq.step_bilateral(), 0.5)
    rng = np.random.default_rng(11)
    idx = np.unique(rng.integers(-50, 120, size=40)).astype(np.int64)
    x = CoefVec.from_pairs(side, [(int(i), complex(rng.normal(), rng.normal())) for i in idx])
    y = CoefVec.from_pairs(side, [(-3, 1.0), (0, -0.5), (2, 0.25j)])
    n_arr = np.arange(1, 80, dtype=np.int64)
    d2 = orbit_distances(x, ScalingSeq.constant(1.0), T, y, 0.5, n_arr)
    for t, n in enumerate(n_arr):
        want = dist(scaled_orbit_point(ScalingSeq.constant(1.0), T, int(n), x), y) ** 2
        if np.isfinite(d2[t]):
            assert d2[t] == pytest.approx(want, rel=1e-9, abs=1e-250)
        else:
            assert want > 0.25


def test_rotating_scaling_matches_direct():
    # unimodular lam with per-n phases: hits depend on the phase alignment
    import cmath

    from orbitlab.lspace import dist
    from orbitlab.shiftops import scaled_orbit_point

    lam = ScalingSeq.power_of_w(cmath.exp(0.37j))
    T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
    x = CoefVec.from_pairs(Side.UNILATERAL, [(i, 2.0 ** -i) for i in range(1, 40)])
    y = CoefVec.basis(Side.UNILATERAL, 1)
    n_arr = np.arange(1, 40, dtype=np.int64)
    d2 = orbit_distances(x, lam, T, y, 1.5, n_arr)
    for t, n in enumerate(n_arr):
        want = dist(scaled_orbit_point(lam, T, int(n), x), y) ** 2
        assert d2[t] == pytest.approx(want, rel=1e-9)


def test_vanishing_scaling_gives_target_norm():
    x = CoefVec.from_pairs(Side.UNILATERAL, [(3, 1.0)])
    y = CoefVec.from_pairs(Side.UNILATERAL, [(1, 2.0)])
    lam = ScalingSeq.constant(0.0)
    T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
    d2 = orbit_distances(x, lam, T, y, 1.0, np.arange(1, 10, dtype=np.int64))
    assert np.allclose(d2, 4.0)


def test_chunk_grid_is_invisible():
    # one scan over more than three chunks equals, bit for bit, short scans
    # that straddle each chunk boundary
    import cmath

    lam = ScalingSeq.power_of_w(cmath.exp(0.37j))
    T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
    rng = np.random.default_rng(12)
    n_max = 3 * SCAN_CHUNK + 500
    # half of all indices occupied, so the target window is rarely empty;
    # magnitudes stay below |y| + eps, so the pre-filter never fires
    idx = np.flatnonzero(rng.random(n_max + 10) < 0.5) + 1
    lms = np.log(rng.uniform(0.01, 0.7, size=idx.size))
    x = CoefVec.from_log_entries(Side.UNILATERAL, idx, lms, rng.uniform(-3, 3, size=idx.size))
    y = CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (2, -0.5j)])
    n_arr = np.arange(1, n_max + 1, dtype=np.int64)
    full = orbit_distances(x, lam, T, y, 0.5, n_arr)
    assert np.isfinite(full).all()
    for b in range(SCAN_CHUNK, n_arr.size, SCAN_CHUNK):
        part = orbit_distances(x, lam, T, y, 0.5, n_arr[b - 7 : b + 5])
        assert part.tobytes() == full[b - 7 : b + 5].tobytes(), b
    # the streamed pass: its hits and its distances at asked-for times,
    # around every chunk boundary and spread over the horizon
    r = float(np.sqrt(np.quantile(full, 0.3)))
    ball = Ball(y, r)
    full = orbit_distances(x, lam, T, y, r, n_arr)
    want = n_arr[full < r * r]
    assert 0 < want.size < n_max
    assert np.array_equal(hitting_set(x, lam, T, ball, n_max).indices, want)
    at = np.unique(np.concatenate(
        [np.arange(b - 3, b + 3) for b in range(SCAN_CHUNK, n_max, SCAN_CHUNK)]
        + [rng.choice(n_arr, size=200), [1, n_max]]
    ))
    hits, d2 = _ball_scan(x, lam, T, ball, n_max, at)
    assert np.array_equal(hits, want)
    assert d2.tobytes() == full[at - 1].tobytes()


def test_streamed_hitting_set_memory():
    # a one-target flat build at N = 2e6: the scan holds one chunk's arrays
    # and the hits, not arrays of horizon length (about 74 bytes per time)
    from orbitlab.fhbuilder import build

    N = 2_000_000
    T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
    e1 = CoefVec.basis(Side.UNILATERAL, 1)
    v = build(ScalingSeq.constant(1.0), T, [(e1, 1e-3)], N, g=16)
    tracemalloc.start()
    try:
        h = hitting_set(v.x, ScalingSeq.constant(1.0), T, Ball(e1, 1e-3), N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(h.indices, v.hits[0].indices)
    assert peak < 32 * 2**20, peak
