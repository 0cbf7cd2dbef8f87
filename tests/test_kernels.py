"""Scan kernels against brute-force and direct-distance oracles."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from orbitlab import _kernels
from orbitlab.lspace import LM_ZERO, Ball, CoefVec, Side
from orbitlab.orbits import (
    HittingSet,
    _ball_scan,
    _prefix_lse,
    _suffix_lse,
    _window_positions,
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


def _members(h: HittingSet, k: int, m: int, tau: int) -> list:
    """Every start a of a full progression a, a + tau*k, ..., a + m*tau*k in h."""
    offsets = tau * k * np.arange(1, m + 1, dtype=np.int64)
    return _kernels.progression_members(h.lookup, h.indices, h.n_max, offsets).tolist()


def test_progression_members_matches_brute_force():
    rng = np.random.default_rng(78)
    for h in _random_sets(rng, 10):
        members = set(map(int, h.indices))
        k = int(rng.integers(1, 50))
        m = int(rng.integers(1, 5))
        tau = int(rng.integers(1, 4))
        want = _brute_starts(members, h.n_max, m, tau, k)
        assert _members(h, k, m, tau) == want


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
        assert _members(h, kk, m, tau) == _brute_starts(members, n_max, m, tau, kk)


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


def test_flat_kernel_tails_exclude_the_window_ends():
    # bilateral, window -2..1: at n = 10, x has entries exactly at n + w_lo
    # = 8 and n + w_hi = 11, which the window holds and neither tail may
    # count again, and one entry beyond each end; every time's d2 is the
    # window's |x_{n+j} - y_j|^2 plus |x_i|^2 off the window, summed exactly
    side = Side.BILATERAL
    entries = {5: -1.0, 8: 0.0, 11: 0.0, 13: -2.0}  # index: log|x_i|, phases 0
    x = CoefVec.from_log_entries(side, np.array(list(entries)), np.array(list(entries.values())),
                                 np.zeros(len(entries)))
    w_lo, w_hi = -2, 1
    y_re, y_im = np.array([0.5, 0.0, 0.25, 0.75]), np.array([0.0, -0.5, 0.0, 0.125])
    n_arr = np.arange(3, 17, dtype=np.int64)
    pos, pos_lo = _window_positions(x, n_arr, w_lo, w_hi)
    zeros = np.zeros(n_arr.size)
    args = (n_arr, zeros, zeros, x.indices, x.log_mags, x.phases, pos, pos_lo,
            _prefix_lse(2.0 * x.log_mags), _suffix_lse(2.0 * x.log_mags), w_lo, w_hi,
            y_re, y_im, 10.0, False)
    got = _kernels.flat_orbit_dist2(*args)
    assert _same_bits(got, oracles.flat_orbit_dist2(*args))
    for t, n in enumerate(n_arr.tolist()):
        c = {i - n: math.exp(lm) for i, lm in entries.items()}
        window = [(c.get(j, 0.0) - y_re[j - w_lo]) ** 2 + y_im[j - w_lo] ** 2
                  for j in range(w_lo, w_hi + 1)]
        off = [v * v for j, v in c.items() if not w_lo <= j <= w_hi]
        assert got[t] == pytest.approx(math.fsum(window + off), rel=1e-14)


def _window_case(rng, side, density):
    """A random window-kernel case: x present at about ``density`` of the
    indices the times read, plus entries below them and, in half the cases,
    above them; windows of width 1-6, vanished scalings (-inf) and rows
    past exp's range (scale 800)."""
    unilateral = side is Side.UNILATERAL
    w_lo = 1 if unilateral else int(rng.integers(-5, 3))
    w_hi = w_lo + int(rng.integers(0, 6))
    n_arr = np.unique(rng.integers(1, 250, size=int(rng.integers(1, 120))))
    lo, hi = int(n_arr[0]) + w_lo, int(n_arr[-1]) + w_hi
    idx = np.flatnonzero(rng.random(hi - lo + 1) < density) + lo
    # lo >= 2 on a unilateral shift, so index 1 lies below every slot read
    far = [1] if unilateral else [lo - 1 - int(rng.integers(0, 40)) for _ in range(3)]
    if rng.random() < 0.5:
        far += [hi + 1 + int(rng.integers(0, 40)) for _ in range(3)]
    idx = np.unique(np.concatenate([idx, far])).astype(np.int64)
    x = CoefVec.from_log_entries(side, idx, rng.normal(-1.0, 2.0, idx.size),
                                 rng.uniform(-4.0, 4.0, idx.size))
    scale_lm = rng.normal(0.0, 2.0, n_arr.size)
    scale_lm[rng.random(n_arr.size) < 0.1] = -np.inf
    scale_lm[rng.random(n_arr.size) < 0.05] = 800.0
    scale_ph = rng.uniform(-30.0, 30.0, n_arr.size)
    y_re, y_im = rng.normal(size=(2, w_hi - w_lo + 1))
    pos, pos_lo = _window_positions(x, n_arr, w_lo, w_hi)
    return x, n_arr, scale_lm, scale_ph, pos, pos_lo, w_lo, w_hi, y_re, y_im


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _same_bits_or_nan(a, b):
    # NaN where the other is NaN, whatever its sign: a row holding NaNs of
    # both signs (a planted NaN is positive, the x86 NaN of 0 * cos(inf)
    # negative) sums to either one, as numpy's loop orders the additions
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and _same_bits(a[~nan], b[~nan])


@pytest.mark.parametrize("density", [0.0, 0.1, 1.0], ids=["none", "tenth", "all"])
@pytest.mark.parametrize("side", [Side.UNILATERAL, Side.BILATERAL], ids=lambda s: s.value)
def test_window_kernels_match_every_slot_oracles(side, density):
    # window_dist2 runs exp, cos and sin only where x has an entry; bit for
    # bit the every-slot window (oracles.window_dist2, with and without cum,
    # from zero and from given sums) and the flat kernel on top of it
    # (oracles.flat_orbit_dist2), at presence densities 0, 1/10 and 1
    unilateral = side is Side.UNILATERAL
    rng = np.random.default_rng(int(density * 10) + (40 if unilateral else 50))
    present = fired = past_cum = 0
    for _ in range(150):
        x, n_arr, s_lm, s_ph, pos, pos_lo, w_lo, w_hi, y_re, y_im = _window_case(
            rng, side, density
        )
        present += int((pos >= 0).sum())
        # cum covers x's support and no further: absent slots past its end
        # (where x ends below the last slot) must not be read; a bilateral
        # support reads negative indices from its end, as numpy does, in
        # both kernels
        cum = rng.normal(0.0, 3.0, max(int(x.indices.max()) + 1, 2 * w_hi + 2,
                                       -2 * int(x.indices.min())))
        past_cum += int(n_arr[-1]) + w_hi >= cum.size
        for c in (None, cum):
            for start in (None, rng.uniform(0.0, 2.0, n_arr.size)):
                args = (n_arr, s_lm, s_ph, x.log_mags, x.phases, pos, pos_lo, c,
                        w_lo, w_hi, y_re, y_im)
                got = _kernels.window_dist2(*args, None if start is None else start.copy())
                want = oracles.window_dist2(*args, None if start is None else start.copy())
                assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        args = (n_arr, s_lm, s_ph, x.indices, x.log_mags, x.phases, pos, pos_lo,
                _prefix_lse(2.0 * x.log_mags), _suffix_lse(2.0 * x.log_mags), w_lo, w_hi,
                y_re, y_im, float(rng.uniform(0.0, 4.0)), unilateral)
        want = oracles.flat_orbit_dist2(*args)
        assert _same_bits(_kernels.flat_orbit_dist2(*args), want)
        fired += int(np.isposinf(want).sum())
    assert (present == 0) == (density == 0.0)
    assert fired > 0 and (past_cum > 0 or density == 1.0)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Side.UNILATERAL, Side.BILATERAL]),
       st.integers(1, 6), st.sampled_from([1, 7, 64, _kernels.GENERAL_BATCH_TERMS]),
       st.booleans(), st.booleans(), st.sampled_from([20.0, LM_ZERO / 2 - 5.0]))
def test_general_kernel_matches_mask_oracle(seed, side, width, batch, decay, plant, log_cap):
    # the per-n kernel forms its rows end to end in batches, every term by
    # one expression, and computes nothing past its cut; bit for bit the
    # boolean-mask row loop (oracles.general_orbit_dist2) at
    # every time up to past x's support, with y's window at either end of
    # the support, vanished scalings (-inf) and rows past exp's range (scale
    # 800), which the pre-filter makes +inf. Batches of 1 and 7 terms spread
    # the rows over many batches, and every row is longer than a batch of 1.
    # With ``decay`` x's magnitudes fall along its support far below exp's
    # range, so rows are cut and bilateral windows sit past the cut; cum and
    # some scales are zero, so some log-magnitudes lie exactly a few ulp
    # either side of LM_ZERO / 2. ``plant`` puts NaN and infinities in the
    # scales, their phases and (half the time) one of x's phases. A log_cap
    # below LM_ZERO / 2 makes the cap, not the zero, the cut.
    unilateral = side is Side.UNILATERAL
    rng = np.random.default_rng(seed)
    lo = int(rng.integers(2, 20) if unilateral else rng.integers(-40, 20))
    idx = np.unique(rng.integers(lo, lo + 100, size=int(rng.integers(1, 60))))
    idx[0] = lo
    x = CoefVec.from_log_entries(side, idx, rng.normal(-1.0, 2.0, idx.size),
                                 rng.uniform(-4.0, 4.0, idx.size))
    sup_lm, sup_ph = x.log_mags.copy(), x.phases.copy()
    i_lo, i_hi = int(idx[0]), int(idx[-1])
    # row n_low's window starts at x's first index, row n_high's ends at (or
    # past) its last; rows n > i_hi hold no entry of a unilateral x
    n_low = i_lo - 1 if unilateral else int(rng.integers(1, 5))
    w_lo = 1 if unilateral else i_lo - n_low
    w_hi = w_lo + width - 1
    n_high = max(1, i_hi - w_hi)
    n_hi = max(i_hi, n_low, n_high) + 5
    n_arr = np.arange(1, n_hi + 1, dtype=np.int64)
    scale_lm = rng.normal(0.0, 1.0, n_arr.size)
    others = np.setdiff1d(np.arange(n_arr.size), [n_low - 1, n_high - 1])
    scale_lm[rng.choice(others, size=others.size // 10)] = -np.inf
    vanished, past = rng.choice(others, size=2, replace=False)
    scale_lm[vanished] = -np.inf
    scale_lm[past] = 800.0
    scale_ph = rng.uniform(-30.0, 30.0, n_arr.size)
    cum_lo = 0 if unilateral else min(i_lo - n_hi, 0)
    cum = rng.normal(0.0, 1.0, i_hi - cum_lo + 1)
    free = rng.permutation(np.setdiff1d(others, [vanished, past]))
    if decay:
        sup_lm += np.linspace(0.0, -1500.0, idx.size)
        cum[:] = 0.0
        scale_lm[free[: free.size // 4]] = 0.0
        near = LM_ZERO / 2 + np.arange(-3, 4) * np.spacing(LM_ZERO / 2)
        sup_lm[rng.permutation(idx.size * 4 // 5)[:near.size]] = near[:idx.size * 4 // 5]
    bad_phase = plant and rng.random() < 0.5
    if plant:
        for t, v in zip(free[::-1], [np.nan, np.inf, -np.inf]):
            scale_lm[t] = v
        for t, v in zip(free[::-1][3:], [np.nan, np.inf, -np.inf]):
            scale_ph[t] = v
        if bad_phase:
            sup_ph[rng.integers(idx.size)] = rng.choice([np.nan, np.inf, -np.inf])
    y_re, y_im = rng.normal(size=(2, width))
    y_norm2 = float(np.sum(y_re**2 + y_im**2))
    args = (n_arr, scale_lm, scale_ph, x.indices, sup_lm, sup_ph, cum, cum_lo,
            w_lo, w_hi, y_re, y_im, y_norm2, log_cap, unilateral)
    with mock.patch.object(_kernels, "GENERAL_BATCH_TERMS", batch):
        got = _kernels.general_orbit_dist2(*args)
    want = oracles.general_orbit_dist2(*args)
    assert _same_bits_or_nan(got, want)
    assert not unilateral or (want[i_hi - 1:] == y_norm2).all()
    if plant and free.size and (not unilateral or free[-1] + 1 < i_hi):
        assert np.isnan(want[free[-1]])  # its scale is NaN, and so its row
    if log_cap < LM_ZERO / 2:
        return
    if not bad_phase:
        assert np.isfinite(want[[n_low - 1, n_high - 1, vanished]]).all()
    if not decay:
        assert np.isposinf(want[past]) == (not unilateral or past + 1 < i_hi)
    cut = _kernels._zero_cut(n_arr, scale_lm, scale_ph, x.indices, sup_lm, sup_ph, cum,
                             cum_lo, log_cap)
    if decay and not bad_phase and idx.size > 20:
        # the rows at zero scale are cut, past the last planted near-zero
        assert (cut[free[: free.size // 4]] < idx.size).all()


@settings(deadline=None)
@given(st.lists(st.floats(max_value=LM_ZERO / 2, exclude_max=True), min_size=1, max_size=40),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_tail_term_below_lm_zero_is_plus_zero(lms, phs):
    # the kernel computes no term past its cut, where each has 2 lm < LM_ZERO
    # and a finite phase: formed as the row loop forms it, that term is +0.0
    lm = np.array(lms)
    ph = np.resize(np.array(phs), lm.size)
    with np.errstate(over="ignore"):
        assert (2.0 * lm < LM_ZERO).all()
    mag = np.exp(lm)
    cre = mag * np.cos(ph)
    cim = mag * np.sin(ph)
    term = cre**2 + cim**2
    assert (term == 0.0).all() and not np.signbit(term).any()


@pytest.mark.parametrize("side", [Side.UNILATERAL, Side.BILATERAL], ids=lambda s: s.value)
def test_general_kernel_long_rows_and_cut_windows(side):
    # with the real batch size: x's magnitudes fall below exp's range over
    # its last half, so rows are cut there, the early rows hold more terms
    # before the cut than one batch, and the late rows' windows lie past the
    # cut (on a bilateral shift, after all of the row before them); bit for
    # bit the mask oracle
    unilateral = side is Side.UNILATERAL
    rng = np.random.default_rng(5)
    nsup = 2 * _kernels.GENERAL_BATCH_TERMS + 3000
    idx = np.arange(1, nsup + 1, dtype=np.int64)
    sup_lm = np.where(idx <= nsup // 2, rng.normal(-1.0, 1.0, nsup), -800.0)
    sup_ph = rng.uniform(-4.0, 4.0, nsup)
    n_arr = np.unique(np.concatenate([np.arange(1, 40), rng.integers(40, nsup + 50, 300)]))
    cum_lo = 0 if unilateral else 1 - int(n_arr.max())
    cum = np.cumsum(rng.normal(0.0, 0.01, nsup - cum_lo + 1))
    w_lo, w_hi = (1, 3) if unilateral else (-2, 2)
    y_re, y_im = rng.normal(size=(2, w_hi - w_lo + 1))
    y_norm2 = float(np.sum(y_re**2 + y_im**2))
    args = (n_arr, rng.normal(0.0, 0.5, n_arr.size), rng.uniform(-9.0, 9.0, n_arr.size),
            idx, sup_lm, sup_ph, cum, cum_lo, w_lo, w_hi, y_re, y_im, y_norm2, 20.0,
            unilateral)
    cut = _kernels._zero_cut(*args[:8], 20.0)
    win_lo = np.searchsorted(idx, n_arr + w_lo)
    assert (nsup // 2 <= cut).all() and (cut < nsup // 2 + 50).all()
    assert (win_lo > cut).sum() > 100
    assert (cut - (win_lo if unilateral else 0) > _kernels.GENERAL_BATCH_TERMS).any()
    assert _same_bits(_kernels.general_orbit_dist2(*args), oracles.general_orbit_dist2(*args))
    # from |y|^2 = 0 the sums keep the last bits of each window term, which
    # for a vanishing coefficient is the rounding of y's own squares
    args = args[:12] + (0.0,) + args[13:]
    assert _same_bits(_kernels.general_orbit_dist2(*args), oracles.general_orbit_dist2(*args))


def test_general_kernel_memory():
    # rows holding over 50 batches of computed terms in all (none is cut):
    # the kernel holds one batch's temporaries, about 0.4 MB, not arrays of
    # the rows' total length, at least 0.8 MB each
    rng = np.random.default_rng(6)
    nsup = 2000
    idx = np.arange(1, nsup + 1, dtype=np.int64)
    n_arr = np.arange(1, 60 * _kernels.GENERAL_BATCH_TERMS // nsup, dtype=np.int64)
    cum = np.zeros(nsup + 1)
    args = (n_arr, np.zeros(n_arr.size), np.zeros(n_arr.size), idx,
            rng.normal(-1.0, 0.5, nsup), rng.uniform(-4.0, 4.0, nsup), cum, 0, 1, 1,
            np.ones(1), np.zeros(1), 1.0, 20.0, True)
    assert int(np.sum(nsup - n_arr)) >= 50 * _kernels.GENERAL_BATCH_TERMS
    tracemalloc.start()
    try:
        _kernels.general_orbit_dist2(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


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


# ---------------------------------------------------------------------------
# series partial sums
# ---------------------------------------------------------------------------

def _binade_holds(s0, t) -> bool:
    """binade_sums' exactness argument, decided in rational arithmetic:
    BINADE_FLOOR <= s0 < inf, every term finite and no tie, and m + sum r_i
    below 2^53."""
    if not (math.isfinite(s0) and s0 >= _kernels.BINADE_FLOOR):
        return False
    u = Fraction(float(np.spacing(s0)))
    count = Fraction(s0) / u
    for v in t.tolist():
        if not math.isfinite(v):
            return False
        q = Fraction(v) / u
        if abs(q - round(q)) == Fraction(1, 2):
            return False
        count += round(q)
    return count < 2**53


def _serial_sums(s0, t, marks):
    a = t.copy()
    a[0] += s0
    return np.cumsum(a)[[*marks, t.size - 1]]


FLOOR = _kernels.BINADE_FLOOR
S0 = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),  # subnormal
    # the floor and 2^k, each with the doubles on either side of it
    st.one_of(st.just(FLOOR), st.integers(-899, 1023).map(lambda k: 2.0**k)).flatmap(
        lambda p: st.sampled_from([math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)])),
    st.floats(min_value=2.0**53, max_value=1e308),
    st.floats(min_value=2.0**-30, max_value=2.0**30),
    st.sampled_from([np.inf, np.nan]),
)
# terms that break the argument, planted among the ordinary ones
SPECIAL = ["tie", "leave", "zero", "subnormal", "inf", "nan"]


@st.composite
def _binade_case(draw):
    s0 = draw(S0)
    u = float(np.spacing(s0)) if 0.0 < s0 < np.inf else 2.0**-52
    n = draw(st.integers(1, 80))
    # non-negative terms from far below u to far above it
    t = np.array([math.ldexp(draw(st.floats(0.0, 1.0)), draw(st.integers(-70, 24)))
                  for _ in range(n)])
    with np.errstate(over="ignore"):
        t *= u
    for i, kind in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIAL)),
                                 max_size=2)):
        t[i] = {"tie": (draw(st.integers(0, 1000)) + 0.5) * u,
                "leave": s0 * draw(st.floats(0.25, 2.0)),
                "zero": 0.0, "subnormal": 5e-324, "inf": np.inf, "nan": np.nan}[kind]
    marks = sorted(draw(st.sets(st.integers(0, n - 1), max_size=4)))
    return s0, t, marks, draw(st.integers(1, n + 2))


@settings(deadline=None)
@given(_binade_case())
def test_binade_sums_are_the_serial_sums_or_none(case):
    # binade_sums answers exactly when its argument holds, with the bits of
    # one cumsum from s0 at every mark and at the last term, and leaves t as
    # it was; scratch sizes from 1 term split t into pieces anywhere
    s0, t, marks, size = case
    before = t.tobytes()
    got = _kernels.binade_sums(s0, t, marks, np.empty((2, size)))
    assert t.tobytes() == before
    assert (got is not None) == _binade_holds(s0, t)
    if got is not None:
        assert _same_bits(np.array(got), _serial_sums(s0, t, marks))


class TestBinadeSums:
    U = 2.0**-52  # spacing(1.0)

    def _sums(self, s0, t, marks=()):
        return _kernels.binade_sums(s0, np.array(t, dtype=np.float64), list(marks),
                                    np.empty((2, 4)))

    @pytest.mark.parametrize("s0", [0.0, 5e-324, math.nextafter(FLOOR, 0.0), np.inf, np.nan])
    def test_carried_sum_outside_the_range(self, s0):
        assert self._sums(s0, [1e-300]) is None

    def test_carried_sum_at_the_floor(self):
        t = np.array([1e-300, 3e-301])
        assert self._sums(FLOOR, t, [0]) == _serial_sums(FLOOR, t, [0]).tolist()

    def test_tie(self):
        # t/u - rint(t/u) is -1/2 at 3.5 (rounded up to 4) and +1/2 at 2.5
        # (rounded down to 2): each side of the tie test sees one
        assert self._sums(1.0, [0.0, 3.5 * self.U]) is None
        assert self._sums(1.0, [2.5 * self.U, 0.0]) is None
        assert self._sums(1.0, [0.0, 3.25 * self.U]) == [1.0 + 3.0 * self.U]

    def test_sums_leave_the_binade(self):
        assert self._sums(1.0, [0.5, 0.5]) is None
        # the last multiple of u below 2 is the binade's last double
        assert self._sums(1.0, [0.5, 0.5 - self.U], [0]) == [1.5, 2.0 - self.U]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300], ids=["nan", "inf", "huge"])
    def test_non_finite_term(self, bad):
        # 1e300 / u overflows to inf, as an inf term does
        assert self._sums(1.0, [self.U, bad, self.U]) is None

    def test_marks_across_pieces(self):
        # E5's terms after its first chunk: every mark, on both sides of
        # each 4-term piece's edges, has cumsum's bits
        n = np.arange(SCAN_CHUNK + 1, SCAN_CHUNK + 41, dtype=np.float64)
        t = 1.0 / (n + 1.0)
        s0 = float(np.cumsum(1.0 / np.arange(2.0, SCAN_CHUNK + 2.0))[-1])
        marks = list(range(t.size))
        got = self._sums(s0, t, marks)
        assert got is not None and _same_bits(np.array(got), _serial_sums(s0, t, marks))


class TestShortestDigits:
    @staticmethod
    def _printed(cells):
        """repr of each cell where shortest_digits decides it, else None."""
        x = np.array(cells, dtype=np.float64)
        scratch = np.empty((_kernels.SHORTEST_SCRATCH_ROWS, x.size))
        out = []
        for v, ok, d, f, n in zip(x.tolist(), *(a.tolist() for a in
                                                _kernels.shortest_digits(x, scratch))):
            s = str(d).zfill(n)
            out.append(("-" if math.copysign(1.0, v) < 0 else "") + s[:-f] + "." + s[-f:]
                       if ok else None)
        return out

    def test_decided_cells_print_as_repr(self):
        cells = [0.0, -0.0, 1e-4, 0.1, 1 / 3, -2.5, 123456.789, 0.1 + 0.2, 700.0, 1e15,
                 9999999999999998.0, math.nextafter(1e16, 0.0), 0.00012345678901234567,
                 # integers at and above 2^52: integers lie at distance exactly H
                 2.0**52 + 1.0, 2.0**53 + 2.0, 9007199254740994.0 * 1.1]
        assert self._printed(cells) == [repr(v) for v in cells]

    @pytest.mark.parametrize("cell", [
        math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
        math.nextafter(1e-4, 0.0), 1e16, -1e300,
        0.5, -(2.0**40),
        # P = a 10^16 ends in .5 with lo' = +1/2 and -1/2: N and N + 1 tie
        1.0 + 2.0**-17, 2.0000228881835938,
        # P = 89791020720014325: its two nearest multiples of 10 tie
        897910207200143.25,
    ], ids=["nan", "inf", "-inf", "subnormal", "-subnormal", "below_1e-4", "1e16", "-1e300",
            "power_of_two", "-power_of_two", "tie_half_up", "tie_half_down", "tie_at_10"])
    def test_left_to_repr(self, cell):
        assert self._printed([cell]) == [None]

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=30))
    def test_any_doubles(self, cells):
        # the undecided ones aside, every cell prints as repr, whatever its batch
        got = self._printed(cells)
        assert all(g is None or g == repr(v) for g, v in zip(got, cells))
        assert got[1:] == self._printed(cells[1:])

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
        fixed = rng.uniform(-10.0, 10.0, 20_000) * 10.0 ** rng.integers(-4, 16, 20_000)
        got = self._printed(np.concatenate([bits, fixed]))
        assert all(g is None or g == repr(v)
                   for g, v in zip(got, bits.tolist() + fixed.tolist()))
        # of repr's fixed notation only ties are left; below 1e10 a tie needs
        # 11 or more trailing zero bits in x's mantissa, which none of these has
        small = [g for g, v in zip(got[bits.size:], fixed.tolist()) if 1e-4 <= abs(v) < 1e10]
        assert small.count(None) == 0 and len(small) > 10_000
