"""Scan kernels against brute-force and direct-distance oracles."""

import numpy as np
import pytest

from orbitlab import _kernels
from orbitlab.lspace import CoefVec, Side
from orbitlab.orbits import SCAN_CHUNK, HittingSet, ap_k_members, find_ap, orbit_distances
from orbitlab.seqcore import ScalingSeq
from orbitlab.shiftops import ShiftOp, WeightSeq


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        nbits = int(rng.integers(1, 500))
        idx = np.unique(rng.integers(1, nbits + 1, size=rng.integers(0, 60)))
        words = _kernels.pack_bitset(idx.astype(np.int64), nbits)
        back = _kernels.unpack_bits(words, nbits)
        assert np.array_equal(back, idx)


def test_shift_down_words():
    idx = np.array([1, 5, 64, 70, 129], dtype=np.int64)
    words = _kernels.pack_bitset(idx, 200)
    out = np.empty_like(words)
    for s in (0, 1, 5, 63, 64, 65, 128, 199):
        _kernels._shift_down(words, s, out)
        got = _kernels.unpack_bits(out, 200)
        want = idx[idx >= s] - s
        assert np.array_equal(got, want), s


def _random_sets(rng, count, n_max=2000, lo=0.05, hi=0.9):
    for _ in range(count):
        density = rng.uniform(lo, hi)
        idx = np.flatnonzero(rng.random(n_max) < density) + 1
        if idx.size:
            yield HittingSet(idx.astype(np.int64), n_max)


def _brute_ap(members: set, n_max: int, m: int, tau: int, K: int):
    for k in range(1, K + 1):
        for a in sorted(members):
            if a + m * tau * k > n_max:
                break
            if all(a + j * tau * k in members for j in range(m + 1)):
                return a, k
    return None


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_find_ap_matches_brute_force(tau):
    # densities below 1/64 take the sparse member-probe path
    rng = np.random.default_rng(77 + tau)
    sparse = _random_sets(rng, 15, n_max=4000, lo=0.002, hi=0.012)
    for h in [*sparse, *_random_sets(rng, 15, n_max=4000)]:
        members = set(map(int, h.indices))
        for m in (1, 2, 3, 5):
            K = max(1, h.n_max // (m * tau * 4))
            got = find_ap(h, m, tau)
            want = _brute_ap(members, h.n_max, m, tau, K)
            assert (None if got is None else (got.a, got.k)) == want


def test_ap_k_members_matches_brute_force():
    rng = np.random.default_rng(78)
    for h in _random_sets(rng, 10):
        members = set(map(int, h.indices))
        k = int(rng.integers(1, 50))
        m = int(rng.integers(1, 5))
        tau = int(rng.integers(1, 4))
        want = [a for a in sorted(members)
                if all(a + j * tau * k in members for j in range(1, m + 1))]
        assert ap_k_members(h, k, m, tau).tolist() == want


def test_sparse_and_dense_paths_agree():
    # same set, scanned through both strategies by forcing the density gate
    rng = np.random.default_rng(79)
    idx = np.unique(rng.integers(1, 5000, size=40)).astype(np.int64)
    h = HittingSet(idx, 5000)
    words, members = h.words, h.indices
    dense = _kernels._ap_scan_dense(words, 5000, 2, 1, 1, 500)
    sparse = _kernels._ap_scan_sparse(members, 5000, 2, 1, 1, 500)
    assert dense == sparse


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
