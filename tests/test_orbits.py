import math

import numpy as np
import pytest
import oracles
from oracles import exact_ball_scan, return_distances

from orbitlab import _kernels, orbits
from orbitlab.lspace import Ball, CoefVec, Side, dist, norm
from orbitlab.orbits import (
    HittingSet,
    _ball_scan,
    density_stats,
    find_ap,
    hitting_set,
    mr_witness_search,
    ratio_precheck,
    recurrence_scan,
)
from orbitlab.seqcore import (
    LogScalar,
    ScalingSeq,
    SequenceDomainError,
    eval_log,
    log_mul,
    rotate_seq,
)
from orbitlab.shiftops import ShiftOp, WeightSeq, scaled_orbit_point

B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
TWO_B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
ONE = ScalingSeq.constant(1.0)


def e(k, side=Side.UNILATERAL):
    return CoefVec.basis(side, k)


def brute_force_ap(members: set, n_max: int, m: int, tau: int, K: int):
    for k in range(1, K + 1):
        for a in sorted(members):
            if a + m * tau * k > n_max:
                break
            if all(a + j * tau * k in members for j in range(m + 1)):
                return a, k
    return None


class TestHittingSet:
    def test_zero_vector_ball_at_origin(self):
        h = hitting_set(CoefVec.zero(Side.UNILATERAL), ONE, B,
                        Ball(CoefVec.zero(Side.UNILATERAL), 1.0), 50)
        assert np.array_equal(h.indices, np.arange(1, 51))

    def test_zero_vector_off_center_ball(self):
        h = hitting_set(CoefVec.zero(Side.UNILATERAL), ONE, B, Ball(e(1), 0.5), 50)
        assert len(h) == 0

    def test_every_hit_reverifies(self):
        x = CoefVec.from_pairs(Side.UNILATERAL, [(i, 2.0 ** -i) for i in range(1, 30)])
        ball = Ball(e(1), 0.75)
        h = hitting_set(x, ONE, TWO_B, ball, 100)
        assert len(h) > 0
        for n in h.indices:
            assert dist(scaled_orbit_point(ONE, TWO_B, int(n), x), ball.center) < ball.radius
        # and the complement misses
        comp = np.setdiff1d(np.arange(1, 101), h.indices)
        for n in comp[:20]:
            assert not dist(scaled_orbit_point(ONE, TWO_B, int(n), x), ball.center) < ball.radius

    def test_monotone_in_radius(self):
        x = CoefVec.from_pairs(Side.UNILATERAL, [(i, 2.0 ** -i) for i in range(1, 30)])
        h_small = hitting_set(x, ONE, TWO_B, Ball(e(1), 0.3), 200)
        h_big = hitting_set(x, ONE, TWO_B, Ball(e(1), 0.8), 200)
        assert set(h_small.indices) <= set(h_big.indices)

    def test_phase_rotation_invariance(self):
        # rotating the scaling and the center by the same constant phase
        # leaves the hitting set unchanged (testable form of the reduction
        # to positive scalings)
        x = CoefVec.from_pairs(Side.UNILATERAL, [(i, 2.0 ** -i) for i in range(1, 25)])
        theta = 1.234
        lam_rot = rotate_seq(ONE, theta)
        h_plain = hitting_set(x, ONE, TWO_B, Ball(e(1), 0.4), 150)
        center = oracles.scale(e(1), LogScalar(0.0, theta))
        h_rot = hitting_set(x, lam_rot, TWO_B, Ball(center, 0.4), 150)
        assert np.array_equal(h_plain.indices, h_rot.indices)

    def test_overflow_prefilter_skips_blowup(self):
        # entries scale like 4^n: far beyond float range, still a clean miss
        x = e(1)
        lam = ScalingSeq.power_of_w(2.0)
        h = hitting_set(x, lam, B, Ball(e(1), 0.5), 2000)
        assert len(h) == 0

    def test_bilateral_scan(self):
        Tb = ShiftOp(Side.BILATERAL, WeightSeq.constant(1.0))
        x = CoefVec.from_pairs(Side.BILATERAL, [(5, 1.0)])
        y = CoefVec.from_pairs(Side.BILATERAL, [(0, 1.0)])
        h = hitting_set(x, ONE, Tb, Ball(y, 0.5), 20)
        assert list(h.indices) == [5]


class TestDensityStats:
    def test_evens(self):
        h = HittingSet(np.arange(2, 10**5 + 1, 2), 10**5)
        ds = density_stats(h, 100)
        assert 0.49 <= ds.lower_est <= ds.upper_est <= 0.51

    def test_dyadic_blocks_density_one(self):
        # union of [2^{k-1}, 2^k - 2]: misses only 2^k - 1 per block
        n_max = 2**20
        omit = {2**k - 1 for k in range(1, 21)} | {1}
        idx = np.array([n for n in range(2, n_max + 1) if n not in omit][: n_max],
                       dtype=np.int64)
        ds = density_stats(HittingSet(idx, n_max))
        assert ds.lower_est >= 0.99

    def test_powers_of_two_sparse(self):
        h = HittingSet(2 ** np.arange(0, 20), 10**6)
        ds = density_stats(h, 10**5)
        assert ds.upper_est <= 0.001

    def test_bounds_ordering(self):
        rng = np.random.default_rng(3)
        idx = np.flatnonzero(rng.random(5000) < 0.3) + 1
        ds = density_stats(HittingSet(idx.astype(np.int64), 5000))
        assert 0.0 <= ds.lower_est <= ds.upper_est <= 1.0

    def test_union_superadditive(self):
        a = np.arange(3, 3001, 3, dtype=np.int64)
        b = np.arange(5, 3001, 15, dtype=np.int64)  # disjoint from a? no: 15 overlaps
        b = b[~np.isin(b, a)]
        u = np.union1d(a, b)
        ds_a = density_stats(HittingSet(a, 3000))
        ds_u = density_stats(HittingSet(u, 3000))
        assert ds_u.lower_est >= ds_a.lower_est - 1e-12

    def test_window_preconditions(self):
        h = HittingSet(np.arange(1, 101), 100)
        with pytest.raises(ValueError):
            density_stats(h, 5)
        with pytest.raises(ValueError):
            density_stats(h, 50)


class TestFindAP:
    def test_full_interval(self):
        h = HittingSet(np.arange(1, 101), 100)
        w = find_ap(h, 3, 1)
        assert (w.a, w.k) == (1, 1)

    def test_evens(self):
        h = HittingSet(np.arange(2, 1001, 2), 1000)
        w = find_ap(h, 4, 1)
        assert (w.a, w.k) == brute_force_ap(set(h.indices), 1000, 4, 1, 100)[::-1][::-1]
        assert (w.a, w.k) == (2, 2)

    def test_powers_of_two_no_triple(self):
        # 2*2^j = 2^i + 2^l forces i = j = l: no 3-term progression exists
        h = HittingSet(2 ** np.arange(1, 21), 2**20)
        pairs = set(h.indices)
        for a in pairs:
            for b in pairs:
                if b > a:
                    assert 2 * b - a not in pairs or 2 * b - a == b
        assert find_ap(h, 2, 1) is None

    def test_matches_brute_force_random_suite(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            density = rng.uniform(0.1, 0.9)
            idx = np.flatnonzero(rng.random(2000) < density) + 1
            if idx.size == 0:
                continue
            h = HittingSet(idx.astype(np.int64), 2000)
            members = set(h.indices)
            m = int(rng.integers(1, 6))
            tau = int(rng.integers(1, 3))
            K = max(1, 2000 // (m * tau * 4))
            got = find_ap(h, m, tau, K)
            want = brute_force_ap(members, 2000, m, tau, K)
            if want is None:
                assert got is None
            else:
                assert (got.a, got.k) == want
                assert got.verify(h)

    def test_witness_reverifies(self):
        h = HittingSet(np.arange(7, 500, 7, dtype=np.int64), 500)
        w = find_ap(h, 5, 1)
        assert w.verify(h)
        assert not w.verify(HittingSet(np.array([1, 2, 3]), 500))


@pytest.fixture(scope="module")
def built():
    from orbitlab.fhbuilder import build

    return build(ONE, TWO_B, [(e(1), 1e-3)], 10**4, g=16)


class TestMRWitness:
    def test_pipeline_finds_witness(self, built):
        out = mr_witness_search(built.x, ONE, TWO_B, Ball(e(1), 0.01), 3, 1, 10**4)
        assert out
        w = out.witness
        assert w.verify(TWO_B)
        for j in range(4):
            assert dist(TWO_B.power_apply(j * w.ell, w.u), e(1)) < 0.01

    def test_decaying_operator_finds_nothing(self):
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 0.9)
        x = CoefVec.from_pairs(Side.UNILATERAL, [(i, 1.0) for i in range(1, 20)])
        out = mr_witness_search(x, ONE, T, Ball(e(1), 0.01), 3, 1, 2000)
        assert not out
        assert out.diagnostics["hits"] == 0

    def test_order_zero_returns_hit_point(self, built):
        out = mr_witness_search(built.x, ONE, TWO_B, Ball(e(1), 0.01), 0, 1, 10**4)
        assert out and out.witness.m == 0
        assert dist(out.witness.u, e(1)) < 0.01

    def test_nonconstant_scaling_walks_to_large_start(self):
        # lam_n = (n+2)/(n+1) has ratio limit 1 but nonzero defects: early
        # progression starts violate the eps/2 ratio estimate and the walk
        # must move to larger a before the distances close
        from orbitlab.fhbuilder import build

        lam = ScalingSeq.rational_poly([2.0, 1.0], [1.0, 1.0])  # (n+2)/(n+1)
        v = build(lam, TWO_B, [(e(1), 1e-3)], 10**4, g=16)
        out = mr_witness_search(v.x, lam, TWO_B, Ball(e(1), 0.01), 3, 1, 10**4)
        assert out
        w = out.witness
        h = hitting_set(v.x, lam, TWO_B, Ball(e(1), 0.005), 10**4)
        offsets = w.k * np.arange(1, 4, dtype=np.int64)
        first_start = _kernels.progression_members(h.lookup, h.indices, h.n_max, offsets)[0]
        assert w.a > first_start  # early members were rejected
        assert w.verify(TWO_B)
        # the accepted start satisfies the ratio estimate that drove the walk
        ell = w.ell
        for j in range(1, 4):
            ratio = ((w.a + 2) / (w.a + 1)) * ((w.a + j * ell + 1) / (w.a + j * ell + 2))
            assert abs(ratio - 1.0) < 0.005 / 0.9  # |u_j| is close to 1

    def test_no_progression_within_k(self, built):
        # the hits fall every 16 times; at N = 2000 and m = 50 the default K
        # is 2000 // (4 * 50) = 10, so no k <= K holds m + 1 hits
        out = mr_witness_search(built.x, ONE, TWO_B, Ball(e(1), 0.01), 50, 1, 2000)
        assert not out
        assert out.diagnostics["hits"] > 0 and "k" not in out.diagnostics

    def test_inconclusive_ratio_warns_and_every_start_fails(self):
        # geom_even_odd's ratios alternate between 1 and 1/2, so the ratio
        # verdict is inconclusive and the search warns; its hits hold
        # progressions at k = 16, but lam_a / lam_{a + 16 j} = 2^{-8 j}, so
        # every start's defect is nearly |u_j| ~ 1, past eps / 2
        from orbitlab.fhbuilder import build

        lam = ScalingSeq.geom_even_odd()
        v = build(lam, TWO_B, [(e(1), 1e-3)], 2000, g=16)
        with pytest.warns(UserWarning, match="ratio classifier inconclusive"):
            out = mr_witness_search(v.x, lam, TWO_B, Ball(e(1), 0.01), 3, 1, 2000)
        assert not out
        assert out.diagnostics["k"] == 16
        assert out.diagnostics["smallest_defect"] > 0.9

    @pytest.mark.parametrize("m, tau", [(-1, 1), (2, 0)])
    def test_argument_guard(self, built, m, tau):
        with pytest.raises(ValueError, match="need m >= 0 and tau >= 1"):
            mr_witness_search(built.x, ONE, TWO_B, Ball(e(1), 0.01), m, tau, 1000)

    def test_ratio_past_e700_rejects_the_start(self):
        # lam falls from 1e300 by 2.5 a step for 1500 steps, then stays put;
        # 3B outgrows that fall, so x decays. With tau = 1024 the hits every
        # 64 times hold progressions at k = 1, and a start a below ~740 has
        # lam_a / lam_{a+1024} > e^700 (e^938 at a = 64), past what
        # to_complex can hold: the search must step past such a start, and
        # the first start after the fall is the witness
        from orbitlab.fhbuilder import build

        T3 = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 3.0)
        fall = np.exp(math.log(1e300) - math.log(2.5) * np.arange(1500))
        lam = ScalingSeq.table(list(np.concatenate([fall, np.full(12_000, fall[-1])])))
        v = build(lam, T3, [(e(1), 1e-3)], 4000, g=64)
        with pytest.raises(OverflowError):
            log_mul(eval_log(lam, 64), eval_log(lam, 64 + 1024).inverse()).to_complex()
        out = mr_witness_search(v.x, lam, T3, Ball(e(1), 0.01), 1, 1024, 4000)
        assert out and out.diagnostics["k"] == 1
        assert out.witness.a == 1536 and out.witness.verify(T3)

    def test_bad_scaling_rejected(self, built):
        with pytest.raises(ValueError):
            mr_witness_search(
                built.x, ScalingSeq.factorial(), B, Ball(e(1), 0.01), 2, 1, 1000
            )


class TestRatioPrecheck:
    def test_short_table_gives_none(self):
        # 10 entries, but the classifier needs a horizon of 100*tau
        assert ratio_precheck(ScalingSeq.table([1.0] * 10), 1) is None

    @pytest.mark.parametrize("exc", [SequenceDomainError, ValueError, OverflowError,
                                     ZeroDivisionError])
    def test_classifier_domain_errors_give_none(self, monkeypatch, exc):
        def raise_(*args, **kwargs):
            raise exc("no verdict")

        monkeypatch.setattr(orbits, "ratio_classify", raise_)
        assert ratio_precheck(ONE, 1) is None

    def test_programming_errors_propagate(self, monkeypatch):
        def raise_(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(orbits, "ratio_classify", raise_)
        with pytest.raises(RuntimeError, match="bug"):
            ratio_precheck(ONE, 1)


# (side, weights, premultiplier, support bound, N): on a unilateral shift
# y = x spans x's whole support, so a support bound above N takes the per-n
# kernel even for flat weights
RECURRENCE_CASES = {
    "unilateral_flat": (Side.UNILATERAL, WeightSeq.constant(1.0), 1.0, 30, 200),
    "unilateral_flat_wide": (Side.UNILATERAL, WeightSeq.constant(1.0), 1.5, 150, 60),
    "unilateral_sqrt_ratio": (Side.UNILATERAL, WeightSeq.sqrt_ratio(), 0.8, 40, 120),
    "bilateral_flat": (Side.BILATERAL, WeightSeq.constant(1.0), 1.0, 20, 150),
    "bilateral_step": (Side.BILATERAL, WeightSeq.step_bilateral(), 0.5, 25, 100),
    "bilateral_flat_wide": (Side.BILATERAL, WeightSeq.constant(1.0), 1.2, 60, 50),
}


GENERAL_RECURRENCE_CASES = {
    k: c for k, c in RECURRENCE_CASES.items() if not c[1].is_flat
}


def _recurrence_case(side, weights, pm, support, N):
    """The operator and a random vector on [1 or -support, support]."""
    T = ShiftOp(side, weights, pm)
    rng = np.random.default_rng(support * 1000 + N)
    lo = 1 if side is Side.UNILATERAL else -support
    idx = np.unique(rng.integers(lo, support + 1, size=support))
    x = CoefVec.from_pairs(
        side, [(int(i), complex(rng.normal(), rng.normal()) * 0.9 ** abs(i)) for i in idx]
    )
    return T, x


class TestRecurrenceScan:
    @pytest.mark.parametrize("case", RECURRENCE_CASES.values(), ids=RECURRENCE_CASES)
    def test_matches_per_n_oracle(self, case):
        N = case[-1]
        T, x = _recurrence_case(*case)
        d = return_distances(T, x, N)
        for eps in np.quantile(d[np.isfinite(d)], [0.2, 0.6]):
            want = d < eps
            assert want.any() and not want.all()
            # times within relative 1e-9 of eps are the boundary band, where
            # the scan's rounding may differ from dist's
            clear = np.abs(d - eps) > 1e-9 * eps
            got = np.zeros(N, dtype=bool)
            got[recurrence_scan(T, x, float(eps), N) - 1] = True
            assert np.array_equal(got[clear], want[clear])

    @pytest.mark.parametrize(
        "case", GENERAL_RECURRENCE_CASES.values(), ids=GENERAL_RECURRENCE_CASES)
    def test_scans_match_exact_oracle(self, case):
        # return-time scans and off-center balls under general weights: hits
        # and distances bit for bit those of the kernel at every time
        N = case[-1]
        T, x = _recurrence_case(*case)
        at = np.arange(2, N + 1, 5)
        for y in (x, e(1, x.side)):
            d2 = exact_ball_scan(x, ONE, T, Ball(y, 1.0), N, np.arange(1, N + 1))[1]
            for q in (0.2, 0.6):
                ball = Ball(y, float(np.sqrt(np.quantile(d2[np.isfinite(d2)], q))))
                got = _ball_scan(x, ONE, T, ball, N, at)
                want = exact_ball_scan(x, ONE, T, ball, N, at)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("side", [Side.UNILATERAL, Side.BILATERAL])
    def test_zero_vector_matches_per_n_oracle(self, side):
        T = ShiftOp(side, WeightSeq.constant(1.0), 2.0)
        z = CoefVec.zero(side)
        d = return_distances(T, z, 30)
        want = np.flatnonzero(d < 0.5) + 1
        assert np.array_equal(recurrence_scan(T, z, 0.5, 30), want)
        assert want.size == 30

    def test_zero_vector_always_returns(self):
        z = CoefVec.zero(Side.UNILATERAL)
        assert list(recurrence_scan(B, z, 0.5, 10)) == list(range(1, 11))

    def test_finite_support_orbit_dies(self):
        x = CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (2, 1.0)])
        assert recurrence_scan(B, x, 0.9, 50).size == 0

    def test_upper_density_return_predicate(self):
        # recurrence with positive upper density, measured as a windowed
        # predicate: return times of a rotation cover a fixed fraction of N
        import cmath

        a = cmath.exp(2j * math.pi * (math.sqrt(5) - 1) / 2)  # irrational angle
        n = np.arange(1, 10**5 + 1)
        returns = np.abs(a**n - 1.0) < 0.3
        h = HittingSet(n[returns], 10**5)
        ds = density_stats(h)
        # |a^n - 1| < 0.3 on an arc of relative length ~ 2*asin(0.15)/pi
        frac = 2 * math.asin(0.15) / math.pi
        assert ds.upper_est > 0.5 * frac
        assert ds.lower_est > 0.0

    def test_unimodular_rotation_return_times(self):
        # the adjoint of multiplication by the constant a = exp(2 pi i / 7)
        # multiplies every Hardy coefficient by conj(a) (oracles.scale); its
        # orbit returns to x exactly when |a^n - 1| is small, at multiples of 7
        import cmath

        a = cmath.exp(2j * math.pi / 7)
        x = CoefVec.from_pairs(Side.HARDY, [(0, 1.0), (3, 0.5)])
        hits = []
        v = x
        for n in range(1, 50):
            v = oracles.scale(v, a.conjugate())
            if dist(v, x) < 1e-9:
                hits.append(n)
        want = [n for n in range(1, 50) if abs(a**n - 1) * norm(x) < 1e-9]
        assert hits == want == [7, 14, 21, 28, 35, 42, 49]
