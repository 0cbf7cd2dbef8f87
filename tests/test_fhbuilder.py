import math

import numpy as np
import pytest

from orbitlab import orbits
from orbitlab.fhbuilder import (
    BuildError,
    InfeasibleDecayError,
    VerificationFailedError,
    build,
)
from orbitlab.lspace import Ball, CoefVec, Side
from orbitlab.orbits import density_stats, find_ap, hitting_set
from orbitlab.seqcore import ScalingSeq
from orbitlab.shiftops import ShiftOp, WeightSeq, scaled_orbit_point

B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
TWO_B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
ONE = ScalingSeq.constant(1.0)


def e(k):
    return CoefVec.basis(Side.UNILATERAL, k)


def e12():
    return CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (2, 1.0)])


class TestBuild:
    def test_doubling_shift_geometric_coefficients(self):
        v = build(ONE, TWO_B, [(e(1), 1e-3)], 10**4, g=16)
        # placed coefficient at index n+1 is 2^-n
        for n in v.planned_times(0)[:5]:
            entry = v.x.entry(int(n) + 1)
            assert entry.log_mag == pytest.approx(-n * math.log(2.0), rel=1e-12)
        assert v.report["worst_miss"] <= 2.0 ** (-16 + 1)

    def test_factorial_with_unweighted_shift(self):
        lam = ScalingSeq.factorial()
        v = build(lam, B, [(e(1), 1e-3)], 3000)
        n0 = int(v.planned_times(0)[0])
        assert v.x.entry(n0 + 1).log_mag == pytest.approx(-math.lgamma(n0 + 1))
        assert v.report["worst_miss"] < 1e-3

    def test_unit_scaling_unweighted_shift_infeasible(self):
        with pytest.raises(InfeasibleDecayError):
            build(ONE, B, [(e(1), 1e-3)], 10**4)

    def test_on_support_exactness(self):
        v = build(ONE, TWO_B, [(e12(), 1e-3)], 10**4, g=16)
        for n in v.planned_times(0)[:8]:
            pt = scaled_orbit_point(ONE, TWO_B, int(n), v.x)
            for j in (1, 2):
                assert abs(pt.entry(j).log_mag) <= 1e-10
                assert abs(pt.entry(j).phase) <= 1e-10

    def test_gap_too_small_fails_verification(self):
        with pytest.raises(VerificationFailedError) as exc:
            build(ONE, TWO_B, [(e(1), 1e-6)], 10**4, g=3)
        assert exc.value.suggestion == 6
        # the first planned time, n_min = g, is the one named
        assert (exc.value.target, exc.value.n) == (0, 3)
        assert not exc.value.distance < 1e-6

    def test_doubling_gap_never_hurts(self):
        # once a gap succeeds, doubling it keeps succeeding with a smaller
        # cross-residual (monotone decay of the geometric cross terms)
        prev = None
        for g in (8, 16, 32):
            v = build(ONE, TWO_B, [(e(1), 1e-2)], 10**4, g=g)
            worst = v.report["worst_miss"]
            assert worst <= 2.0 ** (-g + 1)
            if prev is not None:
                assert worst <= prev
            prev = worst

    def test_gap_must_exceed_support(self):
        with pytest.raises(ValueError):
            build(ONE, TWO_B, [(e12(), 1e-3)], 1000, g=2)

    def test_bilateral_rejected(self):
        Tb = ShiftOp(Side.BILATERAL, WeightSeq.constant(1.0), 2.0)
        with pytest.raises(ValueError):
            build(ONE, Tb, [(CoefVec.basis(Side.BILATERAL, 1), 1e-3)], 100)

    def test_horizon_below_first_block(self):
        with pytest.raises(BuildError):
            build(ONE, TWO_B, [(e(1), 1e-3)], 8, g=16)


class TestPlan:
    def test_classes_disjoint_and_separated(self):
        v = build(ONE, TWO_B, [(e(1), 1e-3), (e12(), 1e-3), (e(2), 1e-3)], 10**4, g=16)
        plan = v.plan
        assert plan.period == 48
        sets = [set(map(int, plan.class_members(i, 10**4))) for i in range(3)]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])
        merged = sorted(sets[0] | sets[1] | sets[2])
        assert min(np.diff(merged)) >= plan.g

    def test_class_density_exact(self):
        v = build(ONE, TWO_B, [(e(1), 1e-3)], 10**5, g=16)
        members = v.plan.class_members(0, 10**5)
        # exact prefix density 1/period up to O(period/N)
        assert abs(members.size / 10**5 - 1 / 16) <= 16 / 10**5 + 1e-12


class TestVerifyFU:
    def test_three_targets_density(self):
        targets = [(e(1), 1e-3), (e12(), 1e-3), (e(2), 1e-3)]
        v = build(ONE, TWO_B, targets, 10**5, g=16)
        assert len(v.hits) == 3
        for i, h in enumerate(v.hits):
            planned = v.planned_times(i)
            assert np.all(np.isin(planned, h.indices))
            assert abs(density_stats(h).lower_est - 1 / 48) <= 0.002

    def test_hitting_sets_contain_long_progressions(self):
        v = build(ONE, TWO_B, [(e(1), 1e-3)], 10**4, g=16)
        h = v.hits[0]
        for m in range(1, 11):
            w = find_ap(h, m, 1, K=v.plan.period)
            assert w is not None and w.k == v.plan.period
            assert w.verify(h)


SQRT_RATIO_2B = ShiftOp(Side.UNILATERAL, WeightSeq.sqrt_ratio(), 2.0)

# E6's three targets under the flat kernel, and one target under the general
# (per-n) kernel that non-constant weights take
ORACLE_BUILDS = {
    "flat_e6_targets": (TWO_B, [(e(1), 1e-3), (e12(), 1e-3), (e(2), 1e-3)], 20_000, 16),
    "general_sqrt_ratio": (SQRT_RATIO_2B, [(e(1), 1e-3)], 2_000, None),
}


class TestBuildScan:
    @pytest.mark.parametrize("case", ORACLE_BUILDS.values(), ids=ORACLE_BUILDS)
    def test_hits_match_hitting_set(self, case):
        T, targets, N, g = case
        v = build(ONE, T, targets, N, g=g)
        assert len(v.hits) == len(targets)
        for h, (y, eps) in zip(v.hits, targets):
            want = hitting_set(v.x, ONE, T, Ball(y, eps), N)
            assert h.n_max == want.n_max == N
            assert np.array_equal(h.indices, want.indices)

    @pytest.mark.parametrize("case", ORACLE_BUILDS.values(), ids=ORACLE_BUILDS)
    def test_one_scan_per_target(self, monkeypatch, case):
        T, targets, N, g = case
        calls = []
        real = orbits.orbit_distances
        monkeypatch.setattr(
            orbits, "orbit_distances", lambda *a: calls.append(a[-1].size) or real(*a)
        )
        build(ONE, T, targets, N, g=g)
        # one call per target, each over the whole horizon 1..N
        assert calls == [N] * len(targets)

    def test_worst_residual_is_largest_planned_distance(self):
        targets = [(e(1), 1e-3), (e12(), 1e-3)]
        v = build(ONE, TWO_B, targets, 5_000, g=16)
        for i, (y, eps) in enumerate(targets):
            ns = v.planned_times(i)
            d2 = orbits.orbit_distances(v.x, ONE, TWO_B, y, eps, ns)
            assert v.report["targets"][i]["worst_residual"] == float(np.sqrt(d2).max())

    def test_n_min_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_min"):
            build(ONE, TWO_B, [(e(1), 1e-3)], 1000, g=16, n_min=0)
