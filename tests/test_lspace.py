import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbitlab.lspace import (
    LM_ZERO,
    Ball,
    CoefVec,
    Side,
    SideMismatchError,
    dist,
    norm,
)
from orbitlab.seqcore import LogScalar, ScalingSeq
from orbitlab.shiftops import ShiftOp, WeightSeq, scaled_orbit_point
from oracles import log_entry, to_complex_dict


def vec(pairs, side=Side.UNILATERAL):
    return CoefVec.from_pairs(side, pairs)


def rand_vec(rng, side=Side.UNILATERAL, max_support=8):
    k = rng.integers(0, max_support + 1)
    lo = 1 if side is Side.UNILATERAL else -20
    idx = rng.choice(np.arange(lo, 40), size=k, replace=False)
    return vec([(int(i), complex(rng.normal(), rng.normal())) for i in idx], side)


class TestNorm:
    def test_basis(self):
        assert norm(CoefVec.basis(Side.UNILATERAL, 3)) == 1.0

    def test_two_entries(self):
        assert norm(vec([(1, 1), (2, 1)])) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_empty(self):
        assert norm(CoefVec.zero(Side.BILATERAL)) == 0.0

    def test_overflow_entry(self):
        x = CoefVec.from_log_entries(Side.UNILATERAL, [1], [400.0], [0.0])
        with pytest.raises(OverflowError):
            norm(x)

    def test_scaling_homogeneous(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rand_vec(rng)
            if x.nnz == 0:
                continue
            a = complex(rng.normal(), rng.normal())
            if a == 0:
                continue
            lhs = norm(oracles.scale(x, a))
            assert lhs == pytest.approx(abs(a) * norm(x), rel=1e-10)


class TestDist:
    def test_self(self):
        x = vec([(1, 2), (4, -1j)])
        assert dist(x, x) == 0.0

    def test_basis_pair(self):
        e1, e2 = CoefVec.basis(Side.UNILATERAL, 1), CoefVec.basis(Side.UNILATERAL, 2)
        assert dist(e1, e2) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_scalar_multiple(self):
        e1 = CoefVec.basis(Side.UNILATERAL, 1)
        assert dist(oracles.scale(e1, 2.0), e1) == pytest.approx(1.0, abs=1e-15)

    def test_side_mismatch(self):
        with pytest.raises(SideMismatchError):
            dist(CoefVec.basis(Side.UNILATERAL, 1), CoefVec.basis(Side.BILATERAL, 1))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(10**4):
            x, y, z = (rand_vec(rng, max_support=5) for _ in range(3))
            assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-10


class TestBall:
    # a ball is open: x lies in it when dist(x, center) < radius, strictly
    def test_center_inside(self):
        x = vec([(2, 1 + 1j)])
        assert dist(x, x) < 0.1

    def test_boundary_excluded(self):
        e1, e2 = CoefVec.basis(Side.UNILATERAL, 1), CoefVec.basis(Side.UNILATERAL, 2)
        assert not dist(e1, e2) < math.sqrt(2)
        assert dist(e1, e2) < 2.0

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            Ball(CoefVec.zero(Side.UNILATERAL), 0.0)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = rand_vec(rng)
            y = rand_vec(rng)
            r = rng.uniform(0.1, 4.0)
            theta = rng.uniform(-10, 10)
            before = dist(x, y) < r
            turn = LogScalar(0.0, theta)
            after = dist(oracles.scale(x, turn), oracles.scale(y, turn)) < r
            assert before == after


class TestScale:
    def test_identity(self):
        # scaling by 1 and by 0 now happens only in scaled_orbit_point; at
        # n = 0 under the unweighted shift it is the scaling of x itself
        x = vec([(1, 1.5), (3, -2j)])
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
        one = scaled_orbit_point(ScalingSeq.constant(1.0), T, 0, x)
        assert to_complex_dict(one) == to_complex_dict(x)
        assert scaled_orbit_point(ScalingSeq.constant(0.0), T, 0, x).nnz == 0


class TestConstruction:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            CoefVec(Side.UNILATERAL, np.array([2, 2]), np.zeros(2), np.zeros(2))

    def test_order_across_int64_range(self):
        # index gaps beyond int64 (here 2^63 + 1) are ordered, not wrapped
        x = CoefVec.from_pairs(Side.BILATERAL, [(-5, 1.0), (2**63 - 4, 1.0)])
        assert x.indices.tolist() == [-5, 2**63 - 4]
        with pytest.raises(ValueError, match="strictly increasing"):
            CoefVec(Side.BILATERAL, np.array([2**63 - 4, -5]), np.zeros(2), np.zeros(2))

    def test_side_minimum(self):
        with pytest.raises(ValueError):
            CoefVec.basis(Side.UNILATERAL, 0)
        assert CoefVec.basis(Side.BILATERAL, -5).nnz == 1

    def test_duplicate_pairs_sum(self):
        x = vec([(1, 1.0), (1, 2.0)])
        assert x.nnz == 1
        assert to_complex_dict(x)[1] == pytest.approx(3.0, rel=1e-12)


# -- bit identity with the np.union1d merge (oracles.dist) ------------------

INDEX_RANGES = {Side.UNILATERAL: (1, 60), Side.BILATERAL: (-60, 60)}


LIVE = st.floats(-30.0, 30.0)


@st.composite
def _entries(draw, side, indices, like=None, log_mags=LIVE):
    """A vector on the sorted support; where ``like`` has the same index, the
    entry may copy it, so that x - y cancels there exactly."""
    entries = []
    for i in indices:
        if like is not None and i in like.indices and draw(st.booleans()):
            entries.append(log_entry(like, i))
        else:
            entries.append((draw(log_mags), draw(st.floats(-math.pi, math.pi))))
    return CoefVec.from_log_entries(side, indices, [lm for lm, _ in entries],
                                    [ph for _, ph in entries])


@st.composite
def _vec_pairs(draw, log_mags=((LIVE, LIVE),)):
    """Supports that are empty, disjoint, identical, overlapping or bilateral;
    x's and y's log-magnitudes come from one drawn pair of ``log_mags``."""
    side = draw(st.sampled_from(list(INDEX_RANGES)))
    pool = st.integers(*INDEX_RANGES[side])
    xi = sorted(draw(st.sets(pool, max_size=25)))
    relation = draw(st.sampled_from(["any", "disjoint", "identical", "overlap"]))
    yi = set(draw(st.sets(pool, max_size=25)))
    if relation == "disjoint":
        yi -= set(xi)
    elif relation == "identical":
        yi = set(xi)
    elif relation == "overlap":
        yi |= set(draw(st.lists(st.sampled_from(xi), max_size=10))) if xi else set()
    x_lms, y_lms = draw(st.sampled_from(log_mags))
    x = draw(_entries(side, xi, log_mags=x_lms))
    y = draw(_entries(side, sorted(yi), like=x, log_mags=y_lms))
    return x, y


class TestUnion1dOracle:
    @settings(deadline=None)
    @given(_vec_pairs())
    def test_dist_norm(self, pair):
        x, y = pair
        assert dist(x, y) == oracles.dist(x, y) and dist(y, x) == oracles.dist(y, x)
        assert dist(x, CoefVec.zero(x.side)) == norm(x) and dist(x, x) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_long_supports(self, seed):
        # supports long enough for numpy's vector loops and their tails
        rng = np.random.default_rng(seed)
        side = Side.BILATERAL
        xi = np.unique(rng.integers(-5000, 5000, rng.integers(1, 3000)))
        yi = np.union1d(rng.choice(xi, xi.size // 2), rng.integers(-5000, 5000, 500))
        x = CoefVec.from_log_entries(side, xi, rng.normal(0, 5, xi.size),
                                     rng.uniform(-4, 4, xi.size))
        lm = rng.normal(0, 5, yi.size)
        ph = rng.uniform(-4, 4, yi.size)
        src = np.minimum(np.searchsorted(xi, yi), xi.size - 1)
        shared = np.flatnonzero(xi[src] == yi)[::3]  # planted cancellations
        lm[shared], ph[shared] = x.log_mags[src[shared]], x.phases[src[shared]]
        y = CoefVec.from_log_entries(side, yi, lm, ph)
        assert dist(x, y) == oracles.dist(x, y) and dist(y, x) == oracles.dist(y, x)


# -- entries whose squares are exact zeros ------------------------------------

LN_2_M1075 = math.log(2.0) * -1075  # exp rounds to +0.0 below this, -745.1332...
# the cut-offs of dist (LM_ZERO) and norm (2 lm < LM_ZERO), exp's own zero and
# their float neighbours
EDGES = [v for c in (LM_ZERO, LN_2_M1075, LM_ZERO / 2)
         for v in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))]
# log-magnitudes below LM_ZERO, whose entries dist and norm both leave out
DEAD = st.one_of(st.sampled_from([v for v in EDGES if v < LM_ZERO] + [-1e5]),
                 st.floats(-1e5, LM_ZERO, exclude_max=True))
# the edges, norm's band, the band where exp is subnormal and far below it
EDGE = st.one_of(st.sampled_from(EDGES + [-1e5]), st.floats(-373.0, -372.5),
                 st.floats(-745.2, -708.0))
MIXED = st.one_of(LIVE, EDGE)


def _assert_oracle_bits(x, y):
    assert dist(x, y) == oracles.dist(x, y) and dist(y, x) == oracles.dist(y, x)
    assert norm(x) == oracles.norm(x) and norm(y) == oracles.norm(y)


class TestDeadEntries:
    def test_cutoff_below_exps_zero(self):
        assert LM_ZERO < LN_2_M1075 and np.exp(LM_ZERO) == 0.0

    @settings(deadline=None)
    @given(_vec_pairs(log_mags=[(MIXED, MIXED), (EDGE, EDGE), (DEAD, MIXED),
                                (MIXED, DEAD), (DEAD, DEAD)]))
    def test_dist_norm(self, pair):
        # mixed, all dead on one side or on both; shared indices pair dead
        # with live entries either way round
        _assert_oracle_bits(*pair)

    @pytest.mark.parametrize("lm", EDGES + [-1e5, -720.0])
    @pytest.mark.parametrize("side", [Side.UNILATERAL, Side.BILATERAL])
    def test_shared_index_dead_against_live(self, lm, side):
        dead = CoefVec.from_log_entries(side, [2, 5], [lm, 0.3], [1.0, -2.0])
        live = CoefVec.from_log_entries(side, [2, 7], [-0.5, 1.0], [0.5, 3.0])
        _assert_oracle_bits(dead, live)
        all_dead = CoefVec.from_log_entries(side, [2, 7], [lm, lm], [0.5, 3.0])
        _assert_oracle_bits(all_dead, live)
        _assert_oracle_bits(all_dead, dead)
        _assert_oracle_bits(all_dead, all_dead)

    @pytest.mark.parametrize("seed", range(3))
    def test_long_mostly_dead(self, seed):
        # shaped like an E6 witness u: 20k entries, 99.6% of them dead,
        # against a short centre, a live vector on u's first 500 indices and
        # another mostly dead vector
        rng = np.random.default_rng(seed)
        n = 20_000
        idx = np.arange(1, n + 1)
        lm = rng.uniform(-5000.0, LM_ZERO, n)
        alive = rng.choice(n, 80, replace=False)
        lm[alive[:60]] = rng.normal(0.0, 5.0, 60)
        lm[alive[60:]] = rng.uniform(-745.2, -700.0, 20)  # zero or subnormal
        assert np.mean(lm < LM_ZERO) == 0.996
        u = CoefVec.from_log_entries(Side.UNILATERAL, idx, lm, rng.uniform(-4, 4, n))
        v = CoefVec.from_log_entries(Side.UNILATERAL, idx, np.roll(lm, 7),
                                     rng.uniform(-4, 4, n))
        center = CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (3, -0.5j)])
        head = CoefVec.from_log_entries(Side.UNILATERAL, idx[:500],
                                        rng.normal(0.0, 5.0, 500), u.phases[:500])
        for y in (center, head, v):
            _assert_oracle_bits(u, y)
