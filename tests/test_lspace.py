import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbitlab.lspace import (
    Ball,
    CoefVec,
    Side,
    SideMismatchError,
    dist,
    norm,
)
from orbitlab.seqcore import LogScalar
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
            lhs = norm(x.scale(a))
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
        assert dist(e1.scale(2.0), e1) == pytest.approx(1.0, abs=1e-15)

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
            after = dist(x.scale(turn), y.scale(turn)) < r
            assert before == after


class TestScale:
    def test_identity(self):
        x = vec([(1, 1.5), (3, -2j)])
        assert to_complex_dict(x.scale(1.0)) == to_complex_dict(x)
        assert x.scale(0.0).nnz == 0

    def test_log_scalar_coefficient(self):
        out = CoefVec.basis(Side.UNILATERAL, 1).scale(LogScalar(math.log(3.0), math.pi))
        assert to_complex_dict(out)[1] == pytest.approx(-3.0)


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
        assert CoefVec.basis(Side.HARDY, 0).nnz == 1
        assert CoefVec.basis(Side.BILATERAL, -5).nnz == 1

    def test_duplicate_pairs_sum(self):
        x = vec([(1, 1.0), (1, 2.0)])
        assert x.nnz == 1
        assert to_complex_dict(x)[1] == pytest.approx(3.0, rel=1e-12)


# -- bit identity with the np.union1d merge (oracles.dist) ------------------

INDEX_RANGES = {Side.UNILATERAL: (1, 60), Side.BILATERAL: (-60, 60)}


@st.composite
def _entries(draw, side, indices, like=None):
    """A vector on the sorted support; where ``like`` has the same index, the
    entry may copy it, so that x - y cancels there exactly."""
    entries = []
    for i in indices:
        if like is not None and i in like.indices and draw(st.booleans()):
            entries.append(log_entry(like, i))
        else:
            entries.append((draw(st.floats(-30.0, 30.0)), draw(st.floats(-math.pi, math.pi))))
    return CoefVec.from_log_entries(side, indices, [lm for lm, _ in entries],
                                    [ph for _, ph in entries])


@st.composite
def _vec_pairs(draw):
    """Supports that are empty, disjoint, identical, overlapping or bilateral."""
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
    x = draw(_entries(side, xi))
    y = draw(_entries(side, sorted(yi), like=x))
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
