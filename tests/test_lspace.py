import math

import numpy as np
import pytest

from orbitlab.lspace import (
    Ball,
    CoefVec,
    Side,
    SideMismatchError,
    axpy,
    dist,
    in_ball,
    norm,
)
from orbitlab.seqcore import LogScalar
from oracles import to_complex_dict


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
            lhs = norm(axpy(a, x, CoefVec.zero(Side.UNILATERAL)))
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
    def test_center_inside(self):
        x = vec([(2, 1 + 1j)])
        assert in_ball(x, Ball(x, 0.1))

    def test_boundary_excluded(self):
        e1, e2 = CoefVec.basis(Side.UNILATERAL, 1), CoefVec.basis(Side.UNILATERAL, 2)
        assert not in_ball(e1, Ball(e2, math.sqrt(2)))
        assert in_ball(e1, Ball(e2, 2.0))

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
            before = in_ball(x, Ball(y, r))
            turn = LogScalar(0.0, theta)
            after = in_ball(x.scale(turn), Ball(y.scale(turn), r))
            assert before == after


class TestAxpy:
    def test_identity(self):
        x = vec([(1, 1.5), (3, -2j)])
        out = axpy(1.0, x, CoefVec.zero(Side.UNILATERAL))
        assert to_complex_dict(out) == to_complex_dict(x)

    def test_cancellation_to_zero(self):
        x = vec([(1, 1.5), (3, -2j)])
        assert axpy(-1.0, x, x).nnz == 0

    def test_accumulate(self):
        e1 = CoefVec.basis(Side.UNILATERAL, 1)
        out = axpy(2.0, e1, e1)
        assert out.nnz == 1
        assert to_complex_dict(out)[1] == pytest.approx(3.0, rel=1e-12)

    def test_against_dict_arithmetic(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            x, y = rand_vec(rng), rand_vec(rng)
            a = complex(rng.normal(), rng.normal())
            want = dict(to_complex_dict(y))
            for i, v in to_complex_dict(x).items():
                want[i] = want.get(i, 0j) + a * v
            got = to_complex_dict(axpy(a, x, y))
            keys = set(want) | set(got)
            for k in keys:
                assert abs(want.get(k, 0j) - got.get(k, 0j)) <= 1e-12

    def test_log_scalar_coefficient(self):
        x = CoefVec.basis(Side.UNILATERAL, 1)
        out = axpy(LogScalar(math.log(3.0), math.pi), x, CoefVec.zero(Side.UNILATERAL))
        assert to_complex_dict(out)[1] == pytest.approx(-3.0)


class TestConstruction:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            CoefVec(Side.UNILATERAL, np.array([2, 2]), np.zeros(2), np.zeros(2))

    def test_side_minimum(self):
        with pytest.raises(ValueError):
            CoefVec.basis(Side.UNILATERAL, 0)
        assert CoefVec.basis(Side.HARDY, 0).nnz == 1
        assert CoefVec.basis(Side.BILATERAL, -5).nnz == 1

    def test_duplicate_pairs_sum(self):
        x = vec([(1, 1.0), (1, 2.0)])
        assert x.nnz == 1
        assert to_complex_dict(x)[1] == pytest.approx(3.0, rel=1e-12)

    def test_entry_lookup(self):
        x = vec([(2, 1j)])
        assert x.entry(2).to_complex() == pytest.approx(1j)
        assert x.entry(3).zero
