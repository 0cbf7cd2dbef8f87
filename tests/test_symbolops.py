import cmath
import math

import numpy as np
import pytest

from orbitlab.lspace import CoefVec, Side, norm
from orbitlab.shiftops import ShiftOp, WeightSeq
from orbitlab.symbolops import (
    AdjointClass,
    PolySymbol,
    RangeKind,
    apply_adjoint,
    classify_adjoint,
    eigen_check,
    kernel_vector,
    range_circle_test,
    winding_number,
)
from oracles import shift_once, to_complex_dict


def hardy(pairs):
    return CoefVec.from_pairs(Side.HARDY, pairs)


class TestApplyAdjoint:
    def test_z_is_backward_shift(self):
        phi = PolySymbol((0, 1))
        out = apply_adjoint(phi, CoefVec.basis(Side.HARDY, 5), 50)
        assert to_complex_dict(out) == {4: 1 + 0j}

    def test_z_kills_constant_coefficient(self):
        phi = PolySymbol((0, 1))
        assert apply_adjoint(phi, CoefVec.basis(Side.HARDY, 0), 50).nnz == 0

    def test_matches_unilateral_shift_after_reindexing(self):
        # Hardy indices n >= 0 vs shift indices n >= 1: shift by one
        phi = PolySymbol((0, 1))
        B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
        rng = np.random.default_rng(8)
        pairs = [(int(i), complex(rng.normal(), rng.normal())) for i in range(0, 12)]
        x_h = hardy(pairs)
        x_s = CoefVec.from_pairs(Side.UNILATERAL, [(i + 1, v) for i, v in pairs])
        a = to_complex_dict(apply_adjoint(phi, x_h, 50))
        b = to_complex_dict(shift_once(B, x_s))
        assert set(a) == {i - 1 for i in b}
        for i, v in b.items():
            assert abs(a[i - 1] - v) <= 1e-12

    def test_constant_symbol_conjugates(self):
        phi = PolySymbol.constant(2j)
        x = hardy([(0, 1.0), (3, 1j)])
        out = to_complex_dict(apply_adjoint(phi, x, 50))
        assert out[0] == pytest.approx(-2j)
        assert out[3] == pytest.approx(2.0)

    def test_against_dense_matrix_oracle(self):
        # M* as an explicit (trunc+1)x(trunc+1) banded matrix
        trunc = 50
        phi = PolySymbol((0.8, 1.0, -0.3j))
        M = np.zeros((trunc + 1, trunc + 1), dtype=complex)
        for n in range(trunc + 1):
            for j, c in enumerate(phi.coeffs):
                if n + j <= trunc:
                    M[n, n + j] = np.conj(c)
        rng = np.random.default_rng(21)
        for _ in range(20):
            dense = rng.normal(size=trunc + 1) + 1j * rng.normal(size=trunc + 1)
            x = hardy([(i, dense[i]) for i in range(trunc + 1)])
            want = M @ dense
            got = to_complex_dict(apply_adjoint(phi, x, trunc))
            for i in range(trunc + 1):
                assert abs(got.get(i, 0j) - want[i]) <= 1e-12 * (1 + abs(want[i]))


class TestKernelVector:
    def test_z_zero_is_basis(self):
        kt = kernel_vector(0.0, 100)
        assert to_complex_dict(kt.vec) == {0: 1 + 0j}
        assert kt.tail_sq_bound == 0.0

    def test_geometric_tail_bound(self):
        kt = kernel_vector(0.5, 200)
        assert kt.tail_sq_bound == pytest.approx(0.5**402 / 0.75)
        assert kt.tail_sq_bound < 1e-120

    def test_truncated_norm_close_to_kernel_norm(self):
        for z in (0.3, 0.5 + 0.2j, -0.7j):
            kt = kernel_vector(z, 200)
            want = 1.0 / (1.0 - abs(z) ** 2)
            assert abs(norm(kt.vec) ** 2 - want) <= kt.tail_sq_bound + 1e-12

    def test_modulus_guards(self):
        with pytest.raises(ValueError):
            kernel_vector(1.0, 10)
        with pytest.raises(ValueError):
            kernel_vector(0.96, 10)


class TestEigenCheck:
    def test_shift_symbol_tiny_residual(self):
        r, bound = eigen_check(PolySymbol((0, 1)), 0.5, 200)
        assert r <= 1e-50
        assert r <= bound

    def test_constant_symbol_exact(self):
        r, _ = eigen_check(PolySymbol.constant(3 + 1j), 0.5, 100)
        assert r == 0.0

    def test_z_squared_near_boundary(self):
        r, bound = eigen_check(PolySymbol((0, 0, 1)), 0.9, 500)
        assert r <= bound

    def test_residual_bound_grid(self):
        # 10x10 grid of (z, phi) cases stays below the analytic bound
        rng = np.random.default_rng(14)
        zs = [0.9 * cmath.exp(2j * math.pi * t / 10) * (0.3 + 0.07 * t) for t in range(10)]
        zs = [z if abs(z) <= 0.95 else z / abs(z) * 0.9 for z in zs]
        for i in range(10):
            deg = 1 + i % 4
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            phi = PolySymbol(tuple(coeffs))
            for z in zs:
                r, bound = eigen_check(phi, z, 150)
                assert r <= bound, (phi.coeffs, z)


class TestWinding:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_oracle_values(self, d):
        shifted = PolySymbol((2,) + (0,) * (d - 1) + (1,))  # z^d + 2
        pure = PolySymbol((0,) * d + (1,))  # z^d
        w0, _ = winding_number(shifted, 2**14)
        wd, _ = winding_number(pure, 2**14)
        assert w0 == 0
        assert wd == d

    def test_matches_argument_accumulation_oracle(self):
        phi = PolySymbol((0.5, -1.2, 0.3 + 0.4j))
        theta = np.linspace(0, 2 * math.pi, 2**14, endpoint=False)
        vals = phi(np.exp(1j * theta))
        acc = np.sum(np.angle(np.roll(vals, -1) / vals)) / (2 * math.pi)
        w, _ = winding_number(phi, 4096)
        assert w == int(round(acc))


class TestRangeCircle:
    def test_half_disk_inside(self):
        cert = range_circle_test(PolySymbol((0, 0.5)))
        assert cert.kind is RangeKind.DISJOINT_INSIDE
        assert cert.boundary_max + cert.slack < 1.0
        assert cert.verify(PolySymbol((0, 0.5)))

    def test_shifted_outside_with_winding(self):
        phi = PolySymbol((2, 1))
        cert = range_circle_test(phi)
        assert cert.kind is RangeKind.DISJOINT_OUTSIDE
        assert cert.winding == 0
        assert cert.min_exact >= 1.0 - 1e-12
        assert cert.verify(phi)

    def test_crossing_witness(self):
        phi = PolySymbol((0.8, 1))
        cert = range_circle_test(phi)
        assert cert.kind is RangeKind.INTERSECTS
        w = cert.witness
        assert abs(w) < 1.0
        assert abs(abs(phi(w)) - 1.0) <= 1e-9
        assert abs(w - 0.2) < 1e-6  # phi(0.2) = 1 exactly

    def test_identity_symbol_range_is_open_disk(self):
        cert = range_circle_test(PolySymbol((0, 1)))
        assert cert.kind is RangeKind.DISJOINT_INSIDE

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            range_circle_test(PolySymbol((0, 1)), grid=64)

    def test_scaled_symbol_mechanism(self):
        # phi ranging in an annulus outside the circle; dividing by a large
        # conjugate pulls the range across the circle
        for a in (2.0, 4j, -3 + 1j):
            phi = PolySymbol((abs(a) + 0.5, abs(a) - 0.75))
            assert range_circle_test(phi).kind is RangeKind.DISJOINT_OUTSIDE
            psi = phi.scale(1.0 / np.conj(a))
            cert = range_circle_test(psi)
            assert cert.min_exact < 1.0 < cert.max_exact
            assert cert.kind is RangeKind.INTERSECTS
            assert cert.verify(psi)


class TestClassify:
    @pytest.mark.parametrize(
        "coeffs,want",
        [
            ((0, 0.5), AdjointClass.NOT_RECURRENT),
            ((2, 1), AdjointClass.NOT_RECURRENT),
            ((0.8, 1), AdjointClass.FH_AND_TMR),
        ],
    )
    def test_nonconstant(self, coeffs, want):
        assert classify_adjoint(PolySymbol(coeffs)).kind is want

    def test_constants(self):
        assert classify_adjoint(PolySymbol.constant(1j)).kind is AdjointClass.CONSTANT_RECURRENT
        assert classify_adjoint(PolySymbol.constant(2)).kind is AdjointClass.CONSTANT_NOT_RECURRENT
        near = cmath.exp(1j * 0.3) * (1 + 1e-13)
        assert classify_adjoint(PolySymbol.constant(near)).kind is AdjointClass.CONSTANT_RECURRENT
