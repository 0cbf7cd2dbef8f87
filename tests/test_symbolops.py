import cmath
import math

import numpy as np
import pytest

from orbitlab.symbolops import (
    AdjointClass,
    PolySymbol,
    RangeKind,
    classify_adjoint,
    range_circle_test,
    winding_number,
)


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

    def test_constant_symbol_rejected(self):
        # a unimodular constant would pass the maximum-principle test as
        # disjoint_inside, though its range lies on the circle
        with pytest.raises(ValueError, match="constant"):
            range_circle_test(PolySymbol.constant(1j))

    def test_scaled_symbol_mechanism(self):
        # phi ranging in an annulus outside the circle; dividing by a large
        # conjugate pulls the range across the circle
        for a in (2.0, 4j, -3 + 1j):
            phi = PolySymbol((abs(a) + 0.5, abs(a) - 0.75))
            assert range_circle_test(phi).kind is RangeKind.DISJOINT_OUTSIDE
            scale = 1.0 / np.conj(a)
            psi = PolySymbol(tuple(c * scale for c in phi.coeffs))
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

    @staticmethod
    def _near_tangent(c):
        # phi(z) = c (1 + r z) / 2 with r = e^{-i pi / 8192}: |phi| peaks at c
        # on the circle at z = 1/r, half a step of the 8192-point grid from
        # every sample, so the sampled maximum sits about 1.8e-8 below c
        r = cmath.exp(-1j * math.pi / 8192)
        return PolySymbol((c / 2, c * r / 2))

    def test_near_tangent_range_is_uncertain(self):
        # with c = 1 + 1e-9 the exact maximum exceeds 1, but the high point
        # is looked for only at the sampled argmax, where |phi| < 1 at both
        # grids, so no witness is found and the verdict is uncertain
        phi = self._near_tangent(1 + 1e-9)
        verdict = classify_adjoint(phi)
        assert verdict.kind is AdjointClass.UNCERTAIN
        cert = verdict.certificate
        assert cert.kind is RangeKind.UNCERTAIN and cert.grid == 2 * 4096
        assert cert.boundary_max < 1.0 < cert.max_exact
        assert cert.verify(phi)

    def test_less_tangent_range_intersects(self):
        phi = self._near_tangent(1 + 1e-6)
        verdict = classify_adjoint(phi)
        assert verdict.kind is AdjointClass.FH_AND_TMR
        assert verdict.certificate.kind is RangeKind.INTERSECTS
        assert verdict.certificate.verify(phi)
