import gc
import math
import weakref

import numpy as np
import pytest

from orbitlab import shiftops
from orbitlab.lspace import CoefVec, Side, norm
from orbitlab.seqcore import ScalingSeq
from orbitlab.shiftops import ShiftOp, WeightSeq, scaled_orbit_point
from oracles import shift_once, stored_prefix_neg, stored_prefix_pos, to_complex_dict

LN2 = math.log(2.0)

ALL_WEIGHTS = [
    WeightSeq.constant(1.0),
    WeightSeq.constant(2.0),
    WeightSeq.constant(0.7),
    WeightSeq.sqrt_ratio(),
    WeightSeq.step_bilateral(),
    WeightSeq.inverse_step_bilateral(),
    WeightSeq.table([0.5, 1.5, 2.0, 1.0, 0.25, 3.0] * 40, start=-100),
]


def op_for(w: WeightSeq) -> ShiftOp:
    side = Side.BILATERAL if w.bilateral_ok else Side.UNILATERAL
    return ShiftOp(side, w)


def rand_vec(rng, side, max_idx=100, max_support=100):
    lo = 1 if side is Side.UNILATERAL else -max_idx // 2
    k = int(rng.integers(1, max_support + 1))
    idx = rng.choice(np.arange(lo, max_idx), size=min(k, max_idx - lo), replace=False)
    return CoefVec.from_pairs(
        side, [(int(i), complex(rng.normal(), rng.normal())) for i in idx]
    )


class TestApply:
    def test_unweighted_shift(self):
        B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
        out = B.power_apply(1, CoefVec.basis(Side.UNILATERAL, 5))
        assert to_complex_dict(out) == {4: 1 + 0j}

    def test_kills_bottom_basis(self):
        B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
        assert B.power_apply(1, CoefVec.basis(Side.UNILATERAL, 1)).nnz == 0

    def test_sqrt_ratio_weight(self):
        T = ShiftOp(Side.UNILATERAL, WeightSeq.sqrt_ratio())
        out = T.power_apply(1, CoefVec.basis(Side.UNILATERAL, 2))
        assert to_complex_dict(out)[1] == pytest.approx(math.sqrt(1.5))

    def test_premultiplier(self):
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2j)
        out = T.power_apply(1, CoefVec.basis(Side.UNILATERAL, 3))
        assert to_complex_dict(out)[2] == pytest.approx(2j)


class TestPowerApply:
    def test_power_zero(self):
        T = op_for(WeightSeq.sqrt_ratio())
        x = CoefVec.basis(Side.UNILATERAL, 4)
        assert T.power_apply(0, x) is x

    def test_sqrt_ratio_telescoping(self):
        # prod_{i=1..n} w_{1+i} = sqrt((n+2)/2); at n = 8 it is sqrt(5)
        T = op_for(WeightSeq.sqrt_ratio())
        out = T.power_apply(8, CoefVec.basis(Side.UNILATERAL, 9))
        assert to_complex_dict(out)[1] == pytest.approx(math.sqrt(5), rel=1e-12)

    def test_step_bilateral_powers(self):
        # e_n carried down to index 0 picks up every positive-index weight:
        # the product w_1 ... w_n = 2^n, confirmed by the iteration oracle
        T = op_for(WeightSeq.step_bilateral())
        for n in (1, 3, 10):
            x = CoefVec.basis(Side.BILATERAL, n)
            out = T.power_apply(n, x)
            slow = x
            for _ in range(n):
                slow = shift_once(T, slow)
            assert to_complex_dict(out)[0] == pytest.approx(2.0**n)
            assert to_complex_dict(slow)[0] == pytest.approx(2.0**n)

    @pytest.mark.parametrize("w", ALL_WEIGHTS, ids=lambda w: w.family)
    def test_matches_iterated_apply(self, w):
        rng = np.random.default_rng(hash(w.family) % 2**32)
        T = op_for(w)
        for _ in range(8):
            x = rand_vec(rng, T.side)
            n = int(rng.integers(0, 51))
            fast = T.power_apply(n, x)
            slow = x
            for _ in range(n):
                slow = shift_once(T, slow)
            assert fast.nnz == slow.nnz
            assert np.array_equal(fast.indices, slow.indices)
            if fast.nnz:
                assert np.max(np.abs(fast.log_mags - slow.log_mags)) <= 1e-9 * max(
                    1.0, float(np.max(np.abs(slow.log_mags)))
                )

    @pytest.mark.parametrize("w", ALL_WEIGHTS, ids=lambda w: w.family)
    def test_semigroup_law(self, w):
        rng = np.random.default_rng(hash(w.family) % 2**31)
        T = op_for(w)
        for _ in range(5):
            x = rand_vec(rng, T.side, max_support=30)
            m, n = int(rng.integers(0, 26)), int(rng.integers(0, 26))
            one = T.power_apply(m + n, x)
            two = T.power_apply(m, T.power_apply(n, x))
            assert np.array_equal(one.indices, two.indices)
            if one.nnz:
                assert np.max(np.abs(one.log_mags - two.log_mags)) <= 1e-9 * max(
                    1.0, float(np.max(np.abs(one.log_mags)))
                )

    def test_index_below_int64_refused(self):
        # e(-5) would land on -2^63 - 4, which wraps to 2^63 - 4 in int64
        T = ShiftOp(Side.BILATERAL, WeightSeq.constant(1.0))
        x = CoefVec.from_pairs(Side.BILATERAL, [(-5, 1.0), (3, 1.0)])
        with pytest.raises(ValueError, match="int64"):
            T.power_apply(2**63 - 1, x)
        with pytest.raises(ValueError, match="int64"):
            T.power_apply(np.int64(2**63 - 1), x)
        assert T.power_apply(2**63 - 6, x).indices.tolist() == [-(2**63) + 1, -(2**63) + 9]

    def test_contraction_norm_bound(self):
        T = ShiftOp(Side.BILATERAL, WeightSeq.constant(1.0), 0.8)
        x = rand_vec(np.random.default_rng(5), Side.BILATERAL, max_support=20)
        rho, nx = T.norm_bound, norm(x)
        for n in range(1, 201):
            assert norm(T.power_apply(n, x)) <= rho**n * nx * (1 + 1e-9)


class TestProductTable:
    def test_sqrt_ratio_closed_form(self):
        w = WeightSeq.sqrt_ratio()
        for n in (1, 7, 999):
            assert w.forward_log(0, n) == pytest.approx(
                math.log(math.sqrt(n + 1)), abs=1e-12
            )

    def test_constant_forward(self):
        w = WeightSeq.constant(2.0)
        for j in (-5, 0, 11):
            assert w.forward_log(j, 7) == pytest.approx(7 * LN2, abs=1e-12)

    def test_step_backward_ones(self):
        w = WeightSeq.step_bilateral()
        for n in (1, 5, 50):
            assert w.backward_log(0, n) == 0.0

    def test_prefix_sum_identity(self):
        w = WeightSeq.sqrt_ratio()
        rng = np.random.default_rng(9)
        for _ in range(200):
            j = int(rng.integers(0, 500))
            n = int(rng.integers(1, 500))
            m = int(rng.integers(1, 500))
            lhs = w.forward_log(j, n) + w.forward_log(j + n, m)
            assert lhs == pytest.approx(w.forward_log(j, n + m), abs=1e-12)

    def test_matches_direct_multiplication(self):
        w = WeightSeq.table(list(np.random.default_rng(2).uniform(0.2, 3.0, 200)))
        vals = np.array(w.params[0])
        for a, b in [(1, 10), (5, 200), (100, 150)]:
            direct = float(np.sum(np.log(vals[a - 1 : b])))
            assert w.log_range(a, b) == pytest.approx(direct, abs=1e-10)

    def test_unilateral_range_guard(self):
        with pytest.raises(ValueError):
            WeightSeq.sqrt_ratio().backward_log(0, 5)

    def test_table_capacity_guard(self):
        w = WeightSeq.table([1.0, 2.0, 3.0])
        assert w.forward_log(0, 3) == pytest.approx(math.log(6.0))
        with pytest.raises(ValueError):
            w.forward_log(0, 4)


CLOSED_FORM = [
    WeightSeq.constant(2.0),
    WeightSeq.constant(0.7),
    WeightSeq.constant(1.0),
    WeightSeq.sqrt_ratio(),
    WeightSeq.step_bilateral(),
    WeightSeq.inverse_step_bilateral(),
]


def _index_arrays(n: int, rng) -> list[np.ndarray]:
    """Index arrays in 0..n of every layout a query can have: contiguous,
    a strided view, a gathered set, single entries and none."""
    base = np.arange(0, n + 1, dtype=np.int64)
    return [
        base,
        base[3::7],
        base[::-1][::5],
        np.sort(rng.choice(base, size=1000)),
        *(np.array([i], dtype=np.int64) for i in (0, 1, 2, 17, n)),
        np.zeros(0, dtype=np.int64),
    ]


class TestClosedFormProducts:
    """Closed-form families hold no table: cum evaluates the closed form at
    the queried indices and must give the doubles a whole stored table gives."""

    @pytest.mark.parametrize("w", CLOSED_FORM, ids=lambda w: f"{w.family}{w.params}")
    def test_cum_equals_stored_table(self, w):
        n = 3 * 2**16 + 5
        rng = np.random.default_rng(4)
        pos = stored_prefix_pos(w, n)
        neg = stored_prefix_neg(w, n) if w.bilateral_ok else None
        for idx in _index_arrays(n, rng):
            assert w.cum(idx).tobytes() == pos[idx].tobytes()
            if w.bilateral_ok:
                k = idx[idx > 0]
                assert w.cum(-k).tobytes() == (-neg[k]).tobytes()
        if w.bilateral_ok:
            mixed = rng.integers(-n, n + 1, size=5000)
            want = np.where(mixed >= 0, pos[np.abs(mixed)], -neg[np.abs(mixed)])
            assert w.cum(mixed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("w", CLOSED_FORM, ids=lambda w: f"{w.family}{w.params}")
    def test_cum_near_the_resource_cap(self, w):
        hi = 20_000_000
        lo = hi - 2**16  # a multiple of 64, like the table's own start
        window = stored_prefix_pos(w, hi, lo)
        for idx in _index_arrays(hi - lo, np.random.default_rng(5))[:4]:
            assert w.cum(lo + idx).tobytes() == window[idx].tobytes()
        assert w.cum(np.array([hi])).tobytes() == window[-1:].tobytes()

    def test_index_zero_is_positive_zero(self):
        # 0 * log c is -0.0 for c < 1; the empty product's log is +0.0
        for w in CLOSED_FORM:
            c = w.cum(np.array([0, 0, 1]))
            assert c[0] == 0.0 and not np.signbit(c[:2]).any(), w

    def test_no_array_for_closed_forms(self):
        for w in CLOSED_FORM:
            w.cum(np.arange(-10**6 if w.bilateral_ok else 0, 10**6))
            assert "_table_sums" not in vars(w)

    def test_table_weights_stored_once_at_capacity(self):
        w = ALL_WEIGHTS[-1]  # table_w over indices -100..139
        pos, neg = w._table_sums
        assert pos.tobytes() == stored_prefix_pos(w, 139).tobytes()
        assert neg.tobytes() == stored_prefix_neg(w, 101).tobytes()
        want = np.concatenate((-neg[:0:-1], pos))  # C(-101..139)
        assert w.cum(np.arange(-101, 140)).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="exits the table's range"):
            w.cum(np.array([140]))
        with pytest.raises(ValueError, match="exits the table's range"):
            w.cum(np.array([-102]))

    def test_table_sums_built_once_per_instance(self, monkeypatch):
        calls = []
        log_w = WeightSeq.log_w
        monkeypatch.setattr(WeightSeq, "log_w", lambda w, idx: calls.append(1) or log_w(w, idx))
        w = WeightSeq.table([0.5, 1.5, 2.0] * 30, start=-40)
        first = w.cum(np.arange(-41, 50))
        second = w.cum(np.array([-7, 0, 13]))
        assert len(calls) == 1
        assert second.tobytes() == first[[34, 41, 54]].tobytes()

    def test_table_sums_freed_with_instance(self):
        w = WeightSeq.table([0.5, 1.5, 2.0] * 30, start=-40)
        w.cum(np.arange(-41, 50))
        refs = [weakref.ref(w), *map(weakref.ref, w._table_sums)]
        del w
        gc.collect()
        assert all(r() is None for r in refs)
        held = [v for v in vars(shiftops).values() if isinstance(v, dict)]
        assert not any(isinstance(k, WeightSeq) for d in held for k in d)


class TestScaledOrbitPoint:
    def test_constant_scaling_power_zero(self):
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
        x = CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (2, 2.0)])
        out = scaled_orbit_point(ScalingSeq.constant(1.0), T, 0, x)
        assert to_complex_dict(out) == to_complex_dict(x)

    def test_factorial_cancellation(self):
        # x_{n+1} = 1/n! makes the scaled orbit land exactly on e_1
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
        lam = ScalingSeq.factorial()
        for n in (1, 10, 100):
            x = CoefVec.from_log_entries(
                Side.UNILATERAL, [n + 1], [-math.lgamma(n + 1)], [0.0]
            )
            out = scaled_orbit_point(lam, T, n, x)
            assert out.nnz == 1 and out.indices[0] == 1
            assert abs(out.log_mags[0]) <= 1e-10

    def test_premultiplier_absorption(self):
        # lam_n = w^{2n} with T = (1/w)B equals (wB)^n
        w = 0.25 ** -0.5
        lam = ScalingSeq.power_of_w(w)
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 1.0 / w)
        wb = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), w)
        x = CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (3, -2j), (7, 0.5)])
        for n in range(1, 31):
            a = scaled_orbit_point(lam, T, n, x)
            b = wb.power_apply(n, x)
            assert np.array_equal(a.indices, b.indices)
            if a.nnz:
                assert np.max(np.abs(a.log_mags - b.log_mags)) <= 1e-10
                dphase = np.abs(np.angle(np.exp(1j * (a.phases - b.phases))))
                assert np.max(dphase) <= 1e-10

    def test_log_domain_survives_huge_scalings(self):
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
        lam = ScalingSeq.dyadic_tower()
        x = CoefVec.basis(Side.UNILATERAL, 10**6)
        out = scaled_orbit_point(lam, T, 10**6 - 1, x)
        assert out.nnz == 1
        assert out.log_mags[0] > 10**5  # far beyond float range, still finite
        with pytest.raises(OverflowError):
            norm(out)
