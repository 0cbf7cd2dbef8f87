import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitlab import shiftops
from orbitlab.lspace import CoefVec, Side, SideMismatchError, norm
from orbitlab.seqcore import ScalingSeq, SequenceDomainError
from orbitlab.shiftops import ShiftOp, WeightSeq, scaled_orbit_point
import oracles
from oracles import (
    half_line_cum,
    shift_once,
    stored_cum,
    stored_prefix_neg,
    stored_prefix_pos,
    to_complex_dict,
    weight_at,
)

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

    @pytest.mark.parametrize("w", ALL_WEIGHTS, ids=lambda w: f"{w.family}{w.params[:1]}")
    @pytest.mark.parametrize("side", [Side.UNILATERAL, Side.BILATERAL], ids=lambda s: s.value)
    def test_power_log_mags_are_power_apply_log_mags(self, w, side):
        # bit for bit with power_apply's vector and with the formula
        # (oracles.power_log_mags), out to powers past the whole support (a
        # unilateral T^n x is then 0, a bilateral one lies below index 0)
        if side is Side.BILATERAL and not w.bilateral_ok:
            return
        T = ShiftOp(side, w, 1.5 - 0.5j)
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = rand_vec(rng, side, max_idx=60, max_support=30)
            last = max(int(x.indices[-1]), 1)
            for n in (0, 1, 2, 7, last - 1, last, last + 1, 60):
                got = T.power_log_mags(n, x).tobytes()
                assert got == T.power_apply(n, x).log_mags.tobytes(), n
                assert got == oracles.power_log_mags(T, n, x).tobytes(), n
        empty = CoefVec.zero(side)
        assert T.power_log_mags(3, empty).size == 0

    def test_power_log_mags_checks(self):
        T = ShiftOp(Side.BILATERAL, WeightSeq.constant(1.0))
        x = CoefVec.from_pairs(Side.BILATERAL, [(-5, 1.0), (3, 1.0)])
        with pytest.raises(ValueError, match=">= 0"):
            T.power_log_mags(-1, x)
        with pytest.raises(ValueError, match="int64"):
            T.power_log_mags(2**63 - 1, x)
        with pytest.raises(shiftops.SideMismatchError):
            T.power_log_mags(1, CoefVec.basis(Side.UNILATERAL, 2))

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
            assert "_table_cum" not in vars(w)

    def test_table_weights_stored_once_at_capacity(self):
        w = ALL_WEIGHTS[-1]  # table_w over indices -100..139
        pos, neg = stored_prefix_pos(w, 139), stored_prefix_neg(w, 101)
        # one array: C(0..139), then C(-101..-1)
        assert w._table_cum.tobytes() == np.concatenate((pos, -neg[:0:-1])).tobytes()
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
        refs = [weakref.ref(w), weakref.ref(w._table_cum)]
        del w
        gc.collect()
        assert all(r() is None for r in refs)
        held = [v for v in vars(shiftops).values() if isinstance(v, dict)]
        assert not any(isinstance(k, WeightSeq) for d in held for k in d)


class TestEveryFamilyOnZ:
    """Every reading of a weight sequence agrees with its definition, on both
    sides of 0 and out to the 2e7 cap: C(i) and log_range bit for bit with
    the half-line closed forms (whole tables for table_w), log_w with log of
    the defined weight, sup/inf with the extreme weights."""

    @pytest.mark.parametrize("w", ALL_WEIGHTS, ids=lambda w: f"{w.family}{w.params[:1]}")
    def test_readings_match_the_definitions(self, w):
        cap = 20_000_000
        if w.family == "table_w":
            vals, start = w.params
            idx = list(range(start - 1, start + len(vals)))
            want = stored_cum(w, idx)
        else:
            near = [0, 1, 2, 3, 17, cap - 2**16, cap - 1, cap]
            idx = sorted({s * i for i in near for s in (-1, 1) if w.bilateral_ok or s > 0})
            want = half_line_cum(w, idx)
        assert w.cum(np.array(idx)).tobytes() == want.tobytes()
        C = dict(zip(idx, want.tolist()))
        for a in idx[::3]:
            for b in idx[::2]:
                got = w.log_range(a + 1, b)
                assert got == (C[b] - C[a] if a < b else 0.0), (a, b)
        defined = [n for n in idx if n >= 1 or (w.bilateral_ok and n >= idx[0] + 1)]
        lw = w.log_w(np.array(defined))
        assert lw == pytest.approx([math.log(weight_at(w, n)) for n in defined], abs=1e-15)
        weights = [weight_at(w, n) for n in defined]
        assert w.sup_weight == pytest.approx(max(weights), rel=1e-15)
        assert w.inf_weight == pytest.approx(min(weights), rel=1e-7)


class TestTableStart:
    """C is anchored at 0, so a table must hold w_1 onward: a later start is
    refused, and every start <= 1 reads the products of the table's own
    weights."""

    def test_start_after_one_refused(self):
        with pytest.raises(ValueError, match=r"w_5\.\.w_16 holds no w_1"):
            WeightSeq.table([1.5, 2.0, 0.5] * 4, start=5)

    def test_table_ending_before_w1_refused(self):
        # weights at -5..-1 (or -5..0) hold no w_1, so no product could be
        # read: the table is refused, naming its span
        with pytest.raises(ValueError, match=r"w_-5\.\.w_-1 holds no w_1"):
            WeightSeq.table([0.5, 1.5, 2.0, 1.0, 0.25], start=-5)
        with pytest.raises(ValueError, match=r"w_-5\.\.w_0 holds no w_1"):
            WeightSeq.table([0.5] * 6, start=-5)

    @pytest.mark.parametrize("query, bound", [
        ([-7], r"index -7 exits the table's range \(min -6\)"),
        ([-3, 5], r"index 5 exits the table's range \(max 1\)"),
        ([2, 3], r"index 3 exits the table's range \(max 1\)"),
    ])
    def test_range_error_names_the_queried_index(self, query, bound):
        w = WeightSeq.table([0.5] * 7, start=-5)  # w_-5..w_1, so C(-6..1)
        assert w.cum(np.array([-6, 1])).tolist() == [6 * math.log(2.0), math.log(0.5)]
        with pytest.raises(ValueError, match=bound):
            w.cum(np.array(query))

    @pytest.mark.parametrize("start", [1, 0, -3])
    def test_start_up_to_one_reads_the_table(self, start):
        vals = [1.5, 2.0, 0.5, 3.0] * 3
        w = WeightSeq.table(vals, start=start)
        last = start + len(vals) - 1
        for a, b in [(6, 7), (1, last), (start, 5), (start + 2, last)]:
            want = math.fsum(math.log(vals[n - start]) for n in range(a, b + 1))
            assert w.log_range(a, b) == pytest.approx(want, abs=1e-14), (a, b)
        with pytest.raises(ValueError, match="exits the table's range"):
            w.log_range(1, last + 1)


CAP = 20_000_000
# one row per weights family, and each side of 1 for constant_w; tables that
# reach below 0 (one of them ends at w_1, the least end a table may have, so
# C(0) and C(1) are its only C(i >= 0))
RUN_WEIGHTS = [
    WeightSeq.constant(0.7),
    WeightSeq.constant(1.5),
    WeightSeq.step_bilateral(),
    WeightSeq.inverse_step_bilateral(),
    WeightSeq.sqrt_ratio(),
    WeightSeq.table([0.5, 1.5, 2.0, 1.0, 0.25, 3.0] * 3, start=0),
    WeightSeq.table([0.5, 1.5, 2.0, 1.0, 0.25, 3.0], start=-4),
    ALL_WEIGHTS[-1],  # indices -100..139
]


def _c_limits(w: WeightSeq) -> tuple[int, int]:
    """The first and last i with C(i) defined (the cap for closed forms)."""
    if w.family == "table_w":
        vals, start = w.params
        return min(start - 1, 0), max(start + len(vals) - 1, 0)
    return (-CAP if w.bilateral_ok else 0), CAP


@st.composite
def _runs(draw):
    """A family, and a run whose k-th index lies near 0 or near one of C's
    limits, inside them or past them: with k the first or last position,
    the run starts or ends there, and with any other k it crosses."""
    w = draw(st.sampled_from(RUN_WEIGHTS))
    step = draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
    count = draw(st.one_of(st.just(1), st.integers(1, 40)))
    near = draw(st.sampled_from((0, *_c_limits(w)))) + draw(st.integers(-5, 5))
    k = draw(st.one_of(st.sampled_from([0, count - 1]), st.integers(0, count - 1)))
    return w, near - step * k, step, count


class TestRunForm:
    """cum_run is cum over an arithmetic run of indices: the same doubles,
    written into the caller's buffer, and the same errors."""

    def test_every_weights_family_has_a_row(self):
        from orbitlab.expcli import WEIGHTS

        assert {w.family for w in RUN_WEIGHTS} == WEIGHTS.families.keys()

    @given(_runs())
    def test_equals_cum_on_the_run(self, run):
        w, start, step, count = run
        idx = np.arange(start, start + step * count, step, dtype=np.int64)
        ramp = np.arange(64, dtype=np.float64)
        buf = np.full(count + 3, np.nan)
        try:
            want = w.cum(idx)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                w.cum_run(start, step, ramp, buf[:count])
            assert str(info.value) == str(exc)
            return
        got = w.cum_run(start, step, ramp, buf[:count])
        assert np.shares_memory(got, buf) and got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[idx == 0]).any()  # C(0) is +0.0
        assert np.isnan(buf[count:]).all()
        assert ramp.tobytes() == np.arange(64, dtype=np.float64).tobytes()

    @given(_runs(), st.sampled_from([-2.0, 0.5, 2.0]))
    def test_scale_folds_exactly(self, run, scale):
        # the scale folded into the closed form's multiply (the table's
        # multiply after its lookup) gives the unscaled run times scale,
        # bit for bit, -0.0 at index 0 included, and the same errors
        w, start, step, count = run
        ramp = np.arange(64, dtype=np.float64)
        try:
            want = w.cum_run(start, step, ramp, np.empty(count)) * scale
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                w.cum_run(start, step, ramp, np.empty(count), scale)
            assert str(info.value) == str(exc)
            return
        assert w.cum_run(start, step, ramp, np.empty(count), scale).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [-2.0, 0.5, 2.0])
    @pytest.mark.parametrize("w", RUN_WEIGHTS, ids=lambda w: f"{w.family}{w.params[-1:]}")
    def test_scaled_runs_through_zero(self, w, scale):
        # nine-index runs of steps +-1 and +-3 that start, end or cross at
        # index 0, wherever C is defined on the whole run
        c_lo, c_hi = _c_limits(w)
        ramp = np.arange(64, dtype=np.float64)
        for step in (-3, -1, 1, 3):
            for k0 in (0, 4, 8):
                idx = step * (np.arange(9) - k0)
                if idx.min() < c_lo or idx.max() > c_hi:
                    continue
                want = w.cum_run(int(idx[0]), step, ramp, np.empty(9)) * scale
                got = w.cum_run(int(idx[0]), step, ramp, np.empty(9), scale)
                assert got.tobytes() == want.tobytes(), (step, k0)
                assert got[k0] == 0.0 and np.signbit(got[k0]) == (scale < 0)

    def test_empty_run(self):
        out = np.zeros(0)
        for w in RUN_WEIGHTS:
            assert w.cum_run(-10**9, 1, np.zeros(0), out) is out

    @pytest.mark.parametrize("n_max", [10, 10**6, 5 * 10**6, 2 * 10**7])
    def test_forward_products_in_one_call(self, n_max):
        # E5's product-formula sample: C(n) - C(0) over the whole sample, as
        # run_e5 forms it, against one forward_log(0, n) per n
        w = WeightSeq.sqrt_ratio()
        sample = np.unique(np.geomspace(1, n_max, 200).astype(np.int64))
        want = np.array([w.forward_log(0, int(n)) for n in sample])
        assert (w.cum(sample) - w.cum(np.array([0]))).tobytes() == want.tobytes()


def _bits(v: CoefVec) -> tuple:
    return v.side, v.indices.tobytes(), v.log_mags.tobytes(), v.phases.tobytes()


# premultipliers with |pm| = 1, whose n log|pm| is +0.0, and others
PREMULTIPLIERS = [1.0, -1.0, 1j, -1j, 0.6 + 0.8j, 2.0, 0.5, -3.0 + 4.0j, 0.7j]
SPECIAL_LOG_MAGS = [-0.0, 0.0, math.inf, -math.inf, math.nan]
# lam_n = 0 (constant 0, and a table's zero entries), huge and complex
# lam_n, and a table whose domain n = 1..40 leaves n = 0 and n > 40 out
SCALINGS = [
    ScalingSeq.constant(1.0),
    ScalingSeq.constant(0.0),
    ScalingSeq.constant(-0.25 + 0.5j),
    ScalingSeq.power_of_w(1.5j),
    ScalingSeq.factorial(),
    ScalingSeq.geom_even_odd(),
    ScalingSeq.table([0.0, 2.0, -1j, 0.5 + 0.5j] * 10),
]


@st.composite
def _orbit_cases(draw):
    """A flat shift on either side (c = 1 mostly, so the product term is
    skipped), a vector, and powers n: 0, one inside the support, its last
    index and one past it. The vector's log-magnitudes are special values,
    where a sum's zero sign shows, or random doubles of magnitude up to 1,
    10, 100 or 1000, where the order of two additions shows; its phases are
    random doubles in [-10, 10], since CoefVec keeps phases as given, so a
    second wrap shows."""
    side = draw(st.sampled_from([Side.UNILATERAL, Side.BILATERAL]))
    c = draw(st.sampled_from([1.0, 1.0, 1.0, 2.0, 0.5, 1.0 + 2.0**-52]))
    T = ShiftOp(side, WeightSeq.constant(c), draw(st.sampled_from(PREMULTIPLIERS)))
    lo = 1 if side is Side.UNILATERAL else -30
    idx = sorted(draw(st.lists(st.integers(lo, 60), unique=True, max_size=40)))
    special = draw(st.lists(st.one_of(st.none(), st.sampled_from(SPECIAL_LOG_MAGS)),
                            min_size=len(idx), max_size=len(idx)))
    rnd = draw(st.randoms(use_true_random=True))
    lm = [rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(0, 3) if v is None else v for v in special]
    ph = [rnd.uniform(-10.0, 10.0) for _ in idx]
    x = CoefVec(side, np.array(idx, dtype=np.int64), np.array(lm), np.array(ph))
    last = max(idx + [1])
    ns = [0, draw(st.integers(1, last)), last, draw(st.integers(last + 1, last + 30))]
    return T, x, ns


class TestScaledOrbitPoint:
    @given(_orbit_cases())
    def test_bit_for_bit_with_the_oracles(self, case):
        # power_log_mags and power_apply against the cum formula, and the
        # one-pass orbit point against the two steps, power_apply then scale
        T, x, ns = case
        for n in ns:
            assert T.power_log_mags(n, x).tobytes() == oracles.power_log_mags(T, n, x).tobytes()
            assert _bits(T.power_apply(n, x)) == _bits(oracles.power_apply(T, n, x))
            for lam in SCALINGS:
                try:
                    want = oracles.scaled_orbit_point(lam, T, n, x)
                except SequenceDomainError as exc:
                    with pytest.raises(SequenceDomainError, match=re.escape(str(exc))):
                        scaled_orbit_point(lam, T, n, x)
                    continue
                assert _bits(scaled_orbit_point(lam, T, n, x)) == _bits(want), (lam, n)

    def test_unit_weights_only(self):
        assert WeightSeq.constant(1.0).is_unit
        for w in ALL_WEIGHTS[1:] + [WeightSeq.constant(1.0 + 2.0**-52)]:
            assert not w.is_unit, w

    def test_scaling_errors_come_first(self):
        # lam's domain error before the shift's own errors, and those before
        # the zero vector of a lam_n = 0
        uni = CoefVec.basis(Side.UNILATERAL, 2)
        bi = CoefVec.from_pairs(Side.BILATERAL, [(-5, 1.0), (3, 1.0)])
        T = ShiftOp(Side.BILATERAL, WeightSeq.constant(1.0), 2.0)
        short = ScalingSeq.table([1.0])
        with pytest.raises(SequenceDomainError):
            scaled_orbit_point(short, T, 2, uni)
        with pytest.raises(SequenceDomainError):
            scaled_orbit_point(short, T, 2**63 - 1, bi)
        zero = ScalingSeq.constant(0.0)
        with pytest.raises(SideMismatchError):
            scaled_orbit_point(zero, T, 2, uni)
        with pytest.raises(ValueError, match="int64"):
            scaled_orbit_point(zero, T, 2**63 - 1, bi)
        assert scaled_orbit_point(zero, T, 2, bi).nnz == 0

    def test_constant_scaling_power_zero(self):
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
        x = CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (2, 2.0)])
        out = scaled_orbit_point(ScalingSeq.constant(1.0), T, 0, x)
        assert to_complex_dict(out) == to_complex_dict(x)
        assert scaled_orbit_point(ScalingSeq.constant(0.0), T, 0, x).nnz == 0

    def test_complex_scalar(self):
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
        out = scaled_orbit_point(ScalingSeq.constant(-3.0), T, 0, CoefVec.basis(Side.UNILATERAL, 1))
        assert to_complex_dict(out)[1] == pytest.approx(-3.0)

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
