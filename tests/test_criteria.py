import math
import tracemalloc

import numpy as np
import pytest

import oracles

from orbitlab.criteria import (
    MRShiftCertificate,
    fhc_series_check,
    mr_invertible_check,
    mr_shift_check,
    norm_decay_check,
    orbit_norm_logs,
    salas_check,
    superratio_decay_check,
)
from orbitlab.lspace import CoefVec, Side, norm
from orbitlab.seqcore import SCAN_CHUNK, ScalingSeq
from orbitlab.shiftops import ShiftOp, WeightSeq

STEP = WeightSeq.step_bilateral()
INV_STEP = WeightSeq.inverse_step_bilateral()


class TestSalas:
    def test_step_never_passes(self):
        # backward products over indices <= 0 are identically 1
        out = salas_check(STEP, 0.5, 0, 10**4)
        assert not out
        assert out.diagnostics["best_margin"] < 0

    def test_inverse_step_passes(self):
        out = salas_check(INV_STEP, 0.5, 1, 10**4)
        assert out
        cert = out.certificate
        # closed form: forward products 2^(n-2) at j = -1, backward 2^(2-n)
        # at j = 1; strict inequalities first hold at n = 4
        assert cert.n == 4
        assert cert.verify()

    def test_unit_weights_never_pass(self):
        assert not salas_check(WeightSeq.constant(1.0), 0.9, 0, 1000)

    def test_certificate_tamper_detected(self):
        out = salas_check(INV_STEP, 0.5, 1, 100)
        c = out.certificate
        bad = MRShiftCertificate(
            c.weights, c.n, 1, c.q, c.eps,
            tuple(v + 1.0 for v in c.forward_logs), c.backward_logs,
        )
        assert not bad.verify()

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            salas_check(STEP, 1.5, 0, 100)


class TestMRShift:
    def test_inverse_step_certificate(self):
        out = mr_shift_check(INV_STEP, 3, 2, 0.1, 100)
        assert out
        cert = out.certificate
        assert cert.n <= 100
        assert cert.verify()
        assert len(cert.forward_logs) == 3 * 5

    def test_closed_form_products(self):
        # forward product over j+1 .. j+ln: each of the max(0, -j) indices
        # <= 0 contributes 1/2 instead of 2, so the log is (ln - 2*neg)*log 2
        out = mr_shift_check(INV_STEP, 2, 1, 0.25, 100)
        cert = out.certificate
        pos = 0
        for l in range(1, 3):
            for j in (-1, 0, 1):
                nneg = max(0, -j)
                want = (l * cert.n - 2 * nneg) * math.log(2.0)
                assert cert.forward_logs[pos] == pytest.approx(want, abs=1e-9)
                assert INV_STEP.forward_log(j, l * cert.n) == pytest.approx(want, abs=1e-9)
                pos += 1

    def test_step_reduces_to_salas_failure(self):
        assert not mr_shift_check(STEP, 1, 0, 0.5, 2000)

    def test_growing_weights_fail_backward(self):
        assert not mr_shift_check(WeightSeq.constant(2.0), 2, 1, 0.5, 500)

    def test_salas_is_order_one_case(self):
        out_s = salas_check(INV_STEP, 0.3, 2, 10**4)
        out_m = mr_shift_check(INV_STEP, 1, 2, 0.3, 10**4)
        assert out_s and out_m
        assert out_s.certificate.n == out_m.certificate.n

    def test_monotone_in_eps(self):
        out = mr_shift_check(INV_STEP, 2, 1, 0.1, 1000)
        cert = out.certificate
        looser = MRShiftCertificate(
            cert.weights, cert.n, cert.m, cert.q, 0.3,
            cert.forward_logs, cert.backward_logs,
        )
        assert looser.verify()

    def test_n_exceeds_2q(self):
        out = mr_shift_check(INV_STEP, 1, 10, 0.9, 10**4)
        assert out.certificate.n > 20


class TestMRInvertible:
    def test_inverse_step_threshold(self):
        ns = mr_invertible_check(INV_STEP, 2, 100, 1e3)
        # 2^n > 1000 from n = 10; every n >= 11 therefore qualifies
        assert ns[0] == 10
        assert np.array_equal(ns, np.arange(10, 101))

    def test_step_left_products_stuck_at_one(self):
        assert mr_invertible_check(STEP, 2, 100, 1e3).size == 0

    def test_unit_weights_empty(self):
        assert mr_invertible_check(WeightSeq.constant(1.0), 1, 100, 2.0).size == 0


class TestSeries:
    def test_geometric_certified(self):
        sv = fhc_series_check(WeightSeq.constant(2.0), 50)
        assert sv.kind == "converges_certified"
        assert sv.mode == "geometric"
        assert abs(sv.partial_sum - 1.0 / 3.0) <= 1e-9
        assert sv.tail_bound <= 1e-12

    def test_harmonic_diverges(self):
        sv = fhc_series_check(WeightSeq.sqrt_ratio(), 10**6, cap=12.0)
        assert sv.kind == "diverges_observed"
        assert sv.partial_sum > 12.0
        # partial sums track log N
        assert sv.partial_sum == pytest.approx(math.log(10**6) + 0.5772 - 1.0, abs=0.01)

    def test_p_series_certified(self):
        # w_n = (n+1)/n makes the products n+1, terms ~ 1/n^2
        w = WeightSeq.table([(n + 1) / n for n in range(1, 4001)])
        sv = fhc_series_check(w, 4000)
        assert sv.kind == "converges_certified"
        assert sv.mode.startswith("p_series")
        # sum of 1/(n+1)^2 -> pi^2/6 - 1
        assert sv.partial_sum == pytest.approx(math.pi**2 / 6 - 1.0, abs=1e-3)
        assert sv.partial_sum + sv.tail_bound >= math.pi**2 / 6 - 1.0

    def test_slow_divergence_inconclusive_before_cap(self):
        sv = fhc_series_check(WeightSeq.sqrt_ratio(), 10**4, cap=50.0)
        assert sv.kind == "inconclusive"

    @pytest.mark.parametrize("c", [1.5, 2.0, 3.0, 10.0])
    def test_constant_weight_sum_closed_form(self, c):
        sv = fhc_series_check(WeightSeq.constant(c), 200)
        assert sv.kind == "converges_certified"
        assert abs(sv.partial_sum - 1.0 / (c * c - 1.0)) <= 1e-9


C = SCAN_CHUNK
# horizons one before, at and one after the k-th chunk boundary of the grid
# from n = 1, whose chunks end at n = k * SCAN_CHUNK
EDGES = [k * C + d for k in (1, 2) for d in (-1, 0, 1)]
# w_n = (n+1)/n: products n+1, terms 1/(n+1)^2, a p-series with p = 2
P_SERIES = WeightSeq.table([(n + 1) / n for n in range(1, 2 * C + 2)])
SQRT_TABLE = WeightSeq.table(list(np.sqrt(np.arange(2, 2 * C + 3) / np.arange(1, 2 * C + 2))))


class TestStreamedSeries:
    """fhc_series_check streams n over the scan grid; it must equal one pass
    over whole arrays (tests/oracles.py) in every field, bit for bit."""

    @pytest.mark.parametrize("n_max", EDGES)
    @pytest.mark.parametrize("w, cap, verdict", [
        (WeightSeq.constant(2.0), 12.0, "converges_certified geometric"),
        (P_SERIES, 12.0, "converges_certified p_series"),
        (WeightSeq.sqrt_ratio(), 50.0, "inconclusive"),
        (SQRT_TABLE, 50.0, "inconclusive"),
        (WeightSeq.sqrt_ratio(), 10.0, "diverges_observed"),  # crosses at n = 33616
        (WeightSeq.constant(1.0), 6e4, "diverges_observed"),  # crosses at n = 60001
    ], ids=["geometric", "p_series", "sqrt_ratio", "sqrt_table", "diverges", "diverges_unit"])
    def test_chunk_edges(self, w, cap, verdict, n_max):
        got = fhc_series_check(w, n_max, cap=cap)
        assert f"{got.kind} {got.mode}".startswith(verdict)
        assert got == oracles.series_check(w, n_max, cap=cap)

    @pytest.mark.parametrize("at", [C, C + 1, 2 * C, 2 * C + 1])
    @pytest.mark.parametrize("w", [WeightSeq.sqrt_ratio(), SQRT_TABLE], ids=["closed", "table"])
    def test_cap_crossing_at_a_chunk_edge(self, w, at):
        # with the cap at S_{at-1}, the sums first exceed it at n = at, the
        # last slot of a chunk (C, 2C) or its first (C + 1, 2C + 1)
        cap = float(np.cumsum(np.exp(-2.0 * oracles.stored_cum(w, np.arange(1, at))))[-1])
        got = fhc_series_check(w, 2 * C + 1, cap=cap)
        assert got.crossed_cap_at == at
        assert got == oracles.series_check(w, 2 * C + 1, cap=cap)

    def test_table_range_error_names_the_horizon(self):
        with pytest.raises(ValueError, match=r"index 300000 exits the table's range \(max 131073\)"):
            fhc_series_check(P_SERIES, 300_000)


def _ramp_weights(n_max: int, drop: int) -> WeightSeq:
    """Large forward weights, and backward weights 0.999 on -(drop-1)..0 and
    1 below: the backward products fall until n = drop and then stay put, so
    the margin of every n >= drop ties at the largest value."""
    back = [1.0] * (n_max - drop + 1) + [0.999] * drop
    return WeightSeq.table(back + [1e10] * n_max, start=-n_max)


class TestStreamedProductSearch:
    """mr_shift_check stops at the chunk holding the first witness and keeps
    the first largest margin across chunks, as one pass over all n would."""

    @pytest.mark.parametrize("n_max", EDGES)
    @pytest.mark.parametrize("w, m, q, eps", [
        (STEP, 1, 0, 0.5),  # no witness: backward products stay 1
        (INV_STEP, 2, 1, 0.25),  # witness at n = 4
        (WeightSeq.constant(0.7), 2, 1, 0.5),  # no witness: forward products shrink
    ], ids=["step", "inverse_step", "contracting"])
    def test_chunk_edges(self, w, m, q, eps, n_max):
        assert mr_shift_check(w, m, q, eps, n_max) == oracles.mr_shift_check(w, m, q, eps, n_max)

    def test_witness_in_the_second_chunk(self):
        # log-weights +-a: the products first pass the threshold at n = C + 6
        n_max = 2 * C + 10
        a = math.log(1e300) / (C + 5.5)
        w = WeightSeq.table([math.exp(-a)] * n_max + [math.exp(a)] * n_max, start=1 - n_max)
        out = mr_shift_check(w, 1, 0, 1e-300, n_max)
        assert out.certificate.n == C + 6
        assert out.certificate.verify()
        assert out == oracles.mr_shift_check(w, 1, 0, 1e-300, n_max)

    @pytest.mark.parametrize("drop", [C, C + 1])
    def test_tied_best_margin_across_a_chunk_edge(self, drop):
        # the margins tie from n = drop on, across the edge after n = C;
        # the first of them is the best n
        n_max = 2 * C + 10
        w = _ramp_weights(n_max, drop)
        out = mr_shift_check(w, 1, 0, 1e-30, n_max)
        assert not out and out.diagnostics["best_n"] == drop
        assert out == oracles.mr_shift_check(w, 1, 0, 1e-30, n_max)

    def test_invertible_chunk_edges(self):
        for n_max in EDGES:
            got = mr_invertible_check(INV_STEP, 2, n_max, 1e3)
            assert got.tobytes() == oracles.mr_invertible_check(INV_STEP, 2, n_max, 1e3).tobytes()


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_check_memory():
    # E5's pass at N = 2e6 holds one chunk's arrays, not five of horizon
    # length (16 MB each)
    assert _traced_peak(fhc_series_check, WeightSeq.sqrt_ratio(), 2_000_000) < 16 * 2**20


def test_salas_check_memory():
    # E4's search at N = 2e6 holds one chunk's arrays and no product table
    assert _traced_peak(salas_check, STEP, 0.5, 0, 2_000_000) < 16 * 2**20


class TestNormDecay:
    def test_bilateral_contraction_exact_rate(self):
        T = ShiftOp(Side.BILATERAL, WeightSeq.constant(1.0), 0.9)
        rep = norm_decay_check(T, CoefVec.basis(Side.BILATERAL, 5), 200)
        assert rep.ok
        assert abs(rep.max_ratio - 1.0) <= 1e-9
        assert rep.conclusion == "not_recurrent_for_x"

    def test_scaled_inverse_premultiplier(self):
        w = 0.25**-0.5  # |w| = 2, T = (1/w)B has norm 1/2
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 1.0 / w)
        rep = norm_decay_check(T, CoefVec.basis(Side.UNILATERAL, 5), 4)
        assert rep.ok and rep.rate_log == pytest.approx(math.log(0.5))

    def test_expanding_operator_rejected(self):
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
        with pytest.raises(ValueError):
            norm_decay_check(T, CoefVec.basis(Side.UNILATERAL, 1), 10)


class TestSuperratioDecay:
    def setup_method(self):
        self.T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
        self.x = CoefVec.from_pairs(Side.UNILATERAL, [(i, 1.0) for i in range(1, 11)])

    def test_inverse_factorial_bound(self):
        lam = ScalingSeq.inverse(ScalingSeq.factorial())
        rep = superratio_decay_check(lam, self.T, self.x, 500)
        assert rep.ok
        assert rep.n_o == 3  # ratios n+1 exceed 1 + |T| = 3 from n = 3
        assert rep.details["norms_vanish"]

    def test_factorial_wrong_direction(self):
        with pytest.raises(ValueError):
            superratio_decay_check(ScalingSeq.factorial(), self.T, self.x, 500)

    def test_constant_scaling_rejected(self):
        with pytest.raises(ValueError):
            superratio_decay_check(ScalingSeq.constant(1.0), self.T, self.x, 500)


class TestOrbitNormLogs:
    def test_matches_direct_norms(self):
        # against the norms of power_apply, and bit for bit against weight
        # products formed directly (oracles.orbit_norm_logs): every weight
        # family, both sides where the weights allow, n = 0 included
        rng = np.random.default_rng(19)
        ns = np.arange(0, 200, dtype=np.int64)
        for w in (WeightSeq.constant(0.7), WeightSeq.sqrt_ratio(),
                  WeightSeq.step_bilateral(), WeightSeq.inverse_step_bilateral(),
                  WeightSeq.table([0.5, 1.5, 2.0, 1.0, 0.25, 3.0] * 120, start=-300)):
            for side in [Side.UNILATERAL] + ([Side.BILATERAL] if w.bilateral_ok else []):
                lo = 1 if side is Side.UNILATERAL else -60
                for pm in (0.5, 1.3 - 0.4j):
                    T = ShiftOp(side, w, pm)
                    x = CoefVec.from_pairs(
                        side,
                        [(int(i), complex(rng.normal(), rng.normal()))
                         for i in np.unique(rng.integers(lo, 150, size=40))],
                    )
                    logs = orbit_norm_logs(T, x, ns)
                    want = oracles.orbit_norm_logs(T, x, ns)
                    assert np.array_equal(logs.view(np.int64), want.view(np.int64))
                    for t, n in enumerate(ns):
                        direct = norm(T.power_apply(int(n), x))
                        if direct == 0.0:
                            assert logs[t] == -np.inf
                        else:
                            assert logs[t] == pytest.approx(math.log(direct), abs=1e-9)
