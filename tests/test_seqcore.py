import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import wrap_phase_formula
from orbitlab.expcli import SCALING
from orbitlab.seqcore import (
    AngleSpec,
    LogScalar,
    ScalingSeq,
    SequenceDomainError,
    eval_log,
    eval_log_mags,
    log_mul,
    ratio_classify,
    rotate_seq,
    wrap_phase,
)

LN2 = math.log(2.0)


def isclose(a: LogScalar, b: LogScalar, tol: float = 1e-12) -> bool:
    if a.zero or b.zero:
        return a.zero and b.zero
    return abs(a.log_mag - b.log_mag) <= tol and abs(wrap_phase(a.phase - b.phase)) <= tol


PI_NEIGHBOURS = [np.nextafter(s * math.pi, t) for s in (-1.0, 1.0) for t in (-math.inf, math.inf)]
EDGE_ANGLES = [math.pi, -math.pi, *PI_NEIGHBOURS, 0.0, -0.0, math.nan, math.inf, -math.inf,
               1e300, -1e300, 2 * math.pi, -2 * math.pi, 3 * math.pi, 5e-324]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder")
class TestWrapPhase:
    """wrap_phase skips np.remainder when every pi - theta is in [0, 2 pi);
    its result must still be pi - remainder(pi - theta, 2 pi) bit for bit."""

    def test_edge_angles(self):
        theta = np.array(EDGE_ANGLES)
        assert _bits(wrap_phase(theta)) == _bits(wrap_phase_formula(theta))
        for t in EDGE_ANGLES:
            one = np.array([t])
            assert _bits(wrap_phase(one)) == _bits(wrap_phase_formula(one))
            assert _bits(wrap_phase(np.array(t))) == _bits(wrap_phase_formula(t))
            if math.isfinite(t):
                assert _bits(wrap_phase(t)) == _bits(wrap_phase_formula(t))

    def test_empty(self):
        assert wrap_phase(np.zeros(0)).shape == (0,)

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 300),
                      elements=st.one_of(st.floats(-math.pi, math.pi),
                                         st.floats(allow_nan=True, allow_infinity=True),
                                         st.sampled_from(EDGE_ANGLES))))
    def test_arrays_mixing_in_and_out_of_range(self, theta):
        assert _bits(wrap_phase(theta)) == _bits(wrap_phase_formula(theta))
        in_range = theta[np.abs(theta) <= math.pi]
        assert _bits(wrap_phase(in_range)) == _bits(wrap_phase_formula(in_range))

    @given(st.floats(allow_nan=True, allow_infinity=False))
    def test_scalars(self, t):
        assert _bits(wrap_phase(t)) == _bits(wrap_phase_formula(t))


class TestLogScalar:
    def test_identity(self):
        s = LogScalar(3.7, 1.2)
        assert log_mul(LogScalar.one(), s) == s

    def test_exact_log_addition(self):
        s = LogScalar(2.0**10 * LN2, 0.0)
        p = log_mul(s, s)
        assert p.log_mag == 2.0**11 * LN2
        assert p.phase == 0.0

    def test_zero_absorbs(self):
        z = LogScalar(zero=True)
        assert log_mul(z, LogScalar(5.0, 1.0)).zero
        assert log_mul(LogScalar(5.0, 1.0), z).zero
        assert z.phase == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            lm = rng.uniform(-700, 700)
            ph = rng.uniform(-math.pi, math.pi)
            z = LogScalar(lm, ph).to_complex()
            back = LogScalar.from_complex(z)
            assert abs(back.log_mag - lm) <= 1e-12 * max(1.0, abs(lm))
            assert abs(wrap_phase(back.phase - ph)) <= 1e-12

    def test_mul_assoc_comm(self):
        rng = np.random.default_rng(11)
        for _ in range(10**4):
            a, b, c = (
                LogScalar(rng.uniform(-1e6, 1e6), rng.uniform(-10, 10))
                for _ in range(3)
            )
            ab_c = log_mul(log_mul(a, b), c)
            a_bc = log_mul(a, log_mul(b, c))
            assert abs(ab_c.log_mag - a_bc.log_mag) <= 1e-12 * max(1, abs(ab_c.log_mag))
            assert abs(wrap_phase(ab_c.phase - a_bc.phase)) <= 1e-12
            ba = log_mul(b, a)
            ab = log_mul(a, b)
            assert ab.log_mag == ba.log_mag and ab.phase == ba.phase

    def test_phase_canonical_interval(self):
        assert LogScalar(0.0, -math.pi).phase == math.pi
        assert LogScalar(0.0, 3 * math.pi).phase == pytest.approx(math.pi)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            LogScalar(800.0, 0.0).to_complex()


class TestEvalLog:
    def test_factorial(self):
        assert eval_log(ScalingSeq.factorial(), 5).log_mag == pytest.approx(
            math.log(120), abs=1e-12
        )

    def test_factorial_increment_exact(self):
        # consecutive log-factorial differences recover log(n+1); absolute
        # accuracy is ulp-limited near lgamma(1e5) ~ 1.15e6, so the 1e-10
        # contract is relative
        seq = ScalingSeq.factorial()
        n = np.arange(1, 10**5 + 1, dtype=np.int64)
        lm = eval_log_mags(seq, n)
        inc = lm[1:] - lm[:-1]
        want = np.log(n[1:].astype(float))
        assert np.max(np.abs(inc - want) / want) <= 1e-10

    def test_dyadic_tower(self):
        # n = 6 sits in the block [4, 8), so lam_6 = 2**(2**3) = 256
        assert eval_log(ScalingSeq.dyadic_tower(), 6).log_mag == pytest.approx(
            2**3 * LN2, abs=1e-12
        )
        assert eval_log(ScalingSeq.dyadic_tower(), 1).log_mag == pytest.approx(
            2 * LN2
        )

    def test_power_of_w_ratio(self):
        a = 0.3 - 0.1j
        w = a ** -0.5
        seq = ScalingSeq.power_of_w(w)
        for n in (1, 5, 17):
            r = log_mul(eval_log(seq, n), eval_log(seq, n + 1).inverse())
            assert abs(r.to_complex() - a) <= 1e-12

    def test_geom_even_odd(self):
        seq = ScalingSeq.geom_even_odd()
        vals = [eval_log(seq, n).log_mag / LN2 for n in range(1, 7)]
        assert vals == pytest.approx([0, 1, 1, 2, 2, 3])

    def test_domain_errors(self):
        with pytest.raises(SequenceDomainError):
            eval_log(ScalingSeq.log_pow(1.0), 1)
        with pytest.raises(SequenceDomainError):
            eval_log(ScalingSeq.log_log(), 2)
        with pytest.raises(SequenceDomainError):
            eval_log(ScalingSeq.table([1.0, 2.0]), 3)

    def test_rational_poly_guard(self):
        with pytest.raises(ValueError):
            ScalingSeq.rational_poly([1.0], [-2.0, 1.0])  # root at n = 2
        seq = ScalingSeq.rational_poly([1.0, 1.0], [2.0, 1.0])  # (n+1)/(n+2)
        assert eval_log(seq, 1).log_mag == pytest.approx(math.log(2 / 3))

    def test_inverse(self):
        seq = ScalingSeq.inverse(ScalingSeq.factorial())
        assert eval_log(seq, 5).log_mag == pytest.approx(-math.log(120), abs=1e-12)

    def test_scalar_vector_paths_agree(self):
        seqs = [
            ScalingSeq.constant(1.5 - 2j),
            ScalingSeq.log_pow(2.0),
            ScalingSeq.log_log(),
            ScalingSeq.rational_poly([1.0, 2j], [3.0, 0, 1.0]),
            ScalingSeq.exp_pow(0.7),
            ScalingSeq.exp_over_log(),
            ScalingSeq.exp_over_log_log(),
            ScalingSeq.factorial(),
            ScalingSeq.geom_even_odd(),
            ScalingSeq.dyadic_tower(),
            ScalingSeq.power_of_w(0.8 + 0.6j),
            ScalingSeq.geom_inverse(2j),
            ScalingSeq.inverse(ScalingSeq.factorial()),
            rotate_seq(ScalingSeq.exp_pow(0.5), AngleSpec("linear", 0.3)),
        ]
        from orbitlab.seqcore import eval_at

        rng = np.random.default_rng(55)
        for seq in seqs:
            ns = np.unique(rng.integers(max(1, seq.min_n), 5000, size=30))
            lm, ph, zero = eval_at(seq, ns.astype(np.int64))
            for t, n in enumerate(ns):
                s = eval_log(seq, int(n))
                assert not zero[t] and not s.zero
                assert s.log_mag == pytest.approx(float(lm[t]), abs=1e-12)
                assert abs(wrap_phase(s.phase - float(ph[t]))) <= 1e-12

    def test_config_round_trip(self):
        seqs = [
            ScalingSeq.constant(2j),
            ScalingSeq.log_pow(-1.0),
            ScalingSeq.exp_pow(0.5),
            ScalingSeq.power_of_w(1.5 + 0.5j),
            ScalingSeq.inverse(ScalingSeq.factorial()),
            ScalingSeq.table([1.0, 2.0, 3.0]),
        ]
        for s in seqs:
            back = SCALING.read(s.to_config())
            n = max(1, back.min_n)
            assert isclose(eval_log(back, n), eval_log(s, n))


class TestRotateSeq:
    def test_zero_angle_identity(self):
        seq = ScalingSeq.exp_pow(0.5)
        rot = rotate_seq(seq, 0.0)
        for n in (1, 10, 100):
            assert isclose(eval_log(rot, n), eval_log(seq, n))

    def test_pi_flips_sign(self):
        rot = rotate_seq(ScalingSeq.constant(1.0), math.pi)
        for n in (1, 2, 7):
            assert abs(eval_log(rot, n).to_complex() - (-1.0)) <= 1e-15

    def test_modulus_preserved(self):
        seq = ScalingSeq.factorial()
        rot = rotate_seq(seq, AngleSpec("linear", 2.399963))
        n = np.arange(1, 10**4 + 1, dtype=np.int64)
        assert np.array_equal(eval_log_mags(rot, n), eval_log_mags(seq, n))

    def test_ratio_invariant_under_rotation(self):
        seq = ScalingSeq.exp_pow(0.9)
        rot = rotate_seq(seq, AngleSpec("linear", 1.0))
        v1 = ratio_classify(seq, 1, N=10**5)
        v2 = ratio_classify(rot, 1, N=10**5)
        assert v1.kind == v2.kind and v1.evidence == v2.evidence


class TestRatioClassify:
    def test_factorial_bad_zero(self):
        v = ratio_classify(ScalingSeq.factorial(), 1, N=10**4)
        assert v.is_bad and v.limit == 0.0

    def test_log_good(self):
        v = ratio_classify(ScalingSeq.log_pow(1.0), 1, N=10**6, tol=1e-4)
        assert v.is_good

    def test_log_log_good(self):
        assert ratio_classify(ScalingSeq.log_log(), 1, N=10**6).is_good

    def test_exp_over_log_log_good(self):
        v = ratio_classify(ScalingSeq.exp_over_log_log(), 1, N=10**6)
        assert v.is_good
        assert "trend" in v.note  # converges too slowly for the raw window

    def test_exp_bad_inverse_e(self):
        v = ratio_classify(ScalingSeq.exp_pow(1.0), 1, N=10**5)
        assert v.is_bad
        assert v.limit == pytest.approx(1 / math.e, rel=1e-9)

    def test_power_of_w_grid(self):
        # |w| != 1 always classifies bad with limit |w|^-2
        for mod in np.linspace(0.2, 5.0, 20):
            if abs(mod - 1.0) < 1e-9:
                continue
            w = mod * cmath.exp(0.7j)
            v = ratio_classify(ScalingSeq.power_of_w(w), 1, N=10**4)
            assert v.is_bad, mod
            assert v.limit == pytest.approx(mod**-2, rel=1e-6)

    def test_unimodular_power_good(self):
        v = ratio_classify(ScalingSeq.power_of_w(cmath.exp(1j)), 1, N=10**4)
        assert v.is_good

    def test_oscillating_inconclusive(self):
        v = ratio_classify(ScalingSeq.geom_even_odd(), 1, N=10**5)
        assert v.kind == "inconclusive"

    def test_restricted_scan(self):
        v = ratio_classify(ScalingSeq.geom_even_odd(), 1, N=10**5, restrict=(2, 0))
        assert v.is_good

    def test_tau_dependence(self):
        # lam alternating 1, 2, 1, 2 ... has ratio limit 1 along tau = 2
        vals = [1.0 if n % 2 else 2.0 for n in range(1, 2001)]
        seq = ScalingSeq.table(vals)
        assert ratio_classify(seq, 2, N=1800).is_good
        assert ratio_classify(seq, 1, N=1800).kind == "inconclusive"

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            ratio_classify(ScalingSeq.factorial(), 7, N=500)
