import cmath
import functools
import itertools
import math
import struct
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln

import oracles
from oracles import wrap_phase_formula
from orbitlab import expcli, seqcore
from orbitlab.expcli import ANGLE, SCALING, WEIGHTS
from orbitlab.seqcore import (
    SCAN_CHUNK,
    AngleSpec,
    LogScalar,
    ScalingSeq,
    SequenceDomainError,
    eval_at,
    eval_log,
    eval_log_mags,
    log_mul,
    ratio_classify,
    rotate_seq,
    wrap_phase,
)
from orbitlab.lspace import CoefVec, Side
from orbitlab.shiftops import ShiftOp, WeightSeq, scaled_orbit_point
from test_reachability import _family_config

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
        assert log_mul(LogScalar(), s) == s

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
        assert z.to_complex() == 0j

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            lm = rng.uniform(-700, 700)
            ph = rng.uniform(-math.pi, math.pi)
            z = LogScalar(lm, ph).to_complex()
            back = oracles.log_scalar(z)
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

    @pytest.mark.parametrize("seq, zeros", [
        (ScalingSeq.table([1.0, 0.0, 2j, 0.0, -0.5]), [2, 4]),
        (ScalingSeq.rational_poly([-3.0, 1.0], [1.0]), [3]),  # n - 3
    ], ids=["table", "rational_poly"])
    def test_log_mags_of_zeros(self, seq, zeros):
        # a scaling that vanishes at scanned times: -inf there, and the
        # log-magnitudes eval_at gives everywhere else
        n = np.arange(1, 6, dtype=np.int64)
        lm = eval_log_mags(seq, n)
        want, _, zero = eval_at(seq, n)
        assert n[zero].tolist() == zeros
        assert np.all(lm[zero] == -np.inf)
        assert lm[~zero].tobytes() == want[~zero].tobytes()

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

    def test_zero_of_a_scaling(self):
        # lam_n = n - 3 vanishes at n = 3: the zero scalar, and a zero orbit
        # point there, whatever x is
        seq = ScalingSeq.rational_poly([-3.0, 1.0], [1.0])
        assert eval_log(seq, 3) == LogScalar(zero=True)
        T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(2.0))
        x = CoefVec.from_pairs(Side.UNILATERAL, [(5, 1.0), (9, 0.5j)])
        y = scaled_orbit_point(seq, T, 3, x)
        assert (y.side, y.nnz) == (Side.UNILATERAL, 0)
        assert scaled_orbit_point(seq, T, 4, x).nnz == 2

    def test_tables_evaluate_any_part_alike(self):
        # a table is read only over the span the times ask for; any part of
        # the times gives the same bits as the whole array
        rng = np.random.default_rng(3)
        vals = [complex(a, b) for a, b in rng.normal(size=(500, 2))] + [0j, 2.0]
        angles = AngleSpec("table", list(rng.uniform(-9, 9, size=len(vals))))
        n = np.arange(1, len(vals) + 1, dtype=np.int64)
        for seq in (ScalingSeq.table(vals), rotate_seq(ScalingSeq.table(vals), angles)):
            whole = eval_at(seq, n)
            for part in (n[200:263], n[-2:], rng.permutation(n)[:40], n[[7, 7, 3]]):
                got = eval_at(seq, part)
                for g, w in zip(got, whole):
                    assert g.tobytes() == w[part - 1].tobytes()
        assert angles.angles(np.zeros(0, dtype=np.int64)).shape == (0,)
        with pytest.raises(SequenceDomainError):
            angles.angles(np.array([3, len(vals) + 1]))
        with pytest.raises(SequenceDomainError):
            angles.angles(np.array([0, 3]))

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

    def test_family_configs_build_the_classmethod_sequences(self):
        """A literal config of every scaling family, angle kind and weights
        family reads to the object its constructor builds, bit for bit."""
        assert SCALING_CONFIGS.keys() == SCALING.families.keys()
        assert ANGLE_CONFIGS.keys() == ANGLE.families.keys()
        assert WEIGHTS_CONFIGS.keys() == WEIGHTS.families.keys()
        seqs = [(SCALING.read({"family": f, **cfg}), want)
                for f, (cfg, want) in SCALING_CONFIGS.items()]
        seqs += [(rotate_seq(ROTATED_BASE, ANGLE.read({"kind": k, **cfg})),
                  rotate_seq(ROTATED_BASE, want)) for k, (cfg, want) in ANGLE_CONFIGS.items()]
        for got, want in seqs:
            lo = max(1, want.min_n)
            n = np.arange(lo, lo + 5, dtype=np.int64)
            for a, b in zip(eval_at(got, n), eval_at(want, n)):
                assert _bits(a) == _bits(b), want
        idx = np.arange(0, 5, dtype=np.int64)
        for f, (cfg, want) in WEIGHTS_CONFIGS.items():
            got = WEIGHTS.read({"family": f, **cfg})
            assert got == want
            assert _bits(got.cum(idx)) == _bits(want.cum(idx)), f


# one literal config per family row (the tag aside) and what its constructor
# builds; each table covers the points the test evaluates
SCALING_CONFIGS = {
    "constant": ({"c": [0.0, 2.0]}, ScalingSeq.constant(2j)),
    "log_pow": ({"k": -1.0}, ScalingSeq.log_pow(-1.0)),
    "log_log": ({}, ScalingSeq.log_log()),
    "rational_poly": ({"p": [1.0, [0.0, 2.0]], "q": [3.0, 0.0, 1.0]},
                      ScalingSeq.rational_poly([1.0, 2j], [3.0, 0.0, 1.0])),
    "exp_pow": ({"a": 0.5}, ScalingSeq.exp_pow(0.5)),
    "exp_over_log": ({}, ScalingSeq.exp_over_log()),
    "exp_over_log_log": ({}, ScalingSeq.exp_over_log_log()),
    "factorial": ({}, ScalingSeq.factorial()),
    "geom_even_odd": ({}, ScalingSeq.geom_even_odd()),
    "dyadic_tower": ({}, ScalingSeq.dyadic_tower()),
    "power_of_w": ({"w": [1.5, 0.5]}, ScalingSeq.power_of_w(1.5 + 0.5j)),
    "geom_inverse": ({"a": [0.0, 2.0]}, ScalingSeq.geom_inverse(2j)),
    "table": ({"values": [1.0, [2.0, 1.0], 3.0, [0.0, -1.0], 0.5]},
              ScalingSeq.table([1.0, 2.0 + 1.0j, 3.0, -1.0j, 0.5])),
    "inverse": ({"base": {"family": "factorial"}}, ScalingSeq.inverse(ScalingSeq.factorial())),
    "rotated": ({"base": {"family": "exp_pow", "a": 0.5},
                 "theta": {"kind": "linear", "value": 0.3}},
                rotate_seq(ScalingSeq.exp_pow(0.5), AngleSpec("linear", 0.3))),
}

ROTATED_BASE = ScalingSeq.power_of_w(0.8 + 0.6j)
ANGLE_CONFIGS = {
    "constant": ({"value": 0.7}, AngleSpec("constant", 0.7)),
    "linear": ({"value": 0.3}, AngleSpec("linear", 0.3)),
    "table": ({"value": [0.1, -0.2, 3.0, 4.0, -3.5]},
              AngleSpec("table", (0.1, -0.2, 3.0, 4.0, -3.5))),
}

WEIGHTS_CONFIGS = {
    "constant_w": ({"c": 0.5}, WeightSeq.constant(0.5)),
    "sqrt_ratio": ({}, WeightSeq.sqrt_ratio()),
    "step_bilateral": ({}, WeightSeq.step_bilateral()),
    "inverse_step_bilateral": ({}, WeightSeq.inverse_step_bilateral()),
    "table_w": ({"values": [0.5, 2.0, 1.5, 3.0]}, WeightSeq.table([0.5, 2.0, 1.5, 3.0])),
}


def _gammaln_bits(x: np.ndarray) -> bytes:
    return gammaln(x).tobytes()


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in x.tolist()])


class _CountingMath:
    """Stands in for ``seqcore.math``: counts its log calls."""

    def __init__(self):
        self.calls = 0

    def log(self, v):
        self.calls += 1
        return math.log(v)


# lgam's branch edges: the recurrence below 13, the 1/x^2 polynomial below
# 1000, Stirling's series to 1e8 and no correction above
LGAM_EDGES = [1.0, 2.0, 12.0, 13.0, 14.0, 999.0, 1000.0, 1001.0, 1e8 - 1, 1e8, 1e8 + 1]


class TestLgam:
    """The factorial family's port of cephes lgam against scipy's gammaln,
    which evaluates lgam, and its screened log against libm's log."""

    def test_every_n_to_2_20(self):
        x = np.arange(0, 2**20 + 1, dtype=np.int64).astype(np.float64) + 1.0
        assert seqcore._lgam(x).tobytes() == _gammaln_bits(x)

    @given(st.lists(st.integers(0, 2**31), min_size=1, max_size=64))
    def test_drawn_n_to_2_31(self, ns):
        x = np.array(ns, dtype=np.int64).astype(np.float64) + 1.0
        assert seqcore._lgam(x).tobytes() == _gammaln_bits(x)

    @pytest.mark.parametrize("x", LGAM_EDGES)
    def test_branch_edge(self, x):
        x = np.array([x])
        assert seqcore._lgam(x).tobytes() == _gammaln_bits(x)

    def test_branch_edges_in_any_block(self):
        # the edges mixed into one block, and spread over several blocks
        # among Stirling-series lanes
        rng = np.random.default_rng(5)
        edges = np.array(LGAM_EDGES)
        spread = rng.permutation(np.concatenate(
            [edges, np.arange(2e6, 2e6 + 3 * seqcore._LGAM_BLOCK)]))
        for x in (edges, spread, spread[::-1].copy()):
            assert seqcore._lgam(x).tobytes() == _gammaln_bits(x)

    def test_eval_at_is_lgam(self):
        n = np.array([0, 5, 11, 12, 999, 10**6, 2**40], dtype=np.int64)
        lm, _, _ = eval_at(ScalingSeq.factorial(), n)
        assert lm.tobytes() == _gammaln_bits(n.astype(np.float64) + 1.0)

    def test_share_of_lanes_through_libm(self, monkeypatch):
        # the screen sends about 4% of the lanes, those whose estimate lies
        # near a rounding midpoint, to math.log
        x = np.arange(1e6, 1e6 + SCAN_CHUNK)
        seqcore._ln_tables()
        counting = _CountingMath()
        monkeypatch.setattr(seqcore, "math", counting)
        assert seqcore._lgam(x).tobytes() == _gammaln_bits(x)
        assert 0.02 * x.size < counting.calls < 0.06 * x.size

    def test_every_lane_through_libm(self, monkeypatch):
        # an error bound of 1 fails the screen on every lane
        x = np.arange(1e6, 1e6 + 2 * seqcore._LGAM_BLOCK + 7)
        seqcore._ln_tables()
        counting = _CountingMath()
        monkeypatch.setattr(seqcore, "math", counting)
        monkeypatch.setattr(seqcore, "_LN_ERR", 1.0)
        assert seqcore._lgam(x).tobytes() == _gammaln_bits(x)
        assert counting.calls == x.size

    def test_screened_log_at_chosen_points(self):
        # integers, and the 200 doubles around each e^(2^k), among which the
        # estimate's head is a power of two, whose lanes go to libm
        near_pow2 = [np.arange(-100, 100) + np.float64(math.exp(2.0**k)).view(np.int64)
                     for k in range(-4, 10)]
        x = np.concatenate([np.arange(1.0, 2e5), np.arange(2**40, 2**40 + 1e4),
                            2.0 ** np.arange(63), 2.0 ** np.arange(1, 63) - 1,
                            np.concatenate(near_pow2).view(np.float64)])
        got = seqcore._blockwise(seqcore._ln_block, x)
        assert got.tobytes() == _libm_log(x).tobytes()

    @given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(
        min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True)))
    def test_screened_log_at_any_double(self, x):
        got = seqcore._blockwise(seqcore._ln_block, x)
        assert got.tobytes() == _libm_log(x).tobytes()

    @given(hnp.arrays(np.float64, st.integers(1, 32), elements=st.floats(
        min_value=2.2250738585072014e-308, max_value=1.7976931348623157e308)))
    def test_estimate_within_its_bound(self, x):
        k = x.size
        s, t = np.empty(k), np.empty(k)
        seqcore._ln_dd(x, s, t, (np.empty(k, np.int64), np.empty(k), np.empty(k),
                                 np.empty(k, complex)))
        assert np.array_equal(s + t, s)
        with mpmath.workprec(200):
            for v, a, b in zip(x.tolist(), s.tolist(), t.tolist()):
                err = mpmath.mpf(a) + mpmath.mpf(b) - mpmath.log(mpmath.mpf(v))
                assert abs(err) <= mpmath.mpf(seqcore._LN_ERR)

    def test_tables(self):
        ln2_lo, ln_c, small = seqcore._ln_tables()
        k = 1 << seqcore._LN_BITS
        assert ln_c.shape == (k,)
        with mpmath.workprec(200):
            ln2 = mpmath.log(2)
            # _LN2_HI < 1 has at most 42 bits, so e * _LN2_HI is exact for |e| < 2^11
            assert (seqcore._LN2_HI * 2**42).is_integer()
            assert abs(mpmath.mpf(seqcore._LN2_HI) + mpmath.mpf(ln2_lo) - ln2) <= 2.0**-96
            for i, v in enumerate(ln_c.tolist()):
                want = mpmath.log(1 + (mpmath.mpf(i) + 0.5) / k)
                assert abs(mpmath.mpf(v.real) + mpmath.mpf(v.imag) - want) <= 2.0**-105
        assert small.tolist() == [math.log(float(math.factorial(j))) for j in range(12)]


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

    def test_angle_is_a_spec_or_a_number(self):
        # a per-n callable would need a Python loop and could not be written
        # back to a config
        with pytest.raises(TypeError, match="AngleSpec"):
            rotate_seq(ScalingSeq.constant(1.0), lambda n: 0.5 * n)


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

    @pytest.mark.parametrize("tau", [1, 2])
    @pytest.mark.parametrize("seq", [
        ScalingSeq.constant(2.0 - 1.0j),
        ScalingSeq.constant(0.0),
        ScalingSeq.log_pow(1.5),
        ScalingSeq.log_log(),
        ScalingSeq.rational_poly([1.0, 2.0, 1.0j], [3.0, 1.0]),
        ScalingSeq.rational_poly([-300.0, 1.0], [1.0]),
        ScalingSeq.exp_pow(0.7),
        ScalingSeq.exp_over_log(),
        ScalingSeq.exp_over_log_log(),
        ScalingSeq.factorial(),
        ScalingSeq.geom_even_odd(),
        ScalingSeq.dyadic_tower(),
        ScalingSeq.power_of_w(1.1 * cmath.exp(0.3j)),
        ScalingSeq.geom_inverse(0.9j),
        ScalingSeq.table([1.0 if n % 3 else 2.0 - 1.0j for n in range(1, 4003)]),
        ScalingSeq.inverse(ScalingSeq.log_pow(2.0)),
        rotate_seq(ScalingSeq.exp_pow(0.5), AngleSpec("linear", 0.7)),
    ], ids=lambda s: s.family)
    def test_one_evaluation_matches_two(self, seq, tau):
        # the window lo..N and its shift by tau are read from one eval_at
        # over lo..N+tau; restrict=(1, 0) keeps every n and evaluates the
        # two separately, as the classifier did before: same verdict, field
        # by field (repr tells -0.0 and nan apart)
        for N in (400, 4000):
            one = ratio_classify(seq, tau, N=N)
            two = ratio_classify(seq, tau, N=N, restrict=(1, 0))
            assert repr(one) == repr(two)

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            ratio_classify(ScalingSeq.factorial(), 7, N=500)


def _float_bits(x):
    return None if x is None else (type(x), struct.pack("<d", x))


def _outcome(classify, *args, **kwargs):
    """A verdict field by field, floats by their bits, or the error raised."""
    try:
        v = classify(*args, **kwargs)
    except (ArithmeticError, ValueError, Warning) as e:
        return type(e), str(e)
    return (v.kind, v.tau, _float_bits(v.limit), tuple(map(_float_bits, v.evidence)),
            v.window, v.note)


RESTRICTS = [None, (2, 0), (2, 1), (3, 2)]


def _sign_flip_table() -> list[float]:
    """|lam_n| for N = 500 whose log-ratio is 1, -2 and 10 over the three
    anchor blocks: their means grow in size, but the trend changes sign."""
    lm, out = 0.0, []
    for n in range(1, 506):
        out.append(math.exp(lm))
        lm -= 1.0 if n <= 270 else -2.0 if 330 <= n <= 380 else 10.0 if n >= 470 else 0.0
    return out


# one sequence per row of the scaling table, built as the reachability test
# builds it, then the literal config of each row, then sequences that reach
# every rung of the ladder
RATIO_SEQS = {
    **{f"row-{name}": SCALING.read(_family_config(expcli, SCALING, name))
       for name in expcli.SCALING_FAMILIES},
    **{f"literal-{name}": want for name, (_, want) in SCALING_CONFIGS.items()},
    "exp_pow-1": ScalingSeq.exp_pow(1.0),
    "exp_pow-0.7": ScalingSeq.exp_pow(0.7),
    "log_pow-1.5": ScalingSeq.log_pow(1.5),
    "power_of_w-1.1": ScalingSeq.power_of_w(1.1 * cmath.exp(0.3j)),
    "power_of_w-unimodular": ScalingSeq.power_of_w(cmath.exp(1j)),
    "geom_inverse-0.9j": ScalingSeq.geom_inverse(0.9j),
    "rational_poly-zero": ScalingSeq.rational_poly([-3001.0, 1.0], [1.0]),
    "table-period-3": ScalingSeq.table([1.0 if n % 3 else 2.0 - 1.0j for n in range(1, 40_003)]),
    # |lam_n| = 1/log(n + 1) has a shrinking trend, broken by one NaN
    "table-nan": ScalingSeq.table([math.nan if n == 3100 else 1.0 / math.log(n + 1)
                                   for n in range(1, 20_006)]),
    "table-sign-flip": ScalingSeq.table(_sign_flip_table()),
    "inverse-log_pow": ScalingSeq.inverse(ScalingSeq.log_pow(2.0)),
    "rotated-linear": rotate_seq(ScalingSeq.exp_pow(0.5), AngleSpec("linear", 0.7)),
    # log-ratios log|a| at and one ulp beside log1p(0.3), log1p(-0.3) and
    # log1p(2): the pieces the expm1 band leaves to expm1 at tol 0.3 and 2.0
    **{f"geom_inverse-{a!r}": ScalingSeq.geom_inverse(a)
       for v in (1.3, 0.7, 3.0) for a in (math.nextafter(v, 0.0), v, math.nextafter(v, 4.0))},
}


def _block_edges(N: int, restrict) -> list[int]:
    """The positions in the window of each anchor block's first and last
    member, as the whole-window classifier picks the blocks."""
    ns = np.arange(N // 2, N + 1, dtype=np.int64)
    if restrict is not None:
        ns = ns[ns % restrict[0] == restrict[1] % restrict[0]]
    nsf = ns.astype(np.float64)
    centers = (nsf[0], math.sqrt(nsf[0] * nsf[-1]), nsf[-1])
    out = []
    for c in centers:
        sel = np.flatnonzero((nsf >= c * (1.0 - 0.05)) & (nsf <= c * (1.0 + 0.05)))
        out += [int(sel[0]), int(sel[-1])]
    return out


@functools.cache
def _edge_horizons(restrict, chunk: int) -> list[int]:
    """For each anchor block, the least horizons N >= 800 at which its first
    member is the first of a piece of ``chunk`` members, and at which its
    last member is the last of one."""
    return sorted({next(N for N in itertools.count(800)
                        if _block_edges(N, restrict)[k] % chunk == (chunk - 1) * (k % 2))
                   for k in range(6)})


class TestRatioOracle:
    """The streamed classifier against the whole-window pass it replaced
    (``oracles.ratio_classify``): the same verdict, field by field with
    floats by their bits, or the same error type and message."""

    @pytest.mark.parametrize("name", list(RATIO_SEQS))
    def test_one_chunk(self, name):
        seq = RATIO_SEQS[name]
        for tau in (1, 2, 5):
            for restrict in RESTRICTS:
                for N in (500, 4000, 20_000):
                    for tol in (1e-4, 0.3, 1.0, 2.0):
                        args = (seq, tau, N, tol, restrict)
                        assert _outcome(ratio_classify, *args) == \
                            _outcome(oracles.ratio_classify, *args), (tau, restrict, N, tol)

    @pytest.mark.parametrize("name", list(RATIO_SEQS))
    def test_chunk_edges(self, name, monkeypatch):
        # pieces of 16 members, at horizons where each anchor block's first
        # member is a piece's first or its last member a piece's last
        monkeypatch.setattr(seqcore, "SCAN_CHUNK", 16)
        seq = RATIO_SEQS[name]
        for restrict in RESTRICTS:
            for N in _edge_horizons(restrict, 16):
                args = (seq, 2, N, 1e-4, restrict)
                assert _outcome(ratio_classify, *args) == \
                    _outcome(oracles.ratio_classify, *args), (restrict, N)

    @pytest.mark.parametrize("restrict", RESTRICTS)
    def test_three_chunks(self, restrict):
        # the window's class spans more than three pieces of SCAN_CHUNK
        # members, and the last anchor block starts on the fourth piece
        step = 1 if restrict is None else restrict[0]
        N = next(N for N in itertools.count(int(3 * SCAN_CHUNK * step / 0.45) - 10 * step)
                 if _block_edges(N, restrict)[4] == 3 * SCAN_CHUNK)
        for seq in (ScalingSeq.constant(2.0 - 1.0j), ScalingSeq.log_pow(1.5),
                    ScalingSeq.exp_over_log_log(), ScalingSeq.factorial(),
                    ScalingSeq.inverse(ScalingSeq.factorial()), ScalingSeq.geom_even_odd(),
                    ScalingSeq.dyadic_tower(), ScalingSeq.power_of_w(1.1 * cmath.exp(0.3j))):
            for tau in (1, 2, 5):
                args = (seq, tau, N, 1e-4, restrict)
                assert _outcome(ratio_classify, *args) == \
                    _outcome(oracles.ratio_classify, *args), (seq.family, tau)

    @pytest.mark.parametrize("restrict", RESTRICTS)
    @pytest.mark.parametrize("seq, N", [
        # a table too short: the message names the last n the window needs
        (ScalingSeq.table([1.0] * 300_000), 10**6),
        # a domain error: the angle table ends inside the window
        (rotate_seq(ScalingSeq.constant(1.0), AngleSpec("table", (0.1,) * 1000)), 10**5),
        # a zero window
        (ScalingSeq.constant(0.0), 10**5),
        # a zero past the first piece: a verdict, and a ZeroDivisionError under inverse
        (ScalingSeq.rational_poly([-700_001.0, 1.0], [1.0]), 10**6),
        (ScalingSeq.inverse(ScalingSeq.rational_poly([-700_001.0, 1.0], [1.0])), 10**6),
    ], ids=["short-table", "angle-domain", "zero-window", "mid-zero", "inverse-mid-zero"])
    def test_errors_and_zeros(self, seq, N, restrict):
        for tau in (1, 2):
            args = (seq, tau, N, 1e-4, restrict)
            assert _outcome(ratio_classify, *args) == _outcome(oracles.ratio_classify, *args)

    def test_empty_block_takes_the_nearest_member(self):
        # no window of ratio_classify leaves a block empty: 8 members at most
        # N/14 apart put one within 5% of the middle centre; the fallback is
        # still the whole-window one, the first member of least |n - c|
        first, step, last = 1000, 300, 3100
        ns = np.arange(first, last + 1, step).astype(np.float64)
        empty = 0
        for c in [*np.linspace(900.0, 3200.0, 461), 1150.0, 2650.0]:
            sel = np.flatnonzero((ns >= c * (1.0 - 0.05)) & (ns <= c * (1.0 + 0.05)))
            want = ((ns[sel[0]], ns[sel[-1]]) if sel.size
                    else (oracles._block_mean(ns, ns, float(c)),) * 2)
            assert seqcore._block(first, last, step, float(c)) == want, c
            empty += not sel.size
        assert empty > 100

    def test_short_table_names_the_window_end(self):
        with pytest.raises(SequenceDomainError, match="asked for n=1000001$"):
            ratio_classify(ScalingSeq.table([1.0] * 300_000), 1, N=10**6)

    def test_overflowing_trend_keeps_its_verdict(self):
        # the block means of exp_pow(50) reach 1e250: their differences'
        # product overflowed in the trend test; the sign test says the same
        seq = ScalingSeq.exp_pow(50.0)
        with np.errstate(over="ignore"):
            want = _outcome(oracles.ratio_classify, seq, 1, N=10**5)
        assert _outcome(ratio_classify, seq, 1, N=10**5) == want
        assert (want[0], want[2]) == ("bad", _float_bits(0.0))


def _mags(evaluate, seq, n):
    """(log_mags, zero mask) as bytes from eval_mags or eval_at, or the error."""
    try:
        out = evaluate(seq, n)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return out[0].tobytes(), out[-1].tobytes()


class TestMagnitudeHalf:
    """``eval_mags`` is ``eval_at`` without the phases: the same log
    magnitudes and zero flags, bit for bit, or the same error."""

    @pytest.mark.parametrize("name", [*RATIO_SEQS, "rotated-angle-table"])
    def test_matches_eval_at(self, name):
        if name in RATIO_SEQS:
            seq = RATIO_SEQS[name]
        else:  # an angle table too short for some n: the same error
            seq = rotate_seq(ScalingSeq.constant(1.0 - 2.0j), AngleSpec("table", (0.1,) * 4000))
        lo = seq.min_n
        for n in (np.arange(lo, lo + 7), np.arange(lo, lo + 5000), np.arange(9000, 9100),
                  np.array([lo + 3, lo, 20_004, 3100]), np.zeros(0, np.int64)):
            n = n.astype(np.int64)
            assert _mags(seqcore.eval_mags, seq, n) == _mags(eval_at, seq, n), n[:3]


# tolerances where the band's edges are tiny, E1-E3's, near 1 (log1p(-tol)
# near -inf), 1 and beyond (no lower edge), and huge (log1p(tol) near 710)
BAND_TOLS = [1e-300, 1e-4, 0.3, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, 1e300,
             sys.float_info.max, math.inf]


def _ulps_around(v: float, k: int) -> np.ndarray:
    """The 2k + 1 doubles from k ulps below v to k above (v finite, nonzero)."""
    bits = np.float64(abs(v)).view(np.int64) + np.arange(-k, k + 1)
    return math.copysign(1.0, v) * bits.view(np.float64)


class TestExpm1Band:
    """``_expm1_band``'s edges against numpy's |expm1(d)| <= tol itself, on
    the doubles near each edge and at log1p(+-tol), and across d's range."""

    @pytest.mark.parametrize("tol", BAND_TOLS)
    def test_edges_decide_as_expm1(self, tol):
        lo_in, hi_in, lo_out, hi_out = seqcore._expm1_band(tol)
        near = [lo_in, hi_in, lo_out, hi_out, math.log1p(tol)]
        near += [math.log1p(-tol)] if tol < 1.0 else []
        near = [v for v in near if math.isfinite(v) and v != 0.0]
        rng = np.random.default_rng(5)
        d = np.concatenate([
            *(_ulps_around(v, 300) for v in near),
            *(v * (1.0 + np.linspace(-2.0**-20, 2.0**-20, 2001)) for v in near),
            rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-320, 2.86, 20_000),
            [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan],
        ])
        with np.errstate(over="ignore"):
            dev = np.abs(np.expm1(d))
        inside = (lo_in <= d) & (d <= hi_in)
        outside = (d < lo_out) | (d > hi_out)
        assert np.all(dev[inside] <= tol)
        assert not np.any(dev[outside] <= tol)
        assert inside.any()
        if tol <= 0.5:
            # what the band leaves to expm1 lies within its margin of an edge
            assert hi_out - hi_in <= 2.0**-22 * hi_out
            assert lo_in - lo_out <= 2.0**-22 * -lo_out
        assert outside.any() == (tol * (1.0 + 2.0**-24) < math.inf)


class TestExpm1Calls:
    """The classifier runs expm1 only on the pieces the band leaves to it."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        out, expm1 = [], np.expm1
        monkeypatch.setattr(np, "expm1", lambda d, *a, **k: out.append(d.size) or expm1(d, *a, **k))
        return out

    def test_e1_e3_e6_windows_never_call_expm1(self, sizes):
        # E1's log-ratio is log a = log 0.25, E6's exactly 0 and E3's 0 or
        # -ln 2 (0 along the evens)
        assert ratio_classify(ScalingSeq.power_of_w(2.0), 1, N=10**6).is_bad
        assert ratio_classify(ScalingSeq.constant(1.0), 1, N=10**6).is_good
        assert ratio_classify(ScalingSeq.geom_even_odd(), 1, N=10**6).kind == "inconclusive"
        assert ratio_classify(ScalingSeq.geom_even_odd(), 1, N=10**6, restrict=(2, 0)).is_good
        assert sizes == []

    @pytest.mark.parametrize("a, tol", [(1.3, 0.3), (0.7, 0.3), (3.0, 2.0)])
    def test_edge_pieces_call_expm1(self, sizes, a, tol):
        for b in (math.nextafter(a, 0.0), a, math.nextafter(a, 4.0)):
            args = (ScalingSeq.geom_inverse(b), 1, 4000, tol, None)
            sizes.clear()
            got = _outcome(ratio_classify, *args)
            assert sizes == [2001], b  # the window's one piece
            assert got == _outcome(oracles.ratio_classify, *args)


def test_ratio_classify_memory():
    # numpy's allocations are traced: the whole-window pass held about ten
    # arrays of N/2 floats, 113 MiB here; the streamed one a piece's arrays
    # and the anchor blocks
    tracemalloc.start()
    try:
        ratio_classify(ScalingSeq.geom_even_odd(), 1, N=4_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
