"""Log-domain complex scalars and the catalogue of scaling-sequence families.

Magnitudes live as natural logs so that quantities like ``n!`` or ``2**(2**k)``
never overflow; phases are stored separately in ``(-pi, pi]`` so unimodular
rotations stay exact. The module also houses the windowed ratio classifier that
sorts a scaling sequence into good / bad / inconclusive according to the
behaviour of ``|lam_n| / |lam_{n+tau}|``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

__all__ = [
    "LogScalar",
    "ScalingSeq",
    "AngleSpec",
    "RatioVerdict",
    "SequenceDomainError",
    "log_mul",
    "eval_log",
    "eval_at",
    "eval_mags",
    "eval_log_mags",
    "ratio_classify",
    "rotate_seq",
    "wrap_phase",
    "SCAN_CHUNK",
    "scan_runs",
]

TWO_PI = 2.0 * math.pi

# exp(log_mag) stays inside double range up to ~709; contracts in lspace ask
# for exact round trips only below 700.
FLOAT_SAFE_LOG = 700.0

# every pass over a range of n (the orbit scans, the series test, the product
# searches) runs over a fixed grid of n-chunks, so that its temporaries stay
# bounded whatever the horizon
SCAN_CHUNK = 1 << 16


def scan_runs(lo: int, hi: int):
    """n = lo..hi as consecutive runs (first n, count) of at most SCAN_CHUNK
    times."""
    for a in range(lo, hi + 1, SCAN_CHUNK):
        yield a, min(SCAN_CHUNK, hi + 1 - a)


class SequenceDomainError(ValueError):
    """Evaluation of a sequence family below its first defined index."""


def wrap_phase(theta):
    """Wrap angles (scalar or ndarray) into the canonical interval ``(-pi, pi]``.

    The result is ``pi - remainder(pi - theta, 2 pi)``. On an array the
    ``np.remainder`` pass runs only if some ``pi - theta`` lies outside
    ``[0, 2 pi)`` (or is NaN), since it returns such values unchanged; both
    passes work in place in the one fresh array ``pi - theta``.
    """
    if isinstance(theta, np.ndarray):
        r = np.asarray(math.pi - theta)  # a 0-d theta gives a numpy scalar
        if r.size and not (r.min() >= 0.0 and r.max() < TWO_PI):
            np.remainder(r, TWO_PI, out=r)
        return np.subtract(math.pi, r, out=r)
    r = math.pi - theta
    # math.fmod raises on +-inf; inf - inf is the NaN that np.remainder returns
    r = r - r if math.isinf(r) else math.fmod(r, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    return math.pi - r


@dataclass(frozen=True, slots=True)
class LogScalar:
    """A complex scalar stored as (natural-log magnitude, phase).

    Zero is a distinguished flag rather than ``log_mag = -inf`` so that phase
    arithmetic never produces NaNs.
    """

    log_mag: float = 0.0
    phase: float = 0.0
    zero: bool = False

    def __post_init__(self):
        if self.zero:
            object.__setattr__(self, "log_mag", 0.0)
            object.__setattr__(self, "phase", 0.0)
        else:
            object.__setattr__(self, "log_mag", float(self.log_mag))
            object.__setattr__(self, "phase", wrap_phase(float(self.phase)))

    def to_complex(self) -> complex:
        if self.zero:
            return 0j
        if self.log_mag > FLOAT_SAFE_LOG + 9.0:
            raise OverflowError(
                f"log magnitude {self.log_mag:.3g} exceeds float range"
            )
        return cmath.rect(math.exp(self.log_mag), self.phase)

    def inverse(self) -> "LogScalar":
        if self.zero:
            raise ZeroDivisionError("inverse of log-domain zero")
        return LogScalar(-self.log_mag, -self.phase)


def log_mul(a: LogScalar, b: LogScalar) -> LogScalar:
    """Multiply two log-domain scalars; zero absorbs."""
    if a.zero or b.zero:
        return LogScalar(zero=True)
    return LogScalar(a.log_mag + b.log_mag, a.phase + b.phase)


@dataclass(frozen=True)
class AngleSpec:
    """Declarative angle generator ``n -> theta_n`` used by rotate_seq.

    ``kind`` is one of ``constant`` (theta_n = value), ``linear``
    (theta_n = value * n) or ``table`` (explicit list, 1-based).
    """

    kind: str
    value: float | tuple = 0.0

    def check(self, n: np.ndarray) -> None:
        """Raise where ``angles`` would, without forming theta_n: at an
        unknown kind, or where n leaves a table's 1..len(value)."""
        if self.kind == "table":
            if n.size and (int(n.min()) < 1 or int(n.max()) > len(self.value)):
                raise SequenceDomainError("angle table exhausted")
        elif self.kind not in ("constant", "linear"):
            raise ValueError(f"unknown angle spec kind {self.kind!r}")

    def angles(self, n: np.ndarray) -> np.ndarray:
        self.check(n)
        if self.kind == "constant":
            return np.full(n.shape, float(self.value))
        if self.kind == "linear":
            return float(self.value) * n.astype(np.float64)
        lo, hi = (int(n.min()), int(n.max())) if n.size else (1, 0)
        # converts only the entries n spans: scans ask chunk by chunk
        return np.asarray(self.value[lo - 1 : hi], dtype=np.float64)[n - lo]


# family tag -> smallest defined index
_MIN_N = {
    "constant": 0,
    "log_pow": 2,
    "log_log": 3,
    "rational_poly": 1,
    "exp_pow": 1,
    "exp_over_log": 2,
    "exp_over_log_log": 3,
    "factorial": 0,
    "geom_even_odd": 1,
    "dyadic_tower": 1,
    "power_of_w": 1,
    "geom_inverse": 1,
    "table": 1,
    "inverse": None,  # delegates to base
    "rotated": None,  # delegates to base
}

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class ScalingSeq:
    """A scaling sequence ``(lam_n)`` given by a named parametric family.

    Construct through the classmethods; ``params`` is family specific. The
    ``rotated`` and ``inverse`` wrappers hold a base sequence in ``params``.
    """

    family: str
    params: tuple = ()

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, c: complex) -> "ScalingSeq":
        return cls("constant", (complex(c),))

    @classmethod
    def log_pow(cls, k: float) -> "ScalingSeq":
        return cls("log_pow", (float(k),))

    @classmethod
    def log_log(cls) -> "ScalingSeq":
        return cls("log_log")

    @classmethod
    def rational_poly(cls, p: Sequence[complex], q: Sequence[complex]) -> "ScalingSeq":
        """lam_n = P(n)/Q(n); coefficients low-degree first.

        Q must have no roots at nonnegative integers (checked numerically).
        """
        p = tuple(complex(v) for v in p)
        q = tuple(complex(v) for v in q)
        if not any(v != 0 for v in q):
            raise ValueError("Q must be a non-zero polynomial")
        roots = np.roots(np.array(q[::-1], dtype=complex)) if len(q) > 1 else []
        for r in roots:
            nearest = round(r.real)
            if nearest >= 0 and abs(r - nearest) < 1e-9:
                raise ValueError(f"Q has a nonnegative-integer root near {nearest}")
        return cls("rational_poly", (p, q))

    @classmethod
    def exp_pow(cls, a: float) -> "ScalingSeq":
        return cls("exp_pow", (float(a),))

    @classmethod
    def exp_over_log(cls) -> "ScalingSeq":
        return cls("exp_over_log")

    @classmethod
    def exp_over_log_log(cls) -> "ScalingSeq":
        return cls("exp_over_log_log")

    @classmethod
    def factorial(cls) -> "ScalingSeq":
        return cls("factorial")

    @classmethod
    def geom_even_odd(cls) -> "ScalingSeq":
        """lam_{2n} = 2**n and lam_{2n+1} = 2**n."""
        return cls("geom_even_odd")

    @classmethod
    def dyadic_tower(cls) -> "ScalingSeq":
        """lam_n = 2**(2**k) on the dyadic block [2**(k-1), 2**k)."""
        return cls("dyadic_tower")

    @classmethod
    def power_of_w(cls, w: complex) -> "ScalingSeq":
        if w == 0:
            raise ValueError("w must be non-zero")
        return cls("power_of_w", (complex(w),))

    @classmethod
    def geom_inverse(cls, a: complex) -> "ScalingSeq":
        if a == 0:
            raise ValueError("a must be non-zero")
        return cls("geom_inverse", (complex(a),))

    @classmethod
    def table(cls, values: Sequence[complex]) -> "ScalingSeq":
        return cls("table", (tuple(complex(v) for v in values),))

    @classmethod
    def inverse(cls, base: "ScalingSeq") -> "ScalingSeq":
        """Pointwise reciprocal 1/lam_n (exact in log domain)."""
        return cls("inverse", (base,))

    # -- evaluation ----------------------------------------------------------
    @property
    def min_n(self) -> int:
        if self.family in ("inverse", "rotated"):
            return self.params[0].min_n
        return _MIN_N[self.family]

    def _check_domain(self, n_lo: int) -> None:
        if n_lo < self.min_n:
            raise SequenceDomainError(
                f"family {self.family!r} starts at n={self.min_n}, got {n_lo}"
            )


# ---------------------------------------------------------------------------
# log n! as scipy.special.gammaln(n + 1) computes it: a port of cephes lgam
# ---------------------------------------------------------------------------

# cephes lgam's constants: log(sqrt(2 pi)) and, for 13 <= x < 1000, the
# coefficients of its 1/x^2 polynomial (its A[]); for x >= 1000 it uses the
# first three terms of Stirling's series instead
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)

# ln 2 to 42 bits, so that e * _LN2_HI is exact for every binary exponent e
_LN2_HI = float.fromhex("0x1.62e42fefa38p-1")
_LN_BITS = 8  # the reduction table is indexed by x's top 8 significand bits
_LN_ERR = 2.0**-60  # bound on |ln x - (s + t)| for _ln_dd's estimate
_LN_NEAR = 0.5 - 0.0195  # _ln_block keeps s where |t| <= _LN_NEAR ulp(s) - _LN_ERR
# the kernels run over blocks of this many lanes, in one set of work arrays
# per call: with fresh temporaries as long as a SCAN_CHUNK piece, lgam's 40-odd
# steps made the factorial classifier at N=2e7 page-fault 240,000 times, not
# 15,000, and take twice as long
_LGAM_BLOCK = 1 << 13


@cache
def _ln_tables() -> tuple[float, np.ndarray, np.ndarray]:
    """The constants of ``_ln_dd`` and ``_lgam_block``, built on first use.

    ``ln 2 - _LN2_HI``; ln c_i as complex(hi, lo) with hi + lo within 2^-105
    of it, for the centres c_i = 1 + (i + 1/2)/256; and lgam at x = 1..12,
    which is libm's log of the exact double (x - 1)!.
    """
    from decimal import Decimal, localcontext  # about 2 ms of import

    k = 1 << _LN_BITS
    ln_c = np.empty(k, dtype=complex)
    with localcontext() as ctx:
        ctx.prec = 40
        ln2_lo = float(Decimal(2).ln() - Decimal(_LN2_HI))
        v = (Decimal(2 * k + 1) / (2 * k)).ln()
        for i in range(k):
            hi = float(v)
            ln_c[i] = complex(hi, float(v - Decimal(hi)))
            # c_{i+1}/c_i = (j + 1)/(j - 1) with j = 2(k + i) + 2, whose log
            # is 2 atanh(1/j) = 2 sum 1/(m j^m) over odd m; the terms past
            # m = 13 are below 2^-130 (a Decimal ln per cell took 4x as long)
            y = 1 / Decimal(2 * (k + i) + 2)
            step = term = y
            for m in range(3, 15, 2):
                term *= y * y
                step += term / m
            v += 2 * step
    small = np.array([math.log(float(math.factorial(j))) for j in range(12)])
    ln_c.flags.writeable = small.flags.writeable = False
    return ln2_lo, ln_c, small


def _ln_dd(x, s, t, w) -> None:
    """s + t = ln x to within ``_LN_ERR`` = 2^-60, with s = RN(s + t), for
    positive normal doubles x; ``w`` is four work arrays (int64, two float64,
    complex) as long as x.

    Write x = 2^e m with m in [1, 2), and let c = 1 + (i + 1/2)/256 be the
    centre of the table cell of m's top 8 bits. Then ln x = e ln 2 + ln c +
    log1p(r) with r = (m - c)/c, |r| < 2^-9, and m - c is exact. The sum is
    a + hi + lo with a = e _LN2_HI (exact; Fast2Sum(a, hi) is exact, since
    |hi| < _LN2_HI <= |a| or a = 0) and lo = e (ln 2 - _LN2_HI) + lo_c + t1
    + r^2 Q(r) + r, added in that order. Its error is at most
      2^-62 (1 + 2^-8)   the rounding of r, through log1p' <= 1/(1 - 2^-9),
      2^-62              the last addition, of r (|lo| < 2^-8),
      2^-65.8            the series cut after r^6: |r|^7 / (7 (1 - |r|)),
      2^-69              Q's rounding, times r^2 < 2^-18, and the other
                         additions, whose sums stay below 2^-18,
      2^-85              the ln 2 and ln c splits, times |e| <= 1023,
    in all less than 2^-60.9. TwoSum(a + hi, lo) then gives (s, t) exactly.
    """
    ln2_lo, ln_c, _ = _ln_tables()
    i, c, r, h = w
    bits = x.view(np.int64)
    np.right_shift(bits, 52 - _LN_BITS, out=i)
    np.bitwise_and(i, (1 << _LN_BITS) - 1, out=i)
    np.take(ln_c, i, out=h)
    np.multiply(i, 2.0**-_LN_BITS, out=c)
    c += 1.0 + 2.0 ** -(_LN_BITS + 1)
    m = r.view(np.int64)
    np.bitwise_and(bits, (1 << 52) - 1, out=m)
    m |= 0x3FF << 52
    r -= c
    r /= c
    np.right_shift(bits, 52, out=i)
    np.subtract(i, 1023, out=s)  # e
    np.multiply(s, _LN2_HI, out=c)  # a
    s *= ln2_lo
    s += h.imag
    np.add(c, h.real, out=t)  # Fast2Sum: a + hi in t, its error in c
    np.subtract(t, c, out=c)
    np.subtract(h.real, c, out=c)
    s += c
    # log1p(r) - r = r^2 Q(r), Q = -1/2 + r/3 - r^2/4 + r^3/5 - r^4/6
    np.multiply(r, -1.0 / 6.0, out=c)
    for a in (1.0 / 5.0, -1.0 / 4.0, 1.0 / 3.0, -1.0 / 2.0):
        c += a
        c *= r
    c *= r
    s += c
    s += r  # lo
    # TwoSum(t, s): the sum in c, its error in t
    np.add(t, s, out=c)
    np.subtract(c, t, out=r)
    np.subtract(s, r, out=s)
    np.subtract(c, r, out=r)
    np.subtract(t, r, out=t)
    t += s
    s[...] = c


def _ln_block(x, out, w) -> None:
    """out = the C library's log(x), bit for bit, at finite doubles x > 0.

    glibc's log (2.28 on) is within 0.519 ulp of ln x. Let u be the ulp of
    the estimate's head s, and let s be positive and no power of two, so that
    its neighbours lie u away. When |t| <= (1/2 - 0.0195) u - 2^-60, ln x
    is within 0.4805 u of s (``_ln_dd``'s bound), so libm's result is
    within 0.9995 u of s, and s is the only double that close: libm returns
    s. The other lanes, about 4% of them, and every x below 1 (where s <= 0)
    call ``math.log``, which is libm's log.
    """
    i, c, r, h, t = w
    _ln_dd(x, out, t, (i, c, r, h))
    p2 = c.view(np.int64)  # 2^floor(log2 s), with s's sign
    np.right_shift(out.view(np.int64), 52, out=p2)
    p2 <<= 52
    np.multiply(c, _LN_NEAR * 2.0**-52, out=r)
    r -= _LN_ERR
    np.abs(t, out=t)
    ok = t <= r
    ok &= c != out
    slow = np.flatnonzero(~ok)
    if slow.size:
        out[slow] = [math.log(v) for v in x[slow].tolist()]


def _lgam_block(x, out, w) -> None:
    """out = cephes lgam(x) at integer-valued doubles 1 <= x < 2^63.

    lgam's branches: below 13, its recurrence, which at an integer x is
    log((x - 1)!); from 13, q = (x - 1/2) ln x - x + log(sqrt(2 pi)) plus a
    1/x correction, a polynomial in 1/x^2 below 1000 and Stirling's series
    from there. Above 1e8 lgam returns q alone; the correction there is below
    1e-9 and q above 1.7e9, so adding it moves no bit. ln x is
    ``_ln_block``'s, which is libm's, as in lgam.
    """
    _, c, r, _, _ = w
    _ln_block(x, out, w)
    np.subtract(x, 0.5, out=c)
    out *= c
    out -= x
    out += _LS2PI
    np.multiply(x, x, out=r)
    np.divide(1.0, r, out=r)  # p = 1/x^2
    np.multiply(r, 7.9365079365079365079365e-4, out=c)
    c -= 2.7777777777777777777778e-3
    c *= r
    c += 0.0833333333333333333333
    c /= x
    low = x.min()
    if low < 1000.0:
        mid = np.flatnonzero(x < 1000.0)
        p = r[mid]
        v = _LGAM_A[0]
        for a in _LGAM_A[1:]:
            v = v * p + a
        c[mid] = v / x[mid]
    out += c
    if low < 13.0:
        small = np.flatnonzero(x < 13.0)
        out[small] = _ln_tables()[2][x[small].astype(np.int64) - 1]


def _blockwise(kernel, x: np.ndarray) -> np.ndarray:
    """kernel(x block, out block, work arrays) over blocks of ``_LGAM_BLOCK``,
    all sharing one set of work arrays."""
    out = np.empty_like(x)
    k = min(x.size, _LGAM_BLOCK)
    w = (np.empty(k, np.int64), np.empty(k), np.empty(k), np.empty(k, complex), np.empty(k))
    for a in range(0, x.size, _LGAM_BLOCK):
        b = min(a + _LGAM_BLOCK, x.size)
        kernel(x[a:b], out[a:b], [v[: b - a] for v in w])
    return out


def _lgam(x: np.ndarray) -> np.ndarray:
    """scipy.special.gammaln(x), bit for bit, at integer-valued doubles
    1 <= x < 2^63: what gammaln evaluates (scipy 1.17), ported to numpy."""
    return _blockwise(_lgam_block, x)


def _mag_half(seq: ScalingSeq, n: np.ndarray, nf: np.ndarray):
    """(log_mags, zero_mask, vals) over integer n, with nf = n as float64:
    ``vals`` is what ``_phase_half`` reads besides n, the complex values
    (P(n), Q(n)) or lam_n that ``rational_poly`` and ``table`` form, so that
    ``eval_at`` forms them once; None for the other families."""
    f = seq.family
    zero, vals = np.zeros(n.shape, dtype=bool), None
    if f == "constant":
        (c,) = seq.params
        if c == 0:
            return np.zeros(n.shape), np.ones(n.shape, dtype=bool), None
        lm = np.full(n.shape, math.log(abs(c)))
    elif f == "log_pow":
        (k,) = seq.params
        lm = k * np.log(np.log(nf))
    elif f == "log_log":
        lm = np.log(np.log(np.log(nf)))
    elif f == "rational_poly":
        p, q = seq.params
        pv = np.polyval(np.array(p[::-1], dtype=complex), nf)
        qv = np.polyval(np.array(q[::-1], dtype=complex), nf)
        zero, vals = pv == 0, (pv, qv)
        with np.errstate(divide="ignore"):
            lm = np.where(zero, 0.0, np.log(np.abs(np.where(zero, 1, pv)))) - np.log(
                np.abs(qv)
            )
    elif f == "exp_pow":
        (a,) = seq.params
        lm = nf**a
    elif f == "exp_over_log":
        lm = nf / np.log(nf)
    elif f == "exp_over_log_log":
        lm = nf / np.log(np.log(nf))
    elif f == "factorial":
        lm = _lgam(nf + 1.0)
    elif f == "geom_even_odd":
        lm = (n // 2).astype(np.float64) * _LN2
    elif f == "dyadic_tower":
        _, e = np.frexp(nf)  # bit length of n, exact below 2**53
        lm = np.ldexp(1.0, e) * _LN2
    elif f == "power_of_w":
        (w,) = seq.params
        lm = 2.0 * nf * math.log(abs(w))
    elif f == "geom_inverse":
        (a,) = seq.params
        lm = -nf * math.log(abs(a))
    elif f == "table":
        (values,) = seq.params
        lo, hi = int(n.min()), int(n.max())
        if hi > len(values):
            raise SequenceDomainError(f"table has {len(values)} entries, asked for n={hi}")
        # converts only the entries n spans: scans ask chunk by chunk
        vals = np.array(values[lo - 1 : hi], dtype=complex)[n - lo]
        zero = vals == 0
        with np.errstate(divide="ignore"):
            lm = np.where(zero, 0.0, np.log(np.abs(np.where(zero, 1, vals))))
    elif f == "inverse":
        blm, zero, vals = _mag_half(seq.params[0], n, nf)
        if zero.any():
            raise ZeroDivisionError("inverse of a sequence with zero values")
        lm = -blm
    elif f == "rotated":
        base, theta = seq.params
        lm, zero, vals = _mag_half(base, n, nf)
        theta.check(n)
    else:
        raise ValueError(f"unknown sequence family {f!r}")
    return lm, zero, vals


def _phase_half(seq: ScalingSeq, n: np.ndarray, nf: np.ndarray, zero, vals) -> np.ndarray:
    """The phases of lam over n, given ``_mag_half``'s zero mask and vals."""
    f = seq.family
    if f == "constant":
        (c,) = seq.params
        return np.full(n.shape, math.atan2(c.imag, c.real) if c != 0 else 0.0)
    if f == "rational_poly":
        pv, qv = vals
        ph = wrap_phase(np.angle(pv) - np.angle(qv))
        ph[zero] = 0.0
        return ph
    if f == "power_of_w":
        (w,) = seq.params
        return wrap_phase(2.0 * nf * math.atan2(w.imag, w.real))
    if f == "geom_inverse":
        (a,) = seq.params
        return wrap_phase(-nf * math.atan2(a.imag, a.real))
    if f == "table":
        return np.where(zero, 0.0, np.angle(vals))
    if f == "inverse":
        return wrap_phase(-_phase_half(seq.params[0], n, nf, zero, vals))
    if f == "rotated":
        base, theta = seq.params
        ph = wrap_phase(_phase_half(base, n, nf, zero, vals) + theta.angles(n))
        ph[zero] = 0.0
        return ph
    return np.zeros(n.shape)  # the families of positive values


def _checked_floats(seq: ScalingSeq, n: np.ndarray) -> np.ndarray:
    """n as float64, once n's least member is in the family's domain."""
    seq._check_domain(int(n.min()))
    return n.astype(np.float64)


def eval_mags(seq: ScalingSeq, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The magnitude half of ``eval_at``: its (log_mags, zero_mask), bit for
    bit, and the same errors, with no phase formed."""
    if n.size == 0:
        return np.zeros(0), np.zeros(0, dtype=bool)
    lm, zero, _ = _mag_half(seq, n, _checked_floats(seq, n))
    return lm, zero


def eval_at(seq: ScalingSeq, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized evaluation: (log_mags, phases, zero_mask) over integer n."""
    if n.size == 0:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool)
    nf = _checked_floats(seq, n)
    lm, zero, vals = _mag_half(seq, n, nf)
    return lm, _phase_half(seq, n, nf, zero, vals), zero


def eval_log_mags(seq: ScalingSeq, n: np.ndarray) -> np.ndarray:
    """Log magnitudes only; zeros map to -inf."""
    lm, zero = eval_mags(seq, np.asarray(n, dtype=np.int64))
    return np.where(zero, -np.inf, lm)


def eval_log(seq: ScalingSeq, n: int) -> LogScalar:
    """Evaluate lam_n as a LogScalar; raises below the family's domain."""
    lm, ph, zero = eval_at(seq, np.array([n], dtype=np.int64))
    if zero[0]:
        return LogScalar(zero=True)
    return LogScalar(float(lm[0]), float(ph[0]))


def rotate_seq(seq: ScalingSeq, theta: AngleSpec | float) -> ScalingSeq:
    """The sequence n -> exp(i*theta_n) * lam_n; magnitudes unchanged."""
    if isinstance(theta, (int, float)):
        theta = AngleSpec("constant", float(theta))
    if not isinstance(theta, AngleSpec):
        raise TypeError("theta must be an AngleSpec or a number")
    return ScalingSeq("rotated", (seq, theta))


# ---------------------------------------------------------------------------
# ratio classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioVerdict:
    """Outcome of the windowed test on r_n = |lam_n| / |lam_{n+tau}|.

    ``kind`` is "good", "bad" or "inconclusive"; for "bad" the estimated
    limit sits in ``limit`` (0.0 and inf included). All verdicts are windowed
    estimates, never proofs: a trend-based Good is recorded in ``note``.
    """

    kind: str
    tau: int
    limit: float | None = None
    evidence: tuple = ()
    window: tuple = (0, 0)
    note: str = ""

    @property
    def is_good(self) -> bool:
        return self.kind == "good"

    @property
    def is_bad(self) -> bool:
        return self.kind == "bad"


# trend estimator constants: geometric anchor blocks of +-5% around
# N/2, N/sqrt(2), N; see ratio_classify.
_BLOCK_HALF_WIDTH = 0.05
_DIVERGE_RATIO = 0.98
_TREND_ALPHA_MIN = 0.01
# relative margin of the expm1 band; see _expm1_band
_BAND_MARGIN = 2.0**-24


def _expm1_band(tol: float) -> tuple[float, float, float, float]:
    """(lo_in, hi_in, lo_out, hi_out): numpy's |expm1(d)| is <= tol at every
    d in [lo_in, hi_in], and > tol at every d < lo_out or d > hi_out.

    The edges are log1p(-t) and log1p(t) at t = tol (1 -+ _BAND_MARGIN),
    with log1p(-t) = -inf at t >= 1, where every d < 0 has |expm1(d)| < 1
    <= t. It rests on ``_kernels.FN_ERR``'s assumption that expm1 and log1p
    are within relative 2^-46 of exact: a relative error e in d moves
    expm1(d) by at most (1 + |d|) e relative, which is below 711 e for d
    under ln(max double), and t's rounding adds 2^-53. The margin, 2^-24,
    is far wider than those. NaN d is in no interval.
    """

    def edges(t: float) -> tuple[float, float]:
        return (math.log1p(-t) if t < 1.0 else -math.inf), math.log1p(t)

    return (*edges(tol * (1.0 - _BAND_MARGIN)), *edges(tol * (1.0 + _BAND_MARGIN)))


def _block(first: int, last: int, step: int, center: float) -> tuple[int, int]:
    """The anchor block around ``center`` among the members n = first, first +
    step, ..., last: the least and greatest member with center (1 - w) <= n <=
    center (1 + w), or twice the first member of least |n - center| when no
    member lies that close."""
    lo = math.ceil(center * (1.0 - _BLOCK_HALF_WIDTH))
    hi = math.floor(center * (1.0 + _BLOCK_HALF_WIDTH))
    a = first + max(0, -((first - lo) // step)) * step
    b = first + (min(hi, last) - first) // step * step
    if a <= b:
        return a, b
    below = min(max(first + (math.floor(center) - first) // step * step, first), last)
    n = min((m for m in (below, below + step) if m <= last), key=lambda m: abs(m - center))
    return n, n


def ratio_classify(
    seq: ScalingSeq,
    tau: int,
    N: int = 10**6,
    tol: float = 1e-4,
    restrict: tuple[int, int] | None = None,
) -> RatioVerdict:
    """Classify lam by the ratios |lam_n|/|lam_{n+tau}| over n in [N/2, N].

    Decision ladder:
      1. Good when max |r_n - 1| <= tol over the whole window.
      2. Bad(0) / Bad(inf) when the log-ratio drifts monotonically to -inf/+inf
         across geometric anchor blocks.
      3. Bad(a) when all window values agree within tol on a common a != 1.
      4. Good when the log-ratio magnitude shrinks along a power-law trend
         toward 0 (recorded as a trend estimate in ``note``).
      5. Inconclusive otherwise (oscillating families land here).

    ``restrict=(mod, residue)`` limits the scan to one residue class, the
    testable form of a ratio limit taken along a subset of N. ``tol`` lies
    in (0, 1): at tol >= 1 rule 1 would call good a window of ratios that
    tend to 0.

    The window is walked in pieces of ``SCAN_CHUNK`` of its members, each
    evaluated with its tau overlap, magnitudes only (``eval_mags``). Only
    whether |r_n - 1| <= tol so far, the extrema of r_n and d_n = log r_n,
    the last 8 ratios and the d_n inside the three anchor blocks (about
    0.15 N values) outlive a piece, so the pass holds no array of the
    window's length. A piece's extrema of d_n decide |r_n - 1| = |expm1(d_n)|
    <= tol (``_expm1_band``); expm1 runs only on a piece with an extremum
    near log1p(-tol) or log1p(tol), or with a NaN. The verdict is the one a
    pass over whole-window arrays gives, bit for bit, and so are the errors:
    both ends of the window are evaluated first.
    """
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if N < 100 * tau:
        raise ValueError(f"horizon N={N} too small, need N >= {100 * tau}")
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")

    lo = max(N // 2, seq.min_n)
    step, res = 1, lo
    if restrict is not None:
        mod, res = restrict
        step = abs(mod)
    first = lo + (res - lo) % step
    last = N - (N - res) % step
    if (last - first) // step < 7:
        raise ValueError("scan window is empty or too short")
    window = (first, last)
    # both ends first, so that a table too short or a domain error names the
    # n that one evaluation of the whole window would name
    ends = np.array([first, last], dtype=np.int64)
    if restrict is None:
        eval_mags(seq, ends + (0, tau))
    else:
        eval_mags(seq, ends)
        eval_mags(seq, ends + tau)

    centers = (float(first), math.sqrt(float(first) * float(last)), float(last))
    blocks = [_block(first, last, step, c) for c in centers]
    pieces = [[] for _ in blocks]
    r_max, r_min, d_max, d_min = [], [], [], []
    lo_in, hi_in, lo_out, hi_out = _expm1_band(tol)
    close = True  # |r_n - 1| = |expm1(d_n)| <= tol at every n so far
    zero, tail = False, np.zeros(0)
    for c0 in range(first, last + 1, SCAN_CHUNK * step):
        c1 = min(c0 + (SCAN_CHUNK - 1) * step, last)
        if restrict is None:
            # n and n + tau overlap in all but tau times: evaluate c0..c1+tau once
            lm, z = eval_mags(seq, np.arange(c0, c1 + tau + 1, dtype=np.int64))
            lm1, z1, lm2, z2 = lm[:-tau], z[:-tau], lm[tau:], z[tau:]
        else:
            ns = np.arange(c0, c1 + 1, step, dtype=np.int64)
            lm1, z1 = eval_mags(seq, ns)
            lm2, z2 = eval_mags(seq, ns + tau)
        # every piece is still evaluated after a zero, for the errors it raises
        zero = zero or z1.any() or z2.any()
        if zero:
            continue
        d = lm1 - lm2
        with np.errstate(over="ignore"):
            r = np.exp(d)
        hi, lo = np.max(d), np.min(d)
        # the piece's extrema of d decide it, but near the band's edges or at a NaN
        if close and not (lo_in <= lo and hi <= hi_in):
            close = not (lo < lo_out or hi > hi_out)
            if close:
                with np.errstate(over="ignore", invalid="ignore"):
                    close = bool(np.max(np.abs(np.expm1(d))) <= tol)
        r_max.append(np.max(r))
        r_min.append(np.min(r))
        d_max.append(hi)
        d_min.append(lo)
        tail = np.concatenate((tail, r[-8:]))[-8:]
        for held, (b0, b1) in zip(pieces, blocks):
            i, j = max(0, (b0 - c0) // step), (min(b1, c1) - c0) // step + 1
            if i < j:
                held.append(d[i:j])
    if zero:
        return RatioVerdict(
            "inconclusive", tau, window=window, note="zero magnitudes in window"
        )

    evidence = tuple(float(v) for v in tail)
    if close:
        return RatioVerdict("good", tau, limit=1.0, evidence=evidence, window=window)

    # joined, a block's pieces are the contiguous d[sel] of a whole-window pass
    b = np.array([float(np.concatenate(held).mean()) for held in pieces])
    d1, d2 = b[1] - b[0], b[2] - b[1]
    eta = max(1e-12, 1e-12 * abs(b[2]))

    # monotone divergence of the log-ratio => limit 0 or +inf; d1 and d2 are
    # nonzero here, and their product can overflow
    if (
        abs(b[2]) > abs(b[1]) > abs(b[0])
        and abs(d1) > eta
        and abs(d2) >= _DIVERGE_RATIO * abs(d1)
        and (d1 > 0) == (d2 > 0)
        and abs(b[2]) >= 0.5 * math.log(1.0 / tol)
    ):
        limit = 0.0 if b[2] < 0 else math.inf
        return RatioVerdict("bad", tau, limit=limit, evidence=evidence, window=window)

    # unanimity around a common constant != 1
    rmax, rmin = float(np.max(r_max)), float(np.min(r_min))
    if math.isfinite(rmax) and rmax - rmin <= 2.0 * tol:
        a_hat = 0.5 * (rmax + rmin)
        if abs(a_hat - 1.0) > tol:
            return RatioVerdict(
                "bad", tau, limit=a_hat, evidence=evidence, window=window
            )
        return RatioVerdict(
            "inconclusive", tau, evidence=evidence, window=window,
            note="values straddle 1 beyond tol",
        )

    # shrinking power-law trend of the log-ratio toward 0 => limit 1
    same_sign = float(np.max(d_max)) < 0.0 or float(np.min(d_min)) > 0.0
    if same_sign and abs(b[0]) > abs(b[1]) > abs(b[2]) > 0.0:
        alpha = math.log(abs(b[0]) / abs(b[2])) / math.log(centers[2] / centers[0])
        if alpha >= _TREND_ALPHA_MIN:
            return RatioVerdict(
                "good", tau, limit=1.0, evidence=evidence, window=window,
                note=f"trend estimate: |log ratio| ~ n^-{alpha:.3f} -> 0",
            )

    return RatioVerdict("inconclusive", tau, evidence=evidence, window=window)
