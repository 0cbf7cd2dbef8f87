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
from typing import Callable, Sequence

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
    "eval_log_mags",
    "ratio_classify",
    "rotate_seq",
    "wrap_phase",
]

TWO_PI = 2.0 * math.pi

# exp(log_mag) stays inside double range up to ~709; contracts in lspace ask
# for exact round trips only below 700.
FLOAT_SAFE_LOG = 700.0


class SequenceDomainError(ValueError):
    """Evaluation of a sequence family below its first defined index."""


def wrap_phase(theta):
    """Wrap angles (scalar or ndarray) into the canonical interval ``(-pi, pi]``.

    The result is ``pi - remainder(pi - theta, 2 pi)``. On an array the
    ``np.remainder`` pass runs only if some ``pi - theta`` lies outside
    ``[0, 2 pi)`` (or is NaN), since it returns such values unchanged.
    """
    if isinstance(theta, np.ndarray):
        r = math.pi - theta
        if r.size and not (r.min() >= 0.0 and r.max() < TWO_PI):
            r = np.remainder(r, TWO_PI)
        return math.pi - r
    r = math.fmod(math.pi - theta, TWO_PI)
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

    @staticmethod
    def one() -> "LogScalar":
        return LogScalar(0.0, 0.0)

    @staticmethod
    def from_complex(z: complex) -> "LogScalar":
        z = complex(z)
        if z == 0:
            return LogScalar(zero=True)
        return LogScalar(math.log(abs(z)), math.atan2(z.imag, z.real))

    def to_complex(self) -> complex:
        if self.zero:
            return 0j
        if self.log_mag > FLOAT_SAFE_LOG + 9.0:
            raise OverflowError(
                f"log magnitude {self.log_mag:.3g} exceeds float range"
            )
        return cmath.rect(math.exp(self.log_mag), self.phase)

    def conj(self) -> "LogScalar":
        if self.zero:
            return self
        return LogScalar(self.log_mag, -self.phase)

    def inverse(self) -> "LogScalar":
        if self.zero:
            raise ZeroDivisionError("inverse of log-domain zero")
        return LogScalar(-self.log_mag, -self.phase)

    def mul(self, other: "LogScalar") -> "LogScalar":
        return log_mul(self, other)


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

    def angles(self, n: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n.shape, float(self.value))
        if self.kind == "linear":
            return float(self.value) * n.astype(np.float64)
        if self.kind == "table":
            tab = np.asarray(self.value, dtype=np.float64)
            if np.any(n < 1) or np.any(n > tab.shape[0]):
                raise SequenceDomainError("angle table exhausted")
            return tab[n - 1]
        raise ValueError(f"unknown angle spec kind {self.kind!r}")

    def to_config(self) -> dict:
        value = list(self.value) if self.kind == "table" else self.value
        return {"kind": self.kind, "value": value}


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

    def to_config(self) -> dict:
        f = self.family
        if f == "constant":
            return {"family": f, "c": _c2l(self.params[0])}
        if f == "log_pow":
            return {"family": f, "k": self.params[0]}
        if f == "rational_poly":
            return {
                "family": f,
                "p": [_c2l(v) for v in self.params[0]],
                "q": [_c2l(v) for v in self.params[1]],
            }
        if f == "exp_pow":
            return {"family": f, "a": self.params[0]}
        if f == "power_of_w":
            return {"family": f, "w": _c2l(self.params[0])}
        if f == "geom_inverse":
            return {"family": f, "a": _c2l(self.params[0])}
        if f == "table":
            return {"family": f, "values": [_c2l(v) for v in self.params[0]]}
        if f == "inverse":
            return {"family": f, "base": self.params[0].to_config()}
        if f == "rotated":
            base, theta = self.params
            if not isinstance(theta, AngleSpec):
                raise ValueError("callable rotations are not serializable")
            return {"family": f, "base": base.to_config(), "theta": theta.to_config()}
        return {"family": f}


def _c2l(z: complex) -> list:
    return [z.real, z.imag]


def eval_at(seq: ScalingSeq, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized evaluation: (log_mags, phases, zero_mask) over integer n."""
    f = seq.family
    if n.size == 0:
        z = np.zeros(0)
        return z, z.copy(), np.zeros(0, dtype=bool)
    lo = int(n.min())
    seq._check_domain(lo)
    nf = n.astype(np.float64)
    zero = np.zeros(n.shape, dtype=bool)
    ph = np.zeros(n.shape)

    if f == "constant":
        (c,) = seq.params
        if c == 0:
            return np.zeros(n.shape), ph, np.ones(n.shape, dtype=bool)
        lm = np.full(n.shape, math.log(abs(c)))
        ph = np.full(n.shape, math.atan2(c.imag, c.real))
    elif f == "log_pow":
        (k,) = seq.params
        lm = k * np.log(np.log(nf))
    elif f == "log_log":
        lm = np.log(np.log(np.log(nf)))
    elif f == "rational_poly":
        p, q = seq.params
        pv = np.polyval(np.array(p[::-1], dtype=complex), nf)
        qv = np.polyval(np.array(q[::-1], dtype=complex), nf)
        zero = pv == 0
        with np.errstate(divide="ignore"):
            lm = np.where(zero, 0.0, np.log(np.abs(np.where(zero, 1, pv)))) - np.log(
                np.abs(qv)
            )
        ph = wrap_phase(np.angle(pv) - np.angle(qv))
        ph[zero] = 0.0
    elif f == "exp_pow":
        (a,) = seq.params
        lm = nf**a
    elif f == "exp_over_log":
        lm = nf / np.log(nf)
    elif f == "exp_over_log_log":
        lm = nf / np.log(np.log(nf))
    elif f == "factorial":
        # imported here: scipy.special is most of the package's import time,
        # and math.lgamma differs from it in the last bit
        from scipy.special import gammaln

        lm = gammaln(nf + 1.0)
    elif f == "geom_even_odd":
        lm = (n // 2).astype(np.float64) * _LN2
    elif f == "dyadic_tower":
        _, e = np.frexp(nf)  # bit length of n, exact below 2**53
        lm = np.ldexp(1.0, e) * _LN2
    elif f == "power_of_w":
        (w,) = seq.params
        lm = 2.0 * nf * math.log(abs(w))
        ph = wrap_phase(2.0 * nf * math.atan2(w.imag, w.real))
    elif f == "geom_inverse":
        (a,) = seq.params
        lm = -nf * math.log(abs(a))
        ph = wrap_phase(-nf * math.atan2(a.imag, a.real))
    elif f == "table":
        (values,) = seq.params
        if int(n.max()) > len(values):
            raise SequenceDomainError(
                f"table has {len(values)} entries, asked for n={int(n.max())}"
            )
        vals = np.array(values, dtype=complex)[n - 1]
        zero = vals == 0
        with np.errstate(divide="ignore"):
            lm = np.where(zero, 0.0, np.log(np.abs(np.where(zero, 1, vals))))
        ph = np.where(zero, 0.0, np.angle(vals))
    elif f == "inverse":
        (base,) = seq.params
        blm, bph, bzero = eval_at(base, n)
        if bzero.any():
            raise ZeroDivisionError("inverse of a sequence with zero values")
        return -blm, wrap_phase(-bph), bzero
    elif f == "rotated":
        base, theta = seq.params
        blm, bph, bzero = eval_at(base, n)
        ang = theta.angles(n) if isinstance(theta, AngleSpec) else np.array(
            [theta(int(v)) for v in n], dtype=np.float64
        )
        ph = wrap_phase(bph + ang)
        ph[bzero] = 0.0
        return blm, ph, bzero
    else:
        raise ValueError(f"unknown sequence family {f!r}")
    return lm, ph, zero


def eval_log_mags(seq: ScalingSeq, n: np.ndarray) -> np.ndarray:
    """Log magnitudes only; zeros map to -inf."""
    lm, _, zero = eval_at(seq, np.asarray(n, dtype=np.int64))
    if zero.any():
        lm = lm.copy()
        lm[zero] = -np.inf
    return lm


def eval_log(seq: ScalingSeq, n: int) -> LogScalar:
    """Evaluate lam_n as a LogScalar; raises below the family's domain."""
    lm, ph, zero = eval_at(seq, np.array([n], dtype=np.int64))
    if zero[0]:
        return LogScalar(zero=True)
    return LogScalar(float(lm[0]), float(ph[0]))


def rotate_seq(seq: ScalingSeq, theta: AngleSpec | float | Callable[[int], float]) -> ScalingSeq:
    """The sequence n -> exp(i*theta_n) * lam_n; magnitudes unchanged."""
    if isinstance(theta, (int, float)):
        theta = AngleSpec("constant", float(theta))
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


def _block_mean(d: np.ndarray, ns: np.ndarray, center: float) -> float:
    lo = center * (1.0 - _BLOCK_HALF_WIDTH)
    hi = center * (1.0 + _BLOCK_HALF_WIDTH)
    sel = (ns >= lo) & (ns <= hi)
    if not sel.any():
        sel = np.argmin(np.abs(ns - center))
        return float(d[sel])
    return float(d[sel].mean())


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
    testable form of a ratio limit taken along a subset of N.
    """
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if N < 100 * tau:
        raise ValueError(f"horizon N={N} too small, need N >= {100 * tau}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    lo = max(N // 2, seq.min_n)
    ns = np.arange(lo, N + 1, dtype=np.int64)
    if restrict is not None:
        mod, res = restrict
        ns = ns[ns % mod == res % mod]
    if ns.size < 8:
        raise ValueError("scan window is empty or too short")
    lm1, _, z1 = eval_at(seq, ns)
    lm2, _, z2 = eval_at(seq, ns + tau)
    window = (int(ns[0]), int(ns[-1]))
    if z1.any() or z2.any():
        return RatioVerdict(
            "inconclusive", tau, window=window, note="zero magnitudes in window"
        )

    d = lm1 - lm2
    with np.errstate(over="ignore"):
        r = np.exp(d)
    evidence = tuple(float(v) for v in r[-8:])

    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(np.expm1(d))
    if float(np.max(dev)) <= tol:
        return RatioVerdict("good", tau, limit=1.0, evidence=evidence, window=window)

    nsf = ns.astype(np.float64)
    centers = (float(ns[0]), math.sqrt(float(ns[0]) * float(ns[-1])), float(ns[-1]))
    b = np.array([_block_mean(d, nsf, c) for c in centers])
    d1, d2 = b[1] - b[0], b[2] - b[1]
    eta = max(1e-12, 1e-12 * abs(b[2]))

    # monotone divergence of the log-ratio => limit 0 or +inf
    if (
        abs(b[2]) > abs(b[1]) > abs(b[0])
        and abs(d1) > eta
        and abs(d2) >= _DIVERGE_RATIO * abs(d1)
        and d1 * d2 > 0
        and abs(b[2]) >= 0.5 * math.log(1.0 / tol)
    ):
        limit = 0.0 if b[2] < 0 else math.inf
        return RatioVerdict("bad", tau, limit=limit, evidence=evidence, window=window)

    # unanimity around a common constant != 1
    rmax, rmin = float(np.max(r)), float(np.min(r))
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
    same_sign = float(np.max(d)) < 0.0 or float(np.min(d)) > 0.0
    if same_sign and abs(b[0]) > abs(b[1]) > abs(b[2]) > 0.0:
        alpha = math.log(abs(b[0]) / abs(b[2])) / math.log(centers[2] / centers[0])
        if alpha >= _TREND_ALPHA_MIN:
            return RatioVerdict(
                "good", tau, limit=1.0, evidence=evidence, window=window,
                note=f"trend estimate: |log ratio| ~ n^-{alpha:.3f} -> 0",
            )

    return RatioVerdict("inconclusive", tau, evidence=evidence, window=window)
