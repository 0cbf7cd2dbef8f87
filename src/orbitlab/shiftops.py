"""Weighted backward shifts and log-domain weight-product machinery.

Convention fixed once: ``(T x)_j = premult * w_{j+1} * x_{j+1}``; a unilateral
shift drops anything landing below index 1 (so ``T e_1 = 0``). Powers are
computed from the log weight products C(i), one closed form on all of Z per
shape of weights, rather than by iteration. Unit weights (w = 1, as in ``2B``
and ``(1/w)B``) skip the products, which are all exactly +0.0 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lspace import CoefVec, Side, SideMismatchError
from .seqcore import ScalingSeq, eval_log, wrap_phase

__all__ = [
    "WeightSeq",
    "ShiftOp",
    "scaled_orbit_point",
]


@dataclass(frozen=True)
class WeightSeq:
    """A named family of strictly positive weights with a finite sup bound."""

    family: str
    params: tuple = ()

    @classmethod
    def constant(cls, c: float) -> "WeightSeq":
        if not c > 0:
            raise ValueError("weights must be strictly positive")
        return cls("constant_w", (float(c),))

    @classmethod
    def sqrt_ratio(cls) -> "WeightSeq":
        """w_n = sqrt((n+1)/n), defined on positive indices only."""
        return cls("sqrt_ratio")

    @classmethod
    def step_bilateral(cls) -> "WeightSeq":
        """w_n = 1 for n <= 0, w_n = 2 for n >= 1."""
        return cls("step_bilateral")

    @classmethod
    def inverse_step_bilateral(cls) -> "WeightSeq":
        """w_n = 1/2 for n <= 0, w_n = 2 for n >= 1."""
        return cls("inverse_step_bilateral")

    @classmethod
    def table(cls, values, start: int = 1) -> "WeightSeq":
        vals = tuple(float(v) for v in values)
        if not vals or min(vals) <= 0:
            raise ValueError("weights must be strictly positive")
        end = start + len(vals) - 1
        if not start <= 1 <= end:
            # C is anchored at 0, so every product reads w_1 onward
            raise ValueError(f"a table of w_{start}..w_{end} holds no w_1: "
                             "the weight products need w_1 onward")
        return cls("table_w", (vals, int(start)))

    # -- structure -----------------------------------------------------------
    @property
    def _pair(self) -> tuple[float, float]:
        """(w_n for n <= 0, w_n for n >= 1) of a family with one weight on
        each side of 0."""
        f = self.family
        if f == "constant_w":
            return self.params[0], self.params[0]
        if f == "step_bilateral":
            return 1.0, 2.0
        if f == "inverse_step_bilateral":
            return 0.5, 2.0
        raise ValueError(f"unknown weight family {f!r}")

    @property
    def sup_weight(self) -> float:
        if self.family == "sqrt_ratio":
            return math.sqrt(2.0)  # w_1, weights decrease toward 1
        return max(self.params[0] if self.family == "table_w" else self._pair)

    @property
    def inf_weight(self) -> float:
        if self.family == "sqrt_ratio":
            return 1.0
        return min(self.params[0] if self.family == "table_w" else self._pair)

    @property
    def bilateral_ok(self) -> bool:
        if self.family == "sqrt_ratio":
            return False
        if self.family == "table_w":
            return self.params[1] <= 0
        return True

    @property
    def is_flat(self) -> bool:
        """Index-independent log weight (enables vectorized orbit scans)."""
        return self.family == "constant_w"

    @property
    def is_unit(self) -> bool:
        """Every weight is 1, so every C(i) is +-0.0."""
        return self.family == "constant_w" and self.params[0] == 1.0

    def log_w(self, idx: np.ndarray) -> np.ndarray:
        """log w at the given integer indices (vectorized)."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.family == "sqrt_ratio":
            if idx.size and idx.min() < 1:
                raise ValueError("sqrt_ratio weights defined for n >= 1 only")
            nf = idx.astype(np.float64)
            return 0.5 * (np.log(nf + 1.0) - np.log(nf))
        if self.family == "table_w":
            vals, start = self.params
            off = idx - start
            if idx.size and (off.min() < 0 or off.max() >= len(vals)):
                raise ValueError("index outside table_w range")
            return np.log(np.array(vals))[off]
        w_neg, w_pos = self._pair
        return np.where(idx >= 1, math.log(w_pos), math.log(w_neg))

    # -- products ------------------------------------------------------------
    # C(i) = sum_{s=1..i} log w_s for i >= 0 and C(i) = -sum_{s=i+1..0} log w_s
    # for i < 0, so that log prod_{s=a..b} w_s is C(b) - C(a-1) on all of Z.
    # Each closed-form shape evaluates C on all of Z at the queried indices:
    # 0.5 log(i+1) for sqrt_ratio; i log w_+ for i >= 1 and i log w_- for
    # i <= -1 for the families with one weight on each side of 0. Exactness
    # here matters: a cumsum over 1e6 terms loses ~1e-9, which the product
    # contracts cannot afford. table_w weights look C up in one array over
    # their table, built on first use and freed with the instance.

    def check_range(self, lo: int, hi: int) -> None:
        """Check that C(i) is defined for every i in [lo, hi]; an error names
        the queried index that leaves the range."""
        if lo < 0 and not self.bilateral_ok:
            raise ValueError(f"{self.family} weights have no bilateral extension")
        if self.family == "table_w":
            vals, start = self.params
            cap_hi = start + len(vals) - 1
            if hi > cap_hi:
                raise ValueError(f"index {hi} exits the table's range (max {cap_hi})")
            # C(i) for i <= 0 reads w_{i+1}..w_0
            if lo + 1 < start:
                raise ValueError(f"index {lo} exits the table's range (min {start - 1})")

    @cached_property
    def _table_cum(self) -> np.ndarray:
        """table_w only: C(0..max) then C(start-1..-1), from one log_w pass
        with each side summed outward from 0; numpy's negative indexing
        then reads C(i) at [i] for every i in range."""
        vals, start = self.params
        lo = min(start, 1)
        log_w = self.log_w(np.arange(lo, start + len(vals)))
        neg = np.cumsum(log_w[: 1 - lo][::-1])  # -C(-1), -C(-2), ...
        return np.concatenate(([0.0], np.cumsum(log_w[1 - lo:]), -neg[::-1]))

    def cum(self, idx: np.ndarray) -> np.ndarray:
        """The signed cumulative C(i) at any integer indices (vectorized)."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(0)
        lo, hi = int(idx.min()), int(idx.max())
        self.check_range(lo, hi)
        if self.family == "table_w":
            return self._table_cum[idx]
        zero = idx == 0 if lo <= 0 <= hi else None
        # a float copy of the closed form's arguments, worked in place
        return self._closed_form(np.add(idx, self._arg_offset, dtype=np.float64), lo, hi, zero)

    def cum_run(self, start: int, step: int, ramp: np.ndarray, out: np.ndarray,
                scale: float = 1.0) -> np.ndarray:
        """scale * C(start + step*k) for k = 0, 1, ..., len(out) - 1, written
        into out; ``scale`` is a power of two such as -2, 0.5 or 2.

        ``ramp`` holds k itself as float64, at least len(out) of it, and is
        only read: a caller walking many runs makes it and out once. The
        closed form's arguments are formed in out as exact-integer doubles
        (exact below 2**53), sqrt_ratio's i + 1 with the run's start, and go
        through the closed form that ``cum`` uses, with ``scale`` folded into
        its one multiply: sqrt_ratio's 0.5 becomes 0.5 scale, a one-slope
        family's slope becomes slope scale, and a table_w run multiplies
        once after its lookup. The closed forms' nonzero values lie deep in
        the normal range (|log w| > 2^-54 for w != 1, and |i| < 2^53), where
        a power-of-two multiple of a double is exact, so each entry has the
        bits of ``cum``'s times scale, zero signs included. The range is
        checked from the run's ends.
        """
        count = out.shape[0]
        if count == 0:
            return out
        end = start + step * (count - 1)
        lo, hi = min(start, end), max(start, end)
        self.check_range(lo, hi)
        if self.family == "table_w":
            return np.multiply(self._table_cum[np.arange(start, start + step * count, step)],
                               scale, out=out)
        first = start + self._arg_offset
        ramp = ramp[:count]
        if step == 1:
            np.add(ramp, first, out=out)
        elif step == -1:
            np.subtract(first, ramp, out=out)
        else:
            np.multiply(ramp, step, out=out)
            out += first
        zero = -start // step if lo <= 0 <= hi and start % step == 0 else None
        return self._closed_form(out, lo, hi, zero, scale)

    @property
    def _arg_offset(self) -> int:
        """What a closed form adds to index i to get its argument: 1 for
        sqrt_ratio's 0.5 log(i + 1), 0 for the one-slope families' i log w."""
        return 1 if self.family == "sqrt_ratio" else 0

    def _closed_form(self, x: np.ndarray, lo: int, hi: int, zero,
                     scale: float = 1.0) -> np.ndarray:
        """scale * C, in place, at the exact-integer float64 arguments x, each
        an index in [lo, hi] plus ``_arg_offset``; ``zero`` picks x's entries
        at index 0 (a mask or a position), and ``scale`` is a power of two."""
        if self.family == "sqrt_ratio":
            np.log(x, out=x)
            x *= 0.5 * scale
            return x
        log_neg, log_pos = (math.log(v) * scale for v in self._pair)
        # indices on one side of 0 need one slope, not a per-index choice
        x *= (log_pos if lo >= 0 else log_neg if hi <= 0
              else np.where(x > 0, log_pos, log_neg))
        if zero is not None:
            # the empty sum, scaled; 0 * log c is -0.0 for c < 1
            x[zero] = 0.0 * scale
        return x

    def log_range(self, a: int, b: int) -> float:
        """log prod_{s=a..b} w_s (empty ranges give 0)."""
        if a > b:
            return 0.0
        c = self.cum(np.array([b, a - 1], dtype=np.int64))
        return float(c[0] - c[1])

    def forward_log(self, j: int, n: int) -> float:
        """log prod_{i=1..n} w_{j+i}."""
        return self.log_range(j + 1, j + n)

    def backward_log(self, j: int, n: int) -> float:
        """log prod_{i=0..n-1} w_{j-i}."""
        return self.log_range(j - n + 1, j)

    def to_config(self) -> dict:
        f = self.family
        if f == "constant_w":
            return {"family": f, "c": self.params[0]}
        if f == "table_w":
            return {"family": f, "values": list(self.params[0]), "start": self.params[1]}
        return {"family": f}


@dataclass(frozen=True)
class ShiftOp:
    """Backward weighted shift, optionally scaled by a complex premultiplier.

    Realizes operators like ``2B`` (premultiplier 2, unit weights) and
    ``(1/w)B`` without touching the weight sequence.
    """

    side: Side
    weights: WeightSeq
    premultiplier: complex = 1.0 + 0j

    def __post_init__(self):
        if self.side is Side.BILATERAL and not self.weights.bilateral_ok:
            raise ValueError(f"{self.weights.family} weights are unilateral-only")
        if self.premultiplier == 0:
            raise ValueError("premultiplier must be non-zero")
        object.__setattr__(self, "premultiplier", complex(self.premultiplier))

    @property
    def norm_bound(self) -> float:
        return abs(self.premultiplier) * self.weights.sup_weight

    @property
    def pm_log(self) -> float:
        return math.log(abs(self.premultiplier))

    @property
    def pm_arg(self) -> float:
        return math.atan2(self.premultiplier.imag, self.premultiplier.real)

    def power_log_mags(self, n: int, x: CoefVec) -> np.ndarray:
        """Log-magnitudes of T^n x's entries in index order, O(nnz) regardless
        of n, without building the vector.

        Coefficient at j of T^n x is premult^n * prod_{i=1..n} w_{j+i} * x_{j+n};
        a unilateral shift keeps only x's entries past index n, a suffix of
        its support.

        Unit weights skip the product term C(i) - C(i - n) at each kept index
        i of x: C is +0.0 from 0 up and -0.0 below, so the term is +0.0 (a
        -0.0 - (+0.0) would need i < 0 <= i - n). Adding it to lm changes
        only lm = -0.0, to +0.0, and n log|premult| is never -0.0 (n >= 1,
        and log 1 is +0.0), so lm + n log|premult| has the full sum's bits,
        NaN and infinities included.
        """
        n = int(n)
        if n < 0:
            raise ValueError("power must be >= 0")
        if x.side is not self.side:
            raise SideMismatchError(f"{x.side.value} vector under {self.side.value} shift")
        if n == 0 or x.nnz == 0:
            return x.log_mags
        if int(x.indices[0]) - n < -(2**63):
            raise ValueError(f"index {int(x.indices[0])} - {n} leaves int64")
        start = 0
        if self.side is Side.UNILATERAL:
            start = int(np.searchsorted(x.indices, n, side="right"))
        if self.weights.is_unit:
            return x.log_mags[start:] + n * self.pm_log
        src = x.indices[start:]
        # lm + (C(j) - C(j - n)) + n pm_log, in cum's fresh array
        out = self.weights.cum(src)
        out -= self.weights.cum(src - n)
        np.add(x.log_mags[start:], out, out=out)
        out += n * self.pm_log
        return out

    def power_apply(self, n: int, x: CoefVec) -> CoefVec:
        """T^n x: the entries of ``power_log_mags`` moved n places down."""
        lm = self.power_log_mags(n, x)
        if n == 0 or x.nnz == 0:
            return x
        if lm.size == 0:
            return CoefVec.zero(self.side)
        start = x.nnz - lm.size
        ph = wrap_phase(x.phases[start:] + n * self.pm_arg)
        return CoefVec(self.side, x.indices[start:] - n, lm, ph)


def scaled_orbit_point(lam: ScalingSeq, T: ShiftOp, n: int, x: CoefVec) -> CoefVec:
    """lam_n * T^n x with all magnitude arithmetic in log domain.

    Entries may exceed float range; they stay as log entries in the result.
    The vector is built once: T^n x's log-magnitudes plus log|lam_n|, and its
    phases, each wrapped, plus arg lam_n, wrapped again (at n = 0, x's own
    phases plus arg lam_n, wrapped once).
    """
    lam_n = eval_log(lam, n)
    lm = T.power_log_mags(n, x)
    if lam_n.zero or lm.size == 0:
        return CoefVec.zero(T.side)
    start = x.nnz - lm.size
    ph = x.phases[start:] if n == 0 else wrap_phase(x.phases[start:] + n * T.pm_arg)
    # at n = 0, power_log_mags hands back x's own read-only array
    lm = np.add(lm, lam_n.log_mag, out=lm if n else None)
    return CoefVec(T.side, x.indices[start:] - n, lm, wrap_phase(ph + lam_n.phase))
