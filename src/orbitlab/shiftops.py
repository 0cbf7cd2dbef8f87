"""Weighted backward shifts and log-domain weight-product machinery.

Convention fixed once: ``(T x)_j = premult * w_{j+1} * x_{j+1}``; a unilateral
shift drops anything landing below index 1 (so ``T e_1 = 0``). Powers are
computed exactly through prefix sums of ``log w`` rather than by iteration.
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
        return cls("table_w", (vals, int(start)))

    # -- structure -----------------------------------------------------------
    @property
    def sup_weight(self) -> float:
        f = self.family
        if f == "constant_w":
            return self.params[0]
        if f == "sqrt_ratio":
            return math.sqrt(2.0)  # w_1, weights decrease toward 1
        if f in ("step_bilateral", "inverse_step_bilateral"):
            return 2.0
        if f == "table_w":
            return max(self.params[0])
        raise ValueError(f"unknown weight family {f!r}")

    @property
    def inf_weight(self) -> float:
        f = self.family
        if f == "constant_w":
            return self.params[0]
        if f == "sqrt_ratio":
            return 1.0
        if f == "step_bilateral":
            return 1.0
        if f == "inverse_step_bilateral":
            return 0.5
        if f == "table_w":
            return min(self.params[0])
        raise ValueError(f"unknown weight family {f!r}")

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

    def log_w(self, idx: np.ndarray) -> np.ndarray:
        """log w at the given integer indices (vectorized)."""
        idx = np.asarray(idx, dtype=np.int64)
        f = self.family
        if f == "constant_w":
            return np.full(idx.shape, math.log(self.params[0]))
        if f == "sqrt_ratio":
            if idx.size and idx.min() < 1:
                raise ValueError("sqrt_ratio weights defined for n >= 1 only")
            nf = idx.astype(np.float64)
            return 0.5 * (np.log(nf + 1.0) - np.log(nf))
        if f == "step_bilateral":
            return np.where(idx >= 1, math.log(2.0), 0.0)
        if f == "inverse_step_bilateral":
            return np.where(idx >= 1, math.log(2.0), -math.log(2.0))
        if f == "table_w":
            vals, start = self.params
            off = idx - start
            if idx.size and (off.min() < 0 or off.max() >= len(vals)):
                raise ValueError("index outside table_w range")
            return np.log(np.array(vals))[off]
        raise ValueError(f"unknown weight family {f!r}")

    def log_prefix_pos(self, n: np.ndarray) -> np.ndarray | None:
        """Closed-form prefix sum over s = 1..n of log w, when available.

        Exactness here matters: cumsum over 1e6 terms loses ~1e-9 which the
        product contracts cannot afford.
        """
        n = np.asarray(n, dtype=np.float64)
        f = self.family
        if f == "constant_w":
            return n * math.log(self.params[0])
        if f == "sqrt_ratio":
            return 0.5 * np.log(n + 1.0)
        if f in ("step_bilateral", "inverse_step_bilateral"):
            return n * math.log(2.0)
        return None

    def log_prefix_neg(self, k: np.ndarray) -> np.ndarray | None:
        """Closed-form sum over s = -(k-1)..0 of log w (k terms), when available."""
        k = np.asarray(k, dtype=np.float64)
        f = self.family
        if f == "constant_w":
            return k * math.log(self.params[0])
        if f == "step_bilateral":
            return np.zeros(k.shape)
        if f == "inverse_step_bilateral":
            return -k * math.log(2.0)
        return None

    # -- products ------------------------------------------------------------
    # C(i) = sum_{s=1..i} log w_s for i >= 0 and C(i) = -T(-i) for i < 0, with
    # T(k) = sum_{s=-(k-1)..0} log w_s, so that log prod_{s=a..b} w_s is
    # C(b) - C(a-1) on all of Z. Closed-form families evaluate C at the
    # queried indices; table_w weights look it up in prefix sums over their
    # table, built on first use and freed with the instance.

    def check_range(self, lo: int, hi: int) -> None:
        """Check that C(i) is defined for every i in [lo, hi]."""
        lo, hi = min(lo, 0), max(hi, 0)
        if lo < 0 and not self.bilateral_ok:
            raise ValueError(f"{self.family} weights have no bilateral extension")
        if self.family == "table_w":
            vals, start = self.params
            cap_hi = start + len(vals) - 1
            if hi > cap_hi:
                raise ValueError(f"index {hi} exits the table's range (max {cap_hi})")
            if lo < 0 and lo + 1 < start:
                raise ValueError(f"index {lo} exits the table's range (min {start})")

    @cached_property
    def _table_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """table_w only: C(0..max) and T(0..1-start) from one log_w pass."""
        vals, start = self.params
        lo = min(start, 1)
        log_w = self.log_w(np.arange(lo, start + len(vals)))
        return _prefix(log_w[1 - lo:]), _prefix(log_w[: 1 - lo][::-1])

    def _pos_cum(self, i: np.ndarray) -> np.ndarray:
        """C(i) for indices i >= 0."""
        if self.family == "table_w":
            return self._table_sums[0][i]
        out = self.log_prefix_pos(i)
        out[i == 0] = 0.0  # the empty sum; 0 * log c is -0.0 for c < 1
        return out

    def _neg_cum(self, k: np.ndarray) -> np.ndarray:
        """T(k) for k >= 1."""
        if self.family == "table_w":
            return self._table_sums[1][k]
        return self.log_prefix_neg(k)

    def cum(self, idx: np.ndarray) -> np.ndarray:
        """The signed cumulative C(i) at any integer indices (vectorized)."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(0)
        lo, hi = int(idx.min()), int(idx.max())
        self.check_range(lo, hi)
        if lo >= 0:
            return self._pos_cum(idx)
        out = np.empty(idx.shape, dtype=np.float64)
        pos = idx >= 0
        out[pos] = self._pos_cum(idx[pos])
        out[~pos] = -self._neg_cum(-idx[~pos])
        return out

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


def _prefix(log_w: np.ndarray) -> np.ndarray:
    """0 followed by the running sums of log_w."""
    out = np.zeros(log_w.size + 1)
    out[1:] = np.cumsum(log_w)
    return out


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
        if self.side not in (Side.UNILATERAL, Side.BILATERAL):
            raise ValueError("shifts act on unilateral or bilateral vectors")
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

    def power_apply(self, n: int, x: CoefVec) -> CoefVec:
        """T^n x via weight-product formula, O(nnz) regardless of n.

        Coefficient at j of T^n x is premult^n * prod_{i=1..n} w_{j+i} * x_{j+n}.
        """
        if n < 0:
            raise ValueError("power must be >= 0")
        if x.side is not self.side:
            raise SideMismatchError(f"{x.side.value} vector under {self.side.value} shift")
        if n == 0 or x.nnz == 0:
            return x
        if int(x.indices[0]) - int(n) < -(2**63):
            raise ValueError(f"index {int(x.indices[0])} - {n} leaves int64")
        new_idx = x.indices - n
        keep = slice(None)
        if self.side is Side.UNILATERAL:
            keep = new_idx >= 1
        src = x.indices[keep]
        if src.size == 0:
            return CoefVec.zero(self.side)
        prod = self.weights.cum(src) - self.weights.cum(src - n)
        lm = x.log_mags[keep] + prod + n * self.pm_log
        ph = wrap_phase(x.phases[keep] + n * self.pm_arg)
        return CoefVec(self.side, new_idx[keep], lm, ph)


def scaled_orbit_point(lam: ScalingSeq, T: ShiftOp, n: int, x: CoefVec) -> CoefVec:
    """lam_n * T^n x with all magnitude arithmetic in log domain.

    Entries may exceed float range; they stay as log entries in the result.
    """
    lam_n = eval_log(lam, n)
    return T.power_apply(n, x).scale(lam_n)
