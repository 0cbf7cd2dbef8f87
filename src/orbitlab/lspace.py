"""Finitely supported coefficient vectors over l2(N), l2(Z) and Hardy indices.

Entries are stored in log-magnitude/phase form so orbit points scaled by
weights like ``n!`` never overflow; norms and distances materialize floats and
therefore demand entry magnitudes within float range.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .seqcore import LogScalar, wrap_phase

__all__ = [
    "Side",
    "CoefVec",
    "Ball",
    "SideMismatchError",
    "norm",
    "dist",
    "in_ball",
    "axpy",
]

# norm/dist refuse entries beyond exp(350): |entry|^2 would leave float range
NORM_LOG_CAP = 350.0

# contributions cancelling below this relative size are dropped by axpy
CANCEL_REL = 1e-15


class SideMismatchError(ValueError):
    """Mixed vectors over different index sides."""


class Side(enum.Enum):
    UNILATERAL = "unilateral"  # indices >= 1, matching Te_1 = 0
    BILATERAL = "bilateral"  # indices in Z
    HARDY = "hardy"  # Taylor coefficients, indices >= 0

    @property
    def min_index(self):
        if self is Side.UNILATERAL:
            return 1
        if self is Side.HARDY:
            return 0
        return None


@dataclass(frozen=True, eq=False)
class CoefVec:
    """Sparse vector: sorted integer indices with log-magnitude/phase entries."""

    side: Side
    indices: np.ndarray
    log_mags: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        lm = np.asarray(self.log_mags, dtype=np.float64)
        ph = np.asarray(self.phases, dtype=np.float64)
        if not (idx.shape == lm.shape == ph.shape):
            raise ValueError("index/magnitude/phase arrays must align")
        if np.any(idx[1:] <= idx[:-1]):
            raise ValueError("indices must be strictly increasing")
        lo = self.side.min_index
        if lo is not None and idx.size and idx[0] < lo:
            raise ValueError(f"index {int(idx[0])} below side minimum {lo}")
        for name, arr in (("indices", idx), ("log_mags", lm), ("phases", ph)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero(side: Side) -> "CoefVec":
        e = np.zeros(0)
        return CoefVec(side, np.zeros(0, dtype=np.int64), e, e.copy())

    @staticmethod
    def basis(side: Side, k: int) -> "CoefVec":
        return CoefVec(side, np.array([k], dtype=np.int64), np.zeros(1), np.zeros(1))

    @staticmethod
    def from_pairs(side: Side, pairs) -> "CoefVec":
        """Build from (index, complex) pairs; duplicate indices are summed."""
        acc: dict[int, complex] = {}
        for i, v in pairs:
            acc[int(i)] = acc.get(int(i), 0j) + complex(v)
        items = sorted((i, v) for i, v in acc.items() if v != 0)
        idx = np.array([i for i, _ in items], dtype=np.int64)
        lm = np.array([math.log(abs(v)) for _, v in items])
        ph = np.array([math.atan2(v.imag, v.real) for _, v in items])
        return CoefVec(side, idx, lm, ph)

    @staticmethod
    def from_log_entries(side: Side, indices, log_mags, phases) -> "CoefVec":
        return CoefVec(
            side,
            np.array(indices, dtype=np.int64),
            np.array(log_mags, dtype=np.float64),
            wrap_phase(np.array(phases, dtype=np.float64)),
        )

    # -- views ----------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def entry(self, i: int) -> LogScalar:
        pos = np.searchsorted(self.indices, i)
        if pos < self.indices.size and self.indices[pos] == i:
            return LogScalar(float(self.log_mags[pos]), float(self.phases[pos]))
        return LogScalar(zero=True)

    def to_complex_array(self) -> np.ndarray:
        """Entries as complex128, aligned with ``indices``."""
        self._require_float_range()
        return np.exp(self.log_mags) * np.exp(1j * self.phases)

    def _require_float_range(self):
        if self.indices.size and float(np.max(self.log_mags)) > NORM_LOG_CAP:
            raise OverflowError(
                "entry log magnitude %.3g beyond float-safe cap %.0f"
                % (float(np.max(self.log_mags)), NORM_LOG_CAP)
            )

    def scale(self, a) -> "CoefVec":
        """Multiply by a scalar (complex or LogScalar)."""
        a = a if isinstance(a, LogScalar) else LogScalar.from_complex(a)
        if a.zero or self.nnz == 0:
            return CoefVec.zero(self.side)
        return CoefVec(
            self.side,
            self.indices,
            self.log_mags + a.log_mag,
            wrap_phase(self.phases + a.phase),
        )


@dataclass(frozen=True)
class Ball:
    """Open ball: membership is strict inequality on the distance."""

    center: CoefVec
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


def _check_sides(x: CoefVec, y: CoefVec):
    if x.side is not y.side:
        raise SideMismatchError(f"{x.side.value} vs {y.side.value}")


def norm(x: CoefVec) -> float:
    """Euclidean norm; exact compensated sum of squares, largest first."""
    if x.nnz == 0:
        return 0.0
    x._require_float_range()
    sq = np.exp(2.0 * np.sort(x.log_mags)[::-1])
    return math.sqrt(math.fsum(sq))


def _positions(v: CoefVec, union: np.ndarray) -> np.ndarray:
    if v.nnz == 0:
        return np.full(union.shape, -1, dtype=np.int64)
    p = np.searchsorted(v.indices, union)
    hit = (p < v.nnz) & (v.indices[np.minimum(p, v.nnz - 1)] == union)
    return np.where(hit, p, -1)


def _merge(x: CoefVec, y: CoefVec):
    """Union of supports with positions into each vector (-1 where absent).

    Both index arrays are sorted, so a stable sort of their concatenation is
    a linear merge of two runs; dropping adjacent duplicates leaves the
    sorted union.
    """
    cat = np.sort(np.concatenate([x.indices, y.indices]), kind="stable")
    fresh = np.ones(cat.size, dtype=bool)
    np.not_equal(cat[1:], cat[:-1], out=fresh[1:])
    union = cat[fresh]
    return union, _positions(x, union), _positions(y, union)


def axpy(a, x: CoefVec, y: CoefVec) -> CoefVec:
    """a*x + y with exact index-wise merging in log domain.

    Entries cancelling below relative 1e-15 of the larger operand are dropped.
    """
    _check_sides(x, y)
    a = a if isinstance(a, LogScalar) else LogScalar.from_complex(a)
    if a.zero or x.nnz == 0:
        return y
    if y.nnz == 0:
        return x.scale(a)
    union, px, py = _merge(x, y)
    lx = np.where(px >= 0, x.log_mags[np.maximum(px, 0)] + a.log_mag, -np.inf)
    tx = np.where(px >= 0, x.phases[np.maximum(px, 0)] + a.phase, 0.0)
    ly = np.where(py >= 0, y.log_mags[np.maximum(py, 0)], -np.inf)
    ty = np.where(py >= 0, y.phases[np.maximum(py, 0)], 0.0)

    m = np.maximum(lx, ly)
    with np.errstate(invalid="ignore"):
        s = np.where(np.isfinite(lx), np.exp(lx - m), 0.0) * np.exp(1j * tx) + np.where(
            np.isfinite(ly), np.exp(ly - m), 0.0
        ) * np.exp(1j * ty)
    r = np.abs(s)
    keep = r > CANCEL_REL
    if not keep.any():
        return CoefVec.zero(x.side)
    return CoefVec(
        x.side,
        union[keep],
        m[keep] + np.log(r[keep]),
        wrap_phase(np.angle(s[keep])),
    )


def dist(x: CoefVec, y: CoefVec) -> float:
    """norm(x - y): ``fsum`` over the sorted squares of the merged support.

    Each vector's entries are materialized on its own support; one
    ``searchsorted`` of x's indices into y's finds the shared ones. A shared
    index contributes |vx - vy|^2, an index of one vector alone |v|^2, which
    is the |vx - 0j|^2 or |0j - vy|^2 of a zero-padded merge bit for bit.
    """
    _check_sides(x, y)
    if y.nnz == 0:
        return norm(x)
    if x.nnz == 0:
        return norm(y)
    vx, vy = x.to_complex_array(), y.to_complex_array()
    p = np.searchsorted(y.indices, x.indices)
    shared = y.indices[np.minimum(p, y.nnz - 1)] == x.indices
    py = p[shared]
    vx[shared] -= vy[py]
    y_only = np.ones(y.nnz, dtype=bool)
    y_only[py] = False
    sq = np.concatenate([np.abs(vx), np.abs(vy[y_only])]) ** 2
    return math.sqrt(math.fsum(np.sort(sq)[::-1]))


def in_ball(x: CoefVec, b: Ball) -> bool:
    """Strict membership test dist(x, center) < radius."""
    return dist(x, b.center) < b.radius
