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

from .seqcore import wrap_phase

__all__ = [
    "Side",
    "CoefVec",
    "Ball",
    "SideMismatchError",
    "norm",
    "dist",
]

# norm/dist refuse entries beyond exp(350): |entry|^2 would leave float range
NORM_LOG_CAP = 350.0
# exp rounds to +0.0 below ln 2^-1075 ~ -745.133, so an entry (or square)
# whose log-magnitude lies below LM_ZERO adds an exact zero to norm and dist
LM_ZERO = -746.0


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
        # indices and log_mags are copied: a CSV reader's columns are strided
        # views of its table, and a searchsorted on a strided array copies it
        # every call; wrap_phase returns a fresh array, so phases need no copy
        return CoefVec(
            side,
            np.array(indices, dtype=np.int64),
            np.array(log_mags, dtype=np.float64),
            wrap_phase(np.asarray(phases, dtype=np.float64)),
        )

    # -- views ----------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

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
    """Euclidean norm: ``math.fsum`` of the squares exp(2 log|x_i|) that can
    be nonzero, in support order.

    fsum is correctly rounded, so neither the order of the terms nor the
    exact zeros left out (2 log|x_i| < LM_ZERO) can change its result; the
    squares are finite and non-negative, so no order overflows where another
    would not. NaN entries stay in.
    """
    x._require_float_range()
    lm2 = 2.0 * x.log_mags
    sq = np.exp(lm2[~(lm2 < LM_ZERO)])
    return math.sqrt(math.fsum(sq.tolist()))


def _live(x: CoefVec) -> tuple[np.ndarray, np.ndarray]:
    """The indices and complex entries of x whose log-magnitude is not below
    LM_ZERO; every entry left out, its phase finite, is an exact complex zero."""
    keep = ~(x.log_mags < LM_ZERO)
    return x.indices[keep], np.exp(x.log_mags[keep]) * np.exp(1j * x.phases[keep])


def dist(x: CoefVec, y: CoefVec) -> float:
    """norm(x - y): ``fsum`` over the squares of the merged live supports.

    Each vector's entries are materialized on its live support (``_live``);
    one ``searchsorted`` of x's live indices into y's finds the shared ones.
    A shared index contributes |vx - vy|^2, an index live in one vector
    alone |v|^2, which is the |vx - 0j|^2 or |0j - vy|^2 of a zero-padded
    merge bit for bit; an index dead in both contributes 0. As in ``norm``,
    fsum's result is the same in any order and without the exact zeros.
    """
    _check_sides(x, y)
    x._require_float_range()
    y._require_float_range()
    if y.nnz == 0:
        return norm(x)
    if x.nnz == 0:
        return norm(y)
    (xi, vx), (yi, vy) = _live(x), _live(y)
    p = np.searchsorted(yi, xi)
    shared = p < yi.size
    shared[shared] = yi[p[shared]] == xi[shared]
    py = p[shared]
    vx[shared] -= vy[py]
    y_only = np.ones(yi.size, dtype=bool)
    y_only[py] = False
    sq = np.concatenate([np.abs(vx), np.abs(vy[y_only])]) ** 2
    return math.sqrt(math.fsum(sq.tolist()))
