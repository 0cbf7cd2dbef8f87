"""Reference implementations the tests check the library against.

They hold no production code path: each is the plain definition that a
faster or more general routine in ``orbitlab`` must agree with.
"""

import math

import numpy as np

from orbitlab import lspace
from orbitlab.lspace import CoefVec, Side, SideMismatchError, _positions, norm
from orbitlab.seqcore import wrap_phase
from orbitlab.shiftops import ShiftOp


def to_complex_dict(x: CoefVec) -> dict[int, complex]:
    """The entries of a float-range vector as {index: complex}."""
    return dict(zip(x.indices.tolist(), x.to_complex_array().tolist()))


def shift_once(T: ShiftOp, x: CoefVec) -> CoefVec:
    """One application (T x)_j = premult * w_{j+1} * x_{j+1}, straight from
    the definition; iterating it is the oracle for ``T.power_apply``."""
    if x.side is not T.side:
        raise SideMismatchError(f"{x.side.value} vector under {T.side.value} shift")
    if x.nnz == 0:
        return CoefVec.zero(T.side)
    new_idx = x.indices - 1
    keep = slice(None)
    if T.side is Side.UNILATERAL:
        keep = new_idx >= 1
    lm = x.log_mags[keep] + T.weights.log_w(x.indices[keep]) + T.pm_log
    ph = wrap_phase(x.phases[keep] + T.pm_arg)
    return CoefVec(T.side, new_idx[keep], lm, ph)


def merge(x: CoefVec, y: CoefVec):
    """Union of supports by ``np.union1d``, with positions into each vector
    (-1 where absent); the oracle for ``lspace._merge``."""
    union = np.union1d(x.indices, y.indices)
    return union, _positions(x, union), _positions(y, union)


def dist(x: CoefVec, y: CoefVec) -> float:
    """norm(x - y) with both vectors zero-padded onto the ``np.union1d`` of
    their supports; ``lspace.dist`` must equal it bit for bit."""
    if x.side is not y.side:
        raise SideMismatchError(f"{x.side.value} vs {y.side.value}")
    if y.nnz == 0:
        return norm(x)
    if x.nnz == 0:
        return norm(y)
    x._require_float_range()
    y._require_float_range()
    _, px, py = merge(x, y)
    vx, vy = (np.where(p >= 0, np.exp(v.log_mags[np.maximum(p, 0)])
                       * np.exp(1j * v.phases[np.maximum(p, 0)]), 0j)
              for v, p in ((x, px), (y, py)))
    sq = np.abs(vx - vy) ** 2
    return math.sqrt(math.fsum(np.sort(sq)[::-1]))


def wrap_phase_formula(theta):
    """pi - remainder(pi - theta, 2 pi), one ``np.remainder`` pass always."""
    return math.pi - np.remainder(math.pi - np.asarray(theta, dtype=np.float64),
                                  2.0 * math.pi)


def return_distances(T: ShiftOp, x: CoefVec, N: int) -> np.ndarray:
    """dist(T^n x, x) for n = 1..N, one ``power_apply`` and one ``lspace.dist``
    per n; its entries below eps are the oracle for ``orbits.recurrence_scan``."""
    return np.array([lspace.dist(T.power_apply(n, x), x) for n in range(1, N + 1)])
