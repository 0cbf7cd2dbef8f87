"""Reference implementations the tests check the library against.

They hold no production code path: each is the plain definition that a
faster or more general routine in ``orbitlab`` must agree with.
"""

from orbitlab.lspace import CoefVec, Side, SideMismatchError
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
