"""Dynamics of adjoints of polynomial multiplication operators on the Hardy space.

The dynamics of the adjoint of multiplication by phi is decided entirely by
whether the symbol's range over the open disk meets the unit circle. The
range test returns a certificate: an interior witness for intersection, or a
max/min-modulus boundary certificate with Lipschitz slack (plus a
winding-number zero count) for disjointness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolySymbol",
    "RangeKind",
    "RangeCertificate",
    "AdjointClass",
    "SymbolVerdict",
    "winding_number",
    "range_circle_test",
    "classify_adjoint",
]


@dataclass(frozen=True)
class PolySymbol:
    """Polynomial symbol phi(z) = sum_j coeffs[j] z^j, low degree first."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (0j,)
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def constant(a: complex) -> "PolySymbol":
        return PolySymbol((complex(a),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def __call__(self, z):
        return np.polyval(np.array(self.coeffs[::-1]), z)

    def derivative_sup(self) -> float:
        """sup |phi'| on the closed disk, bounded by sum j*|c_j|."""
        return float(sum(j * abs(c) for j, c in enumerate(self.coeffs)))


class RangeKind(enum.Enum):
    INTERSECTS = "intersects"
    DISJOINT_INSIDE = "disjoint_inside"
    DISJOINT_OUTSIDE = "disjoint_outside"
    UNCERTAIN = "uncertain"


# exact-touching ranges (boundary extremum equal to 1) are resolved up to
# this equality tolerance, like the constant-symbol classifier
BOUNDARY_EQ_TOL = 1e-12

# the least number of boundary samples the range test takes
MIN_GRID = 256

# an intersection witness w must have ||phi(w)| - 1| <= RANGE_TOL
RANGE_TOL = 1e-9


@dataclass(frozen=True)
class RangeCertificate:
    """Verdict on phi(D) versus the unit circle, with checkable evidence.

    * intersects: ``witness`` lies strictly inside the disk and
      ``||phi(witness)| - 1| <= tol`` on re-evaluation.
    * disjoint_inside: boundary max of |phi| at most 1, certified either by
      grid max + Lipschitz slack < 1 or by the exact critical-point maximum;
      the maximum principle then keeps the open-disk image strictly inside.
    * disjoint_outside: winding number 0 (no zeros in the disk) plus boundary
      min at least 1 (grid - slack > 1, or exact critical-point minimum);
      the minimum principle keeps the image strictly outside.

    ``verify`` re-derives a disjoint kind from phi at the recorded grid, and
    holds a witness to at most RANGE_TOL; it trusts no recorded number.
    """

    kind: RangeKind
    tol: float
    grid: int
    boundary_min: float
    boundary_max: float
    slack: float
    min_exact: float
    max_exact: float
    winding: int | None = None
    witness: complex | None = None
    margin: float = 0.0

    def verify(self, phi: PolySymbol) -> bool:
        if self.kind is RangeKind.INTERSECTS:
            w = self.witness
            return (
                w is not None
                and abs(w) < 1.0
                and abs(abs(complex(phi(w))) - 1.0) <= min(self.tol, RANGE_TOL)
            )
        if self.kind is RangeKind.UNCERTAIN:
            return True
        # the range test decides non-constant symbols only
        if self.grid < MIN_GRID or phi.is_constant:
            return False
        _, mods, slack, winding = _boundary_samples(phi, self.grid)
        return _disjoint_kind(mods, slack, winding, *_circle_extrema(phi, mods)) is self.kind


def _circle_extrema(phi: PolySymbol, mods: np.ndarray) -> tuple[float, float]:
    """Exact min and max of |phi| on the unit circle, given |phi| at grid
    samples of it.

    |phi(e^{i theta})|^2 is a real trigonometric polynomial; its extrema sit
    at the circle roots of the derivative polynomial, which are enumerated
    with np.roots and merged with the samples as a safety net.
    """
    cs = np.array(phi.coeffs)
    d = phi.degree
    lo, hi = float(mods.min()), float(mods.max())
    if d >= 1:
        # a_m = sum_j c_j conj(c_{j-m}) for m = -d..d; derivative coeffs i*m*a_m
        a = np.zeros(2 * d + 1, dtype=complex)
        for m in range(-d, d + 1):
            s = 0j
            for j in range(max(0, m), min(d, d + m) + 1):
                s += cs[j] * np.conj(cs[j - m])
            a[m + d] = s
        deriv = np.array([1j * m * a[m + d] for m in range(-d, d + 1)])
        if np.any(deriv != 0):
            roots = np.roots(deriv[::-1])
            circle = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
            if circle.size:
                vals = np.abs(phi(circle / np.abs(circle)))
                lo = min(lo, float(vals.min()))
                hi = max(hi, float(vals.max()))
    return lo, hi


def winding_number(phi: PolySymbol, grid: int, vals=None) -> tuple[int | None, float]:
    """Winding of phi(e^{i theta}) around 0 by argument accumulation.

    Returns (winding or None when unreliable, min boundary modulus). The
    count is trusted only if no step turns by more than pi/2 and the curve
    stays safely away from the origin relative to the grid spacing. ``vals``
    are phi's values at the grid's samples where the caller has them.
    """
    if vals is None:
        vals = phi(np.exp(1j * np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)))
    mods = np.abs(vals)
    mmin = float(mods.min())
    lip = phi.derivative_sup()
    h = 2.0 * math.pi / grid
    if mmin <= max(lip * h, 1e-300):
        return None, mmin
    rolled = np.roll(vals, -1)
    steps = np.angle(rolled / vals)
    if float(np.max(np.abs(steps))) > math.pi / 2:
        return None, mmin
    w = float(np.sum(steps)) / (2.0 * math.pi)
    return int(round(w)), mmin


def _boundary_samples(phi: PolySymbol, g: int):
    """theta and |phi| at g boundary samples, the Lipschitz slack of the
    sampling and the winding number, from one evaluation of phi."""
    theta = np.linspace(0.0, 2.0 * math.pi, g, endpoint=False)
    vals = phi(np.exp(1j * theta))
    winding, _ = winding_number(phi, g, vals)
    return theta, np.abs(vals), phi.derivative_sup() * math.pi / g, winding


def _disjoint_kind(mods, slack: float, winding, m_star: float, M_star: float):
    """The disjoint kind that boundary samples and exact extrema certify, if
    any (maximum principle first, then the minimum principle)."""
    if float(mods.max()) + slack < 1.0 or M_star <= 1.0 + BOUNDARY_EQ_TOL:
        return RangeKind.DISJOINT_INSIDE
    if winding == 0 and (float(mods.min()) - slack > 1.0 or m_star >= 1.0 - BOUNDARY_EQ_TOL):
        return RangeKind.DISJOINT_OUTSIDE
    return None


def _interior_crossing(phi: PolySymbol, p_lo: complex, p_hi: complex, tol: float) -> complex | None:
    """Bisect |phi| - 1 along the segment [p_lo, p_hi] inside the disk."""
    f_lo = abs(complex(phi(p_lo))) - 1.0
    f_hi = abs(complex(phi(p_hi))) - 1.0
    if f_lo > 0 or f_hi < 0:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = p_lo + mid * (p_hi - p_lo)
        f = abs(complex(phi(p))) - 1.0
        if abs(f) <= tol * 0.5:
            return p
        if f < 0:
            lo = mid
        else:
            hi = mid
    p = p_lo + 0.5 * (lo + hi) * (p_hi - p_lo)
    return p if abs(abs(complex(phi(p))) - 1.0) <= tol else None


def _find_low_point(phi: PolySymbol, theta: np.ndarray, mods: np.ndarray, lip: float) -> complex | None:
    """A point strictly inside the disk with |phi| < 1, if one is findable."""
    # zeros inside the disk pin |phi| to 0 there
    if phi.degree >= 1:
        roots = np.roots(np.array(phi.coeffs[::-1]))
        inside = roots[np.abs(roots) < 1.0 - 1e-12]
        if inside.size:
            return complex(inside[np.argmin(np.abs(inside))])
    # otherwise pull the lowest boundary sample slightly inward
    i = int(np.argmin(mods))
    base = float(mods[i])
    for delta in (1e-12, 1e-9, 1e-6, 1e-3):
        cand = (1.0 - delta) * np.exp(1j * float(theta[i]))
        if abs(complex(phi(cand))) < 1.0:
            return complex(cand)
    if base < 1.0:
        cand = (1.0 - min(1e-6, (1.0 - base) / (2.0 * max(lip, 1e-30)))) * np.exp(
            1j * float(theta[i])
        )
        if abs(complex(phi(cand))) < 1.0:
            return complex(cand)
    return None


def _find_high_point(phi: PolySymbol, theta: np.ndarray, mods: np.ndarray) -> complex | None:
    i = int(np.argmax(mods))
    for delta in (1e-12, 1e-9, 1e-6, 1e-3):
        cand = (1.0 - delta) * np.exp(1j * float(theta[i]))
        if abs(complex(phi(cand))) > 1.0:
            return complex(cand)
    return None



def range_circle_test(phi: PolySymbol, grid: int = 4096) -> RangeCertificate:
    """Classify the range of phi over the open unit disk against the circle.

    Decision ladder (phi non-constant):
      * boundary max of |phi| at most 1  =>  disjoint inside (max principle:
        the open-disk image stays strictly below the boundary max);
      * winding 0 and boundary min at least 1  =>  disjoint outside (minimum
        principle for zero-free holomorphic functions);
      * an interior point below 1 and one above 1  =>  intersects, with a
        bisected witness on the segment between them;
      * otherwise uncertain, with the achieved margins recorded.

    An undecided grid is refined once, to twice its samples.
    """
    if phi.is_constant:
        raise ValueError("phi is constant; classify_adjoint decides constant symbols")
    if grid < MIN_GRID:
        raise ValueError(f"need at least {MIN_GRID} boundary samples")
    cert = None
    for round_idx in range(2):
        g = grid << round_idx
        theta, mods, slack, winding = _boundary_samples(phi, g)
        if round_idx == 0:
            m_star, M_star = _circle_extrema(phi, mods)
        m_lo, m_hi = float(mods.min()), float(mods.max())
        kind = _disjoint_kind(mods, slack, winding, m_star, M_star)
        if kind is not None:
            return RangeCertificate(
                kind, RANGE_TOL, g, m_lo, m_hi, slack, m_star, M_star, winding=winding,
                margin=1.0 - m_hi if kind is RangeKind.DISJOINT_INSIDE else m_lo - 1.0,
            )

        witness = None
        if M_star > 1.0:
            p_lo = _find_low_point(phi, theta, mods, phi.derivative_sup())
            p_hi = _find_high_point(phi, theta, mods)
            if p_lo is not None and p_hi is not None:
                witness = _interior_crossing(phi, p_lo, p_hi, RANGE_TOL)
        if witness is not None and abs(witness) < 1.0:
            return RangeCertificate(
                RangeKind.INTERSECTS, RANGE_TOL, g, m_lo, m_hi, slack,
                m_star, M_star, winding=winding, witness=witness,
                margin=abs(abs(complex(phi(witness))) - 1.0),
            )
        cert = RangeCertificate(
            RangeKind.UNCERTAIN, RANGE_TOL, g, m_lo, m_hi, slack,
            m_star, M_star, winding=winding,
            margin=min(abs(m_hi - 1.0), abs(m_lo - 1.0)),
        )
    return cert


class AdjointClass(enum.Enum):
    FH_AND_TMR = "frequently_hypercyclic_and_multiply_recurrent"
    NOT_RECURRENT = "not_recurrent"
    CONSTANT_RECURRENT = "constant_recurrent"
    CONSTANT_NOT_RECURRENT = "constant_not_recurrent"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class SymbolVerdict:
    kind: AdjointClass
    certificate: RangeCertificate | None


CONSTANT_UNIMODULAR_TOL = 1e-12


def classify_adjoint(phi: PolySymbol) -> SymbolVerdict:
    """Dynamics of the adjoint multiplier from the range of its symbol.

    Non-constant symbols: range meets the circle iff the adjoint is
    frequently hypercyclic iff it is topologically multiply recurrent;
    disjoint ranges give an operator that is not even recurrent. A constant
    symbol a is recurrent exactly when |a| = 1.
    """
    if phi.is_constant:
        a = abs(phi.coeffs[0])
        if abs(a - 1.0) <= CONSTANT_UNIMODULAR_TOL:
            return SymbolVerdict(AdjointClass.CONSTANT_RECURRENT, None)
        return SymbolVerdict(AdjointClass.CONSTANT_NOT_RECURRENT, None)
    cert = range_circle_test(phi)
    if cert.kind is RangeKind.INTERSECTS:
        return SymbolVerdict(AdjointClass.FH_AND_TMR, cert)
    if cert.kind in (RangeKind.DISJOINT_INSIDE, RangeKind.DISJOINT_OUTSIDE):
        return SymbolVerdict(AdjointClass.NOT_RECURRENT, cert)
    return SymbolVerdict(AdjointClass.UNCERTAIN, cert)
