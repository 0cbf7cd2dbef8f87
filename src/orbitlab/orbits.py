"""Hitting sets of scaled orbits, density statistics and progression search.

The scan engine computes dist(lam_n T^n x, y) for whole ranges of n at once:
index-independent weights factor the coefficient magnitudes into a per-n
scale plus per-entry logs, which turns the distance into a windowed sum plus
log-sum-exp tails; general weights fall back to a per-n kernel over the
support. A log-domain pre-filter skips float materialization whenever a
single coefficient already exceeds |y| + eps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .lspace import Ball, CoefVec, Side, dist, norm
from .seqcore import ScalingSeq, eval_at, eval_log
from .shiftops import ShiftOp, scaled_orbit_point

__all__ = [
    "HittingSet",
    "DensityStats",
    "APWitness",
    "IntPolynomial",
    "MRWitness",
    "MRSearchResult",
    "hitting_set",
    "orbit_distances",
    "density_stats",
    "find_ap",
    "ap_k_members",
    "find_poly_pattern",
    "mr_witness_search",
    "witness_distances",
    "recurrence_scan",
]

# scans run over a fixed grid of n-chunks so that the per-call temporaries of
# the distance kernels stay bounded, whatever the horizon
SCAN_CHUNK = 1 << 16


class HittingSet:
    """Sorted set {n <= n_max : lam_n T^n x in B(y, eps)}."""

    def __init__(self, indices: np.ndarray, n_max: int):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 1 or idx[-1] > n_max):
            raise ValueError("hitting set must be sorted, unique, inside [1, n_max]")
        idx.setflags(write=False)
        self.indices = idx
        self.n_max = int(n_max)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __contains__(self, n: int) -> bool:
        p = np.searchsorted(self.indices, n)
        return p < self.indices.size and self.indices[p] == n

    @cached_property
    def lookup(self) -> np.ndarray:
        """Boolean member table over 0..n_max."""
        table = np.zeros(self.n_max + 1, dtype=bool)
        table[self.indices] = True
        return table

    def counts_upto(self, ns: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.indices, ns, side="right")

    def restrict(self, n_max: int) -> "HittingSet":
        return HittingSet(self.indices[self.indices <= n_max], n_max)


@dataclass(frozen=True)
class DensityStats:
    """Windowed lower/upper density estimates on a geometric prefix grid.

    These are finite-horizon estimates: they can falsify positive lower
    density but never certify it.
    """

    grid: np.ndarray
    counts: np.ndarray
    lower_est: float
    upper_est: float
    window: tuple[int, int]
    label: str = "windowed estimate"


def density_stats(h: HittingSet, n0: int | None = None, grid_ratio: float = 2.0) -> DensityStats:
    if n0 is None:
        n0 = math.isqrt(h.n_max - 1) + 1
    if n0 < 10:
        raise ValueError("density window must start at n0 >= 10")
    if n0 > h.n_max // 10:
        raise ValueError("density window too short: need n0 <= n_max/10")
    pts = [n0]
    while pts[-1] < h.n_max:
        pts.append(min(max(int(pts[-1] * grid_ratio), pts[-1] + 1), h.n_max))
    grid = np.array(pts, dtype=np.int64)
    counts = h.counts_upto(grid)
    dens = counts / grid
    return DensityStats(
        grid=grid,
        counts=counts,
        lower_est=float(dens.min()),
        upper_est=float(dens.max()),
        window=(int(n0), h.n_max),
    )


# ---------------------------------------------------------------------------
# orbit scan engine
# ---------------------------------------------------------------------------

def _suffix_lse(vals: np.ndarray) -> np.ndarray:
    """suffix[t] = log sum_{u >= t} exp(vals[u]), with suffix[len] = -inf."""
    out = np.full(vals.size + 1, -np.inf)
    if vals.size:
        out[:-1] = np.logaddexp.accumulate(vals[::-1])[::-1]
    return out


def _prefix_lse(vals: np.ndarray) -> np.ndarray:
    """prefix[t] = log sum_{u < t} exp(vals[u]), with prefix[0] = -inf."""
    out = np.full(vals.size + 1, -np.inf)
    if vals.size:
        out[1:] = np.logaddexp.accumulate(vals)
    return out


def _chunked(n_arr: np.ndarray, fn) -> np.ndarray:
    """Apply fn to the fixed SCAN_CHUNK grid of n_arr; merge in chunk order."""
    starts = range(0, n_arr.size, SCAN_CHUNK)
    return np.concatenate([fn(lo, min(lo + SCAN_CHUNK, n_arr.size)) for lo in starts])


def orbit_distances(
    x: CoefVec,
    lam: ScalingSeq,
    T: ShiftOp,
    y: CoefVec,
    eps: float,
    n_arr: np.ndarray,
) -> np.ndarray:
    """Squared distances dist(lam_n T^n x, y)^2 over the given orbit times.

    Times where the log pre-filter fires (a coefficient alone outstrips
    |y| + eps) report +inf; they are guaranteed misses.
    """
    if x.side is not T.side or y.side is not T.side:
        raise ValueError("vector sides must match the operator")
    n_arr = np.asarray(n_arr, dtype=np.int64)
    if n_arr.size == 0:
        return np.zeros(0)

    ny = norm(y)
    if x.nnz == 0:
        return np.full(n_arr.shape, ny * ny)

    lam_lm, lam_ph, lam_zero = eval_at(lam, n_arr)
    log_cap = math.log(ny + eps)
    unilateral = T.side is Side.UNILATERAL

    w_lo = 1 if unilateral else (int(y.indices.min()) if y.nnz else 0)
    w_hi = int(y.indices.max()) if y.nnz else w_lo
    w_hi = max(w_hi, w_lo)
    width = w_hi - w_lo + 1
    y_re = np.zeros(width)
    y_im = np.zeros(width)
    if y.nnz:
        y._require_float_range()
        vals = np.exp(y.log_mags) * np.exp(1j * y.phases)
        y_re[y.indices - w_lo] = vals.real
        y_im[y.indices - w_lo] = vals.imag

    pm_lm, pm_arg = T.pm_log, T.pm_arg
    nf = n_arr.astype(np.float64)

    if T.weights.is_flat:
        c = float(T.weights.log_w(np.array([1], dtype=np.int64))[0])
        scale_lm = np.where(lam_zero, -np.inf, lam_lm) + nf * (pm_lm + c)
        scale_ph = lam_ph + nf * pm_arg
        pos_lo = min(int(n_arr.min()) + w_lo, int(x.indices.min()))
        pos_hi = max(int(n_arr.max()) + w_hi, int(x.indices.max()))
        pos = np.full(pos_hi - pos_lo + 2, -1, dtype=np.int64)
        pos[x.indices - pos_lo] = np.arange(x.nnz, dtype=np.int64)
        suffix = _suffix_lse(2.0 * x.log_mags)
        prefix = _prefix_lse(2.0 * x.log_mags)

        def run(lo, hi):
            return _kernels.flat_orbit_dist2(
                n_arr[lo:hi],
                scale_lm[lo:hi],
                scale_ph[lo:hi],
                x.indices,
                x.log_mags,
                x.phases,
                pos,
                pos_lo,
                prefix,
                suffix,
                w_lo,
                w_hi,
                y_re,
                y_im,
                log_cap,
                unilateral,
            )

        return _chunked(n_arr, run)

    # general weights: cumulative log-product array over every index touched
    scale_lm = np.where(lam_zero, -np.inf, lam_lm) + nf * pm_lm
    scale_ph = lam_ph + nf * pm_arg
    i_hi = int(x.indices.max())
    i_lo = int(x.indices.min()) - int(n_arr.max())
    if unilateral:
        i_lo = 0
    cum_lo = min(i_lo, 0)
    pt = T.table(max(i_hi, 1))
    cum = pt.cum(np.arange(cum_lo, i_hi + 1, dtype=np.int64))
    y_norm2 = ny * ny

    def run(lo, hi):
        return _kernels.general_orbit_dist2(
            n_arr[lo:hi],
            scale_lm[lo:hi],
            scale_ph[lo:hi],
            x.indices,
            x.log_mags,
            x.phases,
            cum,
            cum_lo,
            w_lo,
            w_hi,
            y_re,
            y_im,
            y_norm2,
            log_cap,
            unilateral,
        )

    return _chunked(n_arr, run)


def _ball_scan(
    x: CoefVec, lam: ScalingSeq, T: ShiftOp, b: Ball, N: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One scan of n = max(1, lam.min_n)..N: the times, their squared
    distances to the center and the open-ball hit mask (strict d2 < r^2)."""
    if N < 1:
        raise ValueError("horizon must be >= 1")
    n_arr = np.arange(max(1, lam.min_n), N + 1, dtype=np.int64)
    d2 = orbit_distances(x, lam, T, b.center, b.radius, n_arr)
    return n_arr, d2, d2 < b.radius * b.radius


def hitting_set(x: CoefVec, lam: ScalingSeq, T: ShiftOp, b: Ball, N: int) -> HittingSet:
    """Scan n = 1..N for lam_n T^n x inside the open ball (strict distance)."""
    n_arr, _, hit = _ball_scan(x, lam, T, b, N)
    return HittingSet(n_arr[hit], N)


# ---------------------------------------------------------------------------
# progressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class APWitness:
    """Arithmetic progression a, a+tau*k, ..., a+m*tau*k inside a hitting set."""

    a: int
    k: int
    m: int
    tau: int

    def members(self) -> np.ndarray:
        return self.a + self.tau * self.k * np.arange(self.m + 1, dtype=np.int64)

    def verify(self, h: HittingSet) -> bool:
        return all(int(v) in h for v in self.members())


def _default_k(h: HittingSet, m: int, tau: int) -> int:
    return max(1, h.n_max // (m * tau * 4))


def find_ap(h: HittingSet, m: int, tau: int = 1, K: int | None = None) -> APWitness | None:
    """Smallest k then smallest a with the full (m+1)-term progression in h."""
    if m < 1 or tau < 1:
        raise ValueError("need m >= 1 and tau >= 1")
    K = _default_k(h, m, tau) if K is None else K
    if K < 1 or len(h) == 0:
        return None
    k, starts, _ = _kernels.ap_scan(h.lookup, h.indices, h.n_max, m, tau, K, 1)
    if k < 0:
        return None
    return APWitness(a=int(starts[0]), k=k, m=m, tau=tau)


def ap_k_members(h: HittingSet, k: int, m: int, tau: int = 1) -> np.ndarray:
    """All starts a of full progressions with gap tau*k (a <= n_max - m*tau*k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    offsets = (tau * k * np.arange(1, m + 1)).astype(np.int64)
    return _kernels.progression_members(h.lookup, h.indices, h.n_max, offsets)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-valued polynomial with p(0) = 0, stored in the binomial basis.

    p(k) = sum_{j>=1} c_j * C(k, j); integer coefficients c_j make the values
    integers at every integer argument, which is exactly the class of
    rational-coefficient integer-valued polynomials vanishing at 0.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def eval(self, k: int) -> int:
        # C(k, j) via falling factorials, valid for every integer k
        total = 0
        for j, c in enumerate(self.coeffs, start=1):
            num = 1
            for t in range(j):
                num *= k - t
            total += c * (num // math.factorial(j))
        return total

    @property
    def degree(self) -> int:
        d = len(self.coeffs)
        while d and self.coeffs[d - 1] == 0:
            d -= 1
        return d


def find_poly_pattern(
    h: HittingSet, polys: list[IntPolynomial], K: int | None = None
) -> tuple[int, int] | None:
    """Smallest k (all p_j(k) nonzero), then smallest a, with the pattern
    a, a + p_1(k), ..., a + p_m(k) inside the set. Returns (a, k).

    Polynomials must take positive values on the scanned range (negative
    values violate the positive-pattern form and raise).
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    if K is None:
        K = _default_k(h, max(1, max(p.degree for p in polys)), 1)
    for k in range(1, K + 1):
        offsets = [p.eval(k) for p in polys]
        if any(v < 0 for v in offsets):
            raise ValueError(f"polynomial takes negative value {min(offsets)} at k={k}")
        if any(v == 0 for v in offsets):
            continue
        starts = _kernels.progression_members(
            h.lookup, h.indices, h.n_max, np.array(sorted(set(offsets)), dtype=np.int64)
        )
        if starts.size:
            return int(starts[0]), k
    return None


# ---------------------------------------------------------------------------
# multiple-recurrence witness pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MRWitness:
    """A vector u with T^{j*ell} u inside B(y, eps) for j = 0..m (re-verified)."""

    u: CoefVec
    ell: int
    m: int
    center: CoefVec
    radius: float
    distances: tuple[float, ...]
    a: int
    k: int
    tau: int

    def verify(self, T: ShiftOp, tol: float = 0.0) -> bool:
        dists = witness_distances(T, self.u, self.center, self.ell, self.m)
        return all(d < self.radius + tol for d in dists)


def witness_distances(T: ShiftOp, u: CoefVec, y: CoefVec, ell: int, m: int):
    """dist(T^{j*ell} u, y) for j = 0..m, computed one at a time in order."""
    for j in range(m + 1):
        yield dist(T.power_apply(j * ell, u), y)


@dataclass(frozen=True)
class MRSearchResult:
    witness: MRWitness | None
    diagnostics: dict

    def __bool__(self) -> bool:
        return self.witness is not None


def mr_witness_search(
    x: CoefVec,
    lam: ScalingSeq,
    T: ShiftOp,
    b: Ball,
    m: int,
    tau: int,
    N: int,
    K: int | None = None,
) -> MRSearchResult:
    """Search recipe: hit B(y, eps/2) along the orbit, locate an arithmetic
    progression of hit times with gap ell = tau*k, then accept the first
    start a whose scaling ratios lam_a / lam_{a+j*tau*k} sit close enough to
    1 that T^{j*ell} u stays inside B(y, eps). The returned witness is
    re-verified by direct distance computation.
    """
    if m < 0 or tau < 1:
        raise ValueError("need m >= 0 and tau >= 1")
    verdict = ratio_precheck(lam, tau)
    if verdict is not None and verdict.is_bad:
        raise ValueError(
            f"scaling sequence has bad ratio limit {verdict.limit}; "
            "the multiple-recurrence recipe needs limit 1"
        )
    if verdict is not None and verdict.kind == "inconclusive":
        warnings.warn("ratio classifier inconclusive; witness search may fail")

    y, eps = b.center, b.radius
    half = Ball(y, eps / 2.0)
    h = hitting_set(x, lam, T, half, N)
    diag: dict = {"hits": len(h), "largest_ap": 0, "smallest_defect": math.inf}
    if len(h) == 0:
        return MRSearchResult(None, diag)

    if m == 0:
        n0 = int(h.indices[0])
        u = scaled_orbit_point(lam, T, n0, x)
        d0 = dist(u, y)
        return MRSearchResult(
            MRWitness(u, tau, 0, y, eps, (d0,), a=n0, k=0, tau=tau), diag
        )

    K = _default_k(h, m, tau) if K is None else K
    # k's with no pair of hits tau*k apart hold no start and are skipped
    k_found, members, diag["largest_ap"] = _kernels.ap_scan(
        h.lookup, h.indices, h.n_max, m, tau, K, 2
    )
    if k_found < 0:
        return MRSearchResult(None, diag)
    diag["k"] = k_found

    ell = tau * k_found
    for a in members:
        a = int(a)
        lam_a = eval_log(lam, a)
        ok = True
        for j in range(1, m + 1):
            lam_j = eval_log(lam, a + j * ell)
            ratio_ls = lam_a.mul(lam_j.inverse())
            if ratio_ls.log_mag > 700.0:
                ok = False
                break
            ratio = ratio_ls.to_complex()
            u_j = scaled_orbit_point(lam, T, a + j * ell, x)
            defect = abs(ratio - 1.0) * norm(u_j)
            diag["smallest_defect"] = min(diag["smallest_defect"], defect)
            if not defect < eps / 2.0:
                ok = False
                break
        if not ok:
            continue
        u = scaled_orbit_point(lam, T, a, x)
        dists = tuple(witness_distances(T, u, y, ell, m))
        if all(d < eps for d in dists):
            return MRSearchResult(
                MRWitness(u, ell, m, y, eps, dists, a=a, k=k_found, tau=tau), diag
            )
    return MRSearchResult(None, diag)


def ratio_precheck(lam: ScalingSeq, tau: int):
    """Ratio verdict for the witness-search precondition, or None when the
    sequence cannot be classified (domain errors, a short table, overflow)."""
    from .seqcore import ratio_classify

    horizon = 10**6
    if lam.family == "table":
        horizon = len(lam.params[0]) - tau
    try:
        return ratio_classify(lam, tau, N=max(horizon, 100 * tau))
    except (ValueError, ArithmeticError):
        return None


def recurrence_scan(T: ShiftOp, x: CoefVec, eps: float, N: int) -> np.ndarray:
    """All return times n <= N with dist(T^n x, x) < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    hits = []
    for n in range(1, N + 1):
        if dist(T.power_apply(n, x), x) < eps:
            hits.append(n)
    return np.array(hits, dtype=np.int64)
