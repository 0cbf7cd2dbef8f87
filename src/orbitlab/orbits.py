"""Hitting sets of scaled orbits, density statistics and progression search.

The scan engine computes dist(lam_n T^n x, y) for whole ranges of n at once:
index-independent weights factor the coefficient magnitudes into a per-n
scale plus per-entry logs, which turns the distance into the window kernel's
sum over y's window plus exact log-sum-exp tails; general weights, and flat
weights whose target window is wider than the scan, take a per-n kernel over
the support. A log-domain pre-filter skips float materialization whenever a
single coefficient already exceeds |y| + eps.

Every ball question (hitting sets, the FU build's planned-time check,
return times) is one pass streamed over the SCAN_CHUNK grid of n that holds
only the hits, the distances asked for and one chunk's arrays; the flat
kernel's position table spans only the chunk's window of indices n + j.

With general weights on a unilateral shift, a certified enclosure decides
most times before the per-n kernel runs: y's window summed in full for the
whole chunk by the same window kernel, plus an upper bound on the
non-negative tail beyond it from one suffix log-sum-exp per target. A
decision is taken only outside the band eta(n) = ``_kernels.d2_error_bound``
around r^2, which bounds the rounding of the kernel and of the enclosure, so
it equals the kernel's own float answer. Return-time scans (y = x) and
windows wider than the scan leave no tail to enclose; there the same suffix
log-sum-exp bounds |lam_n T^n x|, and the reverse triangle inequality
d >= |y| - |lam_n T^n x| decides misses. The kernel runs on the undecided
times and on the times whose distances are asked for. Bilateral shifts take
the kernel at every time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .lspace import Ball, CoefVec, Side, dist, norm
from .seqcore import ScalingSeq, eval_at, eval_log, ratio_classify, scan_grid
from .shiftops import ShiftOp, scaled_orbit_point

__all__ = [
    "HittingSet",
    "DensityStats",
    "APWitness",
    "MRWitness",
    "MRSearchResult",
    "hitting_set",
    "orbit_distances",
    "density_stats",
    "find_ap",
    "mr_witness_search",
    "witness_distances",
    "recurrence_scan",
]

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


def density_stats(h: HittingSet, n0: int | None = None) -> DensityStats:
    """Densities on the doubling grid n0, 2 n0, 4 n0, ..., n_max."""
    if n0 is None:
        n0 = math.isqrt(h.n_max - 1) + 1
    if n0 < 10:
        raise ValueError("density window must start at n0 >= 10")
    if n0 > h.n_max // 10:
        raise ValueError("density window too short: need n0 <= n_max/10")
    pts = [n0]
    while pts[-1] < h.n_max:
        pts.append(min(2 * pts[-1], h.n_max))
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

def _prefix_lse(vals: np.ndarray) -> np.ndarray:
    """prefix[t] = log sum_{u < t} exp(vals[u]), with prefix[0] = -inf."""
    out = np.full(vals.size + 1, -np.inf)
    if vals.size:
        out[1:] = np.logaddexp.accumulate(vals)
    return out


def _suffix_lse(vals: np.ndarray) -> np.ndarray:
    """suffix[t] = log sum_{u >= t} exp(vals[u]), with suffix[len] = -inf."""
    return _prefix_lse(vals[::-1])[::-1]


def _orbit_scan(
    x: CoefVec, lam: ScalingSeq, T: ShiftOp, y: CoefVec, eps: float, n_hi: int, count: int
):
    """Set up one target's distance kernel once: y's window, x's log-sum-exp
    tails or the cumulative weight products. Returns (dist2, decide):
    dist2 gives dist(lam_n T^n x, y)^2 for an int64 array of times n <= n_hi,
    and decide(n_arr, r2) splits the sorted times n_arr into (inside, rest):
    the times certain to have dist2 < r2, and the times left open; the
    others are certain misses.

    ``count`` is the number of times the scan asks for. The flat kernel loops
    over y's window and the per-n kernel over the times, so flat weights take
    the per-n kernel only where the window is wider than the scan. Where
    the per-n kernel runs on a unilateral shift, decide is the
    window-plus-tail enclosure (``_enclosure``) when y's window is no wider
    than the scan and x's support reaches past it, and else the norm bound
    (``_norm_bound``), which decides misses only: return-time scans, whose
    window y = x is all of x's support, and windows wider than the scan.
    With the flat kernel and on bilateral shifts it decides nothing and
    dist2 answers every time.
    """
    if x.side is not T.side or y.side is not T.side:
        raise ValueError("vector sides must match the operator")
    ny = norm(y)
    if x.nnz == 0:
        return (lambda n_arr: np.full(n_arr.shape, ny * ny)), _undecided

    log_cap = math.log(ny + eps)
    unilateral = T.side is Side.UNILATERAL
    w_lo = 1 if unilateral else (int(y.indices.min()) if y.nnz else 0)
    w_hi = int(y.indices.max()) if y.nnz else w_lo
    w_hi = max(w_hi, w_lo)
    width = w_hi - w_lo + 1
    y_re = np.zeros(width)
    y_im = np.zeros(width)
    if y.nnz:
        vals = y.to_complex_array()
        y_re[y.indices - w_lo] = vals.real
        y_im[y.indices - w_lo] = vals.imag

    pm_lm, pm_arg = T.pm_log, T.pm_arg
    flat = T.weights.is_flat and width <= count
    # the flat kernel takes the index-independent log weight into the scale
    c = float(T.weights.log_w(np.array([1], dtype=np.int64))[0]) if flat else 0.0

    def scale(n_arr):
        lam_lm, lam_ph, lam_zero = eval_at(lam, n_arr)
        nf = n_arr.astype(np.float64)
        return np.where(lam_zero, -np.inf, lam_lm) + nf * (pm_lm + c), lam_ph + nf * pm_arg

    if flat:
        suffix = _suffix_lse(2.0 * x.log_mags)
        prefix = None if unilateral else _prefix_lse(2.0 * x.log_mags)

        def dist2(n_arr):
            pos, pos_lo = _window_positions(x, n_arr, w_lo, w_hi)
            return _kernels.flat_orbit_dist2(
                n_arr, *scale(n_arr), x.indices, x.log_mags, x.phases, pos, pos_lo,
                prefix, suffix, w_lo, w_hi, y_re, y_im, log_cap, unilateral,
            )

        return dist2, _undecided

    # per-n kernel: cumulative log-products over every index the times touch
    i_hi = int(x.indices.max())
    cum_lo = 0 if unilateral else min(int(x.indices.min()) - n_hi, 0)
    cum = T.weights.cum(np.arange(cum_lo, i_hi + 1, dtype=np.int64))

    def dist2(n_arr):
        return _kernels.general_orbit_dist2(
            n_arr, *scale(n_arr), x.indices, x.log_mags, x.phases, cum, cum_lo,
            w_lo, w_hi, y_re, y_im, ny * ny, log_cap, unilateral,
        )

    # bilateral tails are left to the kernel; the enclosure needs a window
    # no wider than the scan and a support that reaches past it (else the
    # window is the whole distance, as for y = x), and the norm bound
    # decides misses where it cannot
    if not unilateral:
        return dist2, _undecided
    if width > count or i_hi <= w_hi:
        return dist2, _norm_bound(x, scale, cum, y_re, y_im, ny * ny)
    return dist2, _enclosure(x, scale, cum, w_lo, w_hi, y_re, y_im, ny * ny, log_cap)


def _window_positions(x: CoefVec, n_arr: np.ndarray, w_lo: int, w_hi: int):
    """Positions in x of the indices n + j (j in [w_lo, w_hi]) that a window
    over the times n_arr reads, -1 where x has no entry; the table spans
    only min(n) + w_lo..max(n) + w_hi. Returns (table, its first index)."""
    pos_lo = int(n_arr.min()) + w_lo
    pos_hi = int(n_arr.max()) + w_hi
    a, b = np.searchsorted(x.indices, [pos_lo, pos_hi + 1])
    pos = np.full(pos_hi - pos_lo + 1, -1, dtype=np.int64)
    pos[x.indices[a:b] - pos_lo] = np.arange(a, b, dtype=np.int64)
    return pos, pos_lo


def _undecided(n_arr: np.ndarray, r2: float):
    """No enclosure: every time is left to the distance kernel."""
    return n_arr[:0], n_arr


def _tail_bound(x: CoefVec, cum: np.ndarray, k: int):
    """Certified upper bound on the tail of a unilateral per-n row: the sum
    of |c_i|^2 over i - n > k, c_i = exp(s(n) + C(i) - C(i - n) + log|x_i|).
    Its terms have C(i) - C(i - n) <= C(i) - C_min, C_min the least cum[j]
    over j > k, so the tail is at most exp(2 (s(n) - C_min) + S(n + k)) with
    S(l) the log-sum-exp of 2 (C(i) + log|x_i|) over i > l, one suffix array
    per target. Returns tail(n_arr, s_lm, s_abs) -> (log of the bound, the
    bound), both rounded up; s_abs is |s(n)|, 0 where the scaling vanished.
    """
    U, FN_ERR = _kernels.U, _kernels.FN_ERR
    c_min = float(cum[k + 1:].min())
    v = 2.0 * (cum[x.indices] + x.log_mags)
    lse = _suffix_lse(v)
    # the suffix log-sum-exp: each logaddexp step is 1-Lipschitz in what it
    # carries and adds at most 3 u max|value| + 2 exp/log1p errors, on top
    # of the rounding of the values v themselves
    lse_abs = max(float(np.abs(v).max()), float(np.abs(lse[:-1]).max())) + 1.0
    lse_err = x.nnz * (3.0 * U * lse_abs + 2.0 * FN_ERR) + 4.0 * U * (
        float(np.abs(cum).max()) + float(np.abs(x.log_mags).max()))

    def tail(n_arr, s_lm, s_abs):
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.searchsorted(x.indices, n_arr + k, side="right")
            tail_lm2 = 2.0 * (s_lm - c_min) + lse[t]
            tail_lm2 += lse_err + 8.0 * U * (s_abs + abs(c_min) + lse_abs)
            return tail_lm2, np.exp(tail_lm2) * (1.0 + 4.0 * FN_ERR)

    return tail


def _error_band(x: CoefVec, cum: np.ndarray, y_re: np.ndarray, y_im: np.ndarray, y2: float):
    """The rounding band of a unilateral per-n row (``_kernels.d2_error_bound``).
    Returns (band, ysq): band(s_lm, s_ph, r2) -> (eta, lm_terms, s_abs), with
    lm_terms bounding each coefficient's log-magnitude addends and s_abs as
    in ``_tail_bound``; ysq is the float fsum of y's squares over the window.
    """
    cum_abs = float(np.abs(cum).max())
    xlm_abs = float(np.abs(x.log_mags).max())
    xph_abs = float(np.abs(x.phases).max())
    # y2 against the exact sum of y's squares over the window, to which
    # its zeros add nothing
    ysq = math.fsum(np.square(y_re[y_re != 0.0]).tolist()
                    + np.square(y_im[y_im != 0.0]).tolist())
    dy = 1.01 * abs(y2 - ysq) + 3.0 * _kernels.U * ysq
    terms = x.nnz + 2 * y_re.size

    def band(s_lm, s_ph, r2):
        # a vanished scaling makes every coefficient exactly zero
        s_abs = np.where(s_lm == -np.inf, 0.0, np.abs(s_lm))
        lm_terms = s_abs + 2.0 * cum_abs + xlm_abs
        eta = _kernels.d2_error_bound(lm_terms, np.abs(s_ph) + xph_abs, terms, r2, y2, dy)
        return eta, lm_terms, s_abs

    return band, ysq


def _enclosure(
    x: CoefVec, scale, cum: np.ndarray, w_lo: int, w_hi: int,
    y_re: np.ndarray, y_im: np.ndarray, y2: float, log_cap: float,
):
    """Certified window-plus-tail decisions for a unilateral per-n scan.

    d2(n) = W(n) + tail(n): the window W over i - n in [w_lo, w_hi] is
    summed in full (``_kernels.window_dist2``), and the tail over i - n >
    w_hi is at most ``_tail_bound``'s bound. Returns decide(n_arr, r2) ->
    (inside, rest), the hit times and the open times: a miss where W >= r2
    + eta, a hit where W + tail < r2 - eta and no coefficient can reach
    log_cap (so the kernel's overflow pre-filter stays off), eta from
    ``_kernels.d2_error_bound``; each decided answer is the per-n kernel's
    own float answer to d2 < r2.
    """
    U = _kernels.U
    tail_bound = _tail_bound(x, cum, w_hi)
    band, _ = _error_band(x, cum, y_re, y_im, y2)

    def decide(n_arr, r2):
        s_lm, s_ph = scale(n_arr)
        pos, pos_lo = _window_positions(x, n_arr, w_lo, w_hi)
        W, lm_max = _kernels.window_dist2(
            n_arr, s_lm, s_ph, x.log_mags, x.phases, pos, pos_lo, cum, w_lo, w_hi,
            y_re, y_im,
        )
        eta, lm_terms, s_abs = band(s_lm, s_ph, r2)
        tail_lm2, tail = tail_bound(n_arr, s_lm, s_abs)
        with np.errstate(over="ignore", invalid="ignore"):
            # every coefficient's log-magnitude, rounding included, below log_cap
            lm_err = _kernels.lm_error_bound(lm_terms)
            lm_top = np.maximum(lm_max + lm_err, 0.5 * tail_lm2) + lm_err
            capped = lm_top + 4.0 * U * (lm_terms + abs(log_cap)) < log_cap
            ok = np.isfinite(eta)
            miss = ok & (W >= r2 + eta)
            hit = ok & capped & (W + tail < r2 - eta)
        return n_arr[hit], n_arr[~(hit | miss)]

    return decide


def _norm_bound(x: CoefVec, scale, cum: np.ndarray, y_re: np.ndarray, y_im: np.ndarray,
                y2: float):
    """Certified misses for a unilateral per-n scan whose window leaves no
    tail to enclose (y's window covers x's support, as for y = x, or is
    wider than the scan), from the reverse triangle inequality
    d(n) >= |y| - |lam_n T^n x|. The whole row is the tail beyond offset 0,
    so |lam_n T^n x|^2 <= U(n)^2 = exp(2 (s(n) - C_min) + S(n)) by
    ``_tail_bound``. Returns decide(n_arr, r2) -> (no times, open times): a
    miss where |y| > U(n) and (|y| - U(n))^2 >= r2 + eta, eta from
    ``_kernels.d2_error_bound``, which then is the kernel's own float answer
    d2 >= r2. It never decides a hit.
    """
    U = _kernels.U
    tail_bound = _tail_bound(x, cum, 0)
    band, ysq = _error_band(x, cum, y_re, y_im, y2)
    # below the exact |y| of the float window: ysq is within 2 u of the sum
    # of the exact squares, and sqrt and the product round once each
    y_lo = math.sqrt(ysq) * (1.0 - 8.0 * U)

    def decide(n_arr, r2):
        s_lm, s_ph = scale(n_arr)
        eta, _, s_abs = band(s_lm, s_ph, r2)
        _, tail = tail_bound(n_arr, s_lm, s_abs)
        with np.errstate(over="ignore", invalid="ignore"):
            # the gap and its square rounded down, U(n) rounded up
            gap = y_lo - np.sqrt(tail) * (1.0 + 4.0 * U)
            miss = (gap > 0.0) & (gap * gap * (1.0 - 8.0 * U) >= r2 + eta)
        return n_arr[:0], n_arr[~miss]

    return decide


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
    n_arr = np.asarray(n_arr, dtype=np.int64)
    if n_arr.size == 0:
        return np.zeros(0)
    return _orbit_scan(x, lam, T, y, eps, int(n_arr.max()), n_arr.size)[0](n_arr)


def _ball_scan(
    x: CoefVec, lam: ScalingSeq, T: ShiftOp, b: Ball, N: int, at: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One pass over n = max(1, lam.min_n)..N, streamed on the SCAN_CHUNK
    grid: the open-ball hit times (strict d2 < r^2) and the squared
    distances at the sorted times ``at`` inside that range. Only the hits
    and one chunk's arrays are held at a time. Each chunk is first put to
    the enclosure; the distance kernel runs on the times it leaves open and
    on the times in ``at``, whose distances are reported exactly."""
    if N < 1:
        raise ValueError("horizon must be >= 1")
    n0 = max(1, lam.min_n)
    dist2, decide = _orbit_scan(x, lam, T, b.center, b.radius, N, N - n0 + 1)
    at = np.zeros(0, dtype=np.int64) if at is None else at
    r2 = b.radius * b.radius
    hits, at_d2 = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for n_arr in scan_grid(n0, N):
        lo = int(n_arr[0])
        i, j = np.searchsorted(at, [lo, lo + n_arr.size])
        inside, rest = decide(n_arr, r2)
        # the kernel answers the open times and the times asked for
        ns = rest if rest.size == n_arr.size else np.union1d(rest, at[i:j])
        d2 = dist2(ns)
        got = ns[d2 < r2]
        hits.append(np.union1d(inside, got) if inside.size else got)
        at_d2.append(d2[np.searchsorted(ns, at[i:j])])
    return np.concatenate(hits), np.concatenate(at_d2)


def hitting_set(x: CoefVec, lam: ScalingSeq, T: ShiftOp, b: Ball, N: int) -> HittingSet:
    """Scan n = 1..N for lam_n T^n x inside the open ball (strict distance)."""
    return HittingSet(_ball_scan(x, lam, T, b, N)[0], N)


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
    # a + m*tau*k lies in [1, n_max] only if m*tau < n_max (in Python ints,
    # before ap_scan builds its int64 steps)
    if K < 1 or len(h) == 0 or m * tau >= h.n_max:
        return None
    k, starts, _ = _kernels.ap_scan(h.lookup, h.indices, h.n_max, m, tau, K, 1)
    if k < 0:
        return None
    return APWitness(a=int(starts[0]), k=k, m=m, tau=tau)


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

    def verify(self, T: ShiftOp) -> bool:
        dists = witness_distances(T, self.u, self.center, self.ell, self.m)
        return all(d < self.radius for d in dists)


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

    if m * tau >= h.n_max:  # no progression of m + 1 hits fits, as in find_ap
        return MRSearchResult(None, diag)
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
    horizon = 10**6
    if lam.family == "table":
        horizon = len(lam.params[0]) - tau
    try:
        return ratio_classify(lam, tau, N=max(horizon, 100 * tau))
    except (ValueError, ArithmeticError):
        return None


def recurrence_scan(T: ShiftOp, x: CoefVec, eps: float, N: int) -> np.ndarray:
    """All return times n <= N with dist(T^n x, x) < eps."""
    return hitting_set(x, ScalingSeq.constant(1.0), T, Ball(x, eps), N).indices
