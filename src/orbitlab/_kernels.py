"""Hot scan kernels, one numpy implementation each.

Kernel families:
  * progression search over a boolean member table: one start probe that
    narrows the members offset by offset, over the gaps that can occur
    (every k when the set has many member pairs, else the pair differences),
  * orbit distance scans for scaled shift powers: one window kernel over
    y's window, vectorized over the times, whose exp, cos and sin run only
    where x has an entry (an absent entry adds y_j's squares), to which the
    flat-weight scan adds x's exact log-sum-exp tails, found from the
    position table's running count of x's support; the per-n kernel for
    general weights, one row per time sliced into y's window and the rest
    at binary searches made for all times at once, and the a-priori
    rounding bound that lets the window part plus a tail bound, or a norm
    bound, decide a time in place of the per-n kernel.

Callers reach these through the module attribute (``_kernels.ap_scan``), so
a profiler can wrap a kernel by rebinding its name here.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# progressions: lookup[i] is True exactly when i is a member; members sorted
# ---------------------------------------------------------------------------

def progression_members(
    lookup: np.ndarray, members: np.ndarray, nbits: int, offsets: np.ndarray
) -> np.ndarray:
    """All starts a (sorted) with a + max(offsets) <= nbits and every a + off set."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        return members
    starts = members[members <= nbits - int(offsets.max())]
    for off in offsets:
        starts = starts[lookup[starts + off]]
        if starts.size == 0:
            break
    return starts


def _pair_gaps(members: np.ndarray, tau: int, K: int) -> np.ndarray:
    """Sorted unique k <= K with two members tau*k apart, one diagonal at a time."""
    gaps = [np.zeros(0, dtype=np.int64)]
    for i in range(1, members.size):
        d = members[i:] - members[:-i]
        gaps.append(d[(d <= tau * K) & (d % tau == 0)] // tau)
    return np.unique(np.concatenate(gaps))


def _gap_candidates(members: np.ndarray, tau: int, K: int):
    """Every k a progression with gap tau*k <= tau*K can have, ascending."""
    s = members.size
    if s * (s - 1) // 2 >= K:
        return range(1, K + 1)
    return _pair_gaps(members, tau, K)


def ap_scan(
    lookup: np.ndarray,
    members: np.ndarray,
    nbits: int,
    m: int,
    tau: int,
    K: int,
    need: int,
) -> tuple[int, np.ndarray, int]:
    """Smallest k in [1, K] with at least ``need`` starts a of a + j*tau*k all
    set (j = 0..m, m >= 1). Returns (k, starts, largest start count seen), or
    (-1, no starts, largest) when no k qualifies.
    """
    steps = tau * np.arange(1, m + 1, dtype=np.int64)
    largest = 0
    for k in _gap_candidates(members, tau, K):
        starts = progression_members(lookup, members, nbits, int(k) * steps)
        largest = max(largest, int(starts.size))
        if starts.size >= need:
            return int(k), starts, largest
    return -1, members[:0], largest


# ---------------------------------------------------------------------------
# orbit distance scans
# ---------------------------------------------------------------------------
#
# Candidate orbit times n with per-n log scale A(n) and phase P(n); support
# entries (idx sorted, log mag, phase). The distance to a target supported on
# the window [w_lo, w_hi] splits into the window part plus log-sum-exp tails.
# Rows where any single coefficient exceeds log_cap = log(|y| + eps) are
# reported as +inf without materializing floats (overflow pre-filter).

def flat_orbit_dist2(
    n_arr,
    scale_lm,
    scale_ph,
    sup_idx,
    sup_lm,
    sup_ph,
    pos,
    pos_lo,
    prefix_lse,
    suffix_lse,
    w_lo,
    w_hi,
    y_re,
    y_im,
    log_cap,
    unilateral,
):
    """The flat-weight distance: the exact log-sum-exp tails of x beyond
    y's window, summed on by ``window_dist2`` with no weight term (the
    index-independent weight is already in the scale). The tails start at
    running counts of x's support read off the position table: below[k] is
    the number of support indices <= pos_lo + k. Only a bilateral shift
    reads ``prefix_lse``; a unilateral one may pass None."""
    below = np.cumsum(pos >= 0) + np.searchsorted(sup_idx, pos_lo)
    with np.errstate(over="ignore", invalid="ignore"):
        t_hi = below[n_arr + w_hi - pos_lo]
        acc = np.exp(2.0 * scale_lm + suffix_lse[t_hi])
        if not unilateral:
            k = n_arr + w_lo - pos_lo
            t_lo = below[k] - (pos[k] >= 0)
            acc = acc + np.exp(2.0 * scale_lm + prefix_lse[t_lo])
    acc, lm_max = window_dist2(
        n_arr, scale_lm, scale_ph, sup_lm, sup_ph, pos, pos_lo, None, w_lo, w_hi,
        y_re, y_im, acc,
    )
    return np.where(lm_max > log_cap, np.inf, acc)


def general_orbit_dist2(
    n_arr,
    scale_lm,
    scale_ph,
    sup_idx,
    sup_lm,
    sup_ph,
    cum,
    cum_lo,
    w_lo,
    w_hi,
    y_re,
    y_im,
    y_norm2,
    log_cap,
    unilateral,
):
    """The per-n distance, one row per time n over x's support from n + w_lo
    on (all of it on a bilateral shift): |y|^2 plus, over y's window,
    |c_i - y_{i-n}|^2 - |y_{i-n}|^2, plus |c_i|^2 over the rest of the row,
    with c_i = exp(scale + (cum[i] - cum[i - n]) + log|x_i|) e^{i (phase +
    phase_i)}. y's window over row n is the run of x's support from
    searchsorted(n + w_lo) to searchsorted(n + w_hi, side="right"), so the
    window and the rest are slices of the row: a suffix on a unilateral
    shift, prefix then suffix on a bilateral one. A row whose support is
    empty is |y|^2, one with a coefficient past log_cap is +inf."""
    m = n_arr.shape[0]
    out = np.empty(m)
    win_lo = np.searchsorted(sup_idx, n_arr + w_lo)
    win_hi = np.searchsorted(sup_idx, n_arr + w_hi, side="right")
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m):
            n = int(n_arr[t])
            start = int(win_lo[t]) if unilateral else 0
            if start == sup_idx.size:
                out[t] = y_norm2
                continue
            idx = sup_idx[start:]
            lm = scale_lm[t] + (cum[idx - cum_lo] - cum[idx - n - cum_lo]) + sup_lm[start:]
            if np.max(lm) > log_cap:
                out[t] = np.inf
                continue
            ph = scale_ph[t] + sup_ph[start:]
            mag = np.exp(lm)
            cre = mag * np.cos(ph)
            cim = mag * np.sin(ph)
            a, b = int(win_lo[t]) - start, int(win_hi[t]) - start
            jw = idx[a:b] - (n + w_lo)
            yr = y_re[jw]
            yi = y_im[jw]
            acc = y_norm2
            acc += np.sum((cre[a:b] - yr) ** 2 + (cim[a:b] - yi) ** 2 - yr**2 - yi**2)
            if unilateral:
                tre, tim = cre[b:], cim[b:]
            else:
                tre = np.concatenate((cre[:a], cre[b:]))
                tim = np.concatenate((cim[:a], cim[b:]))
            acc += np.sum(tre**2 + tim**2)
            out[t] = acc
    return out


def window_dist2(
    n_arr,
    scale_lm,
    scale_ph,
    sup_lm,
    sup_ph,
    pos,
    pos_lo,
    cum,
    w_lo,
    w_hi,
    y_re,
    y_im,
    acc=None,
):
    """The window part sum_{j=w_lo..w_hi} |c_{n+j} - y_j|^2 of the per-n
    distance, one pass per offset j over all times n at once, with
    c_{n+j} = exp(scale + (cum[n+j] - cum[j]) + log|x_{n+j}|) formed in
    ``general_orbit_dist2``'s order (no weight term where cum is None), and
    the largest log-magnitude read. exp, cos and sin run only on the times
    whose n + j holds an entry of x; where it holds none, c_{n+j} = 0 and
    the two terms are exactly y_j's squares, added to every time in one
    pass. The sums start from ``acc`` (in place) or from zero. Returns
    (sums, largest log-magnitudes; -inf where none)."""
    m = n_arr.shape[0]
    acc = np.zeros(m) if acc is None else acc
    lm_max = np.full(m, -np.inf)
    off = n_arr - pos_lo
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(w_lo, w_hi + 1):
            p = pos[off + j]
            t = np.flatnonzero(p >= 0)
            q = p[t]
            lm = scale_lm[t]
            if cum is not None:
                lm = lm + (cum[n_arr[t] + j] - cum[j])
            lm = lm + sup_lm[q]
            lm_max[t] = np.maximum(lm_max[t], lm)
            mag = np.exp(lm)
            ph = scale_ph[t] + sup_ph[q]
            yr, yi = y_re[j - w_lo], y_im[j - w_lo]
            a = acc[t]
            acc += yr * yr
            acc[t] = a + (mag * np.cos(ph) - yr) ** 2
            a = acc[t]
            acc += yi * yi
            acc[t] = a + (mag * np.sin(ph) - yi) ** 2
    return acc, lm_max


# ---------------------------------------------------------------------------
# a-priori rounding bounds (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 3-4: gamma_k = k u / (1 - k u) per chain of k roundings)
# ---------------------------------------------------------------------------

U = 2.0**-53  # unit roundoff of float64
# exp, log1p, cos and sin are taken to be within 64 ulp (relative 2^-46),
# a wide margin over the few ulp that glibc and numpy's SIMD loops document
FN_ERR = 2.0**-46


def lm_error_bound(lm_terms):
    """Bound on |computed - exact| of a log-magnitude a + (b - c) + d formed
    in that order from floats, given lm_terms >= |a| + |b| + |c| + |d|:
    three roundings, each of at most u times a partial sum of those."""
    return 3.01 * U * lm_terms


def d2_error_bound(lm_terms, ph_terms, terms, r2, y2, dy):
    """Half-width eta of the band around r2 outside which two float
    evaluations of one squared distance give the same answer to d2 < r2.

    D = sum_i |c_i - y_i|^2 with c_i = exp(lm_i) e^{i ph_i}, where each lm_i
    is formed as in ``lm_error_bound`` from addends whose magnitudes sum to
    at most ``lm_terms``, and each ph_i = a + b with |a| + |b| <= ph_terms.
    An evaluation that sums at most k rounded terms (squares of c_i - y_i or
    of c_i, minus |y_i|^2, on top of y2) is off by at most
    kappa(k) (D + |y|^2): 4 rho for the rounding of each c_i (relative rho:
    the log-magnitude, exp, the phase sum, cos, sin and the two products)
    and 2.2 k u for the term-wise squares and any order of summation. y2 is
    the float |y|^2 an evaluation starts from, within dy of the exact
    sum of y_i^2 over y's window.

    With ``terms`` counting the summands of the two evaluations together
    (the per-n kernel's and the window's) and kappa = 8 rho + 2.2 (terms +
    16) u, eta = (2 kappa (r2 + y2 + dy) + dy + terms 2^-1000) / (1 - kappa)
    makes both decisions exact: a window sum W >= r2 + eta means the per-n
    kernel's d2 >= r2, and W plus an upper bound on the rest of D below
    r2 - eta means its d2 < r2 (once its overflow pre-filter cannot fire).
    A fortiori a certified lower bound L <= D with L >= r2 + eta means the
    kernel's d2 >= r2, which is how the norm bound decides. The last term
    covers underflow to subnormals. Where the inputs are too large for a
    first-order bound (rho > 0.01 or kappa > 1/4) eta is +inf.
    """
    rho = 1.25 * (lm_error_bound(lm_terms) + U * ph_terms + 3.0 * FN_ERR + 3.0 * U)
    kappa = 8.0 * rho + 2.2 * (terms + 16) * U
    with np.errstate(over="ignore", invalid="ignore"):
        eta = (2.0 * kappa * (r2 + y2 + dy) + dy + terms * 2.0**-1000) / (1.0 - kappa)
    return np.where((rho <= 0.01) & (kappa <= 0.25), eta, np.inf)
