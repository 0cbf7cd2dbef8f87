"""Hot scan kernels, one numpy implementation each.

Kernel families:
  * progression search over a boolean member table: one start probe that
    narrows the members offset by offset, over the gaps that can occur
    (every k when the set has many member pairs, else the pair differences),
  * orbit distance scans for scaled shift powers (factorized fast path for
    index-independent weights, cumulative-sum path for general weights).

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
    m = n_arr.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        t_hi = np.searchsorted(sup_idx, n_arr + w_hi, side="right")
        acc = np.exp(2.0 * scale_lm + suffix_lse[t_hi])
        if not unilateral:
            t_lo = np.searchsorted(sup_idx, n_arr + w_lo, side="left")
            acc = acc + np.exp(2.0 * scale_lm + prefix_lse[t_lo])
        overflow = np.zeros(m, dtype=bool)
        for j in range(w_lo, w_hi + 1):
            p = pos[n_arr + j - pos_lo]
            present = p >= 0
            lm = np.where(present, scale_lm + sup_lm[np.maximum(p, 0)], -np.inf)
            overflow |= lm > log_cap
            mag = np.exp(np.where(lm > log_cap, -np.inf, lm))
            ph = scale_ph + np.where(present, sup_ph[np.maximum(p, 0)], 0.0)
            acc = acc + (mag * np.cos(ph) - y_re[j - w_lo]) ** 2
            acc = acc + (mag * np.sin(ph) - y_im[j - w_lo]) ** 2
    return np.where(overflow, np.inf, acc)


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
    m = n_arr.shape[0]
    out = np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m):
            n = int(n_arr[t])
            start = np.searchsorted(sup_idx, n + w_lo) if unilateral else 0
            idx = sup_idx[start:]
            if idx.size == 0:
                out[t] = y_norm2
                continue
            lm = scale_lm[t] + (cum[idx - cum_lo] - cum[idx - n - cum_lo]) + sup_lm[start:]
            if np.max(lm) > log_cap:
                out[t] = np.inf
                continue
            ph = scale_ph[t] + sup_ph[start:]
            mag = np.exp(lm)
            cre = mag * np.cos(ph)
            cim = mag * np.sin(ph)
            j = idx - n
            acc = y_norm2
            inwin = (j >= w_lo) & (j <= w_hi)
            jw = j[inwin] - w_lo
            yr = y_re[jw]
            yi = y_im[jw]
            acc += np.sum(
                (cre[inwin] - yr) ** 2 + (cim[inwin] - yi) ** 2 - yr**2 - yi**2
            )
            acc += np.sum(cre[~inwin] ** 2 + cim[~inwin] ** 2)
            out[t] = acc
    return out
