"""Hot scan kernels, one numpy implementation each.

Kernel families:
  * packed-bitset progression scans (shifted-AND intersection for dense
    sets, a member-probe path for sparse sets),
  * orbit distance scans for scaled shift powers (factorized fast path for
    index-independent weights, cumulative-sum path for general weights).

Callers reach these through the module attribute (``_kernels.ap_scan``), so
a profiler can wrap a kernel by rebinding its name here.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# packed bitsets: bit i of words (little-endian within uint64) <=> integer i
# ---------------------------------------------------------------------------

def pack_bitset(indices: np.ndarray, nbits: int) -> np.ndarray:
    nwords = (nbits + 64) // 64
    bits = np.zeros(nwords * 64, dtype=np.uint8)
    bits[indices] = 1
    return np.packbits(bits, bitorder="little").view(np.uint64)


def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits[: nbits + 1]).astype(np.int64)


def _shift_down(words: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """out bit i = words bit (i + s); vacated high bits are zero."""
    n = words.shape[0]
    q, r = divmod(int(s), 64)
    out[:] = 0
    if q >= n:
        return out
    if r == 0:
        out[: n - q] = words[q:]
    else:
        out[: n - q] = words[q:] >> np.uint64(r)
        out[: n - q - 1] |= words[q + 1 :] << np.uint64(64 - r)
    return out


def _progression_all(words: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Bitset of starts a with bit (a + off) set for every offset."""
    acc = words.copy()
    tmp = np.empty_like(words)
    for s in offsets:
        acc &= _shift_down(words, int(s), tmp)
        if not acc.any():
            break
    return acc


def _first_bit(acc: np.ndarray) -> int:
    nz = np.nonzero(acc)[0]
    if nz.size == 0:
        return -1
    w = int(nz[0])
    v = int(acc[w])
    return 64 * w + ((v & -v).bit_length() - 1)


def _ap_scan_sparse(members, nbits, m, tau, k_lo, k_hi) -> tuple[int, int]:
    """Probe each member as a start through a boolean lookup table."""
    lookup = np.zeros(nbits + 1, dtype=bool)
    lookup[members] = True
    for k in range(k_lo, k_hi + 1):
        span = m * tau * k
        valid = members[members + span <= nbits]
        if valid.size == 0:
            continue
        ok = np.ones(valid.shape, dtype=bool)
        for j in range(1, m + 1):
            ok &= lookup[valid + j * tau * k]
            if not ok.any():
                break
        if ok.any():
            return k, int(valid[np.argmax(ok)])
    return -1, -1


def _ap_scan_dense(words, nbits, m, tau, k_lo, k_hi) -> tuple[int, int]:
    """Intersect the bitset with its shifts by j*tau*k, one k at a time."""
    tmp = np.empty_like(words)
    for k in range(k_lo, k_hi + 1):
        acc = words.copy()
        for j in range(1, m + 1):
            acc &= _shift_down(words, j * tau * k, tmp)
            if not acc.any():
                break
        a = _first_bit(acc)
        if a >= 0 and a + m * tau * k <= nbits:
            return k, a
    return -1, -1


def ap_scan(
    words: np.ndarray,
    members: np.ndarray,
    nbits: int,
    m: int,
    tau: int,
    k_lo: int,
    k_hi: int,
) -> tuple[int, int]:
    """Smallest k in [k_lo, k_hi], then smallest a, with a + j*tau*k all set."""
    if k_hi < k_lo or members.size == 0:
        return -1, -1
    if members.size * 64 < nbits:
        return _ap_scan_sparse(members, nbits, m, tau, k_lo, k_hi)
    return _ap_scan_dense(words, nbits, m, tau, k_lo, k_hi)


def progression_members(words: np.ndarray, nbits: int, offsets: np.ndarray) -> np.ndarray:
    """All starts a (sorted) whose full offset pattern stays in the set."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        return unpack_bits(words, nbits)
    starts = unpack_bits(_progression_all(words, offsets), nbits)
    limit = nbits - int(offsets.max())
    return starts[starts <= limit]


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
