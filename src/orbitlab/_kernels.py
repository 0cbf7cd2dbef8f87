"""Hot scan kernels, one numpy implementation each.

Kernel families:
  * progression search over a boolean member table: one start probe that
    narrows the members offset by offset, over the gaps that can occur
    (every k when the set has many member pairs, else the pair differences),
  * orbit distance scans for scaled shift powers: one window kernel over
    y's window, vectorized over the times, whose exp, cos and sin run only
    where x has an entry (an absent entry adds y_j's squares), to which the
    flat-weight scan adds x's exact log-sum-exp tails, found by binary
    search of x's support at the window's ends; the per-n kernel for
    general weights, whose rows (one per time: y's window and the rest of
    x's support) are formed end to end in bounded batches up to a per-row
    cut past which every term squares to exactly zero, and each row summed
    by ``np.sum``; and the a-priori rounding bound that
    lets the window part plus a tail bound, or a norm bound, decide a time
    in place of the per-n kernel.
  * series partial sums: the running sums of a chunk of non-negative terms,
    read at a few marks as exact integer sums in units of the carried sum's
    ulp, with no serial pass, where an exactness argument shows them equal
    to the serial sums; the argument's no-halfway-term test is two
    reductions of the terms' exact distances to their nearest units.
  * shortest round-trip digits: the digits and decimal point ``repr``
    prints for a double in its fixed notation, decided exactly. P = |x| 10^k
    is split into an int64 N and a remainder lo' by Dekker's error-free
    product (no FMA), the rounding interval's half-width H scaled by 10^k is
    exact, and integer divisions of the interval's integer bounds by 10 find
    the shortest digits, the multiple of 10^s nearest P; a tie between two
    such multiples, a power of two (asymmetric interval) and every value
    outside 1e-4 <= |x| < 1e16 are left to ``repr``.

Callers reach these through the module attribute (``_kernels.ap_scan``), so
a profiler can wrap a kernel by rebinding its name here.
"""

from __future__ import annotations

import numpy as np

from .lspace import LM_ZERO

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
    the counts of x's support indices <= n + w_hi and < n + w_lo, found by
    binary search of ``sup_idx``. Only a bilateral shift reads
    ``prefix_lse``; a unilateral one may pass None."""
    with np.errstate(over="ignore", invalid="ignore"):
        t_hi = np.searchsorted(sup_idx, n_arr + w_hi, side="right")
        acc = np.exp(2.0 * scale_lm + suffix_lse[t_hi])
        if not unilateral:
            t_lo = np.searchsorted(sup_idx, n_arr + w_lo)
            acc = acc + np.exp(2.0 * scale_lm + prefix_lse[t_lo])
    acc, lm_max = window_dist2(
        n_arr, scale_lm, scale_ph, sup_lm, sup_ph, pos, pos_lo, None, w_lo, w_hi,
        y_re, y_im, acc,
    )
    return np.where(lm_max > log_cap, np.inf, acc)


# Computed terms per batch of the per-n kernel's rows; a row with more is a
# batch of its own. It bounds the kernel's temporaries, about 0.37 MB. In
# pairs of criteria_search benchmark runs against the row loop, peak RSS
# read a median 0.02-0.05 MB higher with 8192, 4096 and 2048 terms alike,
# though from 4096 down no job's traced peak moved; 1024 ran the kernel 30%
# slower.
GENERAL_BATCH_TERMS = 1 << 11


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
    searchsorted(n + w_lo) to searchsorted(n + w_hi, side="right"). A row
    whose support is empty is |y|^2, one with a coefficient past log_cap is
    +inf.

    Each row's window terms and the rest (on a bilateral shift, the part
    before the window, then the part after it) are summed by ``np.sum``
    over arrays of the full lengths. The rows' terms are formed end to end,
    GENERAL_BATCH_TERMS at a time, one numpy call per operation. Every term
    is |c_i - y_{i-n}|^2 - |y_{i-n}|^2 with y read as 0.0 off its window,
    which on the rest is exactly |c_i|^2. Past ``_zero_cut``'s position every
    term squares to +0.0 (|c_i| < 2^-538), so none is computed there and the
    rest is summed with zeros in their place. Every term array holds the
    values, and so every sum the bits, of forming each row in full."""
    m = n_arr.shape[0]
    nsup = sup_idx.size
    out = np.full(m, float(y_norm2))
    win_lo = np.searchsorted(sup_idx, n_arr + w_lo)
    win_hi = np.searchsorted(sup_idx, n_arr + w_hi, side="right")
    lo = win_lo if unilateral else np.zeros(m, dtype=np.intp)
    wlen = win_hi - win_lo
    before = win_lo - lo
    # each row's computed terms, laid out as its window, then the rest before
    # the window, then the rest after it up to the cut; the rest's length
    # counts the zeros past the cut
    comp = np.maximum(_zero_cut(n_arr, scale_lm, scale_ph, sup_idx, sup_lm, sup_ph, cum,
                                cum_lo, log_cap), win_hi) - lo
    rest = (nsup - lo - wlen).tolist()
    zeros = np.zeros(max(rest, default=0))
    y_re0 = np.append(y_re, 0.0)
    y_im0 = np.append(y_im, 0.0)
    ends = np.cumsum(comp)
    r0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while r0 < m:
            base = int(ends[r0] - comp[r0])
            r1 = max(int(np.searchsorted(ends, base + GENERAL_BATCH_TERMS, side="right")),
                     r0 + 1)
            c = comp[r0:r1]
            first = ends[r0:r1] - c - base
            win_end = first + wlen[r0:r1]
            t = np.repeat(np.arange(r0, r1), c)
            q = np.arange(int(c.sum())) - np.repeat(first, c)
            in_win = q < wlen[t]
            # q -> support position: the window, the rest before it, after it
            p = lo[t] + q + np.where(in_win, before[t],
                                     np.where(q < wlen[t] + before[t], -wlen[t], 0))
            idx = sup_idx[p]
            n = n_arr[t]
            lm = scale_lm[t] + (cum[idx - cum_lo] - cum[idx - n - cum_lo]) + sup_lm[p]
            ph = scale_ph[t] + sup_ph[p]
            top = np.full(r1 - r0, -np.inf)
            if c.any():
                top[c > 0] = np.maximum.reduceat(lm, first[c > 0])
            # y_{i-n} over the window; past it, index -1 reads the appended 0.0
            j = np.where(in_win, idx - (n + w_lo), -1)
            yr = y_re0[j]
            yi = y_im0[j]
            mag = np.exp(lm)
            terms = (mag * np.cos(ph) - yr) ** 2 + (mag * np.sin(ph) - yi) ** 2 - yr**2 - yi**2
            # np.sum's reduction over each row's window, and over its rest in
            # full length (copied into the zero array)
            a, b, e = first.tolist(), win_end.tolist(), (first + c).tolist()
            w_sum = np.zeros(r1 - r0)
            t_sum = np.zeros(r1 - r0)
            for i in np.flatnonzero(wlen[r0:r1]).tolist():
                w_sum[i] = np.add.reduce(terms[a[i]:b[i]])
            for i in np.flatnonzero(c > wlen[r0:r1]).tolist():
                k = e[i] - b[i]
                zeros[:k] = terms[b[i]:e[i]]
                t_sum[i] = np.add.reduce(zeros[:rest[r0 + i]])
                zeros[:k] = 0.0
            out[r0:r1] = np.where(top > log_cap, np.inf, (out[r0:r1] + w_sum) + t_sum)
            r0 = r1
    return out


def _zero_cut(n_arr, scale_lm, scale_ph, sup_idx, sup_lm, sup_ph, cum, cum_lo, log_cap):
    """Per row n, a support position e(n) past which ``general_orbit_dist2``
    computes no term: each one there has lm < min(LM_ZERO / 2, log_cap), so
    it squares to +0.0 and stays under the overflow pre-filter.

    lm_i <= s(n) + V_i - min C + err with V_i = C(i) + log|x_i|, so the
    suffix maximum of V (which does not increase along the support) cuts
    every row with one binary search. With L = |s(n)| + 2 max|C| +
    max|log|x_i||, the rounding of lm (``lm_error_bound(L)``), of the float
    V_i (u L) and of the cut's own key (3.01 u (L + |cut| + margin)) stay
    below the margin, 1 + 3 lm_error_bound(L + |cut|). Rows with a
    non-finite s(n), phase, cum or V are not cut (e(n) is x's support
    size), so a NaN row stays NaN. x's support is not empty: a scan of the
    zero vector answers |y|^2 without a kernel."""
    nsup = sup_idx.size
    cut = min(LM_ZERO / 2.0, log_cap)
    with np.errstate(over="ignore", invalid="ignore"):
        v = cum[sup_idx - cum_lo] + sup_lm
        v_top = np.maximum.accumulate(v[::-1])[::-1]
        lm_terms = np.abs(scale_lm) + (2.0 * np.abs(cum).max() + np.abs(sup_lm).max())
        margin = 1.0 + 3.0 * lm_error_bound(lm_terms + abs(cut))
        key = (cut - margin) - scale_lm + cum.min()
        ok = (np.isfinite(key) & np.isfinite(np.abs(scale_ph) + np.abs(sup_ph).max())
              & ~np.isnan(v_top[0]))
    return np.where(ok, np.searchsorted(-v_top, -key, side="right"), nsup)


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
# series partial sums
# ---------------------------------------------------------------------------

# the least carried sum whose ulp is normal (>= 2^-952), so that scaling by
# it and by its reciprocal is exact
BINADE_FLOOR = 2.0**-900


def binade_sums(s0, t, marks, scratch):
    """The serial sums s_k = fl(...fl(s0 + t_0)... + t_k), as one
    ``np.cumsum`` gives them after s0 is added into t[0], at each position
    k in ``marks`` (ascending) and at t's last term; or None where the
    argument below does not hold. t is not empty and is read, not written;
    its terms are >= +0.0, inf or NaN, as ``np.exp`` gives them. ``scratch``
    is a float64 array of shape (2, k), and t is taken k terms at a time.

    With BINADE_FLOOR <= s0 < inf, u = spacing(s0) and m = s0/u is an
    integer in [2^52, 2^53). Let q_i = t_i/u and r_i = rint(q_i). If no
    term is a tie (|q_i - r_i| = 1/2) and m + sum r_i < 2^53, then s_k =
    (m + sum_{i<=k} r_i) u exactly, by induction: s_{k-1} + t_k lies within
    less than u/2 of that multiple of u, which is below 2^53 u, so it rounds
    there, in s0's binade, where the doubles are the multiples of u
    (Higham, ch. 2). q = t (1/u) is a power-of-two scaling, exact wherever
    it matters (a q that underflows rounds to r = 0 and is no tie), and
    q - r is exact (Sterbenz, or r = 0), as is t - r u = u (q - r), so the
    tie test is two reductions of q - r: its max below 1/2 and its min
    above -1/2.
    The r_i are integers whose sums stay below 2^53, so ``np.add.reduce``
    adds them exactly. A sum past the bound reads at least 2^53 - m however
    it is rounded, and a NaN or inf term makes it NaN or inf and its q - r
    NaN, which both reductions propagate. None covers s0 outside
    [BINADE_FLOOR, inf), a tie, sums that leave s0's binade, and a NaN or
    inf term."""
    if not BINADE_FLOOR <= s0 < np.inf:
        return None
    u = float(np.spacing(s0))
    m = float(s0) / u
    room = 2.0**53 - m
    ends = [k + 1 for k in marks] + [t.size]
    counts = []  # sum r_i up to each end, exact integers
    total, e = 0.0, 0
    size = scratch.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, t.size, size):
            piece = t[a : a + size]
            q = np.multiply(piece, 1.0 / u, out=scratch[0, : piece.size])
            r = np.rint(q, out=scratch[1, : piece.size])
            lo = 0
            while e < len(ends) and ends[e] <= a + piece.size:
                total += float(np.add.reduce(r[lo : ends[e] - a]))
                counts.append(total)
                lo, e = ends[e] - a, e + 1
            total += float(np.add.reduce(r[lo:]))
            if not total < room:
                return None
            q -= r
            if not (np.maximum.reduce(q) < 0.5 and np.minimum.reduce(q) > -0.5):
                return None
    return [(m + k) * u for k in counts]


# ---------------------------------------------------------------------------
# a-priori rounding bounds (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 3-4: gamma_k = k u / (1 - k u) per chain of k roundings)
# ---------------------------------------------------------------------------

U = 2.0**-53  # unit roundoff of float64
# exp, expm1, log1p, cos and sin are taken to be within 64 ulp (relative
# 2^-46), a wide margin over the few ulp that glibc and numpy's SIMD loops
# document; the ratio classifier's expm1 band (seqcore._expm1_band) rests on
# it too
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


# ---------------------------------------------------------------------------
# shortest round-trip digits (the CSV writer's float cells)
# ---------------------------------------------------------------------------

# 10^0 .. 10^18, the powers of ten int64 holds
POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# by a double's biased exponent j + 1023, for the binade [2^j, 2^(j+1)):
# k = 16 - floor(j log10 2), which puts |x| 10^k in [1e16, 1e18), and the
# exact double 10^k
_K_GUESS = 16 - np.floor((np.arange(2048) - 1023) * np.log10(2.0)).astype(np.int64)
_POW10_GUESS = np.array([float(10**k) for k in range(23)])[np.clip(_K_GUESS, 0, 22)]
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant for float64
# a value outside the decided domain is replaced by one with 17 significant
# digits, which leaves the digit loop at its first step
_FILLER = 0.1 + 0.2
_MANTISSA = (1 << 52) - 1
# rows of float64 scratch ``shortest_digits`` needs
SHORTEST_SCRATCH_ROWS = 13


def shortest_digits(x, scratch):
    """The digits and decimal point ``repr`` prints for each double in x
    (float64, any size), where this argument decides them:
    ``(ok, digits, frac, ndigits)``, where ``repr(x[i])`` is, wherever
    ok[i], the sign of x[i] (``-`` when its sign bit is set) followed by
    ``str(digits[i]).zfill(ndigits[i])`` with a ``.`` before its last
    frac[i] digits. ``scratch`` is float64 of shape
    (SHORTEST_SCRATCH_ROWS, n), n >= x.size; the results are views into it.

    Decided are +-0.0 and every x with 1e-4 <= |x| < 1e16 (``repr``'s fixed
    notation, whose digits lie in that range) that is not a power of two;
    nan, +-inf, subnormals, the rest of the exponent notation and powers of
    two (whose rounding interval is not symmetric) are left to ``repr``, as
    are ties below.

    ``repr`` prints the shortest digit string that reads back as x, and of
    those the one nearest x (Adams, Ryu, PLDI 2018). With a = |x| in the
    binade [2^j, 2^(j+1)), k = 16 - floor(j log10 2) <= 21, so 10^k is
    exact, puts P = a 10^k in [1e16, 1e18). A Veltkamp split of a and of
    10^k and Dekker's product (Dekker 1971; Higham ch. 3-4) give P = hi + lo
    exactly, with no FMA: hi >= 2^53 is an integer below 2^63 and |lo| <= 64,
    so N = hi + rint(lo) is exact in int64, and lo' = lo - rint(lo) is exact
    (Sterbenz) with |lo'| <= 1/2: P = N + lo'. The reals that round to a
    lie within H = 2^(j-53) 10^k of P (scaled by 10^k), H exact and in
    (1/2, 112). Write 2H = 2^g 5^k: lo' is a multiple of 2^g (or 0) and
    |lo' +- H| < 113, so lo' + H and lo' - H are exact (5^21 < 2^50), and
    vp = N + floor(lo' + H), vm = N + floor(lo' - H) bound the integers
    within H of P: (vm, vp]. A multiple of 10^s lies there iff
    floor(vp/10^s) > floor(vm/10^s); the interval is symmetric, so this is
    monotone in s, and each step of the loop divides both bounds by 10 and
    keeps the values where they still differ. The last s that passes gives
    the shortest digits: the multiple of 10^s nearest P, R 10^s, where with
    r = N mod 10^s the sign of 2r - 10^s + 2 lo' (one rounding of an exact
    sum, so its sign is exact) says whether it is the one above. A zero
    there is a tie between two, as is lo' = -1/2 at s = 0, and is left to
    ``repr``. Integers at distance exactly H, which ``repr`` counts in or
    out by the parity of a's last bit, decide nothing: they need g >= 1,
    which 2H < 224 allows only at k = 1 with a >= 2^52 an integer (at k = 2
    the exponent guess puts j below 50), so P = 10a, H is 5 or (a even) 10,
    and P +- H are no multiples of 100, nor of 10 where H = 5, while P
    itself is the nearest multiple of 10. Nor does 10^18 lie within H of
    P: the powers of ten below 1 round up to their doubles, so the double
    below one is more than H from it."""
    m = x.size
    f = scratch[:, :m]
    i = f.view(np.int64)
    a, b, hi, lo, u, v, w = f[:7]
    k, N, vp, vm, s = i[7:12]
    flags = scratch[12].view(np.bool_)
    ok, t = flags[:m], flags[m : 2 * m]
    bits = np.abs(x, out=a).view(np.int64)
    np.greater_equal(a, 1e-4, out=ok)
    ok &= np.less(a, 1e16, out=t)
    ok &= np.not_equal(np.bitwise_and(bits, _MANTISSA, out=k), 0, out=t)
    np.copyto(a, _FILLER, where=np.logical_not(ok, out=t))
    e = np.right_shift(bits, 52, out=vm)
    np.take(_K_GUESS, e, out=k)
    np.take(_POW10_GUESS, e, out=b)
    np.multiply(a, b, out=hi)
    # Dekker's product: lo = a b - hi, from the Veltkamp halves of a (u + v)
    # and of b (w + a, once a is no longer needed)
    np.multiply(a, _SPLIT, out=u)
    np.subtract(u, np.subtract(u, a, out=v), out=u)
    np.subtract(a, u, out=v)
    np.multiply(b, _SPLIT, out=w)
    np.subtract(w, np.subtract(w, b, out=lo), out=w)
    np.subtract(b, w, out=a)
    np.multiply(u, w, out=lo)
    lo -= hi
    np.multiply(v, w, out=w)
    lo += np.multiply(u, a, out=u)
    lo += w
    lo += np.multiply(v, a, out=v)
    np.rint(lo, out=u)
    lo -= u
    np.copyto(N, hi, casting="unsafe")
    np.copyto(vp, u, casting="unsafe")
    N += vp
    # H = 2^(j - 53) 10^k for a in [2^j, 2^(j+1))
    e -= 53
    e <<= 52
    np.multiply(e.view(np.float64), b, out=u)
    np.copyto(vp, np.floor(np.add(lo, u, out=v), out=v), casting="unsafe")
    np.copyto(vm, np.floor(np.subtract(lo, u, out=w), out=w), casting="unsafe")
    vp += N
    vm += N
    # two steps over all values (most leave by then), the rest on the few left
    s[...] = 0
    for _ in range(2):
        vp //= 10
        vm //= 10
        s += np.greater(vp, vm, out=t)
    live = np.flatnonzero(t)
    up, dn, step = vp[live], vm[live], 2
    while live.size:
        up //= 10
        dn //= 10
        more = up > dn
        live, up, dn, step = live[more], up[more], dn[more], step + 1
        s[live] = step
    # the multiple of q = 10^s nearest P: R q, R = N // q or one more
    q = np.take(POW10_INT, s, out=vp)
    R = np.floor_divide(N, q, out=vm)
    r = np.multiply(R, q, out=w.view(np.int64))
    np.subtract(N, r, out=r)
    r += r
    r -= q
    lo += lo
    dist = u
    np.copyto(dist, r, casting="unsafe")
    dist += lo
    R += np.greater(dist, 0.0, out=t)
    ok &= np.not_equal(dist, 0.0, out=t)
    if (lo == -1.0).any():
        ok &= np.logical_not((lo == -1.0) & (s == 0), out=t)
    # repr's decimal point: the digit count of R q (17, or 16 below 1e16 and
    # 18 from 1e17) less k; frac = max(k - s, 1) digits follow the point, so
    # an integer-valued x (k <= s) prints R 10^(s - k + 1) with ".0"
    point = N
    np.multiply(R, q, out=q)
    np.subtract(17, k, out=point)
    point -= np.less(q, 10**16, out=t)
    point += np.greater_equal(q, 10**17, out=t)
    frac = np.subtract(k, s, out=k)
    whole = np.flatnonzero(frac < 1)
    R[whole] *= POW10_INT[1 - frac[whole]]
    np.maximum(frac, 1, out=frac)
    ndigits = np.maximum(point, 1, out=point)
    ndigits += frac
    zero = np.flatnonzero(x == 0.0)
    R[zero], frac[zero], ndigits[zero], ok[zero] = 0, 1, 2, True
    return ok, R, frac, ndigits
