"""Reference implementations the tests check the library against.

They hold no production code path: each is the plain definition that a
faster or more general routine in ``orbitlab`` must agree with.
"""

import math

import numpy as np

from orbitlab import lspace, orbits
from orbitlab.criteria import (
    GEOM_RHO_MAX,
    PSERIES_P_MIN,
    MRShiftCertificate,
    SearchOutcome,
    SeriesVerdict,
)
from orbitlab.lspace import CoefVec, Side, SideMismatchError
from orbitlab.seqcore import (
    _BLOCK_HALF_WIDTH,
    _DIVERGE_RATIO,
    _TREND_ALPHA_MIN,
    LogScalar,
    RatioVerdict,
    ScalingSeq,
    eval_at,
    eval_log,
    scan_grid,
    wrap_phase,
)
from orbitlab.shiftops import ShiftOp, WeightSeq


def to_complex_dict(x: CoefVec) -> dict[int, complex]:
    """The entries of a float-range vector as {index: complex}."""
    return dict(zip(x.indices.tolist(), x.to_complex_array().tolist()))


def read_csv_columns(path, wanted: dict[str, type]) -> list[np.ndarray]:
    """The wanted columns of a CSV artifact, every cell converted by Python's
    ``int`` or ``float``: the reference for ``expcli._read_csv_columns``.
    Rows split on any line ending; blank rows are skipped."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    assert all(len(row) == len(header) for row in rows)
    return [np.array([kind(row[header.index(col)]) for row in rows],
                     np.int64 if kind is int else np.float64)
            for col, kind in wanted.items()]


def log_entry(x: CoefVec, i: int) -> tuple[float, float]:
    """(log-magnitude, phase) of x's entry at an index of its support."""
    pos = int(np.searchsorted(x.indices, i))
    assert pos < x.nnz and x.indices[pos] == i, f"index {i} is not in the support"
    return float(x.log_mags[pos]), float(x.phases[pos])


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


def _positions(v: CoefVec, union: np.ndarray) -> np.ndarray:
    """Position of each index of ``union`` in v's support (-1 where absent)."""
    if v.nnz == 0:
        return np.full(union.shape, -1, dtype=np.int64)
    p = np.searchsorted(v.indices, union)
    hit = (p < v.nnz) & (v.indices[np.minimum(p, v.nnz - 1)] == union)
    return np.where(hit, p, -1)


def norm(x: CoefVec) -> float:
    """Euclidean norm: ``math.fsum`` over the squares exp(2 log|x_i|) of every
    entry, sorted largest first; ``lspace.norm`` must equal it bit for bit."""
    if x.nnz == 0:
        return 0.0
    x._require_float_range()
    sq = np.exp(2.0 * np.sort(x.log_mags)[::-1])
    return math.sqrt(math.fsum(sq.tolist()))


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
    union = np.union1d(x.indices, y.indices)
    px, py = _positions(x, union), _positions(y, union)
    vx, vy = (np.where(p >= 0, np.exp(v.log_mags[np.maximum(p, 0)])
                       * np.exp(1j * v.phases[np.maximum(p, 0)]), 0j)
              for v, p in ((x, px), (y, py)))
    sq = np.abs(vx - vy) ** 2
    return math.sqrt(math.fsum(np.sort(sq)[::-1]))


def exact_ball_scan(x, lam, T, b, N: int, at=None):
    """``orbits._ball_scan`` with the distance kernel at every time
    n = max(1, lam.min_n)..N and no decided times: the open-ball hit times
    (strict d2 < r^2) and the squared distances at the sorted times ``at``.
    The scan's decisions must leave both unchanged, bit for bit."""
    n0 = max(1, lam.min_n)
    dist2 = orbits._orbit_scan(x, lam, T, b.center, b.radius, N, N - n0 + 1)[0]
    at = np.zeros(0, dtype=np.int64) if at is None else at
    r2 = b.radius * b.radius
    hits, at_d2 = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for n_arr in scan_grid(n0, N):
        lo = int(n_arr[0])
        d2 = dist2(n_arr)
        hits.append(n_arr[d2 < r2])
        i, j = np.searchsorted(at, [lo, lo + n_arr.size])
        at_d2.append(d2[at[i:j] - lo])
    return np.concatenate(hits), np.concatenate(at_d2)


def wrap_phase_formula(theta):
    """pi - remainder(pi - theta, 2 pi), one ``np.remainder`` pass always."""
    return math.pi - np.remainder(math.pi - np.asarray(theta, dtype=np.float64),
                                  2.0 * math.pi)


def return_distances(T: ShiftOp, x: CoefVec, N: int) -> np.ndarray:
    """dist(T^n x, x) for n = 1..N, one ``power_apply`` and one ``lspace.dist``
    per n; its entries below eps are the oracle for ``orbits.recurrence_scan``."""
    return np.array([lspace.dist(T.power_apply(n, x), x) for n in range(1, N + 1)])


def log_prefix_pos(w: WeightSeq, n) -> np.ndarray | None:
    """The half-line closed form of sum_{s=1..n} log w_s, as float64 n times
    one slope (or 0.5 log(n+1)), or None for ``table_w``."""
    n = np.asarray(n, dtype=np.float64)
    if w.family == "constant_w":
        return n * math.log(w.params[0])
    if w.family == "sqrt_ratio":
        return 0.5 * np.log(n + 1.0)
    if w.family in ("step_bilateral", "inverse_step_bilateral"):
        return n * math.log(2.0)
    return None


def log_prefix_neg(w: WeightSeq, k) -> np.ndarray | None:
    """The half-line closed form of sum_{s=-(k-1)..0} log w_s (k terms), or
    None for ``table_w``."""
    k = np.asarray(k, dtype=np.float64)
    if w.family == "constant_w":
        return k * math.log(w.params[0])
    if w.family == "step_bilateral":
        return np.zeros(k.shape)
    if w.family == "inverse_step_bilateral":
        return -k * math.log(2.0)
    return None


def half_line_cum(w: WeightSeq, idx) -> np.ndarray:
    """C(i) from the two half-line closed forms, one index at a time:
    ``log_prefix_pos`` at i > 0, -``log_prefix_neg``(-i) at i < 0 and +0.0
    at 0 (closed forms only)."""
    return np.array([0.0 if i == 0 else float(log_prefix_pos(w, i)) if i > 0
                     else -float(log_prefix_neg(w, -i)) for i in idx])


def weight_at(w: WeightSeq, n: int) -> float:
    """w_n straight from its family's definition."""
    if w.family == "constant_w":
        return w.params[0]
    if w.family == "sqrt_ratio":
        return math.sqrt((n + 1) / n)
    if w.family == "step_bilateral":
        return 1.0 if n <= 0 else 2.0
    if w.family == "inverse_step_bilateral":
        return 0.5 if n <= 0 else 2.0
    vals, start = w.params
    return vals[n - start]


def stored_prefix_pos(w: WeightSeq, n: int, lo: int = 0) -> np.ndarray:
    """Rows lo..n of the table C(i) = sum_{s=1..i} log w_s, built whole: the
    closed form ``log_prefix_pos`` over one contiguous arange with C(0) set
    to +0.0, else a cumsum of log w from s = 1. ``WeightSeq.cum`` must
    equal it bit for bit. A window lo > 0 (closed forms only) evaluates the
    same closed form over the contiguous arange lo..n, which keeps a check
    near the 2e7 cap small."""
    closed = log_prefix_pos(w, np.arange(lo, n + 1, dtype=np.int64))
    if closed is not None:
        if lo == 0:
            closed[0] = 0.0
        return closed
    assert lo == 0, "windows need a closed form"
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(w.log_w(np.arange(1, n + 1)))
    return out


def stored_prefix_neg(w: WeightSeq, n: int) -> np.ndarray:
    """The table T(k) = sum_{s=-(k-1)..0} log w_s for k = 0..n, built whole
    like ``stored_prefix_pos``; C(i) = -T(-i) for i < 0."""
    closed = log_prefix_neg(w, np.arange(0, n + 1, dtype=np.int64))
    if closed is not None:
        closed[0] = 0.0
        return closed
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(w.log_w(-np.arange(0, n)))
    return out


def stored_cum(w: WeightSeq, idx) -> np.ndarray:
    """C(i) looked up in whole tables that reach every index asked for."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty(idx.shape)
    if idx.size == 0:
        return out
    pos = idx >= 0
    out[pos] = stored_prefix_pos(w, max(int(idx.max()), 0))[idx[pos]]
    if not pos.all():
        out[~pos] = -stored_prefix_neg(w, -int(idx.min()))[-idx[~pos]]
    return out


def series_check(w: WeightSeq, n_max: int, cap: float = 12.0) -> SeriesVerdict:
    """``criteria.fhc_series_check`` over whole arrays of length n_max: one
    cumsum of all terms, the decade's ratios in one pass."""
    n_arr = np.arange(1, n_max + 1, dtype=np.int64)
    with np.errstate(over="ignore"):
        terms = np.exp(-2.0 * stored_cum(w, n_arr))
    sums = np.cumsum(terms)
    grid = [10]
    while grid[-1] < n_max:
        grid.append(min(grid[-1] * 2, n_max))
    head = (n_max, float(sums[-1]), tuple(grid), tuple(float(sums[g - 1]) for g in grid))
    crossed = np.flatnonzero(~(sums <= cap))
    if crossed.size:
        return SeriesVerdict("diverges_observed", *head,
                             crossed_cap_at=int(n_arr[crossed[0]]), cap=cap)
    dn = np.arange(max(1, n_max // 10), n_max, dtype=np.int64)
    log_ratio = -2.0 * w.log_w(dn + 1)
    rho_max = float(np.exp(np.max(log_ratio)))
    t_last = float(terms[-1])
    if rho_max <= GEOM_RHO_MAX:
        return SeriesVerdict("converges_certified", *head, mode="geometric", cap=cap,
                             tail_bound=t_last * rho_max / (1.0 - rho_max))
    p = float(np.min(-log_ratio / np.log1p(1.0 / dn)))
    if p >= PSERIES_P_MIN:
        return SeriesVerdict("converges_certified", *head, mode=f"p_series(p={p:.4f})",
                             cap=cap, tail_bound=t_last * n_max / (p - 1.0))
    return SeriesVerdict("inconclusive", *head, cap=cap)


def mr_shift_check(w: WeightSeq, m: int, q: int, eps: float, n_max: int) -> SearchOutcome:
    """``criteria.mr_shift_check`` over the whole array of candidates
    n = 2q+1..n_max: every (l, j) pair's products for all n at once, then
    the first witness, or ``np.argmax`` of the margins over all n."""
    n_arr = np.arange(2 * q + 1, n_max + 1, dtype=np.int64)
    thresh = math.log(1.0 / eps)

    def fwd(j, ln):  # log prod_{i=1..ln} w_{j+i}
        return stored_cum(w, j + ln) - stored_cum(w, np.full(np.shape(ln), j))

    def bwd(j, ln):  # log prod_{i=0..ln-1} w_{j-i}
        return stored_cum(w, np.full(np.shape(ln), j)) - stored_cum(w, j - ln)

    ok = np.ones(n_arr.shape, dtype=bool)
    margin = np.full(n_arr.shape, np.inf)
    pairs = [(l, j) for l in range(1, m + 1) for j in range(-q, q + 1)]
    for l, j in pairs:
        f, b = fwd(j, l * n_arr), bwd(j, l * n_arr)
        ok &= (f > thresh) & (b < -thresh)
        margin = np.minimum(margin, np.minimum(f - thresh, -thresh - b))
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        best = int(np.argmax(margin))
        nb = int(n_arr[best])
        ln = {l: np.array([l * nb]) for l in range(1, m + 1)}
        fail = next(((j, l) for l, j in pairs
                     if not (fwd(j, ln[l])[0] > thresh and bwd(j, ln[l])[0] < -thresh)), None)
        return SearchOutcome(None, {"best_n": nb, "best_margin": float(margin[best]),
                                    "failing_j_l": fail})
    n = int(n_arr[hits[0]])
    logs = [(float(fwd(j, np.array([l * n]))[0]), float(bwd(j, np.array([l * n]))[0]))
            for l, j in pairs]
    cert = MRShiftCertificate(w, n, m, q, eps, *(tuple(c) for c in zip(*logs)))
    return SearchOutcome(cert, {"n": n})


def mr_invertible_check(w: WeightSeq, m: int, n_max: int, threshold: float) -> np.ndarray:
    """``criteria.mr_invertible_check`` over the whole array n = 1..n_max."""
    n_arr = np.arange(1, n_max + 1, dtype=np.int64)
    g = math.log(threshold)
    ok = np.ones(n_arr.shape, dtype=bool)
    for l in range(1, m + 1):
        ok &= (stored_cum(w, l * n_arr) > g) & (stored_cum(w, -l * n_arr - 1) > g)
    return n_arr[ok]


def flat_orbit_dist2(n_arr, scale_lm, scale_ph, sup_idx, sup_lm, sup_ph, pos, pos_lo,
                     prefix_lse, suffix_lse, w_lo, w_hi, y_re, y_im, log_cap, unilateral):
    """``_kernels.flat_orbit_dist2`` as its own loop over y's window, with
    the tails' starts found by binary searches of x's support per time: each
    entry past log_cap is masked to zero before ``exp`` and flags its row
    +inf. The kernel, which sums the window in ``window_dist2`` and reads
    the starts off the position table, must equal it bit for bit."""
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


def general_orbit_dist2(n_arr, scale_lm, scale_ph, sup_idx, sup_lm, sup_ph, cum, cum_lo,
                        w_lo, w_hi, y_re, y_im, y_norm2, log_cap, unilateral):
    """``_kernels.general_orbit_dist2`` with y's window and the rest of each
    row picked by boolean masks on the moved indices j = i - n, and each
    row's start found by its own binary search. The kernel, which slices
    the row at binary searches made for all times at once, must equal it
    bit for bit."""
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


def window_dist2(n_arr, scale_lm, scale_ph, sup_lm, sup_ph, pos, pos_lo, cum, w_lo, w_hi,
                 y_re, y_im, acc=None):
    """``_kernels.window_dist2`` with exp, cos and sin on every (n, j) slot:
    an absent entry is read at position 0 and masked to magnitude 0 and
    phase 0, and cum is read at n + j clamped to its last index. The
    kernel, which works only at present entries, must equal it bit for bit
    (sums and largest log-magnitudes)."""
    m = n_arr.shape[0]
    acc = np.zeros(m) if acc is None else acc
    lm_max = np.full(m, -np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(w_lo, w_hi + 1):
            p = pos[n_arr + j - pos_lo]
            present = p >= 0
            q = np.maximum(p, 0)
            lm = scale_lm
            if cum is not None:
                i = np.minimum(n_arr + j, cum.shape[0] - 1)
                lm = lm + (cum[i] - cum[j])
            lm = np.where(present, lm + sup_lm[q], -np.inf)
            lm_max = np.maximum(lm_max, lm)
            mag = np.exp(lm)
            ph = np.where(present, scale_ph + sup_ph[q], 0.0)
            acc += (mag * np.cos(ph) - y_re[j - w_lo]) ** 2
            acc += (mag * np.sin(ph) - y_im[j - w_lo]) ** 2
    return acc, lm_max


def power_log_mags(T: ShiftOp, n: int, x: CoefVec) -> np.ndarray:
    """Log-magnitudes of T^n x from the weight-product formula, with the kept
    entries picked by a mask on the moved indices (i - n >= 1 on a
    unilateral shift); ``ShiftOp.power_log_mags`` must equal it bit for bit."""
    if n == 0:
        return x.log_mags
    keep = (x.indices - n) >= 1 if T.side is Side.UNILATERAL else slice(None)
    src = x.indices[keep]
    w = T.weights
    return x.log_mags[keep] + (w.cum(src) - w.cum(src - n)) + n * T.pm_log


def power_apply(T: ShiftOp, n: int, x: CoefVec) -> CoefVec:
    """T^n x with the log-magnitudes of ``power_log_mags`` above, on the same
    mask: the kept entries moved n places down, their phases turned by
    n arg(premult) and wrapped; x itself at n = 0 and for an empty x."""
    if n == 0 or x.nnz == 0:
        return x
    keep = (x.indices - n) >= 1 if T.side is Side.UNILATERAL else slice(None)
    lm = power_log_mags(T, n, x)
    if lm.size == 0:
        return CoefVec.zero(T.side)
    return CoefVec(T.side, x.indices[keep] - n, lm, wrap_phase(x.phases[keep] + n * T.pm_arg))


def log_scalar(z: complex) -> LogScalar:
    """A complex scalar as (log|z|, arg z); 0 as the zero flag."""
    z = complex(z)
    if z == 0:
        return LogScalar(zero=True)
    return LogScalar(math.log(abs(z)), math.atan2(z.imag, z.real))


def scale(x: CoefVec, a) -> CoefVec:
    """a x for a complex or LogScalar a: log|a| added to every log-magnitude,
    arg a to every phase, wrapped; the zero vector when a or x is zero."""
    a = a if isinstance(a, LogScalar) else log_scalar(a)
    if a.zero or x.nnz == 0:
        return CoefVec.zero(x.side)
    return CoefVec(x.side, x.indices, x.log_mags + a.log_mag, wrap_phase(x.phases + a.phase))


def scaled_orbit_point(lam: ScalingSeq, T: ShiftOp, n: int, x: CoefVec) -> CoefVec:
    """lam_n T^n x in two steps, T^n x (``power_apply`` above) and then
    ``scale``; ``shiftops.scaled_orbit_point`` must equal it bit for bit."""
    return scale(power_apply(T, n, x), eval_log(lam, n))


def orbit_norm_logs(T: ShiftOp, x: CoefVec, n_arr: np.ndarray) -> np.ndarray:
    """``criteria.orbit_norm_logs`` with the weight products of T^n x formed
    here, from the kept indices i, C(i) - C(i - n) and n log|premult|, rather
    than by ``power_apply``; the two must agree bit for bit."""
    if x.nnz == 0:
        return np.full(len(n_arr), -np.inf)
    w = T.weights
    out = np.empty(len(n_arr), dtype=np.float64)
    cum_x = w.cum(x.indices)
    for t, n in enumerate(np.asarray(n_arr, dtype=np.int64)):
        idx = x.indices
        keep = (idx - n) >= 1 if T.side is Side.UNILATERAL else slice(None)
        src = idx[keep]
        if src.size == 0:
            out[t] = -np.inf
            continue
        lm = x.log_mags[keep] + (cum_x[keep] - w.cum(src - n)) + float(n) * T.pm_log
        m = float(np.max(lm))
        out[t] = m + 0.5 * math.log(float(np.sum(np.exp(2.0 * (lm - m)))))
    return out


def _block_mean(d: np.ndarray, ns: np.ndarray, center: float) -> float:
    lo = center * (1.0 - _BLOCK_HALF_WIDTH)
    hi = center * (1.0 + _BLOCK_HALF_WIDTH)
    sel = (ns >= lo) & (ns <= hi)
    if not sel.any():
        sel = np.argmin(np.abs(ns - center))
        return float(d[sel])
    return float(d[sel].mean())


def ratio_classify(
    seq: ScalingSeq,
    tau: int,
    N: int = 10**6,
    tol: float = 1e-4,
    restrict: tuple[int, int] | None = None,
) -> RatioVerdict:
    """``seqcore.ratio_classify`` as one pass over whole-window arrays of
    lam_n and lam_{n+tau}; the streamed classifier must return the same
    verdict, field by field and bit for bit, and raise the same errors.

    Classify lam by the ratios |lam_n|/|lam_{n+tau}| over n in [N/2, N].

    Decision ladder:
      1. Good when max |r_n - 1| <= tol over the whole window.
      2. Bad(0) / Bad(inf) when the log-ratio drifts monotonically to -inf/+inf
         across geometric anchor blocks.
      3. Bad(a) when all window values agree within tol on a common a != 1.
      4. Good when the log-ratio magnitude shrinks along a power-law trend
         toward 0 (recorded as a trend estimate in ``note``).
      5. Inconclusive otherwise (oscillating families land here).

    ``restrict=(mod, residue)`` limits the scan to one residue class, the
    testable form of a ratio limit taken along a subset of N.
    """
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if N < 100 * tau:
        raise ValueError(f"horizon N={N} too small, need N >= {100 * tau}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    lo = max(N // 2, seq.min_n)
    ns = np.arange(lo, N + 1, dtype=np.int64)
    if restrict is not None:
        mod, res = restrict
        ns = ns[ns % mod == res % mod]
    if ns.size < 8:
        raise ValueError("scan window is empty or too short")
    if restrict is None:
        # ns and ns + tau overlap in all but tau times: evaluate lo..N+tau once
        lm, _, z = eval_at(seq, np.arange(lo, N + tau + 1, dtype=np.int64))
        lm1, z1, lm2, z2 = lm[:-tau], z[:-tau], lm[tau:], z[tau:]
    else:
        lm1, _, z1 = eval_at(seq, ns)
        lm2, _, z2 = eval_at(seq, ns + tau)
    window = (int(ns[0]), int(ns[-1]))
    if z1.any() or z2.any():
        return RatioVerdict(
            "inconclusive", tau, window=window, note="zero magnitudes in window"
        )

    d = lm1 - lm2
    with np.errstate(over="ignore"):
        r = np.exp(d)
    evidence = tuple(float(v) for v in r[-8:])

    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(np.expm1(d))
    if float(np.max(dev)) <= tol:
        return RatioVerdict("good", tau, limit=1.0, evidence=evidence, window=window)

    nsf = ns.astype(np.float64)
    centers = (float(ns[0]), math.sqrt(float(ns[0]) * float(ns[-1])), float(ns[-1]))
    b = np.array([_block_mean(d, nsf, c) for c in centers])
    d1, d2 = b[1] - b[0], b[2] - b[1]
    eta = max(1e-12, 1e-12 * abs(b[2]))

    # monotone divergence of the log-ratio => limit 0 or +inf
    if (
        abs(b[2]) > abs(b[1]) > abs(b[0])
        and abs(d1) > eta
        and abs(d2) >= _DIVERGE_RATIO * abs(d1)
        and d1 * d2 > 0
        and abs(b[2]) >= 0.5 * math.log(1.0 / tol)
    ):
        limit = 0.0 if b[2] < 0 else math.inf
        return RatioVerdict("bad", tau, limit=limit, evidence=evidence, window=window)

    # unanimity around a common constant != 1
    rmax, rmin = float(np.max(r)), float(np.min(r))
    if math.isfinite(rmax) and rmax - rmin <= 2.0 * tol:
        a_hat = 0.5 * (rmax + rmin)
        if abs(a_hat - 1.0) > tol:
            return RatioVerdict(
                "bad", tau, limit=a_hat, evidence=evidence, window=window
            )
        return RatioVerdict(
            "inconclusive", tau, evidence=evidence, window=window,
            note="values straddle 1 beyond tol",
        )

    # shrinking power-law trend of the log-ratio toward 0 => limit 1
    same_sign = float(np.max(d)) < 0.0 or float(np.min(d)) > 0.0
    if same_sign and abs(b[0]) > abs(b[1]) > abs(b[2]) > 0.0:
        alpha = math.log(abs(b[0]) / abs(b[2])) / math.log(centers[2] / centers[0])
        if alpha >= _TREND_ALPHA_MIN:
            return RatioVerdict(
                "good", tau, limit=1.0, evidence=evidence, window=window,
                note=f"trend estimate: |log ratio| ~ n^-{alpha:.3f} -> 0",
            )

    return RatioVerdict("inconclusive", tau, evidence=evidence, window=window)
