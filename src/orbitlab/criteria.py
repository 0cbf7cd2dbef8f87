"""Certificate-producing checkers for weight-product and decay conditions.

Every threshold comparison happens in log domain (products reach 2**10000 and
beyond), and every certificate re-verifies against raw product queries.
Searches that find nothing return an outcome carrying the best margins or the
failing indices, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .lspace import CoefVec, norm
from .seqcore import SCAN_CHUNK, ScalingSeq, eval_log_mags, ratio_classify, scan_runs
from .shiftops import ShiftOp, WeightSeq

__all__ = [
    "MRShiftCertificate",
    "SeriesVerdict",
    "SearchOutcome",
    "DecayReport",
    "salas_check",
    "mr_shift_check",
    "mr_invertible_check",
    "fhc_series_check",
    "norm_decay_check",
    "superratio_decay_check",
    "orbit_norm_logs",
]

REVERIFY_LOG_TOL = 1e-10


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a smallest-witness search: a certificate or diagnostics."""

    certificate: object | None
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class MRShiftCertificate:
    """Witness n for the multiple-recurrence product inequalities.

    For every |j| <= q and l = 1..m: prod_{i=1..l*n} w_{j+i} > 1/eps and
    prod_{i=0..l*n-1} w_{j-i} < eps; stores all 2*m*(2q+1) log products,
    ordered by (l, j).
    """

    weights: WeightSeq
    n: int
    m: int
    q: int
    eps: float
    forward_logs: tuple[float, ...]
    backward_logs: tuple[float, ...]

    def verify(self) -> bool:
        w = self.weights
        thresh = math.log(1.0 / self.eps)
        pos = 0
        for l in range(1, self.m + 1):
            for j in range(-self.q, self.q + 1):
                f = w.forward_log(j, l * self.n)
                b = w.backward_log(j, l * self.n)
                if abs(f - self.forward_logs[pos]) > REVERIFY_LOG_TOL:
                    return False
                if abs(b - self.backward_logs[pos]) > REVERIFY_LOG_TOL:
                    return False
                if not (f > thresh and b < -thresh):
                    return False
                pos += 1
        return True


def salas_check(w: WeightSeq, eps: float, q: int, n_max: int) -> SearchOutcome:
    """Smallest n in (2q, n_max] satisfying the hypercyclicity inequalities:
    the order-1 product search."""
    return mr_shift_check(w, 1, q, eps, n_max)


def mr_shift_check(w: WeightSeq, m: int, q: int, eps: float, n_max: int) -> SearchOutcome:
    """Smallest witness n for the order-m product inequalities (n > 2q).

    Streams n over the scan grid and stops at the chunk holding the first
    witness; without one, the diagnostics name the first n of largest margin.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if q < 0:
        raise ValueError("q must be >= 0")
    n_lo = 2 * q + 1
    if n_lo > n_max:
        return SearchOutcome(None, {"reason": f"no n in ({2*q}, {n_max}]"})
    w.check_range(-q - m * n_max, q + m * n_max)
    thresh = math.log(1.0 / eps)
    cum_j = {j: w.cum(np.array([j]))[0] for j in range(-q, q + 1)}

    # one pass's buffers: the ramp k = 0, 1, ... of every run, the forward
    # and backward products and the margins
    size = min(SCAN_CHUNK, n_max - n_lo + 1)
    ramp = np.arange(size, dtype=np.float64)
    f_buf, b_buf, margin_buf = np.empty(size), np.empty(size), np.empty(size)
    ljs = [(l, j) for l in range(1, m + 1) for j in range(-q, q + 1)]

    def products(a, count):
        for l, j in ljs:
            f = w.cum_run(j + l * a, l, ramp, f_buf[:count])
            f -= cum_j[j]  # log prod_{i=1..ln} w_{j+i}
            b = w.cum_run(j - l * a, -l, ramp, b_buf[:count])
            np.subtract(cum_j[j], b, out=b)  # log prod_{i=0..ln-1} w_{j-i}
            yield f, b

    best_n, best_margin = None, None
    for a, count in scan_runs(n_lo, n_max):
        margin = margin_buf[:count]
        first = _witness_margins(products(a, count), thresh, margin)
        if first is not None:
            n = a + first
            fwd = tuple(w.forward_log(j, l * n) for l, j in ljs)
            bwd = tuple(w.backward_log(j, l * n) for l, j in ljs)
            return SearchOutcome(MRShiftCertificate(w, n, m, q, eps, fwd, bwd), {"n": n})
        # the first largest margin, NaN first, as np.argmax over all n picks it
        i = int(np.argmax(margin))
        if best_n is None or (
            not np.isnan(best_margin) and (np.isnan(margin[i]) or margin[i] > best_margin)
        ):
            best_n, best_margin = a + i, margin[i]

    # name one failing (j, l) pair at the best n for diagnostics
    fail = None
    for l in range(1, m + 1):
        for j in range(-q, q + 1):
            if not (
                w.forward_log(j, l * best_n) > thresh
                and w.backward_log(j, l * best_n) < -thresh
            ):
                fail = (j, l)
                break
        if fail:
            break
    return SearchOutcome(
        None,
        {
            "best_n": best_n,
            "best_margin": float(best_margin),
            "failing_j_l": fail,
        },
    )


def _witness_margins(pairs, thresh: float, out: np.ndarray) -> int | None:
    """Write into out the margins, min over the pairs (f, b) of fl(f -
    thresh) and fl(-thresh - b) (f and b are overwritten), and return the
    first position whose margin is > 0, or None.

    With gradual underflow a rounded difference of doubles has the sign of
    the exact one, so fl(f - thresh) > 0 is f > thresh and fl(-thresh - b) >
    0 is b < -thresh; a NaN fails both, and ``np.minimum`` propagates it.
    So a margin is > 0 exactly where every pair has f > thresh and b <
    -thresh, and ``np.fmax.reduce``, which skips NaN, is > 0 exactly when
    some margin is.
    """
    for k, (f, b) in enumerate(pairs):
        f -= thresh
        np.subtract(-thresh, b, out=b)
        if k == 0:
            np.minimum(f, b, out=out)
        else:
            np.minimum(out, np.minimum(f, b, out=f), out=out)
    return int(np.argmax(out > 0)) if np.fmax.reduce(out) > 0 else None


def mr_invertible_check(w: WeightSeq, m: int, n_max: int, threshold: float) -> np.ndarray:
    """All n <= n_max whose symmetric products exceed the threshold.

    Checks, for every l = 1..m, prod_{i=1..l*n} w_i > G and
    prod_{i=0..l*n} 1/w_{-i} > G. Requires inf w > 0 (invertibility).
    """
    if m < 1 or threshold <= 0:
        raise ValueError("need m >= 1 and a positive threshold")
    if not w.inf_weight > 0:
        raise ValueError("weights must be bounded away from zero (invertibility)")
    if not w.bilateral_ok:
        raise ValueError("mr_invertible_check needs bilateral weights")
    if n_max >= 1:
        w.check_range(-m * n_max - 1, m * n_max)
    g = math.log(threshold)
    found = [np.zeros(0, dtype=np.int64)]
    size = max(0, min(SCAN_CHUNK, n_max))
    ramp = np.arange(size, dtype=np.float64)
    low_buf, b_buf = np.empty(size), np.empty(size)
    for a, count in scan_runs(1, n_max):
        # the running minimum of the products is > g exactly when each is,
        # since np.minimum propagates NaN
        low, b = w.cum_run(a, 1, ramp, low_buf[:count]), b_buf[:count]
        for l in range(1, m + 1):
            if l > 1:
                np.minimum(low, w.cum_run(l * a, l, ramp, b), out=low)
            # prod_{i=0..ln} 1/w_{-i} = exp(C(-ln - 1)) with C the signed cumulative
            np.minimum(low, w.cum_run(-l * a - 1, -l, ramp, b), out=low)
        found.append(a + np.flatnonzero(low > g))
    return np.concatenate(found)


@dataclass(frozen=True)
class SeriesVerdict:
    """Behaviour of sum_n (w_1 ... w_n)^{-2} over a finite scan.

    ``converges_certified`` demands observed decay on the last decade, either
    geometric (ratio <= rho_0 < 1) or dominated by a p-series with p > 1, and
    carries the explicit tail bound under that observed model; a finite scan
    cannot settle the limit claim otherwise, hence ``inconclusive``.
    """

    kind: str  # converges_certified | diverges_observed | inconclusive
    n_max: int
    partial_sum: float
    grid: tuple = ()
    grid_sums: tuple = ()
    tail_bound: float | None = None
    mode: str = ""
    crossed_cap_at: int | None = None
    cap: float | None = None


GEOM_RHO_MAX = 0.99
PSERIES_P_MIN = 1.1


def fhc_series_check(w: WeightSeq, n_max: int = 10**6, cap: float = 12.0) -> SeriesVerdict:
    """Partial sums of (w_1...w_n)^{-2} with divergence cap and tail certificates.

    Streams n over the scan grid, holding across chunks only the sums at the
    grid points, the first cap crossing, the last term and the extremes of
    the last decade's decay ratios. A chunk's sums are the doubles of one
    cumsum over all n: read off ``_kernels.binade_sums`` where its exactness
    argument holds and the chunk does not first cross the cap, and else
    from a cumsum of the chunk that starts from the running sum.
    """
    if n_max < 10:
        raise ValueError("need n_max >= 10")
    w.check_range(0, n_max)
    grid = [10]
    while grid[-1] < n_max:
        grid.append(min(grid[-1] * 2, n_max))
    grid = tuple(grid)
    decade_lo = max(1, n_max // 10)

    size = min(SCAN_CHUNK, n_max)
    ramp = np.arange(size, dtype=np.float64)
    sums_buf, below_buf = np.empty(size), np.empty(size, dtype=bool)
    scratch = np.empty((2, (size + 3) // 4))  # binade_sums' quarter-chunk pieces
    total = 0.0
    grid_sums = []
    crossed_at = None
    ratio_max, p_min = -np.inf, np.inf  # of log(t_{n+1}/t_n) and of p
    for lo, count in scan_runs(1, n_max):
        sums = w.cum_run(lo, 1, ramp, sums_buf[:count], -2.0)  # -2 C(n)
        with np.errstate(over="ignore"):
            np.exp(sums, out=sums)
        t_last = float(sums[-1])
        marks = [g - lo for g in grid if lo <= g < lo + count]
        # the binade sums rise with n, so none passes the cap when the last
        # does not
        fast = _kernels.binade_sums(total, sums, marks, scratch)
        if fast is not None and (crossed_at is not None or fast[-1] <= cap):
            grid_sums += fast[:-1]
            total = fast[-1]
        else:
            # the running sum goes into the chunk's first term, so cumsum
            # adds in the same order as one cumsum over all n
            sums[0] += total
            np.cumsum(sums, out=sums)
            total = sums[-1]
            grid_sums += [float(sums[k]) for k in marks]
            if crossed_at is None:
                below = np.less_equal(sums, cap, out=below_buf[:count])
                if not below.all():
                    crossed_at = lo + int(np.argmin(below))
        # last-decade decay ratios, n in [decade_lo, n_max), from log weights
        # (no underflow); not needed once the sums have crossed the cap
        dk = ramp[max(decade_lo - lo, 0) : n_max - lo]
        if crossed_at is None and dk.size:
            dn = dk + lo  # n as exact-integer doubles
            log_ratio = -2.0 * w.log_w(dn + 1.0)  # log(t_{n+1}/t_n)
            # dominated by a p-series: t_{n+1}/t_n <= (n/(n+1))^p pointwise
            p_vals = -log_ratio / np.log1p(1.0 / dn)
            ratio_max = np.maximum(ratio_max, np.max(log_ratio))
            p_min = np.minimum(p_min, np.min(p_vals))
    kind, tail, mode = "diverges_observed", None, ""
    if crossed_at is None:
        kind = "inconclusive"
        rho_max, p = float(np.exp(ratio_max)), float(p_min)
        if rho_max <= GEOM_RHO_MAX:
            kind, tail, mode = ("converges_certified", t_last * rho_max / (1.0 - rho_max),
                                "geometric")
        elif p >= PSERIES_P_MIN:
            kind, tail, mode = ("converges_certified", t_last * n_max / (p - 1.0),
                                f"p_series(p={p:.4f})")
    return SeriesVerdict(kind, n_max, float(total), grid, tuple(grid_sums), tail_bound=tail,
                         mode=mode, crossed_cap_at=crossed_at, cap=cap)


def orbit_norm_logs(T: ShiftOp, x: CoefVec, n_arr: np.ndarray) -> np.ndarray:
    """log ||T^n x|| for each n (-inf once the support has died)."""
    out = np.empty(len(n_arr), dtype=np.float64)
    for t, n in enumerate(n_arr):
        lm = T.power_log_mags(n, x)
        if lm.size == 0:
            out[t] = -np.inf
            continue
        m = float(np.max(lm))
        out[t] = m + 0.5 * math.log(float(np.sum(np.exp(2.0 * (lm - m)))))
    return out


@dataclass(frozen=True)
class DecayReport:
    """Outcome of a norm-decay verification scan."""

    kind: str  # norm_decay | superratio_decay
    ok: bool
    n_checked: int
    rate_log: float
    max_ratio: float
    n_o: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def conclusion(self) -> str:
        return "not_recurrent_for_x" if self.ok else "bound_violated"


def norm_decay_check(T: ShiftOp, x: CoefVec, N: int) -> DecayReport:
    """Verify ||T^n x|| <= rho^n ||x|| (1 + 1e-9) for n <= N, rho = norm bound < 1."""
    rho = T.norm_bound
    if not rho < 1.0:
        raise ValueError(f"operator norm bound {rho} is not < 1")
    nx = norm(x)
    if nx == 0:
        return DecayReport("norm_decay", True, N, math.log(rho), 0.0)
    n_arr = np.arange(1, N + 1, dtype=np.int64)
    logs = orbit_norm_logs(T, x, n_arr)
    bound_logs = n_arr * math.log(rho) + math.log(nx) + math.log1p(1e-9)
    ratios = np.exp(logs - (n_arr * math.log(rho) + math.log(nx)))
    ok = bool(np.all(logs <= bound_logs))
    return DecayReport(
        "norm_decay",
        ok,
        N,
        math.log(rho),
        float(np.max(ratios)),
        details={"min_ratio": float(np.min(ratios))},
    )


def superratio_decay_check(
    lam: ScalingSeq, T: ShiftOp, x: CoefVec, N: int
) -> DecayReport:
    """Verify the super-fast-decay bound for scalings whose ratio blows up.

    Requires |lam_n| / |lam_{n+1}| -> +inf: locate the first n_o <= N/2 with
    the log-ratio above log(1 + |T|) from there on, then check
    ||lam_n T^n x|| <= |lam_{n_o}| (1+|T|)^{n_o} (|T|/(1+|T|))^n ||x|| for
    n in [n_o, N] in log domain.
    """
    verdict = ratio_classify(lam, 1, N=max(10**5, 2 * N))
    if not (verdict.is_bad and verdict.limit == math.inf):
        raise ValueError(
            f"precondition failed: ratio verdict {verdict.kind}"
            + (f"({verdict.limit})" if verdict.is_bad else "")
            + "; need divergence to +inf"
        )
    rho = T.norm_bound
    n_arr = np.arange(1, N + 2, dtype=np.int64)
    lm = eval_log_mags(lam, n_arr)
    d = lm[:-1] - lm[1:]  # log |lam_n| - log |lam_{n+1}|
    gate = math.log1p(rho)
    above = d > gate
    # suffix-all: first n_o where every later ratio stays above the gate
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(above)))
    cands = np.flatnonzero(suffix_ok)
    if cands.size == 0 or int(cands[0]) + 1 > N // 2:
        raise ValueError(f"no n_o <= N/2 with ratios beyond 1 + |T| = {1.0 + rho}")
    n_o = int(cands[0]) + 1

    nx = norm(x)
    ns = np.arange(n_o, N + 1, dtype=np.int64)
    orbit_logs = orbit_norm_logs(T, x, ns) + eval_log_mags(lam, ns)
    bound_logs = (
        float(lm[n_o - 1])
        + n_o * math.log1p(rho)
        + ns * (math.log(rho) - math.log1p(rho))
        + (math.log(nx) if nx > 0 else 0.0)
        + math.log1p(1e-9)
    )
    ok = bool(np.all(orbit_logs <= bound_logs))
    finite = np.isfinite(orbit_logs)
    max_ratio = float(np.max(np.exp(orbit_logs - bound_logs))) if finite.any() else 0.0
    tail_log = float(orbit_logs[-1])
    return DecayReport(
        "superratio_decay",
        ok,
        N,
        math.log(rho) - math.log1p(rho),
        max_ratio,
        n_o=n_o,
        details={"final_log_norm": tail_log, "norms_vanish": tail_log < math.log(1e-12)},
    )
