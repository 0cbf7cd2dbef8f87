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

from .lspace import CoefVec, Side, norm
from .seqcore import ScalingSeq, eval_log_mags, ratio_classify
from .shiftops import ProductTable, ShiftOp, WeightSeq, product_table

__all__ = [
    "SalasCertificate",
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
class SalasCertificate:
    """Witness power n for the bilateral hypercyclicity product inequalities.

    For every |j| <= q: prod_{i=1..n} w_{j+i} > 1/eps and
    prod_{i=0..n-1} w_{j-i} < eps (stored and compared as logs).
    """

    weights: WeightSeq
    n: int
    q: int
    eps: float
    forward_logs: tuple[float, ...]
    backward_logs: tuple[float, ...]

    def verify(self, pt: ProductTable | None = None, tol: float = REVERIFY_LOG_TOL) -> bool:
        """The m = 1 case of MRShiftCertificate.verify."""
        return MRShiftCertificate(
            self.weights, self.n, 1, self.q, self.eps, self.forward_logs, self.backward_logs
        ).verify(pt, tol)

    def to_config(self) -> dict:
        return {
            "type": "salas",
            "weights": self.weights.to_config(),
            "n": self.n,
            "q": self.q,
            "eps": self.eps,
            "forward_logs": list(self.forward_logs),
            "backward_logs": list(self.backward_logs),
        }


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

    def verify(self, pt: ProductTable | None = None, tol: float = REVERIFY_LOG_TOL) -> bool:
        pt = pt or product_table(self.weights, True, self.m * self.n + self.q + 1)
        thresh = math.log(1.0 / self.eps)
        pos = 0
        for l in range(1, self.m + 1):
            for j in range(-self.q, self.q + 1):
                f = pt.forward_log(j, l * self.n)
                b = pt.backward_log(j, l * self.n)
                if abs(f - self.forward_logs[pos]) > tol:
                    return False
                if abs(b - self.backward_logs[pos]) > tol:
                    return False
                if not (f > thresh and b < -thresh):
                    return False
                pos += 1
        return True

    def to_config(self) -> dict:
        return {
            "type": "mr_shift",
            "weights": self.weights.to_config(),
            "n": self.n,
            "m": self.m,
            "q": self.q,
            "eps": self.eps,
            "forward_logs": list(self.forward_logs),
            "backward_logs": list(self.backward_logs),
        }


def _forward_logs_all_n(pt: ProductTable, j: int, n_arr: np.ndarray, l: int = 1) -> np.ndarray:
    """log prod_{i=1..l*n} w_{j+i} for a whole vector of n."""
    return pt.cum(j + l * n_arr) - pt.cum(np.full(n_arr.shape, j, dtype=np.int64))


def _backward_logs_all_n(pt: ProductTable, j: int, n_arr: np.ndarray, l: int = 1) -> np.ndarray:
    """log prod_{i=0..l*n-1} w_{j-i} for a whole vector of n."""
    return pt.cum(np.full(n_arr.shape, j, dtype=np.int64)) - pt.cum(j - l * n_arr)


def salas_check(w: WeightSeq, eps: float, q: int, n_max: int) -> SearchOutcome:
    """Smallest n in (2q, n_max] satisfying the hypercyclicity inequalities."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if q < 0:
        raise ValueError("q must be >= 0")
    out = mr_shift_check(w, 1, q, eps, n_max)
    if not out:
        return out
    c: MRShiftCertificate = out.certificate
    cert = SalasCertificate(w, c.n, q, eps, c.forward_logs, c.backward_logs)
    return SearchOutcome(cert, out.diagnostics)


def mr_shift_check(w: WeightSeq, m: int, q: int, eps: float, n_max: int) -> SearchOutcome:
    """Smallest witness n for the order-m product inequalities (n > 2q)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if q < 0:
        raise ValueError("q must be >= 0")
    n_lo = 2 * q + 1
    if n_lo > n_max:
        return SearchOutcome(None, {"reason": f"no n in ({2*q}, {n_max}]"})
    pt = product_table(w, True, m * n_max + q + 1)
    n_arr = np.arange(n_lo, n_max + 1, dtype=np.int64)
    thresh = math.log(1.0 / eps)

    ok = np.ones(n_arr.shape, dtype=bool)
    margin = np.full(n_arr.shape, np.inf)
    for l in range(1, m + 1):
        for j in range(-q, q + 1):
            f = _forward_logs_all_n(pt, j, n_arr, l)
            b = _backward_logs_all_n(pt, j, n_arr, l)
            ok &= (f > thresh) & (b < -thresh)
            margin = np.minimum(margin, np.minimum(f - thresh, -thresh - b))
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        best = int(np.argmax(margin))
        # name one failing (j, l) pair at the best n for diagnostics
        fail = None
        nb = int(n_arr[best])
        for l in range(1, m + 1):
            for j in range(-q, q + 1):
                if not (
                    pt.forward_log(j, l * nb) > thresh
                    and pt.backward_log(j, l * nb) < -thresh
                ):
                    fail = (j, l)
                    break
            if fail:
                break
        return SearchOutcome(
            None,
            {
                "best_n": nb,
                "best_margin": float(margin[best]),
                "failing_j_l": fail,
            },
        )
    n = int(n_arr[hits[0]])
    fwd, bwd = [], []
    for l in range(1, m + 1):
        for j in range(-q, q + 1):
            fwd.append(pt.forward_log(j, l * n))
            bwd.append(pt.backward_log(j, l * n))
    cert = MRShiftCertificate(w, n, m, q, eps, tuple(fwd), tuple(bwd))
    return SearchOutcome(cert, {"n": n})


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
    pt = product_table(w, True, m * n_max + 1)
    n_arr = np.arange(1, n_max + 1, dtype=np.int64)
    g = math.log(threshold)
    ok = np.ones(n_arr.shape, dtype=bool)
    for l in range(1, m + 1):
        fwd = pt.cum(l * n_arr)
        # prod_{i=0..ln} 1/w_{-i} = exp(C(-ln - 1)) with C the signed cumulative
        bwd = pt.cum(-l * n_arr - 1)
        ok &= (fwd > g) & (bwd > g)
    return n_arr[ok]


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

    def to_config(self) -> dict:
        return {
            "type": "series",
            "kind": self.kind,
            "n_max": self.n_max,
            "partial_sum": self.partial_sum,
            "grid": list(self.grid),
            "grid_sums": list(self.grid_sums),
            "tail_bound": self.tail_bound,
            "mode": self.mode,
            "crossed_cap_at": self.crossed_cap_at,
            "cap": self.cap,
        }


GEOM_RHO_MAX = 0.99
PSERIES_P_MIN = 1.1


def fhc_series_check(w: WeightSeq, n_max: int = 10**6, cap: float = 12.0) -> SeriesVerdict:
    """Partial sums of (w_1...w_n)^{-2} with divergence cap and tail certificates."""
    if n_max < 10:
        raise ValueError("need n_max >= 10")
    pt = product_table(w, False, n_max + 1)
    n_arr = np.arange(1, n_max + 1, dtype=np.int64)
    log_terms = -2.0 * pt.cum(n_arr)
    with np.errstate(over="ignore"):
        terms = np.exp(log_terms)
    sums = np.cumsum(terms)
    grid_pts = [10]
    while grid_pts[-1] < n_max:
        grid_pts.append(min(grid_pts[-1] * 2, n_max))
    grid = np.array(grid_pts, dtype=np.int64)
    grid_sums = tuple(float(sums[g - 1]) for g in grid)
    total = float(sums[-1])

    crossed = np.flatnonzero(~(sums <= cap))
    if crossed.size:
        return SeriesVerdict(
            "diverges_observed",
            n_max,
            total,
            tuple(int(g) for g in grid),
            grid_sums,
            crossed_cap_at=int(n_arr[crossed[0]]),
            cap=cap,
        )

    # last-decade decay ratios, from log weights (no underflow)
    decade_lo = max(1, n_max // 10)
    dn = np.arange(decade_lo, n_max, dtype=np.int64)
    log_ratio = -2.0 * w.log_w(dn + 1)  # log(t_{n+1}/t_n)
    rho_max = float(np.exp(np.max(log_ratio)))
    t_last = float(terms[-1])
    if rho_max <= GEOM_RHO_MAX:
        tail = t_last * rho_max / (1.0 - rho_max)
        return SeriesVerdict(
            "converges_certified",
            n_max,
            total,
            tuple(int(g) for g in grid),
            grid_sums,
            tail_bound=tail,
            mode="geometric",
            cap=cap,
        )
    # dominated by a p-series: t_{n+1}/t_n <= (n/(n+1))^p pointwise
    p_vals = -log_ratio / np.log1p(1.0 / dn)
    p = float(np.min(p_vals))
    if p >= PSERIES_P_MIN:
        tail = t_last * n_max / (p - 1.0)
        return SeriesVerdict(
            "converges_certified",
            n_max,
            total,
            tuple(int(g) for g in grid),
            grid_sums,
            tail_bound=tail,
            mode=f"p_series(p={p:.4f})",
            cap=cap,
        )
    return SeriesVerdict(
        "inconclusive",
        n_max,
        total,
        tuple(int(g) for g in grid),
        grid_sums,
        cap=cap,
    )


def orbit_norm_logs(T: ShiftOp, x: CoefVec, n_arr: np.ndarray) -> np.ndarray:
    """log ||T^n x|| for each n (-inf once the support has died)."""
    if x.nnz == 0:
        return np.full(len(n_arr), -np.inf)
    pt = T.table(int(x.indices.max()) + 1)
    out = np.empty(len(n_arr), dtype=np.float64)
    cum_x = pt.cum(x.indices)
    for t, n in enumerate(np.asarray(n_arr, dtype=np.int64)):
        idx = x.indices
        keep = (idx - n) >= 1 if T.side is Side.UNILATERAL else slice(None)
        src = idx[keep]
        if src.size == 0:
            out[t] = -np.inf
            continue
        lm = (
            x.log_mags[keep]
            + (cum_x[keep] - pt.cum(src - n))
            + float(n) * T.pm_log
        )
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
