"""Constructs frequently-universal witness vectors by residue-class blocks.

For each target y_i with small support, coefficients are placed along an
arithmetic progression of orbit times A_i = {n >= n_min : n = i*g (mod r*g)}
so that lam_n T^n x reproduces y_i exactly on its support at every planned
time. The classes have exact density 1/(r*g), pairwise separation >= g, and
are themselves arithmetic progressions, which makes the downstream
progression searches deterministic. Verification of every planned time is
mandatory: a built vector without a clean report does not exist. One scan
per target over the whole horizon both checks the planned times and yields
the target's hitting set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lspace import Ball, CoefVec, Side
from .orbits import HittingSet, _ball_scan
from .seqcore import ScalingSeq, eval_at, wrap_phase
from .shiftops import ShiftOp

__all__ = [
    "BlockPlan",
    "FUVector",
    "BuildError",
    "InfeasibleDecayError",
    "VerificationFailedError",
    "build",
]


class BuildError(RuntimeError):
    pass


class InfeasibleDecayError(BuildError):
    """Placed coefficient magnitudes do not decay: no l2 vector exists."""


class VerificationFailedError(BuildError):
    """Cross-block residual spoiled a planned hit; enlarge the gap g."""

    def __init__(self, target: int, n: int, distance: float, eps: float, g: int):
        super().__init__(
            f"target {target}: planned time n={n} missed its ball "
            f"(dist {distance:.3e} >= eps {eps:.3e}); try a larger gap than g={g}"
        )
        self.suggestion = 2 * g


@dataclass(frozen=True)
class BlockPlan:
    """Residue-class placement plan for a list of targets."""

    supports: tuple[int, ...]  # q_i = max support index per target
    epsilons: tuple[float, ...]
    g: int
    n_min: int

    @property
    def r(self) -> int:
        return len(self.supports)

    @property
    def period(self) -> int:
        return self.r * self.g

    def class_members(self, i: int, n_hi: int) -> np.ndarray:
        """A_i = {n >= n_min : n = i*g (mod period)} up to n_hi."""
        start = i * self.g
        if start < self.n_min:
            start += ((self.n_min - start + self.period - 1) // self.period) * self.period
        if start > n_hi:
            return np.zeros(0, dtype=np.int64)
        return np.arange(start, n_hi + 1, self.period, dtype=np.int64)

    def planned(self, i: int, N: int) -> np.ndarray:
        """Planned times whose placed block stays inside the horizon."""
        return self.class_members(i, N - self.supports[i])

    def to_config(self) -> dict:
        return {
            "supports": list(self.supports),
            "epsilons": list(self.epsilons),
            "g": self.g,
            "n_min": self.n_min,
            "period": self.period,
        }


@dataclass(frozen=True)
class FUVector:
    """A built witness vector with its plan, verification report and the
    hitting set of each target over the whole horizon."""

    x: CoefVec
    plan: BlockPlan
    horizon: int
    report: dict
    hits: tuple[HittingSet, ...]


DEFAULT_GAP_MARGIN = 8


def build(
    lam: ScalingSeq,
    T: ShiftOp,
    targets: list[tuple[CoefVec, float]],
    N: int,
    g: int | None = None,
    n_min: int | None = None,
) -> FUVector:
    """Place blocks so lam_n T^n x hits each target ball along its class.

    Placement: for n in A_i and j in supp(y_i),
    x_{j+n} = y_i(j) / (lam_n premult^n prod_{s=1..n} w_{j+s}), so the
    scaled orbit reproduces y_i exactly on its support. The mandatory
    verification pass then scans each target's ball over 1..N once: the
    full distance (cross-block residual included) at every planned time
    must be a hit, and the hits are the target's hitting set.
    """
    if T.side is not Side.UNILATERAL:
        raise ValueError("the block builder needs a unilateral backward shift")
    if not targets:
        raise ValueError("need at least one target")
    for y, eps in targets:
        if y.side is not Side.UNILATERAL or y.nnz == 0:
            raise ValueError("targets must be non-zero unilateral vectors")
        if eps <= 0:
            raise ValueError("target radius must be positive")

    supports = tuple(int(y.indices.max()) for y, _ in targets)
    eps_list = tuple(float(e) for _, e in targets)
    q_max = max(supports)
    if g is None:
        g = 2 * q_max + DEFAULT_GAP_MARGIN
    if g <= q_max:
        raise ValueError(f"gap g={g} must exceed the largest target support {q_max}")
    if n_min is None:
        n_min = g
    if n_min < 1:
        raise ValueError(f"n_min={n_min} must be >= 1")
    plan = BlockPlan(supports, eps_list, int(g), int(n_min))
    x = _place(lam, T, targets, plan, N)

    report: dict = {"targets": [], "planned_total": 0, "worst_miss": 0.0}
    hits = []
    for i, (y, eps) in enumerate(targets):
        h, planned, worst = _verify_target(x, lam, T, plan, i, Ball(y, eps), N)
        hits.append(h)
        report["targets"].append({"planned": planned, "worst_residual": worst, "eps": eps})
        report["planned_total"] += planned
        report["worst_miss"] = max(report["worst_miss"], worst)

    return FUVector(x, plan, N, report, tuple(hits))


def _place(
    lam: ScalingSeq, T: ShiftOp, targets: list[tuple[CoefVec, float]], plan: BlockPlan, N: int
) -> CoefVec:
    """The vector x with every target's blocks placed along its class.

    Its temporaries, one entry per placed coefficient, are freed on return,
    before the verification scans run.
    """
    w = T.weights
    idx_parts, lm_parts, ph_parts = [], [], []
    per_class_blockmax: list[np.ndarray] = []
    for i, (y, _) in enumerate(targets):
        ns = plan.planned(i, N)
        if ns.size == 0:
            per_class_blockmax.append(np.zeros(0))
            continue
        lam_lm, lam_ph, lam_zero = eval_at(lam, ns)
        if lam_zero.any():
            raise BuildError("scaling sequence vanishes at a planned time")
        nf = ns.astype(np.float64)
        block_max = np.full(ns.shape, -np.inf)
        for pos in range(y.nnz):
            j = int(y.indices[pos])
            # C(j) once: cum works entry by entry
            prod = w.cum(ns + j) - w.cum(np.array([j], dtype=np.int64))
            lm = y.log_mags[pos] - lam_lm - nf * T.pm_log - prod
            ph = wrap_phase(y.phases[pos] - lam_ph - nf * T.pm_arg)
            idx_parts.append(ns + j)
            lm_parts.append(lm)
            ph_parts.append(ph)
            block_max = np.maximum(block_max, lm)
        per_class_blockmax.append(block_max)

    # decay feasibility: within each class the block maxima must fall
    for i, bm in enumerate(per_class_blockmax):
        if bm.size >= 2 and not np.all(np.diff(bm) < -1e-12):
            raise InfeasibleDecayError(
                f"target {i}: placed magnitudes do not decay over successive "
                "blocks; the scaled orbit cannot come from an l2 vector"
            )

    if not idx_parts:
        raise BuildError(
            f"horizon N={N} leaves no room for planned blocks (n_min={plan.n_min})"
        )
    all_idx = np.concatenate(idx_parts)
    order = np.argsort(all_idx)
    # planned times are multiples of g, which exceeds every target's support,
    # so no two blocks share an index; CoefVec refuses a repeated one anyway
    return CoefVec(
        Side.UNILATERAL,
        all_idx[order],
        np.concatenate(lm_parts)[order],
        np.concatenate(ph_parts)[order],
    )


def _verify_target(
    x: CoefVec, lam: ScalingSeq, T: ShiftOp, plan: BlockPlan, i: int, ball: Ball, N: int
) -> tuple[HittingSet, int, float]:
    """Scan target i's ball once over the horizon: its hitting set, its
    number of planned times and the largest distance at one of them.

    Raises VerificationFailedError at the first planned time that is no hit.
    """
    planned = plan.planned(i, N)
    # planned times start at n_min >= 1, inside lam's domain, so the scan
    # covers every one
    hits, d2 = _ball_scan(x, lam, T, ball, N, planned)
    missed = np.flatnonzero(~(d2 < ball.radius * ball.radius))
    if missed.size:
        b = missed[0]
        raise VerificationFailedError(
            i, int(planned[b]), float(np.sqrt(d2[b])), ball.radius, plan.g
        )
    worst = float(np.sqrt(d2.max())) if d2.size else 0.0
    return HittingSet(hits, N), int(planned.size), worst
