"""orbitlab: deterministic experiments on orbits of scaled operator sequences.

Simulates powers of weighted backward shifts in log-domain arithmetic,
measures hitting-set densities, finds arithmetic progressions inside them,
constructs frequently-universal witness vectors, classifies adjoint
multipliers by their symbol's range, and checks recurrence/hypercyclicity
criteria with re-verifiable certificates.
"""

from .seqcore import (
    AngleSpec,
    LogScalar,
    RatioVerdict,
    ScalingSeq,
    SequenceDomainError,
    eval_log,
    log_mul,
    ratio_classify,
    rotate_seq,
)
from .lspace import Ball, CoefVec, Side, SideMismatchError, dist, norm
from .shiftops import ShiftOp, WeightSeq, scaled_orbit_point

__all__ = [
    "AngleSpec",
    "LogScalar",
    "RatioVerdict",
    "ScalingSeq",
    "SequenceDomainError",
    "eval_log",
    "log_mul",
    "ratio_classify",
    "rotate_seq",
    "Ball",
    "CoefVec",
    "Side",
    "SideMismatchError",
    "dist",
    "norm",
    "ShiftOp",
    "WeightSeq",
    "scaled_orbit_point",
]

__version__ = "0.1.0"

# heavier submodules (orbit scans, the CLI) load on first attribute
# access so that `import orbitlab` stays light
_LAZY_SUBMODULES = ("symbolops", "orbits", "criteria", "fhbuilder", "expcli")


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
