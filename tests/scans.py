"""The orbit scan's distance kernel, as the tests call it directly."""

import numpy as np

from orbitlab.orbits import _orbit_scan


def orbit_d2(x, lam, T, y, eps, n_arr) -> np.ndarray:
    """dist(lam_n T^n x, y)^2 at the times n_arr (non-empty), from the
    kernel the scans run; +inf where the log pre-filter fires (a
    coefficient alone outstrips |y| + eps), a certain miss."""
    n_arr = np.asarray(n_arr, dtype=np.int64)
    return _orbit_scan(x, lam, T, y, eps, int(n_arr.max()), n_arr.size)[0](n_arr)
