"""Enumeration kernels: scan a contiguous range of joint schedules.

Joint schedules are indexed in mixed-radix order (user 0 is the most
significant digit; digit k of user n selects the user's k-th feasible start
in window order). Both kernels return the minimum objective over an index
range and the first index attaining it, which makes range splits merge
deterministically.

The kernels never place a pattern themselves. They read ``placed``, an
``(n_users, max_radix, horizon)`` array built by ``oracle.pack_instance``
from the instance's ``flows.PlacementTable``: ``placed[n, k]`` is user n's
whole load row at its k-th start, and rows past a user's radix are zero.
A schedule's load is the sum of one row per user, added in user order.

Two implementations of the same sum:

* ``_scan_range_sequential``, which numba @njit-compiles whenever numba can
  be imported. It walks the range keeping per-user prefix loads and rebuilds
  each level from the one above whenever its digit changes;
* ``scan_range_numpy``, a chunked evaluator that rebuilds every schedule's
  load from scratch (used when numba is not installed).

Adding a row's zero entries leaves a slot's sum unchanged, and the nonzero
terms of every slot are added in user order in both paths, so they give
bit-identical values and the scan result does not depend on how the range
was partitioned.

Objective codes: 0 = quadratic cost (cents), 1 = peak-to-average ratio.
"""

from __future__ import annotations

import numpy as np

COST = 0
PAR = 1

_NUMPY_CHUNK = 1 << 15


def scan_range_numpy(
    lo: int,
    hi: int,
    radices: np.ndarray,
    placed: np.ndarray,
    horizon: int,
    coeffs: np.ndarray,
    mode: int,
    total_energy: float,
) -> tuple[float, int]:
    """Vectorized from-scratch evaluation of schedules lo..hi-1."""
    n_users = len(radices)
    best_val = np.inf
    best_idx = -1
    for c0 in range(lo, hi, _NUMPY_CHUNK):
        c1 = min(c0 + _NUMPY_CHUNK, hi)
        count = c1 - c0
        rem = np.arange(c0, c1, dtype=np.int64)
        digits = [np.empty(0)] * n_users
        for n in range(n_users - 1, -1, -1):
            digits[n] = rem % radices[n]
            rem //= radices[n]
        loads = np.zeros((count, horizon))
        for n in range(n_users):
            loads += placed[n][digits[n]]
        if mode == COST:
            vals = np.zeros(count)
            for h in range(horizon):
                vals += coeffs[h] * loads[:, h] * loads[:, h]
        else:
            peak = loads[:, 0].copy()
            for h in range(1, horizon):
                np.maximum(peak, loads[:, h], out=peak)
            vals = (horizon * peak) / total_energy
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_idx = c0 + k
    return best_val, best_idx


def _scan_range_sequential(lo, hi, radices, placed, horizon, coeffs, mode, total_energy):
    n_users = radices.shape[0]
    digits = np.empty(n_users, dtype=np.int64)
    rem = lo
    for n in range(n_users - 1, -1, -1):
        digits[n] = rem % radices[n]
        rem //= radices[n]

    # prefix[m] = load of users 0..m-1; levels n+1.. are rebuilt from level n
    # after digit n changes (all of them for the first schedule)
    prefix = np.zeros((n_users + 1, horizon))
    best_val = np.inf
    best_idx = np.int64(-1)
    idx = lo
    n = 0
    while True:
        for m in range(n, n_users):
            for h in range(horizon):
                prefix[m + 1, h] = prefix[m, h] + placed[m, digits[m], h]
        if mode == COST:
            val = 0.0
            for h in range(horizon):
                val += coeffs[h] * prefix[n_users, h] * prefix[n_users, h]
        else:
            peak = prefix[n_users, 0]
            for h in range(1, horizon):
                if prefix[n_users, h] > peak:
                    peak = prefix[n_users, h]
            val = (horizon * peak) / total_energy
        if val < best_val:
            best_val = val
            best_idx = idx
        idx += 1
        if idx >= hi:
            break
        n = n_users - 1
        while digits[n] + 1 >= radices[n]:
            digits[n] = 0
            n -= 1
        digits[n] += 1
    return best_val, best_idx


try:
    import numba
except ImportError:
    scan_range_numba = None
else:
    scan_range_numba = numba.njit(cache=True, nogil=True)(_scan_range_sequential)


def active_backend() -> str:
    return "numpy" if scan_range_numba is None else "numba"


def scan_range(lo: int, hi: int, *args) -> tuple[float, int]:
    """Scan one range with the numba kernel when numba is installed, else numpy."""
    if scan_range_numba is None:
        return scan_range_numpy(lo, hi, *args)
    val, idx = scan_range_numba(lo, hi, *args)
    return float(val), int(idx)
