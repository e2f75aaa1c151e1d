"""Enumeration kernel: scan a contiguous range of joint schedules.

Joint schedules are indexed in mixed-radix order (user 0 is the most
significant digit; digit k of user n selects the user's k-th feasible start
in window order). ``scan_range`` returns the minimum objective over an index
range and the first index attaining it, which makes range splits merge
deterministically.

The kernel never places a pattern itself. It reads the instance's
``flows.PlacementTable``: digit k of user n selects row k of the user's
slice of the table's rows (``PlacementTable.user_rows``), the user's whole
load row at that start. A schedule's load is the sum of one row per user,
added in user order.

The scan is split over blocks that pair a few schedules of the first users
(the prefix, possibly empty) with every schedule of the last users (the
suffix, never empty). A block scores only its prefix rows whose bound may
beat the range's best: PAR exactly, cost from per-user cross terms, and
the pairs rounding may put at the minimum are re-scored from their loads,
summed in user order, by ``objectives.score_loads``, SCR's scorer too.

Neither bound needs slack: row entries are >= 0 and adding a nonnegative
float never lowers a rounded sum, so a schedule's peak is at least its
prefix's peak and each suffix user's lowest row peak, and a cost score is
at least the prefix's cost plus the suffix's lowest. A row is skipped only
when none of its values can beat, or for cost come within the candidate
cut of, the best at a lower index of the same range, so the first-index
rule and worker-count independence hold.

``_SUFFIX_CAP`` bounds the suffix, a block's row width; the cost path keeps
one float per suffix schedule. ``_BLOCK`` bounds a block, which takes as
many consecutive prefix rows as fit. Blocks are larger than the suffix as
a block's numpy passes run over rows that grow with its prefix rows, and
passes over rows shorter than a few thousand elements cost several times
more per element than passes over longer ones; a larger suffix would
instead widen the rows the bounds skip.

Adding a row's zero entries leaves a slot's sum unchanged, and the nonzero
terms of every slot are added in user order however the blocks fall, so a
schedule's value is bit-identical to a plain per-schedule loop that sums
the rows in user order, and the scan result does not depend on how the
range was partitioned.

An empty range (hi <= lo) gives (inf, -1). The module holds no mutable
state, so scans may run at once on any number of threads.
"""

from __future__ import annotations

import numpy as np

from .flows import PlacementTable
from .objectives import ObjectiveKind, score_loads

#: suffix schedules at most, unless the last user alone has more
_SUFFIX_CAP = 1 << 15
#: schedules per block at most, unless the suffix alone has more; a block's
#: temporaries hold a few floats per schedule, except PAR's loads before the
#: last user: H per schedule of the users before it (4 MB at H = 24 when the
#: last user has 6 starts)
_BLOCK = 1 << 17


def _loads(index, user_rows, horizon):
    """Load profiles of the schedules at ``index`` over the users whose
    rows are ``user_rows``, summed in user order."""
    loads = np.zeros((len(index), horizon))
    if user_rows:  # unravel_index rejects an empty shape
        digits = np.unravel_index(index, [len(rows) for rows in user_rows])
        for rows, digit in zip(user_rows, digits):
            loads += rows[digit]
    return loads


def _split_point(radices):
    """The first suffix user m and the suffix's joint radix: the suffix is
    the last user plus every user before it that keeps its schedules within
    ``_SUFFIX_CAP``, so m = 0 when the whole instance fits."""
    m, size = len(radices) - 1, int(radices[-1])
    while m > 0 and size * radices[m - 1] <= _SUFFIX_CAP:
        m -= 1
        size *= int(radices[m])
    return m, size


def _block_peaks(prefix, suffix_rows):
    """Peak load of each (prefix row, suffix schedule) pair, in index order.

    Slot-major loads gain one suffix user at a time, in user order, so each
    slot sum is canonical; a new digit becomes the outer axis to keep the
    long axis innermost. The last user is added slot by slot.
    """
    loads = np.ascontiguousarray(prefix.T)
    for rows in suffix_rows[:-1]:
        loads = np.add(loads[:, None], rows.T[:, :, None], order="C").reshape(len(loads), -1)
    last = suffix_rows[-1].T
    peaks = np.add.outer(last[0], loads[0])
    for h in range(1, len(loads)):
        np.maximum(peaks, np.add.outer(last[h], loads[h]), out=peaks)
    # axes (last user, ..., user m, prefix row) back to index order
    return peaks.reshape(*[len(r) for r in suffix_rows[::-1]], len(prefix)).transpose().ravel()


def _block_costs(prefix, prefix_cost, suffix_weights, suffix_cost):
    """Cost score of each (prefix row, suffix schedule) pair, in index order:
    the prefix's and suffix's own costs plus ``2 a . (P * S)``, which is one
    ``P @ (2 a * rows_j.T)`` term per suffix user j, outer-added from the
    last user back so that the long axis stays innermost."""
    # numpy's own loops: BLAS would wake its thread pool for each small block
    cross = [np.einsum("ph,hk->pk", prefix, weights) for weights in suffix_weights]
    cross[0] += prefix_cost[:, None]
    scores = cross[-1]
    for terms in cross[-2::-1]:
        scores = np.add(terms[:, :, None], scores[:, None, :]).reshape(len(prefix), -1)
    return np.add(scores, suffix_cost, out=scores)


def scan_range(
    lo: int, hi: int, table: PlacementTable, objective: ObjectiveKind
) -> tuple[float, int]:
    """Minimum of ``objective`` over schedules lo..hi-1 and the first index
    attaining it.

    Users m..N-1 (``_split_point``) form the suffix. A block pairs as many
    consecutive prefix schedules as fit in ``_BLOCK`` (one when the suffix
    alone exceeds it) with every suffix schedule, so its indices are
    contiguous.
    """
    if hi <= lo:
        return np.inf, -1
    best = (np.inf, -1)
    user_rows, coeffs = table.user_rows(), table.coefficients
    horizon, energy = len(coeffs), table.total_energy
    m, size = _split_point(table.radices)
    cost = objective is ObjectiveKind.COST
    if cost:
        suffix = np.zeros((1, horizon))
        for rows in user_rows[m:]:
            suffix = (suffix[:, None] + rows).reshape(-1, horizon)
        suffix_cost = np.einsum("h,sh,sh->s", coeffs, suffix, suffix)
        del suffix
        floor = suffix_cost.min()
        suffix_weights = [2 * coeffs[:, None] * rows.T for rows in user_rows[m:]]
        # each term of a score or canonical value is rounded at most 2K + H + 2
        # times (K users: K in load sums, two multiplies, H - 1 in the slot sum,
        # K adding users' terms, one the suffix's cost), so a pair scoring over
        # (1 + 4 gamma) times another's cannot have the lower canonical value;
        # 8 gamma also covers rounding the cut
        unit = (2 * len(user_rows) + horizon + 8) * np.finfo(float).eps / 2
        cut_factor = 1 + 8 * unit / (1 - unit)
    else:
        # a schedule's peak is at least each suffix user's own row peak
        floor = max(rows.max(axis=1).min() for rows in user_rows[m:])
    rows = max(1, _BLOCK // size)
    q_end = (hi - 1) // size + 1
    for q0 in range(lo // size, q_end, rows):
        prefix = _loads(np.arange(q0, min(q0 + rows, q_end)), user_rows[:m], horizon)
        # a row's bound is <= each of its values as computed (PAR: the same expression)
        if cost:
            prefix_cost = np.einsum("h,ph,ph->p", coeffs, prefix, prefix)
            keep = np.flatnonzero(prefix_cost + floor <= best[0] * cut_factor)
        else:
            keep = np.flatnonzero((horizon * np.maximum(prefix.max(1), floor)) / energy < best[0])
        if not len(keep):
            continue
        if cost:
            vals = _block_costs(prefix[keep], prefix_cost[keep], suffix_weights, suffix_cost)
        else:
            vals = (horizon * _block_peaks(prefix[keep], user_rows[m:])) / energy
        # only the range's first and last prefix rows reach past lo..hi-1
        starts = (q0 + keep) * size
        vals = vals.reshape(len(keep), size)
        vals[0, : max(lo - starts[0], 0)] = np.inf
        vals[-1, hi - starts[-1] :] = np.inf
        vals = vals.ravel()
        # PAR's values are canonical, so its first minimum is its one candidate
        low = np.argmin(vals, keepdims=True)
        sel = np.flatnonzero(vals <= min(vals[low[0]], best[0]) * cut_factor) if cost else low
        if len(sel):
            index = starts[sel // size] + sel % size
            canonical = score_loads(objective, _loads(index, user_rows, horizon), coeffs, energy)
            k = int(np.argmin(canonical))
            if canonical[k] < best[0]:
                best = (float(canonical[k]), int(index[k]))
    return best


def active_backend() -> str:
    """The enumeration kernel's name, for environment reports."""
    return "numpy"
