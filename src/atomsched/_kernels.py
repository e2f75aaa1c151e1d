"""Enumeration kernel: scan a contiguous range of joint schedules.

Joint schedules are indexed in mixed-radix order (user 0 is the most
significant digit; digit k of user n selects the user's k-th feasible start
in window order). ``scan_range`` offers a scan's ``SharedScan`` the
minimum objective over an index range of whole prefix rows (below) and the
first index attaining it.

The kernel never places a pattern itself. It reads the instance's
``flows.PlacementTable``: digit k of user n selects row k of the user's
slice of the table's rows (``PlacementTable.user_rows``), the user's whole
load row at that start. A schedule's load is the sum of one row per user,
added in user order.

The scan is split over blocks that pair a few schedules of the first users
(the prefix, possibly empty) with every schedule of the last users (the
suffix, never empty). A call scans one chunk of whole prefix rows, at most
``_CHUNK`` of them: it builds its rows' loads and bounds once, and its
blocks take its rows in order of bound (cost: of the prefix's own cost,
which the bound never falls with), ties by index, so the rows that may beat
the incumbent are a leading run of that order and the most promising are
scored first; while the incumbent is empty, a block holds the best-bound
row alone, found before most PAR rows are bounded (below), so that the
blocks after it have a value to prune with. A block scores only rows whose
bound may beat the incumbent: PAR exactly, cost from per-user cross terms,
and the pairs rounding may put at the minimum are re-scored from their
loads, the block's prefix loads plus each suffix user's row in user order,
by ``objectives.score_loads``, SCR's scorer too.

No bound needs slack: row entries are >= 0 and adding a nonnegative float
never lowers a rounded sum. So a schedule's peak is at least its prefix's
peak and each suffix user's lowest row peak (a PAR row's simple bound),
and, as every cross term is >= 0, a pair's cost score is at least
fl(prefix cost + suffix cost), so at least the prefix's cost plus the suffix's
lowest. A PAR row's joint bound is its lowest peak over the joint starts of
the heaviest suffix users (ranked by lowest row peak, at most ``_JOINT``
joint starts): the minimum over those starts of ``_block_peaks``, the block
scorer's own code, which adds their rows to the prefix loads one user at a
time, in user order. Each slot sum is then the canonical sum with some
nonnegative terms left out, so it is never above it, and the bound is at
most each of the row's values as computed. Pre-summing the heavy rows would
not keep this order and could exceed a canonical sum by an ulp. Nor is it
below the simple bound: the heavy users, if any, include the one setting
the floor. So while the incumbent is empty, rows are bounded jointly in
order of simple bound up to the first step holding one whose joint bound is
the lowest simple bound, the first row by (joint bound, index), or all
rows; then only the rows not yet bounded whose bound may still win are.

By the pair bound, the pairs of a cost row that may make the candidate cut
are a leading run of the suffix schedules sorted by their own cost, ties by
index; ``SharedScan`` keeps that order, the sorted costs and each suffix
user's digits in that order. Before each cost block, the run of its first
row, its lowest-cost one, is found from the live incumbent, rounded so that
it can only come out too long. When the run is at most a quarter of the
suffix, the block takes as many rows as fill ``_BLOCK`` with pairs of the
run and scores each row against the run alone, gathering each suffix
user's cross terms; otherwise, as while the incumbent is empty, it scores
the whole suffix in index order. Either way a pair's score is the same
sum, added in the same order, so the candidates, re-scored in index
order, are those of a block that scored every pair.

A range starts and ends on a prefix-row edge (lo and hi are multiples of
the suffix size), so its blocks score whole rows; ``oracle.brute_force``
cuts a scan into such ranges, a chunk each. The ranges of one scan
share a ``SharedScan``: the table, the objective, the suffix tables, built
once, and the incumbent ``best``, which is the scan's answer. Each
re-scored block offers its first canonical minimum, and ``best`` keeps the
least (value, index) pair offered. Ranges read it before each block: a
cost row is skipped when its bound is past the candidate cut of the
incumbent's value, so its canonical values are all above it; a cost block
is skipped when its lowest score is. A PAR row is skipped when its bound
is above the incumbent's value, or equal to it with no schedule before the
incumbent's index, since a tie goes to the lower index. So the range
holding the first minimum over the whole scan never skips it and offers
it, and ``best`` ends at that pair whatever the worker count, the timing
or the order the ranges run in; only the work done, which rows each range
skips, depends on them.

``_SUFFIX_CAP`` bounds the suffix, a block's row width; the cost path keeps
a few numbers per suffix schedule: its cost in index and in sorted order,
its place in that order and each suffix user's digit. ``_BLOCK`` bounds a
block, which takes as many prefix rows as fit. Blocks are larger than the
suffix as a block's numpy passes run over rows that grow with its prefix
rows, and passes over rows shorter than a few thousand elements cost
several times more per element than passes over longer ones; a larger
suffix would instead widen the rows the bounds skip. A chunk of c prefix
rows holds c * (H + 4) numbers: each row's loads, index, bound, place in
the bound order and, for cost, the prefix's own cost; 0.9 MB at c = 4096
and H = 24.

Adding a row's zero entries leaves a slot's sum unchanged, and the nonzero
terms of every slot are added in user order however the blocks fall, so a
schedule's value is bit-identical to a plain per-schedule loop that sums
the rows in user order, and the scan result does not depend on how the
range was partitioned.

An empty range (hi <= lo) offers nothing, and ``best`` is (inf, -1) until
a range offers a pair. The module holds no mutable state and a
``SharedScan`` changes only under its lock, so scans may run at once on any
number of threads.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .flows import PlacementTable
from .objectives import ObjectiveKind, par_ratio, score_loads

#: suffix schedules at most, unless the last user alone has more
_SUFFIX_CAP = 1 << 15
#: schedules per block at most, unless the suffix alone has more; a block's
#: temporaries hold a few floats per schedule, except PAR's loads before the
#: last user: H per schedule of the users before it (4 MB at H = 24 when the
#: last user has 6 starts)
_BLOCK = 1 << 17
#: prefix rows per chunk, one ``scan_range`` call of ``oracle.brute_force``, at most
_CHUNK = 1 << 12
#: joint starts of the heavy suffix users in the PAR row bound, at most
_JOINT = 64
#: prefix rows per joint-bound step while the incumbent is empty, at most
_FIRST = 64


def _loads(index, user_rows, loads):
    """``loads`` plus the rows of the schedules at ``index`` over the users
    whose rows are ``user_rows``, added in place in user order."""
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


class SharedScan:
    """What the ranges of one scan of ``table`` under ``objective`` share:
    the suffix tables, built once, and the incumbent ``best``, the least
    (value, index) pair any range has offered, which is the scan's
    answer once every range has finished."""

    def __init__(self, table: PlacementTable, objective: ObjectiveKind):
        self.table, self.objective = table, objective
        user_rows, coeffs = table.user_rows(), table.coefficients
        self.m, self.size = _split_point(table.radices)
        suffix_rows = user_rows[self.m :]
        if objective is ObjectiveKind.COST:
            suffix = np.zeros((1, len(coeffs)))
            for rows in suffix_rows:
                suffix = (suffix[:, None] + rows).reshape(-1, len(coeffs))
            self.suffix_cost = np.einsum("h,sh,sh->s", coeffs, suffix, suffix)
            # the suffix schedules by their own cost, ties by index, with that
            # cost and each suffix user's digit in this order
            self.suffix_order = np.argsort(self.suffix_cost, kind="stable")
            self.sorted_cost = self.suffix_cost[self.suffix_order]
            self.sorted_digits = np.unravel_index(self.suffix_order, table.radices[self.m :])
            self.floor = self.sorted_cost[0]
            self.suffix_weights = [2 * coeffs[:, None] * rows.T for rows in suffix_rows]
            # each term of a score or canonical value is rounded at most 2K + H + 2
            # times (K users: K in load sums, two multiplies, H - 1 in the slot sum,
            # K adding users' terms, one the suffix's cost), so a pair scoring over
            # (1 + 4 gamma) times another's cannot have the lower canonical value;
            # 8 gamma also covers rounding the cut
            unit = (2 * len(user_rows) + len(coeffs) + 8) * np.finfo(float).eps / 2
            self.cut_factor = 1 + 8 * unit / (1 - unit)
        else:
            # a schedule's peak is at least each suffix user's own row peak
            lowest = [rows.max(axis=1).min() for rows in suffix_rows]
            self.floor = max(lowest)
            heavy, self.joint = [], 1
            for j in sorted(range(len(lowest)), key=lambda j: -lowest[j]):
                if self.joint * len(suffix_rows[j]) > _JOINT:
                    break
                heavy.append(j)
                self.joint *= len(suffix_rows[j])
            self.heavy_rows = [suffix_rows[j] for j in sorted(heavy)]
        self.best = (np.inf, -1)
        self._lock = threading.Lock()

    def offer(self, value: float, index: int) -> None:
        """Lower the incumbent to (value, index) if that pair is lower."""
        with self._lock:
            if (value, index) < self.best:
                self.best = (value, index)


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


def _joint_bound(shared, prefix, bound, rows, low=None):
    """Raise ``bound`` of ``rows`` to their joint PAR bound, in order, in steps
    within ``_BLOCK`` floats or, given ``low``, of at most ``_FIRST`` rows up
    to the first holding a bound ``low``; returns the rows bounded."""
    horizon, energy = prefix.shape[1], shared.table.total_energy
    step = min(max(1, _BLOCK // (shared.joint * horizon)), _BLOCK if low is None else _FIRST)
    for k in range(0, len(rows), step):
        part = rows[k : k + step]
        peaks = _block_peaks(prefix[part], shared.heavy_rows)
        bound[part] = par_ratio(horizon, peaks.reshape(len(part), -1).min(axis=1), energy)
        if low is not None and (bound[part] == low).any():
            return rows[: k + step]
    return rows


def _may_win(bound, starts, value, index):
    """Which PAR rows (bounds, first schedules) may beat (value, index)."""
    return (bound < value) | ((bound == value) & (starts < index))


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


def _run_costs(prefix, prefix_cost, suffix_weights, run_digits, run_cost):
    """Cost score of each (prefix row, run schedule) pair, for a run of
    suffix schedules given by each suffix user's digits ``run_digits`` and
    their own costs ``run_cost``: each user's cross term is gathered by its
    digits and the terms are added in ``_block_costs``'s order, one user at
    a time from the last back, so two arrays of the block's size are live."""
    scores = None
    for j in range(len(suffix_weights) - 1, -1, -1):
        cross = np.einsum("ph,hk->pk", prefix, suffix_weights[j])
        if j == 0:
            cross += prefix_cost[:, None]
        terms = np.take(cross, run_digits[j], axis=1)
        scores = terms if scores is None else np.add(terms, scores, out=scores)
    return np.add(scores, run_cost, out=scores)


def _run_length(sorted_cost, prefix_cost, cut):
    """How many of the ``sorted_cost`` suffix costs s, a leading run, have
    fl(prefix_cost + s) <= cut, or a few more. Such an s is at most
    cut - prefix_cost + ulp(cut) / 2; computing that difference loses at
    most ulp(cut) / 2, and adding 2 ulp(cut) at most another ulp(cut)."""
    return int(sorted_cost.searchsorted((cut - float(prefix_cost)) + 2 * math.ulp(cut), "right"))


def scan_range(lo: int, hi: int, shared: SharedScan) -> None:
    """Scan schedules lo..hi-1, one chunk of whole prefix rows (its ends are
    multiples of ``shared.size``), into ``shared``: each re-scored block
    offers its first canonical minimum, so the range's first minimum is
    offered unless the incumbent already beats it.

    Users m..N-1 (``_split_point``) form the suffix. A block pairs as many
    prefix schedules of the chunk as fit in ``_BLOCK`` (one when the suffix
    alone exceeds it or ``shared.best`` is empty) with every suffix schedule,
    or, for cost, with the run of the suffix by cost that may make the cut.
    PAR rows get joint bounds up to the first block's row, then where they may win.
    """
    table, objective = shared.table, shared.objective
    user_rows, coeffs = table.user_rows(), table.coefficients
    horizon, energy = len(coeffs), table.total_energy
    m, size = shared.m, shared.size
    cost = objective is ObjectiveKind.COST
    chunk = np.arange(lo // size, hi // size)
    prefix = _loads(chunk, user_rows[:m], np.zeros((len(chunk), horizon)))
    # a row's bound is <= each of its values as computed (PAR: ``par_ratio``, as the values)
    if cost:
        prefix_cost = np.einsum("h,ph,ph->p", coeffs, prefix, prefix)
        bound = prefix_cost + shared.floor
    else:
        bound = par_ratio(horizon, np.maximum(prefix.max(1), shared.floor), energy)
        joint = np.zeros(len(chunk), bool)  # rows whose joint bound is taken
    pending = not cost and bool(shared.heavy_rows)
    # rows by bound, ties by index (module docstring); cost's order by the
    # prefix's cost is also by bound and gives a block's first row its longest run
    order = np.argsort(prefix_cost if cost else bound, kind="stable")
    pos = 0
    while pos < len(order):
        value, index = shared.best
        if pending:  # joint PAR bounds: the first row's search, then one pass
            tail, pending = np.sort(order[pos:]), index < 0
            if pending:
                joint[_joint_bound(shared, prefix, bound, order, bound[order[0]])] = True
            else:
                may = ~joint[tail] & _may_win(bound[tail], chunk[tail] * size, value, index)
                _joint_bound(shared, prefix, bound, tail[may])
            order[pos:] = tail[np.argsort(bound[tail], kind="stable")]
        width, in_run = size, False
        if cost:
            cut = value * shared.cut_factor
            # the pairs that may make the cut are a leading run of the suffix
            # by its own cost; a run of at most a quarter of the suffix is
            # scored alone, in rows that fill a block
            if index >= 0:
                run = _run_length(shared.sorted_cost, prefix_cost[order[pos]], cut)
                if 4 * run <= size:
                    width, in_run = max(run, 1), True
        # one row while the incumbent is empty
        take = max(1, _BLOCK // width) if index >= 0 else 1
        block, pos = order[pos : pos + take], pos + take
        if cost:
            block = block[bound[block] <= cut]
        else:
            block = block[_may_win(bound[block], chunk[block] * size, value, index)]
        if not len(block):
            break
        block.sort()
        starts = chunk[block] * size
        if in_run:
            column = shared.suffix_order[:width]
            vals = _run_costs(
                prefix[block],
                prefix_cost[block],
                shared.suffix_weights,
                [digits[:width] for digits in shared.sorted_digits],
                shared.sorted_cost[:width],
            )
        elif cost:
            vals = _block_costs(
                prefix[block], prefix_cost[block], shared.suffix_weights, shared.suffix_cost
            )
        else:
            vals = par_ratio(horizon, _block_peaks(prefix[block], user_rows[m:]), energy)
        vals = vals.ravel()
        if cost:
            low = vals.min()
            if low > cut:
                continue
            sel = np.flatnonzero(vals <= min(low, value) * shared.cut_factor)
        else:
            # PAR's values are canonical, so its first minimum is its one candidate
            sel = np.argmin(vals, keepdims=True)
        rest = sel % width
        candidates = starts[sel // width] + (column[rest] if in_run else rest)
        # in index order, so the first canonical minimum is offered
        candidates.sort()
        # the block's prefix loads plus each suffix user's row, in user order
        loads = _loads(candidates % size, user_rows[m:], prefix[candidates // size - chunk[0]])
        canonical = score_loads(objective, loads, coeffs, energy)
        k = int(np.argmin(canonical))
        shared.offer(float(canonical[k]), int(candidates[k]))


def active_backend() -> str:
    """The enumeration kernel's name, for environment reports."""
    return "numpy"
