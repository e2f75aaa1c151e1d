"""Global optimization by direct enumeration of every joint schedule.

This is the ground truth the relaxation bounds are validated against. The
scan's prefix rows (``_kernels``) are cut into equal pieces of whole rows,
at most one ``_kernels._CHUNK`` chunk each and as many for each thread; the
calling thread and up to ``workers - 1`` pool threads (``workers``, default
the CPUs the process may run on, and at most one thread per chunk) take
them from one cursor, so a one-chunk scan starts no thread. Each piece runs
the one enumeration kernel, ``_kernels.scan_range``, into one
``_kernels.SharedScan`` per call: the instance's ``PlacementTable``, the
suffix tables, built once, and the incumbent, whose final value is the
answer. A piece reads the incumbent before each block, skips the prefix
rows whose bound proves them no better, and offers it each block's best
schedule, which it keeps when lower. The answer is the least (value, index)
pair any piece offered. A schedule's value is bit-identical in any piece,
and the piece holding the first optimum never skips it, so the answer does
not depend on the worker count, on timing or on the order the pieces run
in; only which rows are skipped does. Ties are broken toward the
lexicographically smallest schedule, comparing starts by their pre-modulo
window position (so a 10 PM start orders before a midnight start of the
same wrapped window).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import TooLargeError
from .flows import PlacementTable
from .model import ProblemInstance, check_count, enumeration_size
from .objectives import ObjectiveKind

DEFAULT_LIMIT = 100_000_000

@dataclass(frozen=True)
class OracleResult:
    """``evaluations`` counts the joint schedules covered: each one was
    scored, or skipped with a prefix row whose bound proved it no better."""

    schedule: tuple[int, ...]
    objective_value: float
    evaluations: int
    objective: ObjectiveKind


def resolve_workers(requested: int | None = None) -> int:
    """Worker count for parallel scans: ``requested``, or the number of CPUs
    the process may run on when it is None. A requested count that is not an
    integer >= 1 raises ValueError."""
    if requested is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # not on every platform
            return os.cpu_count() or 1
    check_count("workers", requested)
    return requested


def brute_force(
    instance: ProblemInstance,
    objective: ObjectiveKind,
    limit: int = DEFAULT_LIMIT,
    workers: int | None = None,
) -> OracleResult:
    """The best of every feasible schedule under the objective: each one is
    scored, or skipped with a prefix row (under either objective) whose
    bound proves it no better than the incumbent, a schedule that one of
    the call's pieces has scored. The calling thread and the pool threads
    take pieces from one cursor, which hands out none after an exception;
    the exception is raised once every thread has stopped.

    Refuses instances whose joint start space exceeds ``limit`` evaluations
    (TooLargeError reports the exact size), a ``limit`` or ``workers`` that
    is not an integer >= 1 and objectives that are not an ``ObjectiveKind``
    (ValueError).
    """
    if not isinstance(objective, ObjectiveKind):
        raise ValueError(f"unknown objective {objective!r}")
    check_count("limit", limit)
    total = enumeration_size(instance)
    if total > limit:
        raise TooLargeError(total, limit)

    table = PlacementTable(instance)
    shared = _kernels.SharedScan(table, objective)
    rows = total // shared.size
    threads = min(resolve_workers(workers), -(-rows // _kernels._CHUNK))
    # equal pieces of whole rows, at most _CHUNK each and as many per thread
    pieces = threads * -(-rows // (threads * _kernels._CHUNK))
    edges = [shared.size * (rows * k // pieces) for k in range(pieces + 1)]
    cursor, lock = zip(edges, edges[1:]), threading.Lock()

    def scan_pieces():
        nonlocal cursor
        try:
            while True:
                with lock:
                    piece = next(cursor, None)
                if piece is None:
                    return
                _kernels.scan_range(*piece, shared)
        except BaseException:
            with lock:
                cursor = iter(())  # hand out no more pieces
            raise

    with ThreadPoolExecutor(max_workers=max(1, threads - 1)) as pool:
        later = [pool.submit(scan_pieces) for _ in range(threads - 1)]
        scan_pieces()
        for future in later:  # raises what a pool thread raised
            future.result()
    best_val, best_idx = shared.best

    # digit d of user n is the user's column heads[n] + d
    digits = np.unravel_index(int(best_idx), table.radices)
    return OracleResult(
        schedule=tuple(table.starts[table.heads + digits].tolist()),
        objective_value=float(best_val),
        evaluations=total,
        objective=objective,
    )
