import itertools
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atomsched as a
from atomsched import _kernels
from atomsched.errors import TooLargeError
from atomsched.objectives import score_loads
from conftest import PRICES, appliances
from test_objectives import placement_matrix

COST = a.ObjectiveKind.COST
PAR = a.ObjectiveKind.PAR


def reference_brute_force(instance, objective):
    """Independent oracle: materialize the product, evaluate via the flow path."""
    best = None
    count = 0
    table = a.PlacementTable(instance)
    for schedule in itertools.product(*a.start_sets(instance)):
        count += 1
        loads = table.schedule_loads(schedule)
        value = score_loads(objective, loads, table.coefficients, table.total_energy)
        if best is None or value < best[0] - 1e-15:
            best = (value, schedule)
    return best[0], best[1], count


@pytest.mark.parametrize("objective", [COST, PAR])
@pytest.mark.parametrize("seed", [1, 4, 9])
def test_matches_independent_enumeration(objective, seed):
    inst = a.generate_instance(3, seed)
    expected_value, _, expected_count = reference_brute_force(inst, objective)
    result = a.brute_force(inst, objective)
    assert result.objective_value == pytest.approx(expected_value, rel=1e-12)
    assert result.evaluations == expected_count == a.enumeration_size(inst)
    a.PlacementTable(inst).schedule_columns(result.schedule)


def kernel_instances():
    # a non-constant pattern whose window and late starts wrap past midnight
    ramp = a.Appliance("ramp", 20, 27, 3, (0.5, 1.5, 1.0))
    short = a.Appliance("short", 2, 5, 2, (2.0, 0.25))
    five_slots = [
        a.Appliance("a", 3, 7, 2, (1.0, 3.0)),
        a.Appliance("b", 1, 3, 3, (0.5, 2.0, 1.0)),  # duration equals window
        a.Appliance("c", 0, 4, 1, (0.75,)),
    ]
    # 39 starts: over SMALL_BLOCK, so with that cap a block is one prefix row
    wide = a.Appliance("wide", 0, 39, 2, (1.0, 0.5))
    dish_washer = a.catalog_appliance("dish_washer")
    return [
        a.generate_instance(3, 4),  # includes the PHEV's 22..29 window
        a.ProblemInstance(
            24, [ramp, short, a.catalog_appliance("phev")], a.default_cost_coefficients()
        ),
        a.ProblemInstance(5, five_slots, (1.0, 0.0, 2.0, 0.5, 1.0)),
        # identical users under flat prices: swapped starts tie exactly
        a.ProblemInstance(24, [dish_washer, dish_washer], (0.25,) * 24),
        # three identical washing machines: under the default cap the first
        # is the prefix, and swapped starts that tie exactly in the canonical
        # sum get block scores a bit apart
        a.generate_instance(3, 6),
        a.ProblemInstance(24, [a.catalog_appliance("phev")], a.default_cost_coefficients()),
        a.ProblemInstance(40, [short, wide], tuple(0.1 + 0.05 * (h % 7) for h in range(40))),
    ]


#: a block cap that cuts the kernel instances into many blocks; under it
#: some fit one block whole and the last user with 39 starts exceeds it
SMALL_BLOCK = 30
#: prefix rows per chunk under the small geometries, so that ``brute_force``
#: cuts scans into several pieces
SMALL_CHUNK = 5

#: (suffix cap, block size, chunk rows, joint starts) tuples: the defaults;
#: suffix and block at SMALL_BLOCK, so a block holds one prefix row or a
#: few; and the suffix at SMALL_BLOCK under blocks several times larger, so
#: a block holds several prefix rows even where the last user alone exceeds
#: the suffix cap, with no heavy users in the PAR bound
GEOMETRIES = [
    (_kernels._SUFFIX_CAP, _kernels._BLOCK, _kernels._CHUNK, _kernels._JOINT),
    (SMALL_BLOCK, SMALL_BLOCK, SMALL_CHUNK, _kernels._JOINT),
    (SMALL_BLOCK, 4 * SMALL_BLOCK, SMALL_CHUNK, 1),
]


def set_geometry(monkeypatch, suffix_cap, block, chunk=_kernels._CHUNK, joint=_kernels._JOINT):
    monkeypatch.setattr(_kernels, "_SUFFIX_CAP", suffix_cap)
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    monkeypatch.setattr(_kernels, "_JOINT", joint)


def test_placement_table_rows_are_the_flow_columns():
    """The kernel's digits index each user's slice of the table's rows: one
    row per flow column, checked against an independent placement matrix."""
    for inst in kernel_instances():
        table = a.PlacementTable(inst)
        dense = placement_matrix(inst)
        assert table.radices.tolist() == [len(s) for s in a.start_sets(inst)]
        assert table.rows.shape == (len(table.users), inst.horizon)
        for n, (rows, starts) in enumerate(zip(table.user_rows(), a.start_sets(inst))):
            columns = [n * inst.horizon + s for s in starts]
            assert np.array_equal(rows, dense[:, columns].T)


def scan_alone(lo, hi, table, objective):
    """Scan schedules lo..hi-1 into a fresh ``SharedScan`` and return its
    answer: the range's first minimum and its index, (inf, -1) if empty."""
    shared = _kernels.SharedScan(table, objective)
    _kernels.scan_range(lo, hi, shared)
    return shared.best


def scan_range_sequential(lo, hi, table, objective):
    """Plain-Python reference for ``_kernels.scan_range``: one schedule at a
    time, summing each slot's rows in user order. It walks the range keeping
    per-user prefix loads and rebuilds each level from the one above
    whenever its digit changes."""
    if hi <= lo:
        return np.inf, -1
    radices, heads, rows = table.radices, table.heads, table.rows
    coeffs, horizon = table.coefficients, len(table.coefficients)
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
    best_idx = -1
    idx = lo
    n = 0
    while True:
        for m in range(n, n_users):
            for h in range(horizon):
                prefix[m + 1, h] = prefix[m, h] + rows[heads[m] + digits[m], h]
        if objective is COST:
            val = 0.0
            for h in range(horizon):
                val += coeffs[h] * prefix[n_users, h] * prefix[n_users, h]
        else:
            peak = prefix[n_users, 0]
            for h in range(1, horizon):
                if prefix[n_users, h] > peak:
                    peak = prefix[n_users, h]
            val = (horizon * peak) / table.total_energy
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
    return float(best_val), best_idx


@pytest.mark.parametrize("objective", [COST, PAR], ids=["cost", "par"])
def test_numpy_kernel_matches_sequential_kernel(objective, monkeypatch):
    """The numpy kernel against the plain-Python reference, under each
    of GEOMETRIES, on ranges of whole prefix rows (the only ranges
    ``brute_force`` passes) that start and end inside a block, and on
    empty and reversed ranges, which give (inf, -1)."""
    for cap, block_cap, chunk, joint in GEOMETRIES:
        set_geometry(monkeypatch, cap, block_cap, chunk, joint)
        for inst in kernel_instances():
            table = a.PlacementTable(inst)
            args = (table, objective)
            _, size = _kernels._split_point(table.radices)
            rows = a.enumeration_size(inst) // size
            block = max(1, block_cap // size)
            ranges = [
                (0, rows),
                (rows // 3, 2 * rows // 3 + 1),
                (rows - 1, rows),
                (block // 2, min(rows, 2 * block + block // 3 + 1)),
                (rows // 2, rows // 2),
                (rows // 2 + 1, rows // 3),
            ]
            for lo, hi in ((size * r0, size * r1) for r0, r1 in ranges):
                expected = scan_alone(lo, hi, *args)
                if lo >= hi:
                    assert expected == (np.inf, -1)
                assert scan_range_sequential(lo, hi, *args) == expected, (cap, block_cap, chunk, inst, lo, hi)


def tied_instances(count):
    """Small H = 8 instances of 2-4 users whose levels come from {0.5, 1,
    1.5}, so many schedules tie on their peak; every third instance has its
    levels scaled by uniform(0.8, 1.2), so near-ties differ in their last
    bits."""
    rng = np.random.default_rng(7)
    for k in range(count):
        users = []
        for n in range(rng.integers(2, 5)):
            duration = int(rng.integers(1, 4))
            start = int(rng.integers(0, 8))
            span = int(rng.integers(max(duration, 2), 9))
            levels = rng.choice([0.5, 1.0, 1.5], duration)
            if k % 3 == 2:
                levels = levels * rng.uniform(0.8, 1.2, duration)
            users.append(a.Appliance(f"u{n}", start, start + span - 1, duration, tuple(levels)))
        yield a.ProblemInstance(8, users, (1.0,) * 8)


def regrouping_instances():
    """H = 8 instances with decimal levels, found by search, whose slot sums
    depend on grouping (0.3 + (0.2 + 0.1) rounds above (0.3 + 0.2) + 0.1).
    A PAR bound that adds the heavy users' rows to each other before the
    prefix loads rounds up by an ulp at the row holding the first minimum,
    which a later row ties exactly, so it skips that row."""
    return [
        a.ProblemInstance(8, users, (1.0,) * 8)
        for users in (
            [
                a.Appliance("u0", 6, 11, 2, (0.3, 0.2)),
                a.Appliance("u1", 4, 6, 3, (0.3, 0.1, 0.2)),
                a.Appliance("u2", 3, 6, 2, (0.3, 0.1)),
                a.Appliance("u3", 2, 6, 1, (0.3,)),
                a.Appliance("u4", 3, 5, 3, (0.3, 0.3, 0.1)),
            ],
            [
                a.Appliance("u0", 2, 6, 3, (0.2, 0.2, 0.1)),
                a.Appliance("u1", 3, 5, 3, (0.3, 0.1, 0.3)),
                a.Appliance("u2", 2, 5, 3, (0.6, 0.1, 0.1)),
                a.Appliance("u3", 3, 10, 1, (0.3,)),
            ],
        )
    ]


def sorted_run_tie_instance():
    """H = 8, found by search: under the small geometries a cost block
    scores a prefix row against a run of the suffix sorted by cost, in
    which two schedules that tie exactly come in the reverse of their
    index order, so a block that re-scores its candidates in run order
    offers the later one."""
    washer = a.Appliance("washer", 7, 12, 3, (2.0, 2.0, 1.0))
    return a.ProblemInstance(
        8,
        [a.Appliance("u0", 2, 6, 3, (2.0, 2.0, 1.0)), washer, washer],
        (1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0),
    )


@pytest.mark.parametrize("objective", [COST, PAR], ids=["cost", "par"])
def test_pruned_scan_matches_sequential_kernel(objective, monkeypatch):
    """The scan, which skips prefix rows whose bound cannot beat the incumbent
    (for cost, cannot make the candidate cut), against the plain-Python
    reference that scores every schedule: under each of GEOMETRIES, on
    the whole range and on ranges of whole prefix rows that start and
    end inside a block, and through ``brute_force`` at one and two
    workers, which under the small geometries cuts the scan into
    SMALL_CHUNK-row pieces. For PAR, any slack in a bound, the
    joint bound of the heavy users included, or an incumbent replaced on
    a tie, moves a value or an index; for cost, the separable block
    scores, the cut and the skip meet exact ties and near-ties that
    differ in their last bits, and the re-scored candidates must still
    hold the first canonical minimum, also where a block scores its rows
    against a run of the suffix sorted by cost."""
    for inst in [*tied_instances(200), *regrouping_instances(), sorted_run_tie_instance()]:
        table = a.PlacementTable(inst)
        total = a.enumeration_size(inst)
        expected = {}
        for cap, block_cap, chunk, joint in GEOMETRIES:
            set_geometry(monkeypatch, cap, block_cap, chunk, joint)
            _, size = _kernels._split_point(table.radices)
            rows, block = total // size, max(1, block_cap // size)
            ranges = [
                (0, rows),
                (1, max(1, rows - 1)),
                (block // 2, min(rows, 2 * block + block // 3 + 1)),
            ]
            for lo, hi in ((size * r0, size * r1) for r0, r1 in ranges):
                if (lo, hi) not in expected:
                    expected[lo, hi] = scan_range_sequential(lo, hi, table, objective)
                got = scan_alone(lo, hi, table, objective)
                assert got == expected[lo, hi], (cap, block_cap, chunk, joint, inst, lo, hi)
            value, index = expected[0, total]
            digits = np.unravel_index(index, table.radices)
            schedule = tuple(table.starts[table.heads + digits].tolist())
            for workers in (1, 2):
                result = a.brute_force(inst, objective, workers=workers)
                assert (result.objective_value, result.schedule) == (value, schedule), (
                    cap, block_cap, chunk, joint, inst, workers
                )


def test_cost_cut_absorbs_score_errors_within_its_rounding_budget(monkeypatch):
    """``SharedScan.cut_factor`` is sized by a rounding proof: a block score
    of K users over H slots may be off its exact value by a relative
    gamma = n u / (1 - n u), n = 2K + H + 2, and so may a canonical value.
    Here each block score is also moved by +gamma or -gamma, alternately, so
    swapped starts of identical users, whose canonical values tie exactly,
    get scores 2 gamma apart: inside the cut (on these instances the scan
    stays exact up to +-4 gamma), but past a cut of 1 + (2K + H + 8) u.
    Scores of the whole suffix and of a run of it sorted by cost are moved
    alike. The scan must still return the plain-Python reference's value
    and index under each of GEOMETRIES."""
    scorers = set()

    def perturbed(name, score):
        def scorer(*args):
            scorers.add(name)
            scores = score(*args)
            signs = np.where(np.arange(scores.size) % 2, -1.0, 1.0).reshape(scores.shape)
            return scores * (1 + gamma * signs)

        return scorer

    for name in ("_block_costs", "_run_costs"):
        monkeypatch.setattr(_kernels, name, perturbed(name, getattr(_kernels, name)))
    dish_washer = a.catalog_appliance("dish_washer")
    for inst in (
        a.ProblemInstance(24, [dish_washer] * 2, (0.25,) * 24),
        a.ProblemInstance(24, [dish_washer] * 3, a.default_cost_coefficients()),
        sorted_run_tie_instance(),
    ):
        n = 2 * inst.n_users + inst.horizon + 2
        unit = np.finfo(float).eps / 2
        gamma = n * unit / (1 - n * unit)
        table = a.PlacementTable(inst)
        total = a.enumeration_size(inst)
        expected = scan_range_sequential(0, total, table, COST)
        for geometry in GEOMETRIES:
            set_geometry(monkeypatch, *geometry)
            assert scan_alone(0, total, table, COST) == expected, (geometry, inst)
    assert scorers == {"_block_costs", "_run_costs"}


def test_cost_run_holds_every_pair_that_may_make_the_cut():
    """``_run_length`` counts the sorted suffix costs s with
    fl(prefix_cost + s) <= cut, or a few more, never fewer. At cut =
    fl(1 + 1.25 * 2^-52) = 1 + 2^-52 the suffix cost 1.25 * 2^-52 makes
    the cut although it is above fl(cut - 1) = 2^-52, so a run one short,
    or one from that difference alone, leaves out a pair that may tie the
    incumbent. On random costs, cut at each pair's own rounded sum and an
    ulp either side, the run holds every pair under the cut and none past
    four ulps of it."""
    ulp = 2.0**-52
    sorted_cost = np.array([ulp / 2, 1.25 * ulp, 1.0])
    assert 1.0 + sorted_cost[1] == 1.0 + ulp
    assert _kernels._run_length(sorted_cost, 1.0, 1.0 + ulp) == 2
    rng = np.random.default_rng(5)
    for _ in range(200):
        sorted_cost = np.sort(rng.random(50) * 10.0 ** rng.integers(-3, 4))
        prefix_cost = rng.random() * 10.0 ** rng.integers(-3, 4)
        for total in prefix_cost + sorted_cost[rng.integers(0, 50, 5)]:
            for cut in (np.nextafter(total, 0.0), total, np.nextafter(total, np.inf)):
                run = _kernels._run_length(sorted_cost, prefix_cost, cut)
                fits = np.count_nonzero(prefix_cost + sorted_cost <= cut)
                near = np.count_nonzero(prefix_cost + sorted_cost <= cut + 4 * np.spacing(cut))
                assert fits <= run <= near, (prefix_cost, cut)


def test_small_block_cap_reaches_every_scan_path(monkeypatch):
    """With suffix cap and block size at SMALL_BLOCK, the kernel instances
    take the one scan path with an empty prefix, with a last user whose
    starts alone exceed the cap, with blocks of one and of several prefix
    rows, and with more prefix rows than a SMALL_CHUNK chunk holds. Blocks four times larger keep every split and give each
    instance with a prefix several prefix rows per block, the one whose last
    user exceeds the suffix cap included."""
    set_geometry(monkeypatch, SMALL_BLOCK, SMALL_BLOCK)
    splits = [_kernels._split_point(a.PlacementTable(inst).radices) for inst in kernel_instances()]
    assert any(m == 0 for m, _ in splits)
    assert any(size > SMALL_BLOCK for _, size in splits)
    rows = {max(1, SMALL_BLOCK // size) for m, size in splits if m > 0}
    assert 1 in rows and max(rows) > 1
    prefix_rows = [a.enumeration_size(inst) // size for inst, (_, size) in zip(kernel_instances(), splits)]
    assert max(prefix_rows) > SMALL_CHUNK

    set_geometry(monkeypatch, SMALL_BLOCK, 4 * SMALL_BLOCK)
    wide = [_kernels._split_point(a.PlacementTable(inst).radices) for inst in kernel_instances()]
    assert wide == splits
    rows = {size: _kernels._BLOCK // size for m, size in splits if m > 0}
    assert min(rows.values()) > 1
    assert any(size > SMALL_BLOCK for size in rows)


def test_dish_washer_cost_optimum(dish_washer_instance):
    result = a.brute_force(dish_washer_instance, COST)
    assert result.objective_value == pytest.approx(0.20736, rel=1e-12)
    assert result.schedule == (0,)
    assert result.evaluations == 23


def test_phev_cost_optimum(phev_instance):
    result = a.brute_force(phev_instance, COST)
    assert result.objective_value == pytest.approx(6.534, rel=1e-12)
    assert result.schedule == (0,)
    assert result.evaluations == 6


def test_single_appliance_par_is_window_ratio(two_tier_coefficients):
    for key, duration in (("dish_washer", 2), ("clothes_dryer", 4), ("phev", 3)):
        inst = a.ProblemInstance(
            24, [a.catalog_appliance(key)], two_tier_coefficients
        )
        result = a.brute_force(inst, PAR)
        assert result.objective_value == pytest.approx(24 / duration, rel=1e-9)


def test_tie_break_prefers_earliest_window_position(phev_instance):
    # flat prices make every start optimal; the pre-modulo order puts the
    # 10 PM start first even though it is numerically the largest slot
    flat = a.ProblemInstance(24, phev_instance.appliances, (0.25,) * 24)
    result = a.brute_force(flat, COST)
    assert result.schedule == (22,)


def test_worker_counts_agree(monkeypatch):
    """1, 2 and 3 workers give the same outputs under either objective on
    ``generate_instance(5, 3)``, whose 138 prefix rows 16-row chunks cut
    into 9 chunks, so that at 2 and 3 workers more than one thread scans:
    the first thread to take a piece holds it until a second thread has
    taken one."""
    monkeypatch.setattr(_kernels, "_CHUNK", 16)
    inst = a.generate_instance(5, 3)
    _, size = _kernels._split_point(a.PlacementTable(inst).radices)
    assert a.enumeration_size(inst) // size == 138
    for objective in (COST, PAR):
        expected = outcome(a.brute_force(inst, objective, workers=1))
        for workers in (2, 3):
            seen, two = set(), threading.Event()

            def hold(lo, on_pool):
                seen.add(threading.get_ident())
                if len(seen) > 1:
                    two.set()
                two.wait(timeout=60)

            calls = recorded_scans(monkeypatch, hold)
            assert outcome(a.brute_force(inst, objective, workers=workers)) == expected
            assert len({thread for _, _, thread in calls}) > 1, (objective, workers)
    # the library reads no worker setting from the environment
    monkeypatch.setenv("ATOMSCHED_MAX_WORKERS", "1")
    assert a.resolve_workers(3) == 3
    assert a.resolve_workers(None) == len(os.sched_getaffinity(0))


def test_par_chunks_find_their_first_row_or_start_with_an_incumbent(monkeypatch):
    """Under 16-row chunks ``generate_instance(5, 3)`` is 9 PAR chunks, and
    under 1-row chunks ``generate_instance(4, 1)``'s 22 prefix rows are
    one-row chunks, and at 3 workers 24 pieces, two of them empty; both
    have a heavy suffix user. At 1, 2 and 3 workers, a chunk scanned while
    the incumbent is empty searches for its first row (the first non-empty
    piece; the pieces after row 0 wait until a search has started), a
    chunk scanned after a piece has offered starts with an incumbent, and
    the result is the one-worker result under the default chunk."""
    joint_bound = _kernels._joint_bound
    for chunk, inst in ((16, a.generate_instance(5, 3)), (1, a.generate_instance(4, 1))):
        expected = outcome(a.brute_force(inst, PAR, workers=1))
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        for workers in (1, 2, 3):
            searches, searching, entries = [], threading.Event(), []

            def recorded(shared, prefix, bound, rows, low=None):
                if low is not None:
                    searches.append(len(rows))
                    searching.set()
                return joint_bound(shared, prefix, bound, rows, low)

            def scan(lo, hi, shared):
                if lo:
                    searching.wait(timeout=10)
                entries.append((lo, hi, shared.best[1] >= 0))
                SCAN_RANGE(lo, hi, shared)

            monkeypatch.setattr(_kernels, "_joint_bound", recorded)
            monkeypatch.setattr(_kernels, "scan_range", scan)
            assert outcome(a.brute_force(inst, PAR, workers=workers)) == expected
            assert searches and any(started for _, _, started in entries), (chunk, workers)
            if chunk == 1:
                assert all(hi - lo <= 2772 for lo, hi, _ in entries)  # a row's schedules
                assert (workers == 3) == any(lo == hi for lo, hi, _ in entries)


def test_default_workers_are_the_cpus_the_process_may_use(monkeypatch):
    """Under taskset or a cpuset the default is the allowed CPUs, not the
    host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert a.resolve_workers(None) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert a.resolve_workers(None) == (os.cpu_count() or 1)


#: the kernel entry point, which ``recorded_scans`` wraps
SCAN_RANGE = _kernels.scan_range


def recorded_scans(monkeypatch, hold=None):
    """Patch ``_kernels.scan_range`` to record each call's (lo, hi, thread
    id) in the returned list; ``hold(lo, on_pool)``, if given, runs before
    the piece is scanned."""
    calls, caller = [], threading.get_ident()

    def scan(lo, hi, shared):
        calls.append((lo, hi, threading.get_ident()))
        if hold is not None:
            hold(lo, threading.get_ident() != caller)
        SCAN_RANGE(lo, hi, shared)

    monkeypatch.setattr(_kernels, "scan_range", scan)
    return calls


@pytest.mark.parametrize("workers,pieces", [(1, 5), (2, 6), (3, 6)])
def test_every_piece_is_scanned_once(workers, pieces, monkeypatch):
    """``brute_force`` cuts the prefix rows into equal pieces of whole rows,
    at most ``_CHUNK`` each and as many for each thread, and its threads
    take them from one cursor: every piece is scanned exactly once, by at
    most ``workers`` threads, and the answer does not change.
    ``generate_instance(4, 1)`` has 22 prefix rows of 2,772 schedules, so
    5-row chunks make 5 chunks: 5 pieces for one thread, 6 for two or
    three."""
    monkeypatch.setattr(_kernels, "_CHUNK", 5)
    inst, size = a.generate_instance(4, 1), 2772
    assert _kernels._split_point(a.PlacementTable(inst).radices) == (1, size)
    for objective in (COST, PAR):
        expected = a.brute_force(inst, objective, workers=1)
        calls = recorded_scans(monkeypatch)
        assert a.brute_force(inst, objective, workers=workers) == expected
        edges = [size * (22 * k // pieces) for k in range(pieces + 1)]
        assert sorted((lo, hi) for lo, hi, _ in calls) == list(zip(edges, edges[1:]))
        assert all(hi - lo <= 5 * size for lo, hi, _ in calls)
        assert len({thread for _, _, thread in calls}) <= workers
        assert edges[-1] == a.enumeration_size(inst)


def test_a_one_chunk_scan_starts_no_thread(monkeypatch):
    """A scan whose prefix rows fit one ``_CHUNK`` chunk is one piece, which
    the calling thread scans without starting a thread, at any worker
    count."""
    starts, start, caller = [], threading.Thread.start, threading.get_ident()

    def counted_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    for inst in (a.generate_instance(3, 1), a.generate_instance(5, 1)):
        total = a.enumeration_size(inst)
        for workers in (1, 2, 3, 8):
            calls = recorded_scans(monkeypatch)
            a.brute_force(inst, PAR, workers=workers)
            assert (calls, starts) == ([(0, total, caller)], []), (total, workers)


@pytest.mark.parametrize("on_pool", [False, True], ids=["caller", "pool"])
def test_an_error_in_a_piece_leaves_brute_force(on_pool, monkeypatch):
    """An exception from a piece that the calling thread scans, or that a
    pool thread scans, is raised by ``brute_force`` once every thread has
    stopped, and leaves no thread behind; the cursor hands out no piece
    after it. Each of the two threads takes one of the 6 pieces; the one
    that does not fail is held in its piece until the error is raised, so
    it takes no other. A block scorer that fails on every thread is raised
    as well."""

    def failing(*args):
        raise MemoryError("block")

    monkeypatch.setattr(_kernels, "_CHUNK", 4)
    inst, threads = a.generate_instance(4, 1), threading.active_count()
    with monkeypatch.context() as patched:
        patched.setattr(_kernels, "_block_costs", failing)
        with pytest.raises(MemoryError, match="block"):
            a.brute_force(inst, COST, workers=3)
    assert threading.active_count() == threads

    both, raised, stopped = threading.Barrier(2, timeout=60), threading.Event(), []

    def hold(lo, pool_thread):
        try:
            if raised.is_set():  # a piece handed out after the error
                return
            both.wait()
            if pool_thread == on_pool:
                raised.set()
                raise MemoryError(f"piece at {lo}")
            # give the failing thread time to stop the cursor
            assert raised.wait(timeout=60)
            time.sleep(0.05)
        finally:
            stopped.append(lo)

    calls = recorded_scans(monkeypatch, hold)
    with pytest.raises(MemoryError, match="piece at"):
        a.brute_force(inst, COST, workers=2)
    assert threading.active_count() == threads
    assert len(calls) == 2 and len({thread for _, _, thread in calls}) == 2
    assert sorted(stopped) == sorted(lo for lo, _, _ in calls)


def test_concurrent_scans_keep_their_own_suffix_tables():
    """Two instances with the same radices but other loads, scanned at once
    over more threads than cores; each result must match a single-threaded
    scan."""
    regular = a.catalog_appliance("washing_machine_regular")
    star = a.catalog_appliance("washing_machine_energy_star")
    insts = [
        a.ProblemInstance(24, users, a.default_cost_coefficients())
        for users in ([regular, star, star, regular], [star, regular, regular, star])
    ]
    expected = [a.brute_force(inst, COST, workers=1) for inst in insts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(a.brute_force, insts[k % 2], COST, workers=4) for k in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[k % 2] for k in range(8)]


def n6_mix():
    """The benchmark's seed-1 N=6 mix under the default prices: 9.6M
    schedules, of which many tie at the PAR optimum."""
    keys = ["dish_washer", "dish_washer", "phev", "dish_washer", "washing_machine_energy_star", "phev"]
    return a.ProblemInstance(24, [a.catalog_appliance(k) for k in keys], a.default_cost_coefficients())


def outcome(result):
    return float.hex(result.objective_value), result.schedule, result.evaluations


def test_shared_incumbent_keeps_the_one_range_result(monkeypatch):
    """Pieces that share one incumbent, every scan cut into one-row pieces
    for 2-7 threads, more than there are cores, under a short thread switch
    interval, so that a piece reads or lowers the incumbent at any point of
    another's block loop, and threads take pieces from the cursor at once.
    The flat instances have a 529-schedule suffix, so that they have 23
    prefix rows. The pieces scanned must tile the scan once, and on
    instances where many schedules tie, the value, schedule and evaluation
    count must be those of a one-thread scan."""
    dish_washer = a.catalog_appliance("dish_washer")
    flat = [a.ProblemInstance(24, [dish_washer] * k, (0.25,) * 24) for k in (3, 4)]
    monkeypatch.setattr(_kernels, "_CHUNK", 1)
    interval = sys.getswitchinterval()
    try:
        with ThreadPoolExecutor(1) as pool:
            sys.setswitchinterval(1e-6)
            for inst, cap in [*((inst, 23**2) for inst in flat), (n6_mix(), _kernels._SUFFIX_CAP)]:
                monkeypatch.setattr(_kernels, "_SUFFIX_CAP", cap)
                for objective in (COST, PAR):
                    expected = outcome(a.brute_force(inst, objective, workers=1))
                    for workers in range(2, 8):
                        calls = recorded_scans(monkeypatch)
                        future = pool.submit(a.brute_force, inst, objective, workers=workers)
                        assert outcome(future.result(timeout=120)) == expected, (inst, objective, workers)
                        pieces = sorted((lo, hi) for lo, hi, _ in calls)
                        assert [lo for lo, _ in pieces] == [0] + [hi for _, hi in pieces[:-1]]
                        assert pieces[-1][1] == a.enumeration_size(inst)
    finally:
        sys.setswitchinterval(interval)


@st.composite
def small_instances(draw):
    """Up to four users, whose windows may wrap midnight and whose patterns
    need not be constant, under prices that may be zero in some slots."""
    horizon = draw(st.sampled_from([24, 5, 12]))
    users = draw(st.lists(appliances(horizon), min_size=1, max_size=4))
    prices = draw(st.lists(PRICES, min_size=horizon, max_size=horizon))
    return a.ProblemInstance(horizon, users, prices)


#: a price so small that its inverse overflows: the cost IPM must treat it
#: like a zero price instead of failing
TINY_PRICE = a.ProblemInstance(
    24, [a.Appliance("x", 22, 23, 2, (0.5, 1.0))], (0.0,) * 22 + (1.0, 5e-324)
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_instances(), st.sampled_from(list(a.ObjectiveKind)))
@example(TINY_PRICE, COST)
def test_optimum_lies_between_scr_bounds(instance, objective):
    """LB <= optimum <= UB with the acceptance suite's slack; repeat runs
    give the same answers; and 1, 2 and 3 workers agree when the suffix
    holds at most SMALL_BLOCK schedules and every prefix row is a chunk,
    so that most scans are cut into pieces that threads scan."""
    with patch.object(_kernels, "_SUFFIX_CAP", SMALL_BLOCK), patch.object(_kernels, "_CHUNK", 1):
        results = [a.brute_force(instance, objective, workers=w) for w in (1, 2, 3, 1)]
    assert all(result == results[0] for result in results)
    bounds = a.successive_convex_relaxation(instance, objective)
    assert bounds.lower_bound - 1e-6 <= results[0].objective_value
    assert results[0].objective_value <= bounds.upper_bound + 1e-6
    assert a.successive_convex_relaxation(instance, objective) == bounds


@pytest.mark.parametrize("requested", [0, -3, 2.5, True, "2"])
def test_requested_workers_must_be_an_integer(requested, dish_washer_instance):
    message = re.escape(f"workers must be an integer >= 1, got {requested!r}")
    with pytest.raises(ValueError, match=message):
        a.resolve_workers(requested)
    with pytest.raises(ValueError, match=message):
        a.brute_force(dish_washer_instance, COST, workers=requested)


def test_objective_must_be_an_objective_kind(dish_washer_instance):
    with pytest.raises(ValueError, match="unknown objective 'cost'"):
        a.brute_force(a.generate_instance(3, 1), "cost")
    with pytest.raises(ValueError, match="unknown objective"):
        a.brute_force(dish_washer_instance, None)


def test_partition_independence(monkeypatch):
    """A scan's answer is its incumbent: 2, 3 and 7 pieces of whole prefix
    rows scanned into one ``SharedScan`` in ascending, descending and
    shuffled order must leave the whole range's (value, index) pair under
    either objective and each of GEOMETRIES, also on instances where many
    schedules tie exactly."""
    rng = np.random.default_rng(3)
    for geometry in GEOMETRIES:
        set_geometry(monkeypatch, *geometry)
        for inst in [a.generate_instance(3, 11), *tied_instances(30)]:
            table = a.PlacementTable(inst)
            total = a.enumeration_size(inst)
            _, size = _kernels._split_point(table.radices)
            for objective in (COST, PAR):
                whole = scan_alone(0, total, table, objective)
                for pieces in (2, 3, 7):
                    bounds = (size * np.linspace(0, total // size, pieces + 1, dtype=int)).tolist()
                    ranges = list(zip(bounds, bounds[1:]))
                    for order in (ranges, ranges[::-1], rng.permutation(ranges).tolist()):
                        shared = _kernels.SharedScan(table, objective)
                        for lo, hi in order:
                            _kernels.scan_range(lo, hi, shared)
                        assert shared.best == whole, (geometry, inst, objective, pieces, order)


def test_too_large_reports_exact_size(two_tier_coefficients):
    appliances = [a.Appliance("u%d" % i, 0, 23, 1, (1.0,)) for i in range(100)]
    inst = a.ProblemInstance(24, appliances, two_tier_coefficients)
    with pytest.raises(TooLargeError) as info:
        a.brute_force(inst, COST)
    assert info.value.size == 24**100
    assert str(24**100) in str(info.value)


@pytest.mark.parametrize("limit", [0, -5, "100", True, 2.0])
def test_limit_must_be_a_positive_integer(limit, dish_washer_instance):
    with pytest.raises(ValueError, match=f"limit must be an integer >= 1, got {re.escape(repr(limit))}"):
        a.brute_force(dish_washer_instance, COST, limit=limit)


def test_limit_boundary(dish_washer_instance):
    assert a.brute_force(dish_washer_instance, COST, limit=23).evaluations == 23
    with pytest.raises(TooLargeError):
        a.brute_force(dish_washer_instance, COST, limit=22)
