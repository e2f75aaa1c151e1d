import itertools
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import atomsched as a
from atomsched import _kernels
from atomsched.errors import TooLargeError
from atomsched.model import instance_total_energy
from atomsched.oracle import pack_instance

COST = a.ObjectiveKind.COST
PAR = a.ObjectiveKind.PAR


def reference_brute_force(instance, objective):
    """Independent oracle: materialize the product, evaluate via the flow path."""
    best = None
    count = 0
    total = instance_total_energy(instance)
    for schedule in itertools.product(*a.start_sets(instance)):
        count += 1
        loads = a.load_profile_from_schedule(instance, schedule)
        if objective is COST:
            value = a.energy_cost(loads, instance.cost_coefficients)
        else:
            value = a.par(loads, total, instance.horizon)
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
    a.validate_schedule(inst, result.schedule)


def kernel_instances():
    # a non-constant pattern whose window and late starts wrap past midnight
    ramp = a.Appliance("ramp", 20, 27, 3, (0.5, 1.5, 1.0))
    short = a.Appliance("short", 2, 5, 2, (2.0, 0.25))
    five_slots = [
        a.Appliance("a", 3, 7, 2, (1.0, 3.0)),
        a.Appliance("b", 1, 3, 3, (0.5, 2.0, 1.0)),  # duration equals window
        a.Appliance("c", 0, 4, 1, (0.75,)),
    ]
    # 39 starts: over SMALL_BLOCK, so with that cap no suffix fits one block
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


#: a block cap that cuts the kernel instances into many blocks and leaves
#: two of them (one user; a last user with 39 starts) with no split at all
SMALL_BLOCK = 30


def test_pack_instance_reads_the_placement_table():
    for inst in kernel_instances():
        table = a.PlacementTable(inst)
        radices, placed = pack_instance(inst)
        assert radices.tolist() == [len(s) for s in a.start_sets(inst)]
        assert placed.shape == (inst.n_users, radices.max(), inst.horizon)
        for n, starts in enumerate(a.start_sets(inst)):
            assert np.array_equal(placed[n, : len(starts)], table.rows[n, list(starts)])
            assert not placed[n, len(starts) :].any()


@pytest.mark.parametrize("mode", [_kernels.COST, _kernels.PAR], ids=["cost", "par"])
def test_numpy_kernel_matches_sequential_kernel(mode, monkeypatch):
    """The numpy kernel against the source numba compiles, run as plain
    Python, and against the compiled kernel when numba is installed; with
    the default block cap and with one that splits the scan into many
    blocks, on ranges that start and end inside a block."""
    sequential = [_kernels._scan_range_sequential]
    if _kernels.scan_range_numba is not None:
        sequential.append(_kernels.scan_range_numba)
    for cap in (_kernels._NUMPY_CHUNK, SMALL_BLOCK):
        monkeypatch.setattr(_kernels, "_NUMPY_CHUNK", cap)
        for inst in kernel_instances():
            coeffs = np.asarray(inst.cost_coefficients)
            radices, placed = pack_instance(inst)
            args = (radices, placed, inst.horizon, coeffs, mode, instance_total_energy(inst))
            total = a.enumeration_size(inst)
            block = _kernels.block_size(radices)
            ranges = [
                (0, total),
                (total // 3, 2 * total // 3 + 1),
                (total - 1, total),
                (block // 2, min(total, 2 * block + block // 3)),
            ]
            for lo, hi in ranges:
                if lo >= hi:
                    continue
                expected = _kernels.scan_range_numpy(lo, hi, *args)
                for kernel in sequential:
                    val, idx = kernel(lo, hi, *args)
                    assert (float(val), int(idx)) == expected, (cap, inst, lo, hi)


def test_small_block_cap_reaches_every_scan_path(monkeypatch):
    """With SMALL_BLOCK, the kernel instances cover a scan with no split
    (one user; a last user whose starts alone exceed the cap) and split
    scans of one and of several prefix rows per block."""
    monkeypatch.setattr(_kernels, "_NUMPY_CHUNK", SMALL_BLOCK)
    splits = []
    for inst in kernel_instances():
        radices, _ = pack_instance(inst)
        m, size = _kernels._split_point(radices)
        splits.append(None if m == len(radices) else SMALL_BLOCK // size)
    assert splits.count(None) == 2
    assert 1 in splits and any(rows and rows > 1 for rows in splits)


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
    inst = a.generate_instance(5, 3)
    results = [a.brute_force(inst, COST, workers=w) for w in (1, 2, 3)]
    for other in results[1:]:
        assert other == results[0]
    monkeypatch.setenv("ATOMSCHED_MAX_WORKERS", "1")
    capped = a.brute_force(inst, COST, workers=8)
    assert capped == results[0]


def test_concurrent_scans_keep_their_own_suffix_tables(monkeypatch):
    """Two instances with the same radices but other loads, scanned at once
    over more threads than cores, take turns in the shared suffix table;
    each result must still match a single-threaded scan from an empty table."""
    regular = a.catalog_appliance("washing_machine_regular")
    star = a.catalog_appliance("washing_machine_energy_star")
    insts = [
        a.ProblemInstance(24, users, a.default_cost_coefficients())
        for users in ([regular, star, star, regular], [star, regular, regular, star])
    ]
    expected = []
    for inst in insts:
        monkeypatch.setattr(_kernels, "_suffix_memo", [None, None, None])
        expected.append(a.brute_force(inst, COST, workers=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(a.brute_force, insts[k % 2], COST, workers=4) for k in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[k % 2] for k in range(8)]


@pytest.mark.parametrize("requested", [0, -3])
def test_requested_workers_must_be_positive(requested, dish_washer_instance):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {requested}"):
        a.resolve_workers(requested)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        a.brute_force(dish_washer_instance, COST, workers=requested)


@pytest.mark.parametrize("cap", ["0", "-2", "two", "1.5"])
def test_worker_cap_must_be_a_positive_integer(cap, monkeypatch):
    monkeypatch.setenv("ATOMSCHED_MAX_WORKERS", cap)
    with pytest.raises(ValueError, match=f"ATOMSCHED_MAX_WORKERS.*{re.escape(repr(cap))}"):
        a.resolve_workers(2)


def test_partition_independence():
    inst = a.generate_instance(3, 11)
    packed = pack_instance(inst)
    coeffs = np.asarray(inst.cost_coefficients)
    args = (*packed, 24, coeffs, _kernels.COST, instance_total_energy(inst))
    total = a.enumeration_size(inst)
    whole = _kernels.scan_range(0, total, *args)
    for pieces in (2, 3, 7):
        bounds = np.linspace(0, total, pieces + 1, dtype=int)
        best = (np.inf, -1)
        for lo, hi in zip(bounds, bounds[1:]):
            val, idx = _kernels.scan_range(int(lo), int(hi), *args)
            if val < best[0]:
                best = (val, idx)
        assert best == whole


def test_too_large_reports_exact_size(two_tier_coefficients):
    appliances = [a.Appliance("u%d" % i, 0, 23, 1, (1.0,)) for i in range(100)]
    inst = a.ProblemInstance(24, appliances, two_tier_coefficients)
    with pytest.raises(TooLargeError) as info:
        a.brute_force(inst, COST)
    assert info.value.size == 24**100
    assert str(24**100) in str(info.value)


def test_limit_boundary(dish_washer_instance):
    assert a.brute_force(dish_washer_instance, COST, limit=23).evaluations == 23
    with pytest.raises(TooLargeError):
        a.brute_force(dish_washer_instance, COST, limit=22)
