#!/usr/bin/env python3
"""Time the numpy split scan against the sequential enumeration kernel.

The sequential kernel runs numba-compiled when numba is installed, else as
plain Python, which is slow, so then it scans only the first
--max-python-evals schedules. Both must return the same (value, index) bit
for bit on the range they share, on an empty range and on a range that
starts and ends inside a block of the split scan; the script checks that,
reports throughput, and exits non-zero if they disagree. Run from the repo
root:

    python3 benchmarks/oracle_backends.py --n 5 --seed 7 --max-evals 2000000
"""

import argparse
import time

import numpy as np

from atomsched import enumeration_size, generate_instance
from atomsched import _kernels
from atomsched.model import instance_total_energy
from atomsched.oracle import pack_instance


def time_scan(fn, repeats, hi, args):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        val, idx = fn(0, hi, *args)
        best = min(best, time.perf_counter() - start)
        result = (float(val), int(idx))
    return best, result


def report(name, seconds, evals):
    return f"{name}: {seconds:.3f}s ({evals / seconds / 1e6:.2f} M evals/s)"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5, help="appliances in the instance")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-evals", type=int, default=2_000_000)
    parser.add_argument("--max-python-evals", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    instance = generate_instance(args.n, args.seed)
    total = enumeration_size(instance)
    evals = min(total, args.max_evals)
    print(f"instance: n={args.n} seed={args.seed} joint schedules={total}, scanning {evals}")

    packed = pack_instance(instance)
    coeffs = np.asarray(instance.cost_coefficients)
    total_energy = instance_total_energy(instance)

    if _kernels.scan_range_numba is not None:
        sequential, seq_name, seq_evals = _kernels.scan_range_numba, "numba", evals
        _kernels.scan_range_numba(0, 1, *packed, instance.horizon, coeffs, 0, total_energy)
    else:
        sequential, seq_name = _kernels._scan_range_sequential, "sequential, plain Python"
        seq_evals = min(evals, args.max_python_evals)

    _, size = _kernels._split_point(packed[0])
    lo = min(size // 2 + 1, total - 1)
    edge_ranges = [(lo, lo), (lo, min(lo + seq_evals, total - 1))]

    mismatches = 0
    for name, mode in (("cost", _kernels.COST), ("par", _kernels.PAR)):
        kargs = (*packed, instance.horizon, coeffs, mode, total_energy)
        t_np, r_np = time_scan(_kernels.scan_range_numpy, args.repeats, evals, kargs)
        t_sq, r_sq = time_scan(sequential, 1 if seq_evals < evals else args.repeats, seq_evals, kargs)
        if seq_evals < evals:
            r_np = _kernels.scan_range_numpy(0, seq_evals, *kargs)
        same = r_sq == r_np
        for edge in edge_ranges:
            val, idx = sequential(*edge, *kargs)
            same &= (float(val), int(idx)) == _kernels.scan_range_numpy(*edge, *kargs)
        mismatches += not same
        print(f"[{name}] {report('numpy split scan', t_np, evals)} | "
              f"{report(seq_name, t_sq, seq_evals)} | identical: {same}")
    if mismatches:
        raise SystemExit("the kernels disagree")


if __name__ == "__main__":
    main()
