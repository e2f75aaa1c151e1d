#!/usr/bin/env python3
"""Time the enumeration kernels: numba @njit vs the pure-numpy fallback.

The two backends are bit-identical by construction; this script checks that
on the fly and reports throughput. Run from the repo root:

    python3 benchmarks/oracle_backends.py --n 5 --seed 7 --max-evals 2000000
"""

import argparse
import time

import numpy as np

from atomsched import enumeration_size, generate_instance
from atomsched import _kernels
from atomsched.model import instance_total_energy
from atomsched.oracle import pack_instance


def time_scan(fn, warmups, repeats, lo, hi, args):
    for _ in range(warmups):
        fn(lo, min(lo + 1000, hi), *args)
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(lo, hi, *args)
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5, help="appliances in the instance")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-evals", type=int, default=2_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    instance = generate_instance(args.n, args.seed)
    total = enumeration_size(instance)
    evals = min(total, args.max_evals)
    print(f"instance: n={args.n} seed={args.seed} joint schedules={total}, scanning {evals}")

    packed = pack_instance(instance)
    coeffs = np.asarray(instance.cost_coefficients)
    total_energy = instance_total_energy(instance)

    for name, mode in (("cost", _kernels.COST), ("par", _kernels.PAR)):
        kargs = (*packed, instance.horizon, coeffs, mode, total_energy)
        t_np, r_np = time_scan(_kernels.scan_range_numpy, 1, args.repeats, 0, evals, kargs)
        line = f"[{name}] numpy: {t_np:.3f}s ({evals / t_np / 1e6:.2f} M evals/s)"
        if _kernels.scan_range_numba is not None:
            t_nb, r_nb = time_scan(
                _kernels.scan_range_numba, 2, args.repeats, 0, evals, kargs
            )
            match = r_np[0] == r_nb[0] and r_np[1] == int(r_nb[1])
            line += (
                f" | numba: {t_nb:.3f}s ({evals / t_nb / 1e6:.2f} M evals/s)"
                f" | speedup x{t_np / t_nb:.1f} | results identical: {match}"
            )
        else:
            line += " | numba not installed: only the numpy kernel runs"
        print(line)


if __name__ == "__main__":
    main()
