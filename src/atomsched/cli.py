"""Command-line interface.

Commands: ``solve`` (bounds + schedule for one instance), ``enumerate``
(exhaustive global optimum), ``gen`` (seeded random instance file), ``bench``
(bound/gap/iteration sweep written as CSV or JSON).

Exit codes: 0 success, 1 validation or usage error, 2 solver failure,
3 enumeration too large.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import AtomschedError, SolverError, TooLargeError
from .iofmt import (
    format_number,
    read_instance_file,
    render_row,
    results_to_csv,
    results_to_json,
    write_instance_file,
    write_results,
)
from .catalog import generate_instance
from .model import ProblemInstance
from .objectives import ObjectiveKind
from .oracle import DEFAULT_LIMIT, brute_force
from .scr import SCRConfig, scr_sweep, successive_convex_relaxation, zero_wall_ms


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for solver failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str) -> list[int]:
    """Accept '3', '1,2,5', or an inclusive range '2..8'; an empty list is
    a ValueError."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        values = list(range(int(lo_text), int(hi_text) + 1))
    else:
        values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def clock_range(start: int, duration: int, horizon: int) -> str:
    """Render an operation as wall-clock times, slot 0 being midnight."""
    day_minutes = 24 * 60
    per_slot = day_minutes / horizon

    def fmt(position: int) -> str:
        minutes = round(position * per_slot) % day_minutes
        return f"{minutes // 60:02d}:{minutes % 60:02d}"

    return f"{fmt(start)}-{fmt(start + duration)}"


def _schedule_lines(instance: ProblemInstance, schedule) -> list[str]:
    return [
        f"  {a.name}: start {s} ({clock_range(s, a.duration, instance.horizon)})"
        for a, s in zip(instance.appliances, schedule)
    ]


def _cmd_solve(args) -> int:
    instance = read_instance_file(args.instance)
    objective = ObjectiveKind(args.objective)
    config = SCRConfig(
        drop_threshold=args.theta_d, max_drops_per_iteration=args.n_d
    )
    started = time.perf_counter()
    result = successive_convex_relaxation(instance, objective, config)
    wall_ms = (time.perf_counter() - started) * 1e3
    gap = result.upper_bound - result.lower_bound

    if args.format == "text":
        print(f"objective: {objective.value}")
        print(f"lower_bound: {format_number(result.lower_bound)}")
        print(f"upper_bound: {format_number(result.upper_bound)}")
        print(f"gap: {format_number(gap)}")
        print(f"iterations: {result.iterations}")
        print("schedule:")
        print("\n".join(_schedule_lines(instance, result.schedule)))
        return 0
    row = {"objective": objective.value, "lb": result.lower_bound, "ub": result.upper_bound,
           "gap": gap, "iterations": result.iterations, "wall_ms": wall_ms}
    if args.format == "json":
        row["schedule"] = [
            {"name": a.name, "start": s, "clock": clock_range(s, a.duration, instance.horizon)}
            for a, s in zip(instance.appliances, result.schedule)
        ]
        print(json.dumps(render_row(row, "json"), indent=2))
    else:  # csv
        row["schedule"] = "|".join(map(str, result.schedule))
        print(",".join(row))
        print(render_row(row, "csv"))
    return 0


def _cmd_enumerate(args) -> int:
    instance = read_instance_file(args.instance)
    objective = ObjectiveKind(args.objective)
    result = brute_force(
        instance, objective, limit=args.limit, workers=args.workers
    )
    print(f"objective: {objective.value}")
    print(f"optimum: {format_number(result.objective_value)}")
    print(f"evaluations: {result.evaluations}")
    print("schedule:")
    print("\n".join(_schedule_lines(instance, result.schedule)))
    return 0


def _cmd_gen(args) -> int:
    instance = generate_instance(args.n, args.seed)
    write_instance_file(instance, args.out)
    print(f"wrote {args.out} ({args.n} appliances, seed {args.seed})")
    return 0


def _cmd_bench(args) -> int:
    rows = scr_sweep(
        n_values=_parse_int_list(args.n_range),
        n_d_values=_parse_int_list(args.n_d_list),
        seeds=_parse_int_list(args.seeds),
        objective=ObjectiveKind(args.objective),
        drop_threshold=args.theta_d,
    )
    if args.zero_wall_ms:
        rows = zero_wall_ms(rows)
    if args.out:
        write_results(rows, args.out, fmt=args.format)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        text = results_to_csv(rows) if args.format == "csv" else results_to_json(rows)
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="atomsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="bounds and schedule via successive relaxation")
    solve.add_argument("instance", help="instance document path")
    solve.add_argument("--objective", choices=["cost", "par"], default="cost")
    solve.add_argument("--theta-d", type=float, default=SCRConfig.drop_threshold,
                       help="drop threshold (default %(default)s)")
    solve.add_argument("--n-d", type=int, default=SCRConfig.max_drops_per_iteration,
                       help="max drops per round (default %(default)s)")
    solve.add_argument("--format", choices=["text", "json", "csv"], default="text")
    solve.set_defaults(func=_cmd_solve)

    enum = sub.add_parser("enumerate", help="exact optimum by direct enumeration")
    enum.add_argument("instance", help="instance document path")
    enum.add_argument("--objective", choices=["cost", "par"], default="cost")
    enum.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                      help="refuse instances needing more evaluations (default %(default)s)")
    enum.add_argument("--workers", type=int, default=None)
    enum.set_defaults(func=_cmd_enumerate)

    gen = sub.add_parser("gen", help="write a seeded random instance file")
    gen.add_argument("--n", type=int, required=True, help="number of appliances")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="bound/gap/iteration sweep to CSV or JSON")
    bench.add_argument("--n-range", required=True, help="e.g. 2..8 or 2,5,10")
    bench.add_argument("--n-d-list", required=True, help="e.g. 1,5")
    bench.add_argument("--seeds", required=True, help="e.g. 1..20")
    bench.add_argument("--objective", choices=["cost", "par"], default="cost")
    bench.add_argument("--theta-d", type=float, default=SCRConfig.drop_threshold)
    bench.add_argument("--out", default=None, help="output path (stdout if omitted)")
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    bench.add_argument(
        "--zero-wall-ms",
        action="store_true",
        help="write 0 in the wall_ms column for byte-reproducible files",
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"atomsched: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"atomsched: {exc}", file=sys.stderr)
        return 2
    except (AtomschedError, ValueError, OSError) as exc:
        print(f"atomsched: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
