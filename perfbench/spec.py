"""What the benchmark measures: its workloads and metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the file and the code that
emits the metrics cannot drift apart; the self-test checks that they agree.
"""

from __future__ import annotations

RUN_SECONDS = 30

#: name -> why the workload is in the benchmark (one line each)
WORKLOADS = {
    "scr-n10": (
        "SCR on N=10 homes, the paper's main use: polish dominates, IPM is "
        "second; exercises polish changes"
    ),
    "relax-lb": (
        "one relaxed solve per N=320 aggregator: IPM dominates, polish never "
        "runs; predicts no change for polish work"
    ),
    "oracle-exact": (
        "exact enumeration of worst5 (6.4M schedules) and an N=6 mix (9.6M): "
        "the kernels dominate, SCR never runs"
    ),
}

#: (name, unit, better, bound); measured with tracing off, on every workload
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("solve_s.cost", "s", "lower", 0.25),
    ("solve_s.par", "s", "lower", 0.25),
)

#: (name, unit, better); from the traced run, per pass over the batch
PER_LAYER = (
    ("scr.rounds", "count", "lower"),
    ("scr.self_s", "s", "lower"),
    ("scr.polish_s", "s", "lower"),
    ("scr.polish_calls", "count", "lower"),
    ("scr.polish_distinct_frac", "ratio", "lower"),
    ("scr.gap_rel.cost", "ratio", "lower"),
    ("scr.gap_rel.par", "ratio", "lower"),
    ("flows.load_profile_calls", "count", "lower"),
    ("flows.calls", "count", "lower"),
    ("model.total_energy_calls", "count", "lower"),
    ("model.calls", "count", "lower"),
    ("objectives.calls", "count", "lower"),
    ("relaxation.calls", "count", "lower"),
    ("relaxation.self_s", "s", "lower"),
    ("relaxation.live_vars", "count", "lower"),
    ("ipm.s", "s", "lower"),
    ("ipm.iterations", "count", "lower"),
    ("ipm.s_per_iter", "s", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.evals", "count", "lower"),
    ("kernels.evals_per_busy_s", "1/s", "higher"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.parallel_eff", "ratio", "higher"),
    ("oracle.evals_frac", "ratio", "lower"),
    ("oracle.sched_per_s.cost", "1/s", "higher"),
    ("oracle.sched_per_s.par", "1/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.cost_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
