#!/usr/bin/env python3
"""Benchmark of atomsched: three workloads, end-to-end metrics, and a traced
run for per-layer metrics. Run from the repository root:

    python3 perfbench/run.py --workload scr-n10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload relax-lb --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --compare BASE NEW   # result files or directories
    python3 perfbench/run.py --write-spec         # regenerate BENCHMARK.json
    python3 perfbench/run.py --record-reference   # re-record reference.json
    python3 perfbench/selftest.py                 # quick self-test

The library is imported from ``src/`` of the checkout this file sits in. The
last line of standard output is the result as one JSON object; the full
result, with the environment stamp, is also written to ``perfbench/results/``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

#: root span name of each workload's timed call
ROOT_SPAN = {"scr": "scr", "relax": "relaxation", "oracle": "oracle"}
#: set-up is measured in this process and in this many fresh ones
SETUP_PROBES = 8
#: the trace must account for the traced wall time within this share, and the
#: wrappers may add at most this share to it
COVERAGE_TOL = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


def import_library():
    """atomsched from this checkout's ``src/``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "atomsched" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no atomsched sources under {src}")
    sys.path.insert(0, str(src))
    import atomsched
    from atomsched import _kernels, oracle, relaxation, scr  # noqa: F401

    return atomsched


@dataclass
class State:
    am: object
    workload: workloads.Workload
    key: str
    instances: list
    prepared: list
    workers: int

    @property
    def tasks(self) -> list[tuple[int, str]]:
        return [(i, obj) for i in range(len(self.instances)) for obj in workloads.OBJECTIVES]


def set_up(name: str, seed: int, quick: bool) -> tuple[State, float]:
    am = import_library()
    workload = (workloads.QUICK if quick else workloads.WORKLOADS)[name]
    workers = workloads.nproc()
    instances = workloads.build_instances(am, workload, seed)
    prepared = [gate.Prepared(instance) for instance in instances]
    workloads.warm_up(am, workload, instances, workers)
    key = f"{name}/quick" if quick else name
    return State(am, workload, key, instances, prepared, workers), time.perf_counter() - _STARTED


def timed(state: State, i: int, objective: str, tracer=None) -> workloads.Answer:
    kind = state.workload.kind
    args = (state.am, kind, state.instances[i], objective, state.workers)
    try:
        if tracer is None:
            answer = workloads.solve(*args)
        else:
            info = {}
            if kind == "relax":
                info["live_vars"] = tracing.live_vars(state.instances[i], ())
            answer = tracer.call(ROOT_SPAN[kind], info, workloads.solve, *args)
    except Exception as exc:  # a failed solve is counted as failed; the run goes on
        answer = workloads.Answer(instance=i, objective=objective,
                                  error=f"{type(exc).__name__}: {exc}")
    answer.instance = i
    return answer


def cycle(state: State, budget: float) -> list[workloads.Answer]:
    """One full pass, then more tasks in the same order while the next one is
    expected to finish within the budget."""
    tasks = state.tasks
    answers = []
    started = time.perf_counter()
    while True:
        i, objective = tasks[len(answers) % len(tasks)]
        answers.append(timed(state, i, objective))
        if len(answers) >= len(tasks):
            upcoming = answers[len(answers) - len(tasks)].seconds
            if time.perf_counter() - started + upcoming > budget:
                return answers


def passes(state: State, count: int, tracer=None) -> tuple[list, float]:
    answers = []
    started = time.perf_counter()
    for _ in range(count):
        answers += [timed(state, i, obj, tracer) for i, obj in state.tasks]
    return answers, time.perf_counter() - started


def solve_seconds(answers, objective: str) -> float:
    """Median over instances of each instance's median time."""
    per_instance = defaultdict(list)
    for a in answers:
        if a.objective == objective and a.error is None:
            per_instance[a.instance].append(a.seconds)
    if not per_instance:
        return float("nan")
    return statistics.median(statistics.median(v) for v in per_instance.values())


def check(state: State, answers, reference: dict | None) -> list[list[str]]:
    """Problems found in each answer (an empty list when it passes)."""
    am, kind = state.am, state.workload.kind
    sandwich = {}
    first = {}
    found = []
    for a in answers:
        key = (a.instance, a.objective)
        p = state.prepared[a.instance]
        if a.error is not None:
            found.append([a.error])
            continue
        if kind == "scr":
            problems = gate.check_scr(p, a)
        elif kind == "relax":
            problems = gate.check_relax(p, a)
        else:
            if key not in sandwich:
                sandwich[key] = scr_bounds(am, state.instances[a.instance], a.objective)
            bounds = sandwich[key]
            problems = [bounds] if isinstance(bounds, str) else gate.check_oracle(p, a, bounds)
        if a.instance == 0:
            if reference is None:
                problems.append(f"no reference answer recorded for {state.key}")
            else:
                problems += gate.check_reference(a, reference[a.objective])
        if key in first and not a.same_result(first[key]):
            problems.append("a repeated solve returned another answer")
        first.setdefault(key, a)
        found.append(problems)
    return found


def scr_bounds(am, instance, objective: str):
    try:
        result = am.scr.successive_convex_relaxation(instance, am.ObjectiveKind(objective))
    except Exception as exc:  # reported as the oracle answer's problem
        return f"SCR for the sandwich check failed: {type(exc).__name__}: {exc}"
    return float(result.lower_bound), float(result.upper_bound)


def numba_check(state: State) -> str:
    """The check benchmarks/oracle_backends.py makes: both enumeration
    kernels give bit-identical results on the same range."""
    kernels = state.am._kernels
    if getattr(kernels, "scan_range_numba", None) is None:
        return "numba absent"
    instance = state.instances[0]
    packed = state.am.oracle.pack_instance(instance)
    coeffs = np.asarray(instance.cost_coefficients)
    energy = state.prepared[0].total_energy
    hi = min(state.prepared[0].schedules, 1 << 18)
    for mode in (kernels.COST, kernels.PAR):
        args = (*packed, instance.horizon, coeffs, mode, energy)
        v_np, i_np = kernels.scan_range_numpy(0, hi, *args)
        v_nb, i_nb = kernels.scan_range_numba(0, hi, *args)
        if not (v_np == v_nb and int(i_np) == int(i_nb)):
            return "different"
    return "identical"


def environment(state: State) -> dict:
    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = "numba absent"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba,
        "kernel_backend": state.am._kernels.active_backend(),
        "blas": blas,
        "nproc": workloads.nproc(),
        "oracle_workers": state.am.oracle.resolve_workers(state.workers),
        "ATOMSCHED_MAX_WORKERS": os.environ.get("ATOMSCHED_MAX_WORKERS", "unset"),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def probe_setup(name: str, seed: int, quick: bool) -> float:
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": spec.UNITS[name]}


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
        probes: int = SETUP_PROBES) -> dict:
    """One benchmark run. Returns the result document; its "result" entry is
    the object the last output line carries."""
    state, setup_s = set_up(name, seed, quick)
    reference = json.loads(REFERENCE.read_text()).get(state.key) if REFERENCE.is_file() else None
    kind = state.workload.kind
    run_checks = {}
    doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
           "quick": quick, "env": environment(state)}
    if kind == "oracle":
        doc["env"]["numba_vs_numpy"] = numba_check(state)
        run_checks["numba and numpy kernels agree"] = doc["env"]["numba_vs_numpy"] != "different"

    if not trace:
        answers = cycle(state, seconds)
        setups = [setup_s] + [probe_setup(name, seed, quick) for _ in range(probes)]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{f"solve_s.{obj}": solve_seconds(answers, obj) for obj in workloads.OBJECTIVES},
        }
        doc["setup_samples_s"] = setups
        absent = []
    else:
        spans_path = RESULTS / result_name(name, seed, trace, quick).replace(".json", ".spans.jsonl")
        answers, metrics, absent = traced_run(state, seconds, spans_path,
                                              doc["env"]["oracle_workers"])
        doc["spans"] = str(spans_path.relative_to(ROOT))
        run_checks.update(trace_checks(metrics))

    problems = check(state, answers, reference)
    failed = sum(1 for p in problems if p) + sum(1 for ok in run_checks.values() if not ok)
    attempted = len(answers) + len(run_checks)
    doc["problems"] = [
        {"instance": a.instance, "objective": a.objective, "problems": p}
        for a, p in zip(answers, problems) if p
    ] + [{"run": text} for text, ok in run_checks.items() if not ok]
    doc["samples_s"] = [[a.instance, a.objective, a.seconds] for a in answers]
    doc["absent_entry_points"] = absent
    doc["fail_frac"] = failed / attempted
    doc["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: metric(k, metrics[k]) for k in spec.UNITS if k in metrics},
    }
    return doc


def traced_run(state: State, seconds: float, spans_path: Path, workers: int):
    """Whole passes untraced for half the budget, then as many with spans,
    then one pass with call counts only; returns the answers of all three,
    the per-layer metrics and the absent entry points."""
    count, plain, plain_wall = 0, [], 0.0
    while count == 0 or plain_wall + plain_wall / count <= seconds / 2:
        more, wall = passes(state, 1)
        plain, plain_wall, count = plain + more, plain_wall + wall, count + 1
    tracer = tracing.Tracer()
    with tracer.installed(state.am):
        started = time.perf_counter()
        traced, traced_wall = passes(state, count, tracer)
    counter = tracing.Tracer()
    with counter.installed(state.am, spans=False, counts=True):
        counted, _ = passes(state, 1)
    RESULTS.mkdir(exist_ok=True)
    tracer.write_jsonl(spans_path, started)
    metrics = tracing.layer_metrics(tracer, counter, count, traced_wall, workers,
                                    tracing.wrapper_costs())
    metrics.update(answer_layer_metrics(state, plain, traced, count))
    metrics["trace.untraced_wall_s"] = plain_wall / count
    metrics["trace.overhead_s"] = (traced_wall - plain_wall) / count
    return plain + traced + counted, metrics, tracer.absent


def trace_checks(metrics: dict) -> dict:
    """Run-level checks of a traced run: the layers' self times account for
    the traced wall time, and the wrappers add little to it."""
    checks = {}
    if "trace.coverage" in metrics:
        checks["per-layer self times add up to the traced wall time"] = (
            abs(metrics["trace.coverage"] - 1.0) <= COVERAGE_TOL)
    checks["the wrappers add at most 5% to any layer's self time"] = (
        metrics["trace.cost_frac"] <= COVERAGE_TOL)
    return checks


def answer_layer_metrics(state: State, plain, traced, count: int) -> dict:
    """Per-layer values read from the answers rather than from spans."""
    kind = state.workload.kind
    values = {"scr.rounds": sum(a.rounds or 0 for a in traced) / count}
    oracle = [a for a in plain if kind == "oracle" and a.error is None]
    schedules = sum(state.prepared[a.instance].schedules for a in oracle)
    # below 1 when the oracle resolves schedules without evaluating each one
    values["oracle.evals_frac"] = (
        sum(a.evaluations for a in oracle) / schedules if schedules else 0.0)
    for obj in workloads.OBJECTIVES:
        gaps = [(a.upper - a.lower) / a.lower for a in traced
                if kind == "scr" and a.objective == obj and a.error is None]
        values[f"scr.gap_rel.{obj}"] = statistics.fmean(gaps) if gaps else 0.0
        done = [a for a in oracle if a.objective == obj]
        seconds = sum(a.seconds for a in done)
        values[f"oracle.sched_per_s.{obj}"] = (
            sum(state.prepared[a.instance].schedules for a in done) / seconds
            if seconds else 0.0)
    return values


def result_name(name: str, seed: int, trace: bool, quick: bool) -> str:
    return f"{name}{'-quick' if quick else ''}-seed{seed}-trace{int(trace)}.json"


def report(doc: dict) -> None:
    result = doc["result"]
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}"
          f"{'  (quick)' if doc['quick'] else ''}")
    print("env " + json.dumps(doc["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']:<6} {spec.BETTER[name]} is better")
    for missing in doc["absent_entry_points"]:
        print(f"  entry point {missing} is gone: its metrics are absent")
    print(f"answers {result['attempted']}  failed {result['failed']}  "
          f"fail_frac {doc['fail_frac']:.4g}")
    for problem in doc["problems"]:
        print("  FAILED " + json.dumps(problem))


def load_results(path: Path) -> dict:
    """(workload, trace) -> metric -> values, from a result file or a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    table = defaultdict(lambda: defaultdict(list))
    for f in files:
        doc = json.loads(f.read_text())
        for name, m in doc["result"]["metrics"].items():
            table[(doc["workload"], doc["trace"])][name].append(m["value"])
    return table


def compare(base_path: Path, new_path: Path) -> None:
    """One row per workload and metric: the medians and their ratio."""
    base, new = load_results(base_path), load_results(new_path)
    print(f"{'workload':<13} {'metric':<28} {'base':>12} {'new':>12} {'new/base':>9}  unit, better")
    for key in sorted(base.keys() & new.keys()):
        for name in [m for m in spec.UNITS if m in base[key] and m in new[key]]:
            b = statistics.median(base[key][name])
            n = statistics.median(new[key][name])
            ratio = f"{n / b:9.3f}" if b else f"{'n/a':>9}"
            print(f"{key[0]:<13} {name:<28} {b:>12.5g} {n:>12.5g} {ratio}  "
                  f"{spec.UNITS.get(name, '?')}, {spec.BETTER.get(name, '?')}")


def record_reference() -> None:
    """Answers for each workload's canary (its first, seed-independent
    instance), full size and quick."""
    reference = {}
    for quick in (False, True):
        for name in spec.WORKLOADS:
            state, _ = set_up(name, 0, quick)
            entry = {}
            for obj in workloads.OBJECTIVES:
                answer = timed(state, 0, obj)
                if answer.error is not None:
                    raise SystemExit(f"{state.key} {obj}: {answer.error}")
                entry[obj] = gate.reference_entry(answer)
            reference[state.key] = entry
    lines = [f" {json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}"
             for key in sorted(reference)]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        _, setup_s = set_up(args.workload, args.seed, args.quick)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    doc = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    report(doc)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / result_name(args.workload, args.seed, bool(args.trace), args.quick)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
