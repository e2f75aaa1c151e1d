#!/usr/bin/env python3
"""Quick self-test of the benchmark, on tiny instances; runs in seconds.

* ``BENCHMARK.json`` is what ``spec.py`` generates;
* every workload emits every end-to-end metric untraced and every per-layer
  metric traced, with the gate passing and the trace adding up;
* the correctness gate trips on deliberately corrupted answers, and the
  trace check trips when call counting runs in the timed passes;
* compare mode reads result files back.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import gate
import run
import spec
import tracing
import workloads

SEED = 5


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-test FAILED: {message}")


def other_start(p: gate.Prepared, n: int, start: int) -> int:
    return next(s for s in p.starts[n] if s != start)


def bad_start(p: gate.Prepared, n: int) -> int:
    return next(s for s in range(p.horizon) if s not in p.starts[n])


def consistent_variant(p: gate.Prepared, answer):
    """The same answer with another feasible schedule and its true value:
    only the reference and the repeat checks can tell it apart."""
    variant = copy.copy(answer)
    schedule = list(answer.schedule)
    schedule[0] = other_start(p, 0, schedule[0])
    variant.schedule = tuple(schedule)
    value = p.value(answer.objective, p.loads(schedule))
    if answer.optimum is not None:
        variant.optimum = value
    else:
        variant.upper = value
    return variant


def corruptions(p: gate.Prepared, kind: str, answer):
    """(label, corrupted copy) pairs that the self-checks alone must catch."""
    def changed(**fields):
        bad = copy.copy(answer)
        for key, value in fields.items():
            setattr(bad, key, value)
        return bad

    if kind == "scr":
        yield "UB off by 1e-7", changed(upper=answer.upper * (1 + 1e-7))
        yield "LB above UB", changed(lower=answer.upper * 1.01)
        yield "start outside its window", changed(
            schedule=(bad_start(p, 0),) + answer.schedule[1:])
    elif kind == "relax":
        yield "LB off by 1e-5", changed(lower=answer.lower * (1 + 1e-5))
        flows = answer.flows.copy()
        flows[0, bad_start(p, 0)] += 0.5
        flows[0] /= flows[0].sum()
        yield "flow outside the start set", changed(flows=flows)
    else:
        yield "optimum off by 1e-8", changed(optimum=answer.optimum * (1 + 1e-8))
        yield "start outside its window", changed(
            schedule=(bad_start(p, 0),) + answer.schedule[1:])


def check_emitted() -> None:
    end_to_end = {m[0] for m in spec.END_TO_END}
    per_layer = {m[0] for m in spec.PER_LAYER}
    for name in spec.WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            doc = run.run(name, SEED, 0.01, trace, quick=True, probes=1)
            result = doc["result"]
            expect(set(result["metrics"]) == names,
                   f"{name} trace={trace}: metrics {sorted(set(result['metrics']) ^ names)}"
                   " missing or unexpected")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: gate failed on the library's answers: "
                   f"{doc['problems']}")
            expect(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                   f"{name}: a metric value is not a number")
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                expect(abs(coverage - 1.0) <= run.COVERAGE_TOL,
                       f"{name}: self times cover {coverage:.3f} of the traced wall time")
                cost = result["metrics"]["trace.cost_frac"]["value"]
                expect(cost <= run.COVERAGE_TOL,
                       f"{name}: the wrappers add {cost:.3f} of the traced wall time")


def check_trace_cost_trips() -> None:
    """Counting calls in the timed passes inflates the polish and SCR self
    times; the wrapper-cost check must fail the run then."""
    state, _ = run.set_up("scr-n10", SEED, quick=True)
    tracer = tracing.Tracer()
    with tracer.installed(state.am, spans=True, counts=True):
        _, wall = run.passes(state, 1, tracer)
    metrics = tracing.layer_metrics(tracer, tracer, 1, wall, state.workers,
                                    tracing.wrapper_costs())
    expect(not all(run.trace_checks(metrics).values()),
           f"wrapper-cost check passed with counting in the timed passes: "
           f"trace.cost_frac {metrics['trace.cost_frac']:.4f}")


def check_gate_trips() -> None:
    reference = json.loads(run.REFERENCE.read_text())
    for name in spec.WORKLOADS:
        state, _ = run.set_up(name, SEED, quick=True)
        kind = state.workload.kind
        for i in (0, 1):  # the canary (has a reference) and a seeded instance
            for obj in workloads.OBJECTIVES:
                answer = run.timed(state, i, obj)
                p = state.prepared[i]
                expect(run.check(state, [answer], reference[state.key]) == [[]],
                       f"{name} #{i} {obj}: gate failed on a correct answer")
                for label, bad in corruptions(p, kind, answer):
                    expect(run.check(state, [bad], reference[state.key])[0],
                           f"{name} #{i} {obj}: gate missed '{label}'")
                if answer.schedule is None:
                    continue
                variant = consistent_variant(p, answer)
                alone = run.check(state, [variant], reference[state.key])[0]
                if i == 0:
                    expect(alone, f"{name} {obj}: gate missed an answer that differs "
                                  "from the reference")
                elif kind == "scr":  # an oracle variant may also break the sandwich
                    expect(alone == [], f"{name} {obj}: a consistent answer failed: {alone}")
                expect(run.check(state, [answer, variant], reference[state.key])[1],
                       f"{name} #{i} {obj}: gate missed a changed repeat")


def check_compare() -> None:
    doc = run.run("scr-n10", SEED, 0.01, False, quick=True, probes=0)
    run.RESULTS.mkdir(exist_ok=True)
    path = run.RESULTS / "selftest-compare.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.compare(path, path)
    rows = [line for line in out.getvalue().splitlines() if line.startswith("scr-n10")]
    path.unlink()
    expect(len(rows) == len(spec.END_TO_END) and all(" 1.000 " in r for r in rows),
           f"compare printed {out.getvalue()!r}")


def main() -> int:
    expect(json.loads((run.ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json(),
           "BENCHMARK.json differs from spec.py: run perfbench/run.py --write-spec")
    check_emitted()
    check_gate_trips()
    check_trace_cost_trips()
    check_compare()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
