"""Correctness gate: every answer is re-checked with the benchmark's own numpy
code, independent of the library's model, flows and objectives modules.

Tolerances, relative to the value checked:

* 1e-9 between a reported objective and the objective of the reported
  schedule (the same sums, possibly in another order);
* 1e-6 for comparisons that involve a relaxed bound (the interior-point
  solver stops at tolerance 1e-8) and against the recorded reference answers.
"""

from __future__ import annotations

import math

import numpy as np

EVAL_RTOL = 1e-9
BOUND_RTOL = 1e-6


class Prepared:
    """An instance unpacked into plain arrays for checking."""

    def __init__(self, instance):
        self.horizon = int(instance.horizon)
        self.coefficients = np.array(instance.cost_coefficients, dtype=np.float64)
        self.patterns = [np.array(a.energy_pattern, dtype=np.float64)
                         for a in instance.appliances]
        self.windows = [(int(a.window_start), int(a.window_end), int(a.duration))
                        for a in instance.appliances]
        self.starts = [
            [s % self.horizon for s in range(ws, we - d + 2)]
            for ws, we, d in self.windows
        ]
        self.total_energy = float(sum(p.sum() for p in self.patterns))
        self.schedules = math.prod(len(s) for s in self.starts)

    def loads(self, schedule) -> np.ndarray:
        loads = np.zeros(self.horizon)
        for s, pattern in zip(schedule, self.patterns):
            loads[(s + np.arange(pattern.size)) % self.horizon] += pattern
        return loads

    def flow_loads(self, flows: np.ndarray) -> np.ndarray:
        loads = np.zeros(self.horizon)
        for n, pattern in enumerate(self.patterns):
            for offset, level in enumerate(pattern):
                loads += level * np.roll(flows[n], offset)
        return loads

    def value(self, objective: str, loads: np.ndarray) -> float:
        if objective == "cost":
            return float(self.coefficients @ (loads * loads))
        return float(self.horizon * loads.max() / self.total_energy)

    def infeasible(self, schedule) -> str | None:
        if schedule is None or len(schedule) != len(self.windows):
            return f"schedule {schedule!r} does not give one start per appliance"
        for n, (s, (ws, we, d)) in enumerate(zip(schedule, self.windows)):
            if not 0 <= s < self.horizon or (s - ws) % self.horizon > we - d + 1 - ws:
                return f"appliance {n}: start {s} does not fit window {ws}..{we}"
        return None


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _le(a: float, b: float, rtol: float) -> bool:
    return a <= b + rtol * max(abs(a), abs(b))


def check_scr(p: Prepared, answer) -> list[str]:
    problems = []
    bad = p.infeasible(answer.schedule)
    if bad:
        return [bad]
    value = p.value(answer.objective, p.loads(answer.schedule))
    if not _close(value, answer.upper, EVAL_RTOL):
        problems.append(f"UB {answer.upper!r} but the schedule scores {value!r}")
    if not _le(answer.lower, answer.upper, BOUND_RTOL):
        problems.append(f"LB {answer.lower!r} above UB {answer.upper!r}")
    return problems


def check_relax(p: Prepared, answer) -> list[str]:
    flows = answer.flows
    if flows is None or flows.shape != (len(p.windows), p.horizon):
        return ["relaxed flows missing or of the wrong shape"]
    problems = []
    for n, starts in enumerate(p.starts):
        outside = np.delete(flows[n], starts)
        if outside.size and np.abs(outside).max() > BOUND_RTOL:
            problems.append(f"appliance {n}: flow outside its start set")
        if flows[n].min() < -BOUND_RTOL or abs(flows[n].sum() - 1.0) > BOUND_RTOL:
            problems.append(f"appliance {n}: flow row is not a distribution")
    if problems:
        return problems
    loads = p.flow_loads(flows)
    # cost: the bound is the cost of the returned flows; PAR: the peak variable,
    # which the returned flows' highest slot reaches at the optimum
    relaxed = float(p.coefficients @ (loads * loads)) if answer.objective == "cost" \
        else float(loads.max())
    if not _close(relaxed, answer.lower, BOUND_RTOL):
        problems.append(f"LB {answer.lower!r} but the flows give {relaxed!r}")
    rounded = [p.starts[n][int(np.argmax(flows[n, p.starts[n]]))]
               for n in range(len(p.starts))]
    loads = p.loads(rounded)
    feasible = float(p.coefficients @ (loads * loads)) if answer.objective == "cost" \
        else float(loads.max())
    if not _le(answer.lower, feasible, BOUND_RTOL):
        problems.append(f"LB {answer.lower!r} above a feasible schedule's {feasible!r}")
    return problems


def check_oracle(p: Prepared, answer, scr_bounds=None) -> list[str]:
    bad = p.infeasible(answer.schedule)
    if bad:
        return [bad]
    problems = []
    value = p.value(answer.objective, p.loads(answer.schedule))
    if not _close(value, answer.optimum, EVAL_RTOL):
        problems.append(f"optimum {answer.optimum!r} but the schedule scores {value!r}")
    if scr_bounds is not None:
        lower, upper = scr_bounds
        if not _le(lower, answer.optimum, BOUND_RTOL):
            problems.append(f"SCR LB {lower!r} above the optimum {answer.optimum!r}")
        if not _le(answer.optimum, upper, EVAL_RTOL):
            problems.append(f"optimum {answer.optimum!r} above SCR UB {upper!r}")
    return problems


def check_reference(answer, reference: dict) -> list[str]:
    """Compare with the answer recorded for the same instance and objective."""
    problems = []
    for key, expected in reference.items():
        got = getattr(answer, key)
        if key == "schedule":
            if got is None or list(got) != expected:
                problems.append(f"schedule {got!r}, reference {expected!r}")
        elif got is None or not _close(float(got), float(expected), BOUND_RTOL):
            problems.append(f"{key} {got!r}, reference {expected!r}")
    return problems


def reference_entry(answer) -> dict:
    """The fields of an answer that a reference records."""
    entry = {}
    for key in ("lower", "upper", "optimum"):
        value = getattr(answer, key)
        if value is not None:
            entry[key] = value
    if answer.schedule is not None:
        entry["schedule"] = list(answer.schedule)
    return entry
