"""Seeded inputs for each workload, and the library call that answers them.

Instances are built here from the benchmark's own appliance table, so the
inputs stay the same when the library's catalog or generator changes; the
library only receives the finished ``ProblemInstance`` objects.

Every generated instance holds the five templates in equal numbers, in an
order drawn from the seed, under the library's fixed two-tier tariff
(``default_cost_coefficients``: 0.2 c/kWh^2 before 08:00, 0.3 after). The mix
is fixed because SCR's round count follows the total number of feasible
starts: with a uniform draw of templates, the time per solve swings with the
draw by more than any change under test.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

HORIZON = 24

#: key -> (window_start, window_end, duration, kWh per slot); the paper's five
#: residential appliances with hourly slots. The PHEV window wraps midnight.
TEMPLATES = {
    "dish_washer": (0, 23, 2, 0.72),
    "washing_machine_energy_star": (0, 23, 3, 0.4967),
    "washing_machine_regular": (0, 23, 3, 0.6467),
    "clothes_dryer": (0, 23, 4, 0.625),
    "phev": (22, 29, 3, 3.3),
}
OBJECTIVES = ("cost", "par")

# SeedSequence entropy prefixes keep the streams of the workloads apart and
# keep the fixed reference instance ("canary") out of every seeded stream.
_STREAMS = {"scr": 1, "relax": 2, "oracle": 3}
_CANARY = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: which library entry point answers an instance: "scr", "relax", "oracle"
    kind: str
    #: templates of one generated instance (each repeated ``copies`` times)
    mix: tuple[str, ...]
    copies: int
    #: seeded instances per run; the canary is added in front of them
    seeded: int
    #: dish washers in the fixed oracle instance ("worst" case: 23^k schedules)
    worst_dish_washers: int = 0


_ALL_FIVE = tuple(TEMPLATES)
_N6_MIX = ("phev", "phev", "dish_washer", "dish_washer", "dish_washer",
           "washing_machine_energy_star")

WORKLOADS = {
    "scr-n10": Workload("scr-n10", "scr", _ALL_FIVE, 2, seeded=5),
    "relax-lb": Workload("relax-lb", "relax", _ALL_FIVE, 64, seeded=15),
    "oracle-exact": Workload(
        "oracle-exact", "oracle", _N6_MIX, 1, seeded=1, worst_dish_washers=5
    ),
}

#: tiny sizes for the self-test; every layer still runs
QUICK = {
    "scr-n10": Workload("scr-n10", "scr", _ALL_FIVE, 1, seeded=1),
    "relax-lb": Workload("relax-lb", "relax", _ALL_FIVE, 4, seeded=1),
    "oracle-exact": Workload(
        "oracle-exact", "oracle", ("phev", "dish_washer", "clothes_dryer"), 1,
        seeded=1, worst_dish_washers=4,
    ),
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def generated_instance(am, workload: Workload, entropy: list[int]):
    rng = np.random.default_rng(entropy)
    keys = [key for key in workload.mix for _ in range(workload.copies)]
    keys = [keys[i] for i in rng.permutation(len(keys))]
    appliances = [
        am.Appliance.constant(f"{key}_{k}", *TEMPLATES[key])
        for k, key in enumerate(keys)
    ]
    return am.ProblemInstance(HORIZON, appliances, am.default_cost_coefficients(HORIZON))


def worst_instance(am, dish_washers: int):
    """Identical dish washers: 23^k schedules, every one a near-tie."""
    appliances = [
        am.Appliance.constant(f"dw{i}", *TEMPLATES["dish_washer"])
        for i in range(dish_washers)
    ]
    return am.ProblemInstance(HORIZON, appliances, am.default_cost_coefficients(HORIZON))


def build_instances(am, workload: Workload, seed: int) -> list:
    """The run's batch: the canary first, then the instances drawn from seed."""
    stream = _STREAMS[workload.kind]
    if workload.worst_dish_washers:
        canary = worst_instance(am, workload.worst_dish_washers)
    else:
        canary = generated_instance(am, workload, [stream, _CANARY])
    seeded = [
        generated_instance(am, workload, [stream, _CANARY + 1, seed, i])
        for i in range(workload.seeded)
    ]
    return [canary, *seeded]


def warm_up(am, workload: Workload, instances: list, workers: int) -> None:
    """First calls in a process pay BLAS start-up and first-touch page faults
    (about 1 s for an N=320 relaxation); pay them before timing starts."""
    kinds = am.ObjectiveKind
    if workload.kind == "oracle":
        small = worst_instance(am, 4)  # 23^4 schedules: takes the threaded path
        for objective in kinds:
            am.oracle.brute_force(small, objective, workers=workers)
        return
    for objective in kinds:
        am.relaxation.solve_relaxed(instances[0], objective)


@dataclass
class Answer:
    """One timed library call and what it returned."""

    instance: int
    objective: str
    seconds: float = 0.0
    lower: float | None = None
    upper: float | None = None
    schedule: tuple[int, ...] | None = None
    optimum: float | None = None
    evaluations: int | None = None
    rounds: int | None = None
    flows: np.ndarray | None = field(default=None, repr=False)
    error: str | None = None

    def same_result(self, other: "Answer") -> bool:
        if self.flows is not None and other.flows is not None:
            if not np.array_equal(self.flows, other.flows):
                return False
        return (self.lower, self.upper, self.schedule, self.optimum,
                self.evaluations, self.rounds, self.error) == (
            other.lower, other.upper, other.schedule, other.optimum,
            other.evaluations, other.rounds, other.error)


def solve(am, kind: str, instance, objective: str, workers: int) -> Answer:
    """Call the workload's entry point, looked up on its module at call time,
    so that a traced run sees the same call as an untraced one."""
    kind_enum = am.ObjectiveKind(objective)
    answer = Answer(instance=-1, objective=objective)
    started = time.perf_counter()
    if kind == "scr":
        result = am.scr.successive_convex_relaxation(instance, kind_enum)
        answer.seconds = time.perf_counter() - started
        answer.lower = float(result.lower_bound)
        answer.upper = float(result.upper_bound)
        answer.schedule = tuple(int(s) for s in result.schedule)
        answer.rounds = int(result.iterations)
    elif kind == "relax":
        result = am.relaxation.solve_relaxed(instance, kind_enum)
        answer.seconds = time.perf_counter() - started
        # solver units: cents for cost, the peak load in kWh for PAR
        answer.lower = float(result.objective_value)
        answer.flows = np.array(result.flows, dtype=np.float64)
    else:
        result = am.oracle.brute_force(instance, kind_enum, workers=workers)
        answer.seconds = time.perf_counter() - started
        answer.optimum = float(result.objective_value)
        answer.schedule = tuple(int(s) for s in result.schedule)
        answer.evaluations = int(result.evaluations)
    return answer
