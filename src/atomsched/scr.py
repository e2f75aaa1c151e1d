"""Successive convex relaxation: solve, drop small fractional flows, repeat.

Each round solves the current relaxation, stops if every user's flow row is
already (numerically) one-hot, and otherwise permanently zeroes out a batch
of small fractional variables before re-solving:

* the per-row maximum element is protected (ties go to the lowest start slot),
* remaining elements below 1 - integral_tol are sorted ascending by value
  (ties by user then start slot),
* the smallest is always dropped; further elements follow while they stay
  below ``drop_threshold`` and the per-round budget ``max_drops_per_iteration``
  is not exhausted.

The first round's relaxed optimum is a valid lower bound on the Boolean
optimum. For the upper bound, every round's solution is rounded to a feasible
schedule (per-row argmax) and refined by deterministic coordinate descent;
the best candidate seen along the trajectory is returned. Rounding alone is
unreliable because fractional values rank a start's usefulness for flattening
the *relaxed* load, not its standalone cost. A round whose rounded schedule
was already refined earlier in the run reuses that result, which has already
competed for the incumbent, instead of descending again. Every choice is
deterministic, so identical inputs reproduce identical runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import islice, takewhile
from typing import Sequence

import numpy as np

from .errors import IterationLimitError, SolverError
from .flows import PlacementTable, validate_schedule
from .model import ProblemInstance
from .objectives import ObjectiveKind, energy_cost, par
from .relaxation import (
    DEFAULT_SETTINGS,
    SolverSettings,
    par_ratio_from_peak,
    solve_relaxed,
)


@dataclass(frozen=True)
class SCRConfig:
    #: value below which extra elements (beyond the mandatory minimum) drop
    drop_threshold: float = 0.1
    #: max elements dropped per round, including the mandatory minimum
    max_drops_per_iteration: int = 1
    integral_tol: float = 1e-6
    zero_tol: float = 1e-6
    #: defaults to the total start-set size, which the loop can never exceed
    max_iterations: int | None = None
    #: deterministic single-start descent on the final schedule; fractional
    #: values rank load-flattening usefulness rather than standalone start
    #: quality, so the dropping endgame alone misses nearby better schedules
    polish: bool = True

    def __post_init__(self):
        if not 0.0 < self.drop_threshold < 1.0:
            raise ValueError("drop_threshold must lie strictly between 0 and 1")
        if self.max_drops_per_iteration < 1:
            raise ValueError("max_drops_per_iteration must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    relaxed_objective: float
    dropped: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SCRResult:
    """Bounds, the returned schedule, and the per-round history.

    upper_bound is the Boolean objective of ``schedule`` (cents for cost, the
    dimensionless ratio for PAR); lower_bound is the first round's relaxed
    optimum (converted to the PAR ratio for PAR). trace objectives stay in
    the solver's units (cents, or peak kWh).
    """

    schedule: tuple[int, ...]
    upper_bound: float
    lower_bound: float
    iterations: int
    trace: tuple[IterationRecord, ...]
    drop_history: tuple[tuple[int, int], ...]
    objective: ObjectiveKind


def _boolean_objective(
    table: PlacementTable, objective: ObjectiveKind, loads: np.ndarray
) -> float:
    if objective is ObjectiveKind.COST:
        return energy_cost(loads, table.coefficients)
    return par(loads, table.total_energy, loads.shape[0])


def polish_schedule(
    instance: ProblemInstance,
    objective: ObjectiveKind,
    schedule: Sequence[int],
    table: PlacementTable | None = None,
) -> tuple[int, ...]:
    """Deterministic coordinate descent over single-start moves.

    Users are revisited in order; each moves to its best start given the
    others (candidates in window order, strict improvement only), until a
    full pass makes no move. The result never scores worse than the input.
    All starts of one user are scored in one array expression; ``table`` may
    pass in the instance's placement table to skip rebuilding it.
    """
    if table is None:
        table = PlacementTable(instance)
    horizon = instance.horizon
    starts = list(validate_schedule(instance, schedule))
    candidates = [table.rows[n, list(s)] for n, s in enumerate(table.start_sets)]
    moved = True
    while moved:
        moved = False
        for n, rows in enumerate(candidates):
            loads = table.schedule_loads(starts)
            others = loads - table.rows[n, starts[n]]
            placed = others + rows
            if objective is ObjectiveKind.COST:
                values = (placed * placed) @ table.coefficients
            else:
                values = horizon * placed.max(axis=1) / table.total_energy
            best_s = starts[n]
            best_v = _boolean_objective(table, objective, loads)
            for s, value in zip(table.start_sets[n], values.tolist()):
                if value < best_v - 1e-12:
                    best_v, best_s = value, s
            if best_s != starts[n]:
                starts[n] = best_s
                moved = True
    return tuple(starts)


def successive_convex_relaxation(
    instance: ProblemInstance,
    objective: ObjectiveKind,
    config: SCRConfig = SCRConfig(),
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> SCRResult:
    """Compute a Boolean schedule with matching lower/upper bounds."""
    table = PlacementTable(instance)
    sets_ = table.start_sets
    max_rounds = config.max_iterations
    if max_rounds is None:
        max_rounds = sum(len(s) for s in sets_)

    dropped: set[tuple[int, int]] = set()
    drop_history: list[tuple[int, int]] = []
    trace: list[IterationRecord] = []
    lower_raw = None
    incumbent: tuple[int, ...] | None = None
    incumbent_value = np.inf
    # rounded schedules already scored: a repeat polishes to the same
    # candidate, which cannot beat the incumbent it already competed with
    scored: set[tuple[int, ...]] = set()

    for iteration in range(1, max_rounds + 1):
        solution = solve_relaxed(instance, objective, dropped, settings)
        if lower_raw is None:
            lower_raw = solution.objective_value
        flows = solution.flows

        # dropped and out-of-window flows are exact zeros, so whole rows
        # test the live flows: one entry near 1, every other near 0
        top_two = np.partition(flows, -2, axis=1)[:, -2:]
        integral = bool(
            np.all(top_two[:, 1] >= 1.0 - config.integral_tol)
            and np.all(top_two[:, 0] <= config.zero_tol)
        )

        rounded = tuple(int(s) for s in flows.argmax(axis=1))
        if (config.polish or integral) and rounded not in scored:
            # each round's rounded-and-descended schedule is a feasible
            # candidate; keep the best one seen along the whole trajectory
            scored.add(rounded)
            schedule = rounded
            if config.polish:
                schedule = polish_schedule(instance, objective, rounded, table=table)
            value = _boolean_objective(
                table, objective, table.schedule_loads(schedule)
            )
            if value < incumbent_value:
                incumbent, incumbent_value = schedule, value

        if integral:
            trace.append(IterationRecord(iteration, solution.objective_value, ()))
            lower = lower_raw
            if objective is ObjectiveKind.PAR:
                lower = par_ratio_from_peak(instance, lower_raw)
            return SCRResult(
                schedule=incumbent,
                upper_bound=float(incumbent_value),
                lower_bound=float(lower),
                iterations=iteration,
                trace=tuple(trace),
                drop_history=tuple(drop_history),
                objective=objective,
            )

        # protect the per-row maximum (lowest slot wins ties), then collect
        # droppable fractional elements
        candidates: list[tuple[float, int, int]] = []
        for n in range(instance.n_users):
            live = sorted(s for s in sets_[n] if (n, s) not in dropped)
            best_s = max(live, key=lambda s: flows[n, s])
            for s in live:
                if s == best_s:
                    continue
                value = float(flows[n, s])
                if value < 1.0 - config.integral_tol:
                    candidates.append((value, n, s))
        if not candidates:
            raise SolverError(
                "no droppable element although the solution is fractional"
            )
        candidates.sort()

        small = takewhile(lambda c: c[0] < config.drop_threshold, candidates[1:])
        drops = [candidates[0], *islice(small, config.max_drops_per_iteration - 1)]

        dropped_now = tuple((n, s) for _, n, s in drops)
        dropped.update(dropped_now)
        drop_history.extend(dropped_now)
        trace.append(IterationRecord(iteration, solution.objective_value, dropped_now))

    raise IterationLimitError(
        f"no 0/1 solution after {max_rounds} rounds; "
        f"{len(drop_history)} elements dropped"
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    n_d: int
    seed: int
    objective: str
    lower_bound: float
    upper_bound: float
    gap: float
    iterations: int
    wall_ms: float


def scr_sweep(
    n_values: Sequence[int],
    n_d_values: Sequence[int],
    seeds: Sequence[int],
    objective: ObjectiveKind,
    catalog=None,
    horizon: int = 24,
    drop_threshold: float = 0.1,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> list[SweepRow]:
    """Bound-vs-size sweep over seeded random instances.

    One row per (n, n_d, seed) in input order; the run is deterministic apart
    from the wall_ms column.
    """
    from .catalog import generate_instance

    rows: list[SweepRow] = []
    for n in n_values:
        for n_d in n_d_values:
            config = SCRConfig(
                drop_threshold=drop_threshold, max_drops_per_iteration=n_d
            )
            for seed in seeds:
                instance = generate_instance(n, seed, catalog=catalog, horizon=horizon)
                started = time.perf_counter()
                result = successive_convex_relaxation(
                    instance, objective, config, settings
                )
                wall_ms = (time.perf_counter() - started) * 1e3
                rows.append(
                    SweepRow(
                        n=n,
                        n_d=n_d,
                        seed=seed,
                        objective=objective.value,
                        lower_bound=result.lower_bound,
                        upper_bound=result.upper_bound,
                        gap=result.upper_bound - result.lower_bound,
                        iterations=result.iterations,
                        wall_ms=wall_ms,
                    )
                )
    return rows


def zero_wall_ms(rows: list[SweepRow]) -> list[SweepRow]:
    """Copy of the rows with timing zeroed, for byte-reproducible files."""
    return [replace(row, wall_ms=0.0) for row in rows]
