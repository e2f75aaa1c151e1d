"""Successive convex relaxation: solve, drop small fractional flows, repeat.

Each round solves the current relaxation, stops if every user's flow row is
already one-hot, and otherwise drops (permanently zeroes out) a batch of small
fractional variables among the flow columns still live before re-solving:

* each row's leading element, its lowest start slot within INTEGRAL_TOL of
  the row maximum, is protected,
* remaining elements below 1 - INTEGRAL_TOL are sorted ascending by value,
  values within INTEGRAL_TOL of the smallest counting as equal to it (ties by
  user then start slot), so last-bit rounding cannot pick the first drop,
* the smallest is always dropped; further elements follow while they stay
  below ``drop_threshold`` and the per-round budget ``max_drops_per_iteration``
  is not exhausted.

The first round's relaxed optimum is a valid lower bound on the Boolean
optimum. For the upper bound, every round's solution is rounded to a feasible
schedule (each row's leading element) and refined by deterministic coordinate
descent; the best candidate seen along the trajectory is returned, replaced
only by one better by more than polish's move margin. Rounding alone is
unreliable because fractional values rank a start's usefulness for flattening
the *relaxed* load, not its standalone cost. A round whose rounded schedule
was already refined earlier in the run reuses that result, which has already
competed for the incumbent, instead of descending again. Every choice is
deterministic, so identical inputs reproduce identical runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import IterationLimitError, SolverError
from .flows import INTEGRAL_TOL, PlacementTable, one_hot_rows, validate_schedule
from .model import ProblemInstance
from .objectives import ObjectiveKind, energy_cost, par
from .relaxation import (
    DEFAULT_SETTINGS,
    SolverSettings,
    par_ratio_from_peak,
    solve_relaxed,
)


#: a polish move, or a later candidate over the incumbent, must improve the
#: objective by more than this
_IMPROVEMENT = 1e-12


@dataclass(frozen=True)
class SCRConfig:
    #: value below which extra elements (beyond the mandatory minimum) drop
    drop_threshold: float = 0.1
    #: max elements dropped per round, including the mandatory minimum
    max_drops_per_iteration: int = 1
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
                if value < best_v - _IMPROVEMENT:
                    best_v, best_s = value, s
            if best_s != starts[n]:
                starts[n] = best_s
                moved = True
    return tuple(starts)


def _leading_starts(flows: np.ndarray) -> np.ndarray:
    """Per row, the lowest start slot within INTEGRAL_TOL of the row maximum."""
    return (flows >= flows.max(axis=1, keepdims=True) - INTEGRAL_TOL).argmax(axis=1)


def _select_drops(
    table: PlacementTable, flows: np.ndarray, dropped: Sequence[tuple[int, int]],
    config: SCRConfig,
) -> tuple[tuple[int, int], ...]:
    """One round's drops, by the rule in the module docstring, from relaxed
    flows solved under ``dropped``: zero off the live columns, so each row's
    leading element is live."""
    live = table.live(dropped)
    users, starts = table.users[live], table.starts[live]
    values = flows[users, starts]
    protected = _leading_starts(flows)[users] == starts
    droppable = ~protected & (values < 1.0 - INTEGRAL_TOL)
    if not droppable.any():
        raise SolverError("no droppable element although the solution is fractional")
    users, starts, values = users[droppable], starts[droppable], values[droppable]
    smallest = values.min()
    values = np.where(values <= smallest + INTEGRAL_TOL, smallest, values)
    order = np.lexsort((starts, users, values))
    small = np.count_nonzero(values[order[1:]] < config.drop_threshold)
    order = order[: 1 + min(small, config.max_drops_per_iteration - 1)]
    return tuple(zip(users[order].tolist(), starts[order].tolist()))


def successive_convex_relaxation(
    instance: ProblemInstance,
    objective: ObjectiveKind,
    config: SCRConfig = SCRConfig(),
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> SCRResult:
    """Compute a Boolean schedule with matching lower/upper bounds."""
    table = PlacementTable(instance)
    max_rounds = config.max_iterations
    if max_rounds is None:
        max_rounds = len(table.users)

    drop_history: list[tuple[int, int]] = []
    trace: list[IterationRecord] = []
    lower_raw = None
    incumbent: tuple[int, ...] | None = None
    incumbent_value = np.inf
    # rounded schedules already scored: a repeat polishes to the same
    # candidate, which cannot beat the incumbent it already competed with
    scored: set[tuple[int, ...]] = set()

    for iteration in range(1, max_rounds + 1):
        solution = solve_relaxed(instance, objective, drop_history, settings)
        if lower_raw is None:
            lower_raw = solution.objective_value
        flows = solution.flows

        # dropped and out-of-window flows are exact zeros, so whole rows
        # test the live flows
        integral = bool(one_hot_rows(flows).all())

        rounded = tuple(_leading_starts(flows).tolist())
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
            if value < incumbent_value - _IMPROVEMENT:
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

        dropped_now = _select_drops(table, flows, drop_history, config)
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
    drop_threshold: float = 0.1,
) -> list[SweepRow]:
    """Bound-vs-size sweep over ``generate_instance`` draws from the default
    catalog, solved with the default solver settings.

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
                instance = generate_instance(n, seed)
                started = time.perf_counter()
                result = successive_convex_relaxation(instance, objective, config)
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
