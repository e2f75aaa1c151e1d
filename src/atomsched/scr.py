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

from .errors import SolverError
from .flows import INTEGRAL_TOL, PlacementTable, one_hot_rows
from .model import ProblemInstance, check_count
from .objectives import ObjectiveKind, score_loads
from .relaxation import par_ratio_from_peak, solve_relaxed


#: a polish move, or a later candidate over the incumbent, must improve the
#: objective by more than this
_IMPROVEMENT = 1e-12


@dataclass(frozen=True)
class SCRConfig:
    #: value below which extra elements (beyond the mandatory minimum) drop
    drop_threshold: float = 0.1
    #: max elements dropped per round, including the mandatory minimum
    max_drops_per_iteration: int = 1

    def __post_init__(self):
        if not 0.0 < self.drop_threshold < 1.0:
            raise ValueError("drop_threshold must lie strictly between 0 and 1")
        check_count("max_drops_per_iteration", self.max_drops_per_iteration)


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


def polish_schedule(
    instance: ProblemInstance,
    objective: ObjectiveKind,
    schedule: Sequence[int],
    table: PlacementTable | None = None,
) -> tuple[int, ...]:
    """Deterministic coordinate descent over single-start moves.

    Users take turns in order; each moves to its best start given the
    others (candidates in window order, strict improvement only), until every
    user has had a turn since the last move. The result never scores worse
    than the input.
    All starts of one user are scored in one array expression; ``table`` may
    pass in the instance's placement table to skip rebuilding it. An
    objective that is not an ``ObjectiveKind`` raises ValueError.
    """
    if not isinstance(objective, ObjectiveKind):
        raise ValueError(f"unknown objective {objective!r}")
    table = PlacementTable(instance) if table is None else table.check_instance(instance)
    coeffs, energy = table.coefficients, table.total_energy
    columns = table.schedule_columns(schedule)
    user_rows, n, idle = table.user_rows(), 0, 0
    while idle < len(user_rows):
        if idle == 0:  # the loads and their value change only with a move
            loads = table.rows[columns].sum(axis=0)
            current = float(score_loads(objective, loads, coeffs, energy))
        placed = loads - table.rows[columns[n]] + user_rows[n]
        values = score_loads(objective, placed, coeffs, energy)
        best, best_v = columns[n], current
        for column, value in enumerate(values.tolist(), table.heads[n]):
            if value < best_v - _IMPROVEMENT:
                best_v, best = value, column
        idle = 0 if best != columns[n] else idle + 1
        columns[n] = best
        n = (n + 1) % len(user_rows)
    return tuple(table.starts[columns].tolist())


def _leading_starts(flows: np.ndarray) -> np.ndarray:
    """Per row, the lowest start slot within INTEGRAL_TOL of the row maximum."""
    return (flows >= flows.max(axis=1, keepdims=True) - INTEGRAL_TOL).argmax(axis=1)


def _select_drops(
    table: PlacementTable, flows: np.ndarray, live: np.ndarray, config: SCRConfig,
) -> tuple[tuple[int, int], ...]:
    """One round's drops, by the rule in the module docstring, from relaxed
    flows solved over the ``live`` columns: zero off them, so each row's
    leading element is live."""
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
) -> SCRResult:
    """Compute a Boolean schedule with matching lower/upper bounds.

    A round that is not integral drops at least one live column, and
    :func:`_select_drops` raises SolverError when none is droppable, so the
    loop ends within m - N + 1 rounds (m flow columns, N users).
    """
    table = PlacementTable(instance)
    live = table.live(())  # _select_drops' mask of the undropped columns

    drop_history: list[tuple[int, int]] = []
    trace: list[IterationRecord] = []
    incumbent: tuple[int, ...] | None = None
    incumbent_value = np.inf
    # rounded schedules already scored: a repeat polishes to the same
    # candidate, which cannot beat the incumbent it already competed with
    scored: set[tuple[int, ...]] = set()

    while True:
        solution = solve_relaxed(instance, objective, drop_history, table=table)
        flows = solution.flows

        # dropped and out-of-window flows are exact zeros, so whole rows
        # test the live flows
        integral = bool(one_hot_rows(flows).all())

        rounded = tuple(_leading_starts(flows).tolist())
        if rounded not in scored:
            # each round's rounded-and-descended schedule is a feasible
            # candidate; keep the best one seen along the whole trajectory
            scored.add(rounded)
            schedule = polish_schedule(instance, objective, rounded, table=table)
            value = score_loads(
                objective, table.schedule_loads(schedule), table.coefficients,
                table.total_energy,
            )
            if value < incumbent_value - _IMPROVEMENT:
                incumbent, incumbent_value = schedule, value

        dropped_now = () if integral else _select_drops(table, flows, live, config)
        live &= table.live(dropped_now)
        drop_history.extend(dropped_now)
        trace.append(IterationRecord(len(trace) + 1, solution.objective_value, dropped_now))
        if integral:
            break

    lower = trace[0].relaxed_objective  # the first round's relaxed optimum
    if objective is ObjectiveKind.PAR:
        lower = par_ratio_from_peak(instance, lower)
    return SCRResult(
        schedule=incumbent,
        upper_bound=float(incumbent_value),
        lower_bound=float(lower),
        iterations=len(trace),
        trace=tuple(trace),
        drop_history=tuple(drop_history),
        objective=objective,
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
    drop_threshold: float = SCRConfig.drop_threshold,
) -> list[SweepRow]:
    """Bound-vs-size sweep over ``generate_instance`` draws from the default
    catalog.

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
