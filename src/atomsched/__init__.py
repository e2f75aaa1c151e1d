"""Atomic appliance load scheduling.

Schedules uninterruptible appliance operations over a wrap-around daily
horizon: a Boolean-convex flow formulation, convex relaxations providing
lower bounds, a successive-relaxation heuristic providing near-optimal
schedules (upper bounds), and an exhaustive enumeration oracle for ground
truth on small instances.
"""

from .catalog import DEFAULT_CATALOG, CatalogEntry, catalog_appliance, generate_instance
from .errors import (
    AtomschedError,
    InfeasibleFlowError,
    InvalidInstanceError,
    IterationLimitError,
    NotIntegralError,
    ParseError,
    SolverError,
    TooLargeError,
)
from .flows import (
    PlacementTable,
    flows_to_schedule,
    load_profile,
    load_profile_from_schedule,
    schedule_to_flows,
    validate_flows,
    validate_schedule,
)
from .iofmt import (
    parse_instance,
    read_instance_file,
    results_to_csv,
    results_to_json,
    serialize_instance,
    write_instance_file,
    write_results,
)
from .model import (
    Appliance,
    ProblemInstance,
    enumeration_size,
    feasible_starts,
    instance_total_energy,
    operation_range,
    start_sets,
    total_daily_energy,
    window_slots,
)
from .objectives import (
    ObjectiveKind,
    cost_gradient,
    cost_hessian,
    default_cost_coefficients,
    energy_cost,
    par,
)
from .oracle import DEFAULT_LIMIT, OracleResult, brute_force, resolve_workers
from .relaxation import (
    RelaxedSolution,
    SolverSettings,
    SolverStatus,
    par_ratio_from_peak,
    solve_relaxed,
    solve_relaxed_cost,
    solve_relaxed_par,
)
from .scr import (
    IterationRecord,
    SCRConfig,
    SCRResult,
    SweepRow,
    polish_schedule,
    scr_sweep,
    successive_convex_relaxation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
