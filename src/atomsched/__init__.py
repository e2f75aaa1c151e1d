"""Atomic appliance load scheduling.

Schedules uninterruptible appliance operations over a wrap-around daily
horizon: a Boolean-convex flow formulation, convex relaxations providing
lower bounds, a successive-relaxation heuristic providing near-optimal
schedules (upper bounds), and an exhaustive enumeration oracle for ground
truth on small instances.
"""

from .catalog import DEFAULT_CATALOG, catalog_appliance, generate_instance
from .errors import (
    AtomschedError,
    InfeasibleFlowError,
    InvalidInstanceError,
    ParseError,
    SolverError,
    TooLargeError,
)
from .flows import PlacementTable
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
    instance_total_energy,
    start_sets,
)
from .objectives import (
    ObjectiveKind,
    cost_gradient,
    cost_hessian,
    default_cost_coefficients,
)
from .oracle import DEFAULT_LIMIT, OracleResult, brute_force, resolve_workers
from .relaxation import RelaxedSolution, par_ratio_from_peak, solve_relaxed
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
