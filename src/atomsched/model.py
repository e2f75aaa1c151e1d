"""Core scheduling model: appliances, problem instances, and start sets.

A day is divided into ``horizon`` equal slots numbered ``0 .. horizon-1``,
at most ``MAX_HORIZON`` (one-minute slots); all slot arithmetic wraps around
the day boundary (modulo ``horizon``).
An appliance operation is atomic: it occupies ``duration`` contiguous slots
with a fixed per-slot energy pattern and cannot be split or throttled.

The scheduling window is given as a pre-modulo index pair
``(window_start, window_end)`` with ``window_end`` allowed to exceed
``horizon - 1`` so that windows spanning midnight (e.g. 10 PM-5 AM) stay
contiguous before the modulo is applied.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInstanceError


#: one-minute slots: a finer horizon would give different starts the same clock time
MAX_HORIZON = 24 * 60


def validate_horizon(horizon: int) -> None:
    """Raise InvalidInstanceError unless ``horizon`` is an integer (any
    non-bool ``numbers.Integral``, as for an appliance's window) in
    [2, ``MAX_HORIZON``]."""
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral):
        raise InvalidInstanceError(f"horizon must be an integer, got {horizon!r}")
    if not 2 <= horizon <= MAX_HORIZON:
        raise InvalidInstanceError(f"horizon must be in [2, {MAX_HORIZON}], got {horizon}")


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class Appliance:
    """One atomic appliance operation and the window it must fit in.

    energy_pattern holds the kWh drawn in each of the ``duration`` operating
    slots, in operation order. Constant-level appliances are the special case
    of a repeated value; see :meth:`constant`.
    """

    name: str
    window_start: int
    window_end: int
    duration: int
    energy_pattern: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidInstanceError(f"name must be a string, got {self.name!r}")
        object.__setattr__(
            self, "energy_pattern", tuple(float(g) for g in self.energy_pattern)
        )
        for key in ("window_start", "window_end", "duration"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidInstanceError(
                    f"{self.name}: {key} must be an integer, got {value!r}"
                )
            # a plain int, so that the appliance serializes as JSON
            object.__setattr__(self, key, int(value))
        if self.duration < 1:
            raise InvalidInstanceError(f"{self.name}: duration must be >= 1")
        if len(self.energy_pattern) != self.duration:
            raise InvalidInstanceError(
                f"{self.name}: energy_pattern has {len(self.energy_pattern)} "
                f"entries, expected duration={self.duration}"
            )
        if any(not math.isfinite(g) or g <= 0.0 for g in self.energy_pattern):
            raise InvalidInstanceError(
                f"{self.name}: every energy_pattern level must be finite and > 0"
            )
        if self.window_end <= self.window_start:
            raise InvalidInstanceError(
                f"{self.name}: window_end must exceed window_start "
                f"(got {self.window_start}..{self.window_end})"
            )
        check_duration_fits(self.name, self.window_start, self.window_end, self.duration)

    @classmethod
    def constant(
        cls, name: str, window_start: int, window_end: int, duration: int, level: float
    ) -> "Appliance":
        """Appliance drawing the same energy ``level`` in every operating slot."""
        return cls(name, window_start, window_end, duration, (level,) * duration)


def check_duration_fits(name: str, window_start: int, window_end: int, duration: int) -> None:
    """Raise InvalidInstanceError unless ``duration`` slots fit in the window."""
    if window_end < window_start + duration - 1:
        raise InvalidInstanceError(
            f"{name}: window [{window_start}, {window_end}] is shorter than duration "
            f"{duration} (window_end must be >= window_start + duration - 1)"
        )


def window_defect(window_start: int, window_end: int, horizon: int) -> tuple[str, str] | None:
    """The field at fault and what is wrong with it, or None when the window
    [window_start, window_end] fits a day of ``horizon`` slots."""
    if not 0 <= window_start <= horizon - 1:
        return "window_start", f"window_start must be in [0, {horizon - 1}], got {window_start}"
    if not 1 <= window_end <= 2 * horizon - 2:
        return "window_end", f"window_end must be in [1, {2 * horizon - 2}], got {window_end}"
    if window_end - window_start > horizon - 1:
        return "window_end", (
            f"window spans {window_end - window_start + 1} slots, "
            f"more than the horizon allows (max {horizon})"
        )
    return None


@dataclass(frozen=True)
class ProblemInstance:
    """A scheduling problem: horizon, appliances, and per-slot cost coefficients.

    ``cost_coefficients[h]`` is the quadratic price coefficient for slot h in
    cent/kWh^2 (the slot's cost is ``a_h * load_h**2``).
    """

    horizon: int
    appliances: tuple[Appliance, ...]
    cost_coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "appliances", tuple(self.appliances))
        object.__setattr__(
            self, "cost_coefficients", tuple(float(a) for a in self.cost_coefficients)
        )
        validate_horizon(self.horizon)
        # a plain int, so that the instance serializes as JSON
        object.__setattr__(self, "horizon", int(self.horizon))
        if not self.appliances:
            raise InvalidInstanceError("instance needs at least one appliance")
        for appliance in self.appliances:
            defect = window_defect(appliance.window_start, appliance.window_end, self.horizon)
            if defect:
                raise InvalidInstanceError(f"{appliance.name}: {defect[1]}")
        if len(self.cost_coefficients) != self.horizon:
            raise InvalidInstanceError(
                f"need {self.horizon} cost coefficients, got {len(self.cost_coefficients)}"
            )
        if any(not math.isfinite(a) or a < 0.0 for a in self.cost_coefficients):
            raise InvalidInstanceError("cost coefficients must be finite and >= 0")

    @property
    def n_users(self) -> int:
        return len(self.appliances)


def instance_total_energy(instance: ProblemInstance) -> float:
    """Total kWh all appliances draw over one full operation each."""
    return float(sum(sum(a.energy_pattern) for a in instance.appliances))


@lru_cache(maxsize=256)
def start_sets(instance: ProblemInstance) -> tuple[tuple[int, ...], ...]:
    """Feasible start tuple for every appliance, in user order: all slots
    where the operation can begin and still fit in its window.

    Ordered by the pre-modulo index, so a window spanning midnight yields
    e.g. (22, 23, 0, 1, ...) rather than sorted slot order.
    """
    horizon = instance.horizon
    return tuple(
        tuple(i % horizon for i in range(a.window_start, a.window_end - a.duration + 2))
        for a in instance.appliances
    )


def enumeration_size(instance: ProblemInstance) -> int:
    """Exact number of joint schedules, as an arbitrary-precision integer."""
    size = 1
    for starts in start_sets(instance):
        size *= len(starts)
    return size
