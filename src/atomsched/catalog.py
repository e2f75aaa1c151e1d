"""Built-in appliance templates and seeded random instance generation.

The default catalog holds five common residential appliances with hourly
slots (horizon 24). Windows are pre-modulo index pairs, so the PHEV's
10 PM-5 AM charging window is written 22..29. Energy levels are kWh per slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidInstanceError
from .model import Appliance, ProblemInstance
from .objectives import default_cost_coefficients


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    window_start: int
    window_end: int
    duration: int
    energy_pattern: tuple[float, ...]

    @classmethod
    def constant(cls, key, window_start, window_end, duration, level):
        return cls(key, window_start, window_end, duration, (level,) * duration)

    def appliance(self, name: str | None = None) -> Appliance:
        return Appliance(
            name or self.key,
            self.window_start,
            self.window_end,
            self.duration,
            self.energy_pattern,
        )


DEFAULT_CATALOG: Mapping[str, CatalogEntry] = {
    entry.key: entry
    for entry in (
        CatalogEntry.constant("dish_washer", 0, 23, 2, 0.72),
        CatalogEntry.constant("washing_machine_energy_star", 0, 23, 3, 0.4967),
        CatalogEntry.constant("washing_machine_regular", 0, 23, 3, 0.6467),
        CatalogEntry.constant("clothes_dryer", 0, 23, 4, 0.625),
        CatalogEntry.constant("phev", 22, 29, 3, 3.3),
    )
}


def catalog_appliance(
    key: str, name: str | None = None, catalog: Mapping[str, CatalogEntry] | None = None
) -> Appliance:
    catalog = DEFAULT_CATALOG if catalog is None else catalog
    try:
        entry = catalog[key]
    except KeyError:
        raise InvalidInstanceError(
            f"unknown catalog appliance {key!r} (have: {', '.join(sorted(catalog))})"
        ) from None
    return entry.appliance(name)


def check_catalog_horizon(catalog: Mapping[str, CatalogEntry], horizon: int) -> None:
    """The default catalog's windows and durations are in hourly slots."""
    if catalog is DEFAULT_CATALOG and horizon != 24:
        raise InvalidInstanceError(
            f"the default catalog has hourly slots (horizon 24), got horizon {horizon}"
        )


def generate_instance(
    n_users: int,
    seed: int,
    catalog: Mapping[str, CatalogEntry] | None = None,
    horizon: int = 24,
    cost_coefficients=None,
) -> ProblemInstance:
    """Draw ``n_users`` appliances uniformly (with replacement) from the catalog.

    All randomness comes from ``numpy.random.default_rng(seed)``, so the same
    (n_users, seed, catalog) always produces the identical instance. The
    default catalog's windows and durations are in hourly slots, so it only
    accepts horizon 24.
    """
    catalog = DEFAULT_CATALOG if catalog is None else catalog
    check_catalog_horizon(catalog, horizon)
    if n_users < 1:
        raise InvalidInstanceError(f"n_users must be >= 1, got {n_users}")
    if not catalog:
        raise InvalidInstanceError("catalog is empty")
    keys = list(catalog)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(keys), size=n_users)
    appliances = tuple(
        catalog[keys[i]].appliance(f"{keys[i]}_{k}") for k, i in enumerate(picks)
    )
    if cost_coefficients is None:
        cost_coefficients = default_cost_coefficients(horizon)
    return ProblemInstance(horizon, appliances, tuple(cost_coefficients))
