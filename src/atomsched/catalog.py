"""Built-in appliance templates and seeded random instance generation.

The default catalog maps five common residential appliances' keys to plain
:class:`~atomsched.model.Appliance` templates of that name, in hourly slots
(horizon 24). Windows are pre-modulo index pairs, so the PHEV's 10 PM-5 AM
charging window is written 22..29. Energy levels are kWh per slot.
"""

from __future__ import annotations

import numbers
from dataclasses import replace
from typing import Mapping

import numpy as np

from .errors import InvalidInstanceError
from .model import Appliance, ProblemInstance
from .objectives import default_cost_coefficients

#: the horizon of the catalog's hourly windows and durations
CATALOG_HORIZON = 24

DEFAULT_CATALOG: Mapping[str, Appliance] = {
    template.name: template
    for template in (
        Appliance.constant("dish_washer", 0, 23, 2, 0.72),
        Appliance.constant("washing_machine_energy_star", 0, 23, 3, 0.4967),
        Appliance.constant("washing_machine_regular", 0, 23, 3, 0.6467),
        Appliance.constant("clothes_dryer", 0, 23, 4, 0.625),
        Appliance.constant("phev", 22, 29, 3, 3.3),
    )
}


def catalog_appliance(key: str, name: str | None = None) -> Appliance:
    """The catalog template ``key``, renamed to ``name`` if one is given."""
    try:
        template = DEFAULT_CATALOG[key]
    except KeyError:
        raise InvalidInstanceError(
            f"unknown catalog appliance {key!r} (have: {', '.join(sorted(DEFAULT_CATALOG))})"
        ) from None
    return replace(template, name=name or key)


def generate_instance(n_users: int, seed: int) -> ProblemInstance:
    """Draw ``n_users`` appliances uniformly (with replacement) from the catalog.

    All randomness comes from ``numpy.random.default_rng(seed)``, so the same
    (n_users, seed) always produces the identical instance, on the catalog's
    horizon with the default cost coefficients. ``n_users`` must be an
    integer >= 1 and ``seed`` one >= 0.
    """
    for name, value, least in (("n_users", n_users, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise InvalidInstanceError(f"{name} must be an integer >= {least}, got {value!r}")
    keys = list(DEFAULT_CATALOG)
    picks = np.random.default_rng(seed).integers(0, len(keys), size=n_users)
    appliances = tuple(
        catalog_appliance(keys[i], f"{keys[i]}_{k}") for k, i in enumerate(picks)
    )
    return ProblemInstance(
        CATALOG_HORIZON, appliances, default_cost_coefficients(CATALOG_HORIZON)
    )
