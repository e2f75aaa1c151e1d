"""Versioned JSON instance documents and benchmark result tables.

Instance document (version 1)::

    {
      "version": 1,
      "horizon": 24,
      "cost_coefficients": [0.2, ...]          // per-slot list, or
      "cost_coefficients": {"0-7": 0.2, "8-23": 0.3},   // inclusive tiers
      "appliances": [
        {"catalog": "phev"},                   // template, optional "name"
        {"name": "dw", "window_start": 0, "window_end": 23,
         "duration": 2, "level": 0.72}         // or "energy_pattern": [...]
      ]
    }

Unknown fields are rejected; error messages point at the offending location.
Result tables hold one row per solver run; CSV and JSON renderings carry the
same numeric values to 12 significant digits. File writes go through a
temporary file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Mapping, Sequence

from .catalog import DEFAULT_CATALOG, CatalogEntry, catalog_appliance
from .errors import InvalidInstanceError, ParseError
from .model import Appliance, ProblemInstance
from .objectives import default_cost_coefficients
from .scr import SweepRow

INSTANCE_FORMAT_VERSION = 1

RESULTS_CSV_HEADER = "n,n_d,seed,objective,lb,ub,gap,iterations,wall_ms"

_APPLIANCE_KEYS = {
    "catalog",
    "name",
    "window_start",
    "window_end",
    "duration",
    "level",
    "energy_pattern",
}
_TOP_KEYS = {"version", "horizon", "cost_coefficients", "appliances"}


def format_number(value: float) -> str:
    return f"{value:.12g}"


def _require_keys(obj: dict, allowed: set, location: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)}", location)


def _as_number(value, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", location)
    return float(value)


def _as_int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", location)
    return value


def _parse_coefficients(raw, horizon: int) -> tuple[float, ...]:
    if raw is None:
        return default_cost_coefficients(horizon)
    if isinstance(raw, list):
        if len(raw) != horizon:
            raise ParseError(
                f"expected {horizon} per-slot values, got {len(raw)}",
                "cost_coefficients",
            )
        return tuple(_as_number(a, "cost_coefficients") for a in raw)
    if isinstance(raw, dict):
        coeffs = [None] * horizon
        for span, value in raw.items():
            try:
                lo_text, hi_text = span.split("-")
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ParseError(
                    f"tier key {span!r} is not of the form 'lo-hi'",
                    "cost_coefficients",
                ) from None
            if not 0 <= lo <= hi < horizon:
                raise ParseError(
                    f"tier {span!r} outside slots 0..{horizon - 1}",
                    "cost_coefficients",
                )
            level = _as_number(value, f"cost_coefficients[{span!r}]")
            for h in range(lo, hi + 1):
                if coeffs[h] is not None:
                    raise ParseError(f"slot {h} covered twice", "cost_coefficients")
                coeffs[h] = level
        missing = [h for h, a in enumerate(coeffs) if a is None]
        if missing:
            raise ParseError(f"slot {missing[0]} not covered", "cost_coefficients")
        return tuple(coeffs)
    raise ParseError("must be a per-slot list or a tier mapping", "cost_coefficients")


def _parse_appliance(raw, index: int, catalog: Mapping[str, CatalogEntry]) -> Appliance:
    location = f"appliances[{index}]"
    if not isinstance(raw, dict):
        raise ParseError("appliance entry must be an object", location)
    _require_keys(raw, _APPLIANCE_KEYS, location)
    if "catalog" in raw:
        extra = set(raw) - {"catalog", "name"}
        if extra:
            raise ParseError(
                f"catalog reference cannot also set {sorted(extra)}", location
            )
        try:
            return catalog_appliance(
                raw["catalog"], raw.get("name"), catalog=catalog
            )
        except InvalidInstanceError as exc:
            raise ParseError(str(exc), location) from None
    for key in ("name", "window_start", "window_end", "duration"):
        if key not in raw:
            raise ParseError(f"missing field {key!r}", location)
    if ("level" in raw) == ("energy_pattern" in raw):
        raise ParseError(
            "give exactly one of 'level' or 'energy_pattern'", location
        )
    duration = _as_int(raw["duration"], f"{location}.duration")
    if "level" in raw:
        pattern = (_as_number(raw["level"], f"{location}.level"),) * duration
    else:
        if not isinstance(raw["energy_pattern"], list):
            raise ParseError("energy_pattern must be a list", location)
        pattern = tuple(
            _as_number(g, f"{location}.energy_pattern") for g in raw["energy_pattern"]
        )
    try:
        return Appliance(
            str(raw["name"]),
            _as_int(raw["window_start"], f"{location}.window_start"),
            _as_int(raw["window_end"], f"{location}.window_end"),
            duration,
            pattern,
        )
    except InvalidInstanceError as exc:
        raise ParseError(str(exc), location) from None


def parse_instance(
    text: str, catalog: Mapping[str, CatalogEntry] | None = None
) -> ProblemInstance:
    """Parse an instance document, or raise a ParseError locating the defect."""
    catalog = DEFAULT_CATALOG if catalog is None else catalog
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} column {exc.colno}") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", "document")
    _require_keys(doc, _TOP_KEYS, "document")
    version = doc.get("version")
    if version != INSTANCE_FORMAT_VERSION:
        raise ParseError(
            f"unsupported version {version!r} (expected {INSTANCE_FORMAT_VERSION})",
            "version",
        )
    if "horizon" not in doc:
        raise ParseError("missing field 'horizon'", "document")
    horizon = doc["horizon"]
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise ParseError("horizon must be an integer", "horizon")
    raw_appliances = doc.get("appliances")
    if not isinstance(raw_appliances, list) or not raw_appliances:
        raise ParseError("need a non-empty appliance list", "appliances")
    appliances = tuple(
        _parse_appliance(raw, i, catalog) for i, raw in enumerate(raw_appliances)
    )
    coefficients = _parse_coefficients(doc.get("cost_coefficients"), horizon)
    try:
        return ProblemInstance(horizon, appliances, coefficients)
    except InvalidInstanceError as exc:
        raise ParseError(str(exc), "document") from None


def serialize_instance(instance: ProblemInstance) -> str:
    """Render an instance as a version-1 document; inverse of parse_instance."""
    doc = {
        "version": INSTANCE_FORMAT_VERSION,
        "horizon": instance.horizon,
        "cost_coefficients": list(instance.cost_coefficients),
        "appliances": [
            {
                "name": a.name,
                "window_start": a.window_start,
                "window_end": a.window_end,
                "duration": a.duration,
                "energy_pattern": list(a.energy_pattern),
            }
            for a in instance.appliances
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write through a private temporary file beside ``path``, then rename it
    over ``path``; on any error the temporary file is removed."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    umask = os.umask(0)
    os.umask(umask)
    try:
        # mkstemp creates the file owner-only; give it a plain open()'s mode
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_instance_file(
    path: str, catalog: Mapping[str, CatalogEntry] | None = None
) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read(), catalog=catalog)


def write_instance_file(instance: ProblemInstance, path: str) -> None:
    atomic_write_text(path, serialize_instance(instance))


def results_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [RESULTS_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    str(r.n),
                    str(r.n_d),
                    str(r.seed),
                    r.objective,
                    format_number(r.lower_bound),
                    format_number(r.upper_bound),
                    format_number(r.gap),
                    str(r.iterations),
                    format_number(r.wall_ms),
                )
            )
        )
    return "\n".join(lines) + "\n"


def results_to_json(rows: Sequence[SweepRow]) -> str:
    payload = [
        {
            "n": r.n,
            "n_d": r.n_d,
            "seed": r.seed,
            "objective": r.objective,
            "lb": float(format_number(r.lower_bound)),
            "ub": float(format_number(r.upper_bound)),
            "gap": float(format_number(r.gap)),
            "iterations": r.iterations,
            "wall_ms": float(format_number(r.wall_ms)),
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def write_results(rows: Sequence[SweepRow], path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        atomic_write_text(path, results_to_csv(rows))
    elif fmt == "json":
        atomic_write_text(path, results_to_json(rows))
    else:
        raise ValueError(f"unknown results format {fmt!r}")
