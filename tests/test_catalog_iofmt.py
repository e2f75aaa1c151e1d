import json
import math
import os
import re

import pytest

import atomsched as a
from atomsched.errors import InvalidInstanceError, ParseError
from atomsched.iofmt import RESULTS_CSV_HEADER
from atomsched.scr import SweepRow


def test_catalog_has_the_five_standard_templates():
    expected = {
        "dish_washer": (0, 23, 2, 0.72),
        "washing_machine_energy_star": (0, 23, 3, 0.4967),
        "washing_machine_regular": (0, 23, 3, 0.6467),
        "clothes_dryer": (0, 23, 4, 0.625),
        "phev": (22, 29, 3, 3.3),
    }
    assert set(a.DEFAULT_CATALOG) == set(expected)
    for key, (alpha, beta, duration, level) in expected.items():
        appl = a.catalog_appliance(key)
        assert (appl.window_start, appl.window_end, appl.duration) == (
            alpha,
            beta,
            duration,
        )
        assert appl.energy_pattern == (level,) * duration


def test_catalog_unknown_key():
    with pytest.raises(InvalidInstanceError):
        a.catalog_appliance("toaster")


def test_generate_instance_is_deterministic():
    first = a.generate_instance(3, 42)
    second = a.generate_instance(3, 42)
    assert first == second
    assert a.serialize_instance(first) == a.serialize_instance(second)
    assert first != a.generate_instance(3, 43)


def test_generate_instance_uniformity():
    inst = a.generate_instance(1000, 2024)
    counts = {}
    for appl in inst.appliances:
        key = appl.name.rsplit("_", 1)[0]
        counts[key] = counts.get(key, 0) + 1
    expected = 1000 / 5
    sigma = math.sqrt(1000 * 0.2 * 0.8)
    for key in a.DEFAULT_CATALOG:
        assert abs(counts.get(key, 0) - expected) <= 3 * sigma


def test_generate_instance_errors():
    with pytest.raises(InvalidInstanceError):
        a.generate_instance(0, 1)


@pytest.mark.parametrize(
    "n_users, seed", [(2.5, 1), (True, 1), (3, 2.5), (3, -1), (3, True), (3, False)]
)
def test_generate_instance_rejects_non_integer_sizes_and_seeds(n_users, seed):
    with pytest.raises(InvalidInstanceError, match="must be an integer"):
        a.generate_instance(n_users, seed)


def test_default_catalog_requires_hourly_horizon():
    inst = a.generate_instance(3, 1)
    assert inst.horizon == 24
    assert inst.cost_coefficients == a.default_cost_coefficients(24)


def test_catalog_reference_requires_hourly_horizon():
    doc = {"version": 1, "horizon": 96, "appliances": [{"catalog": "phev"}]}
    with pytest.raises(ParseError, match=r"appliances\[0\].*horizon 96"):
        a.parse_instance(json.dumps(doc))
    doc["horizon"] = 24
    assert a.parse_instance(json.dumps(doc)).appliances[0].window_start == 22


def test_round_trip_generated_instances():
    for seed in (1, 7, 19):
        inst = a.generate_instance(4, seed)
        assert a.parse_instance(a.serialize_instance(inst)) == inst


def test_parse_catalog_reference():
    doc = json.dumps(
        {"version": 1, "horizon": 24, "appliances": [{"catalog": "phev"}]}
    )
    inst = a.parse_instance(doc)
    appl = inst.appliances[0]
    assert (appl.window_start, appl.window_end, appl.duration) == (22, 29, 3)
    assert appl.energy_pattern == (3.3, 3.3, 3.3)
    # omitted coefficients fall back to the two-tier defaults
    assert inst.cost_coefficients == a.default_cost_coefficients(24)


def test_parse_tiered_coefficients():
    doc = json.dumps(
        {
            "version": 1,
            "horizon": 24,
            "cost_coefficients": {"0-7": 0.2, "8-23": 0.3},
            "appliances": [{"catalog": "dish_washer"}],
        }
    )
    inst = a.parse_instance(doc)
    assert inst.cost_coefficients == a.default_cost_coefficients(24)


def test_parse_validation_error_cites_rule():
    doc = json.dumps(
        {
            "version": 1,
            "horizon": 24,
            "appliances": [
                {
                    "name": "broken",
                    "window_start": 0,
                    "window_end": 2,
                    "duration": 4,
                    "level": 1.0,
                }
            ],
        }
    )
    with pytest.raises(ParseError, match="window_end must be >= window_start"):
        a.parse_instance(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(surprise=1), "unknown field"),
        (lambda d: d.update(version=2), "unsupported version"),
        (lambda d: d.pop("horizon"), "horizon"),
        (lambda d: d.update(appliances=[]), "non-empty appliance list"),
        (
            lambda d: d["appliances"].append({"catalog": "phev", "duration": 3}),
            "cannot also set",
        ),
        (
            lambda d: d["appliances"].append({"name": "x", "window_start": 0}),
            "missing field",
        ),
        (
            lambda d: d.update(cost_coefficients={"0-7": 0.2}),
            "not covered",
        ),
        (
            lambda d: d.update(cost_coefficients={"0-7": 0.2, "7-23": 0.3}),
            "covered twice",
        ),
        (
            lambda d: d.update(cost_coefficients=[0.2] * 23),
            "expected 24 per-slot values",
        ),
    ],
)
def test_parse_rejections(mutate, message):
    doc = {
        "version": 1,
        "horizon": 24,
        "appliances": [{"catalog": "dish_washer"}],
    }
    mutate(doc)
    with pytest.raises(ParseError, match=message):
        a.parse_instance(json.dumps(doc))


INLINE = {"name": "dw", "window_start": 0, "window_end": 23, "duration": 2, "level": 0.72}
PATTERNED = {**{k: v for k, v in INLINE.items() if k != "level"}, "energy_pattern": 0.72}


def _doc(**changes):
    return {"version": 1, "horizon": 24, "appliances": [{"catalog": "dish_washer"}], **changes}


@pytest.mark.parametrize(
    "doc, location, message",
    [
        (_doc(cost_coefficients=[0.2] * 23 + ["0.3"]), "cost_coefficients", "expected a number"),
        (_doc(cost_coefficients={"0-23": "x"}), "cost_coefficients['0-23']", "expected a number"),
        (_doc(appliances=[dict(INLINE, duration=2.0)]), "appliances[0].duration",
         "expected an integer"),
        # a level repeated this many times cannot be allocated
        (_doc(appliances=[dict(INLINE, window_end=5, duration=10**12)]),
         "appliances[0].duration", "dw: window [0, 5] is shorter than duration 1000000000000"),
        # and so is a window past the horizon that holds the duration
        (_doc(appliances=[dict(INLINE, window_end=10**5, duration=10**5)]),
         "appliances[0].window_end", "dw: window_end must be in [1, 46], got 100000"),
        (_doc(appliances=[dict(INLINE, window_start=30, window_end=40)]),
         "appliances[0].window_start", "dw: window_start must be in [0, 23], got 30"),
        (_doc(cost_coefficients={"night": 0.2}), "cost_coefficients",
         "tier key 'night' is not of the form 'lo-hi'"),
        (_doc(cost_coefficients={"0-24": 0.2}), "cost_coefficients",
         "tier '0-24' outside slots 0..23"),
        (_doc(cost_coefficients=0.2), "cost_coefficients",
         "must be a per-slot list or a tier mapping"),
        (_doc(appliances=["dish_washer"]), "appliances[0]", "appliance entry must be an object"),
        (_doc(appliances=[{"catalog": "toaster"}]), "appliances[0]",
         "unknown catalog appliance 'toaster'"),
        (_doc(appliances=[dict(INLINE, energy_pattern=[0.36, 0.36])]), "appliances[0]",
         "give exactly one of 'level' or 'energy_pattern'"),
        (_doc(appliances=[PATTERNED]), "appliances[0]", "energy_pattern must be a list"),
        (_doc(appliances=[dict(INLINE, level=0)]), "appliances[0]",
         "dw: every energy_pattern level must be finite and > 0"),
        ([_doc()], "document", "document root must be an object"),
        (_doc(horizon="24"), "horizon", "horizon must be an integer"),
        # rejected before a default price is built for each of its slots
        (_doc(horizon=10**6, appliances=[INLINE]), "horizon",
         "horizon must be in [2, 1440], got 1000000"),
        (_doc(cost_coefficients=[-0.2] * 24), "document",
         "cost coefficients must be finite and >= 0"),
    ],
    ids=["coefficient", "tier-value", "duration", "oversized-duration", "oversized-window",
         "window-start", "tier-key", "tier-span",
         "coefficients-type", "appliance-type", "catalog-key", "level-and-pattern", "pattern-type",
         "zero-level", "root", "horizon", "huge-horizon", "instance"],
)
def test_parse_error_locates_each_defect(doc, location, message):
    with pytest.raises(ParseError, match=re.escape(f"{location}: {message}")) as info:
        a.parse_instance(json.dumps(doc))
    assert info.value.location == location


@pytest.mark.parametrize("name", [["x"], 5, None])
@pytest.mark.parametrize(
    "appliance",
    [
        {"catalog": "phev"},
        {"window_start": 0, "window_end": 23, "duration": 2, "level": 0.72},
    ],
    ids=["catalog", "inline"],
)
def test_appliance_name_must_be_a_string(appliance, name):
    """One rule in both branches: a list name used to reach the solver and
    fail there, and an int name parsed to a value that did not round-trip."""
    doc = {"version": 1, "horizon": 24, "appliances": [dict(appliance, name=name)]}
    with pytest.raises(ParseError, match=r"appliances\[0\]\.name: expected a string"):
        a.parse_instance(json.dumps(doc))


def test_catalog_key_must_be_a_string():
    doc = {"version": 1, "horizon": 24, "appliances": [{"catalog": ["phev"]}]}
    with pytest.raises(ParseError, match=r"appliances\[0\]\.catalog: expected a string"):
        a.parse_instance(json.dumps(doc))


def test_parse_syntax_error_is_positioned():
    with pytest.raises(ParseError, match=r"line \d+ column \d+"):
        a.parse_instance("{\n  \"version\": 1,\n}")


def test_instance_file_round_trip(tmp_path):
    inst = a.generate_instance(3, 5)
    path = str(tmp_path / "inst.json")
    a.write_instance_file(inst, path)
    assert a.read_instance_file(path) == inst
    assert not os.path.exists(path + ".tmp")


def _rows():
    return [
        SweepRow(2, 1, 1, "cost", 0.123456789012345, 0.2, 0.076543210987655, 7, 12.5),
        SweepRow(3, 5, 2, "par", 1.0, 4.8, 3.8, 11, 0.0),
    ]


def test_results_csv_layout():
    text = a.results_to_csv(_rows())
    lines = text.strip().split("\n")
    assert lines[0] == RESULTS_CSV_HEADER == "n,n_d,seed,objective,lb,ub,gap,iterations,wall_ms"
    assert lines[1:] == ["2,1,1,cost,0.123456789012,0.2,0.0765432109877,7,12.5",
                         "3,5,2,par,1,4.8,3.8,11,0"]


def test_results_csv_json_numeric_agreement():
    rows = _rows()
    csv_lines = a.results_to_csv(rows).strip().split("\n")[1:]
    json_rows = json.loads(a.results_to_json(rows))
    for line, jrow in zip(csv_lines, json_rows):
        parts = line.split(",")
        assert float(parts[4]) == jrow["lb"]
        assert float(parts[5]) == jrow["ub"]
        assert float(parts[6]) == jrow["gap"]
        assert int(parts[7]) == jrow["iterations"]
        assert float(parts[8]) == jrow["wall_ms"]
    assert json_rows[1] == {"n": 3, "n_d": 5, "seed": 2, "objective": "par", "lb": 1.0,
                            "ub": 4.8, "gap": 3.8, "iterations": 11, "wall_ms": 0.0}


def test_write_results_atomic(tmp_path):
    path = str(tmp_path / "out.csv")
    a.write_results(_rows(), path, fmt="csv")
    assert open(path).read() == a.results_to_csv(_rows())
    assert not os.path.exists(path + ".tmp")
    a.write_results(_rows(), path, fmt="json")
    assert open(path).read() == a.results_to_json(_rows())
    with pytest.raises(ValueError):
        a.write_results(_rows(), path, fmt="xml")


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    from atomsched.iofmt import atomic_write_text

    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        atomic_write_text(str(path), 12345)  # not text: the write itself fails
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_atomic_writers_to_one_path_do_not_collide(tmp_path, monkeypatch):
    from atomsched.iofmt import atomic_write_text

    path = str(tmp_path / "out.csv")
    replace = os.replace
    nested = []

    def replace_after_second_writer(src, dst):
        # the first writer's rename waits until a second writer to the same
        # path has finished a whole write
        if not nested:
            nested.append(src)
            atomic_write_text(path, "second\n")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_second_writer)
    atomic_write_text(path, "first\n")
    assert open(path).read() == "first\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    mode = os.stat(path).st_mode & 0o777
    umask = os.umask(0)
    os.umask(umask)
    assert mode == 0o666 & ~umask
