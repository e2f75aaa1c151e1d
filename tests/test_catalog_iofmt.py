import json
import math
import os

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
    with pytest.raises(InvalidInstanceError):
        a.generate_instance(2, 1, catalog={})


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
    assert lines[1].startswith("2,1,1,cost,")
    assert len(lines) == 3


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


def test_write_results_atomic(tmp_path):
    path = str(tmp_path / "out.csv")
    a.write_results(_rows(), path, fmt="csv")
    assert open(path).read() == a.results_to_csv(_rows())
    assert not os.path.exists(path + ".tmp")
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
