"""Every config number is read by one rule: a finite JSON number, integral for counts.

A string or a boolean where a number belongs exits 1 (or raises InputError)
with a message that names the key, through the command line and the API.
"""

import json

import pytest

import qgeom as qg
from qgeom.cli import main

SPIN = {"builtin": "spin_half", "mu_times_b": 1.0}
EVOLVE = {"schedule": {"theta": "1.0", "phi": "t"}, "t0": 0.0, "t1": 0.1, "dt": 0.01,
          "initial": {"level": 1}}
DISTANCE = {"level": 1, "samples": 21, "path": {"theta": "s", "phi": "0.1"}}
CHECK = {"level": 1, "point": {"theta": 1.0, "phi": 0.3}}


def _sphere(**surface):
    return {"level": 1, "surface": {"closure": "sphere", "shape": [8, 8], **surface}}


@pytest.mark.parametrize("model, command, block, key", [
    (SPIN, "evolve", {**EVOLVE, "dt": "0.01"}, "'dt'"),
    (SPIN, "evolve", {**EVOLVE, "t1": True}, "'t1'"),
    (SPIN, "distance", {**DISTANCE, "samples": "21"}, "'samples'"),
    ({"builtin": "spin_half", "mu_times_b": "1.0"}, "check", CHECK, "'mu_times_b'"),
    ({"builtin": "spin_half", "mu_times_b": True}, "check", CHECK, "'mu_times_b'"),
    (SPIN, "check", {"level": 1, "point": {"theta": "1.0"}}, "'theta'"),
    (SPIN, "check", {**CHECK, "h": True}, "'h'"),
    (SPIN, "chern", {"level": 1, "surface": {"closure": "open", "shape": [4, 4],
                                             "mu_range": ["0.5", "1.0"], "nu_range": [0, 1]}},
     "'mu_range'"),
    (SPIN, "chern", _sphere(shape=[8.9, 8]), "'shape'"),
    (SPIN, "chern", _sphere(shape=["8", "8"]), "'shape'"),
    (SPIN, "chern", _sphere(polar=False, azimuth="phi"), "'polar'"),
], ids=["dt-string", "t1-bool", "samples-string", "builtin-string", "builtin-bool",
        "point-string", "h-bool", "mu-range-strings", "shape-fraction", "shape-strings",
        "polar-bool"])
def test_a_number_given_as_another_type_exits_1_naming_its_key(
    tmp_path, capsys, model, command, block, key
):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": model, command: block}))
    out = tmp_path / "out.csv"
    code = main([command, "--config", str(cfg), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and key in err, err
    assert not out.exists()


def test_a_fractional_sphere_shape_is_an_input_error(spin_model):
    with pytest.raises(qg.InputError, match=r"^grid 'shape' must be an integer, not 8\.9$"):
        qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (8.9, 8))


def test_a_boolean_parameter_index_is_an_input_error(spin_model):
    with pytest.raises(qg.InputError, match="'polar'.*has no parameter False"):
        qg.SurfaceGrid.sphere(spin_model, False, "phi", (8, 8))


def test_a_boolean_model_dim_is_an_input_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "m", "dim": True, "parameters": ["x"],
                                "terms": [{"matrix": [[[1, 0]]], "coeff": "x"}]}))
    with pytest.raises(qg.InputError, match=r"'dim' must be an integer, not True$"):
        qg.load_model_spec(path)


@pytest.mark.parametrize("value", ["0.01", True, float("inf"), 10**400],
                         ids=["string", "bool", "inf", "huge"])
def test_the_number_reader_rejects_non_numbers(value):
    with pytest.raises(qg.InputError, match=r"^'x' must be a finite number, not "):
        qg.numerics.real_number(value, "'x'")
