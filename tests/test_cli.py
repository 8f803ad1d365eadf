import json

import numpy as np
import pytest

from qgeom import cli
from qgeom.cli import main


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPIN = {"builtin": "spin_half", "mu_times_b": 1.0}


class TestChernCommand:
    def test_spin_half_sphere_json(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "chern": {"level": 1, "surface": {"closure": "sphere", "polar": "theta",
                                              "azimuth": "phi", "shape": [24, 24]}},
        })
        out = tmp_path / "chern.json"
        code, _, err = _run(capsys, "chern", "--config", str(cfg),
                            "--output", str(out), "--format", "json")
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert abs(doc["data"]["chern"] - (-1.0)) < 1e-9
        assert abs(doc["data"]["monopole_charge"] - 0.5) < 1e-9
        assert doc["meta"]["tool"] == "qgeom"
        assert "cos(theta/2)" in doc["meta"]["conventions"]
        assert len(doc["meta"]["config_sha256"]) == 64

        plaq = out.with_name(out.name + ".plaquettes.csv")
        lines = [l for l in plaq.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "row,col,flux"
        assert len(lines) - 1 == 25 * 24  # interior rows plus two cap rows

    def test_csv_summary_format(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "chern": {"level": 1, "surface": {"closure": "sphere", "shape": [16, 16]}},
        })
        out = tmp_path / "chern.csv"
        code, _, _ = _run(capsys, "chern", "--config", str(cfg), "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("version" in l for l in meta)
        assert any("config_sha256" in l for l in meta)
        table = [l for l in lines if not l.startswith("#")]
        assert table[0].startswith("chern,total_flux,residue,monopole_charge")
        chern = float(table[1].split(",")[0])
        assert abs(chern + 1.0) < 1e-9

    def test_lower_band_sign(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "chern": {"level": 0, "surface": {"closure": "sphere", "shape": [16, 16]}},
        })
        out = tmp_path / "c.json"
        code, _, _ = _run(capsys, "chern", "--config", str(cfg),
                          "--output", str(out), "--format", "json")
        assert code == 0
        assert abs(json.loads(out.read_text())["data"]["chern"] - 1.0) < 1e-9

    def test_model_from_file(self, tmp_path, capsys):
        def c(re, im=0.0):
            return [re, im]

        model_doc = {
            "name": "file spin",
            "dim": 2,
            "parameters": ["theta", "phi"],
            "terms": [
                {"matrix": [[c(0), c(1)], [c(1), c(0)]], "coeff": "sin(theta)*cos(phi)"},
                {"matrix": [[c(0), c(0, -1)], [c(0, 1), c(0)]], "coeff": "sin(theta)*sin(phi)"},
                {"matrix": [[c(1), c(0)], [c(0), c(-1)]], "coeff": "cos(theta)"},
            ],
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_doc))
        cfg = _write_config(tmp_path, {
            "model": str(model_path),
            "chern": {"level": 1, "surface": {"closure": "sphere", "shape": [16, 16]}},
        })
        out = tmp_path / "c.json"
        code, _, _ = _run(capsys, "chern", "--config", str(cfg),
                          "--output", str(out), "--format", "json")
        assert code == 0
        assert abs(json.loads(out.read_text())["data"]["chern"] + 1.0) < 1e-9


class TestGridCommand:
    def test_rows_and_determinism(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "grid": {"level": 1, "axes": {"theta": [0.3, 2.8, 5], "phi": [0.0, 3.0, 4]}},
        })
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(capsys, "grid", "--config", str(cfg), "--output", str(out1))[0] == 0
        assert _run(capsys, "grid", "--config", str(cfg), "--output", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

        lines = out1.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "theta,phi,g_00,g_01,g_11,f_01,min_gap"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 20
        # row-major: phi varies fastest; 17 significant digits round-trip
        first = dict(zip(header.split(","), rows[0].split(",")))
        assert float(first["theta"]) == 0.3
        assert float(first["g_00"]) == pytest.approx(0.25, abs=1e-12)
        assert float(first["min_gap"]) == pytest.approx(2.0, abs=1e-12)

    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        base = {
            "model": SPIN,
            "grid": {"level": 1, "axes": {"theta": [0.3, 2.8, 6], "phi": [0.0, 3.0, 5]}},
        }
        cfg1 = _write_config(tmp_path, base, "c1.json")
        out1 = tmp_path / "w1.csv"
        assert _run(capsys, "grid", "--config", str(cfg1), "--output", str(out1))[0] == 0
        cfg4 = _write_config(tmp_path, dict(base, workers=4), "c4.json")
        out4 = tmp_path / "w4.csv"
        assert _run(capsys, "grid", "--config", str(cfg4), "--output", str(out4))[0] == 0
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert strip(out1) == strip(out4)

    def test_level_crossing_exits_2_with_coordinates(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": {"builtin": "two_band_lattice", "mass": 2.0},
            "grid": {"level": 0, "axes": {"kx": [0.0, 6.283185307179586, 5],
                                          "ky": [0.0, 6.283185307179586, 5]}},
        })
        out = tmp_path / "grid.csv"
        code, _, err = _run(capsys, "grid", "--config", str(cfg), "--output", str(out))
        assert code == 2
        assert "lambda" in err and "3.14" in err
        assert not out.exists()  # partial output removed on failure


class TestFixedParameters:
    def test_grid_over_subset_with_fixed_value(self, tmp_path, capsys):
        def c(re, im=0.0):
            return [re, im]

        model_doc = {
            "name": "three knob",
            "dim": 2,
            "parameters": ["kx", "ky", "b"],
            "terms": [
                {"matrix": [[c(0), c(1)], [c(1), c(0)]], "coeff": "sin(kx)"},
                {"matrix": [[c(0), c(0, -1)], [c(0, 1), c(0)]], "coeff": "sin(ky)"},
                {"matrix": [[c(1), c(0)], [c(0), c(-1)]], "coeff": "b + cos(kx) + cos(ky)"},
            ],
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_doc))
        cfg = _write_config(tmp_path, {
            "model": str(model_path),
            "grid": {"level": 0, "axes": {"kx": [0.5, 2.5, 3], "ky": [0.5, 2.5, 3]},
                     "fixed": {"b": 1.0}},
        })
        out = tmp_path / "grid.csv"
        code, _, err = _run(capsys, "grid", "--config", str(cfg), "--output", str(out))
        assert code == 0, err
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[:3] == ["kx", "ky", "b"]
        assert len(lines) - 1 == 9
        for row in lines[1:]:
            assert float(dict(zip(header, row.split(",")))["b"]) == 1.0

    def test_fixed_and_gridded_conflict(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "grid": {"level": 1, "axes": {"theta": [0, 1, 2]},
                     "fixed": {"theta": 0.5}},
        })
        code, _, err = _run(capsys, "grid", "--config", str(cfg))
        assert code == 1 and "both fixed and gridded" in err


@pytest.mark.parametrize("command, block, needle", [
    ("grid", {"level": 1, "axes": {"theta": [0, 1, 2]}, "fixed": ["phi"]}, "grid: 'fixed'"),
    ("grid", {"level": 1, "axes": {"theta": [0, 1, 2]}, "fixed": {"phi": [1]}}, "'phi'"),
    ("chern", {"level": 1, "surface": {"closure": "sphere", "fixed": 3}}, "surface 'fixed'"),
    ("chern", {"level": 1, "surface": {"closure": "sphere", "fixed": {"phi": None}}}, "'phi'"),
    ("check", {"level": 1, "point": [1.0, 0.3]}, "check: 'point'"),
    ("check", {"level": 1, "point": {"theta": "abc", "phi": 0.3}}, "'theta'"),
], ids=["grid-list", "grid-value", "chern-number", "chern-value", "check-list", "check-value"])
def test_malformed_parameter_mapping_is_a_validation_error(
    tmp_path, capsys, command, block, needle
):
    cfg = _write_config(tmp_path, {"model": SPIN, command: block})
    code, _, err = _run(capsys, command, "--config", str(cfg),
                        "--output", str(tmp_path / "out.csv"))
    assert code == 1 and needle in err


@pytest.mark.parametrize("command, block", [
    ("distance", {"level": 1, "path": ["theta", "phi"]}),
    ("evolve", {"schedule": ["theta", "phi"], "t0": 0.0, "t1": 0.1, "dt": 0.01,
                "initial": {"level": 1}}),
], ids=["distance", "evolve"])
def test_curve_given_as_a_list_is_a_validation_error(tmp_path, capsys, command, block):
    cfg = _write_config(tmp_path, {"model": SPIN, command: block})
    code, _, err = _run(capsys, command, "--config", str(cfg),
                        "--output", str(tmp_path / "out.csv"))
    assert code == 1 and "must map parameter names" in err


EVOLVE = {"schedule": {"theta": "1.0", "phi": "t"}, "t0": 0.0, "t1": 0.1, "dt": 0.01,
          "initial": {"level": 1}}


@pytest.mark.parametrize("model, command, block, needle", [
    (SPIN, "evolve", {**EVOLVE, "t0": "abc"}, "'t0'"),
    (SPIN, "evolve", {**EVOLVE, "t0": float("nan")}, "'t0'"),
    (SPIN, "evolve", {**EVOLVE, "initial": {"level": 5}}, "'initial': level must be"),
    (SPIN, "grid", {"level": 1, "axes": {"theta": [0, 1, "3"]}}, "'theta'"),
    (SPIN, "distance", {"level": 1, "samples": "x",
                        "path": {"theta": "s", "phi": "0.1"}}, "'samples'"),
    ({"builtin": "spin_half", "mu_times_b": "big"}, "check",
     {"level": 1, "point": {"theta": 1.0}}, "'mu_times_b'"),
    (SPIN, "chern", {"level": 1, "surface": {"closure": "sphere", "shape": [4]}}, "'shape'"),
    (SPIN, "chern", {"level": 1, "surface": {"closure": "sphere", "polar": 5}}, "parameter 5"),
    (SPIN, "chern", {"level": 1, "surface": {"closure": "torus", "nu": [1]}}, "parameter [1]"),
    (SPIN, "check", {"level": True, "point": {"theta": 1.0}}, "check: level must be"),
    (SPIN, "distance", {"level": 1, "path": {"theta": 3, "phi": "s"}},
     "'theta': expression must be a string, not int"),
], ids=["evolve-t0", "evolve-t0-nan", "evolve-initial-level", "grid-axis",
        "distance-samples", "builtin-field", "chern-shape", "chern-polar-index",
        "chern-nu-list", "check-level-bool", "distance-path-number"])
def test_malformed_config_value_is_a_validation_error(
    tmp_path, capsys, model, command, block, needle
):
    cfg = _write_config(tmp_path, {"model": model, command: block})
    code, _, err = _run(capsys, command, "--config", str(cfg),
                        "--output", str(tmp_path / "out.csv"))
    assert code == 1 and needle in err


HUGE = 10**400  # a JSON integer no float can hold


@pytest.mark.parametrize("model, command, block, needle", [
    ("model.json", "grid", {"level": 0, "axes": {"x": [0, 1, 3]}}, "term 0: entry (0,1)"),
    (SPIN, "grid", {"level": 0, "axes": {"theta": [0, 1, HUGE]}}, "axis 'theta'"),
    (SPIN, "grid", {"level": 0, "axes": {"theta": [HUGE, 1, 3]}}, "axis 'theta'"),
    (SPIN, "evolve", {**EVOLVE, "initial": {"amplitudes": [[HUGE, 0], [0, 0]]}},
     "'amplitudes'"),
], ids=["model-matrix-entry", "grid-axis-count", "grid-axis-start", "evolve-amplitude"])
def test_oversized_integer_is_a_validation_error(tmp_path, capsys, model, command, block, needle):
    _write_config(tmp_path, {"name": "m", "dim": 2, "parameters": ["x"], "terms": [
        {"matrix": [[[0, 0], [HUGE, 0]], [[HUGE, 0], [0, 0]]], "coeff": "x"}]}, "model.json")
    if model == "model.json":
        model = str(tmp_path / model)
    cfg = _write_config(tmp_path, {"model": model, command: block})
    code, _, err = _run(capsys, command, "--config", str(cfg),
                        "--output", str(tmp_path / "out.csv"))
    assert code == 1 and needle in err


def test_chern_on_a_torus_that_does_not_close_is_a_validation_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": {"builtin": "two_band_lattice", "mass": 1.0},
        "chern": {"level": 0, "surface": {"closure": "torus", "shape": [12, 12],
                                          "mu_range": [0.0, 5.026548245743669]}},
    })
    out = tmp_path / "chern.csv"
    code, _, err = _run(capsys, "chern", "--config", str(cfg), "--output", str(out))
    assert code == 1 and "not closed along 'kx'" in err
    assert not out.exists()


def test_chern_on_a_torus_over_two_periods_is_a_validation_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": {"builtin": "two_band_lattice", "mass": 1.0},
        "chern": {"level": 0, "surface": {"closure": "torus", "shape": [24, 24],
                                          "nu_range": [0.0, 4 * np.pi]}},
    })
    out = tmp_path / "chern.csv"
    code, _, err = _run(capsys, "chern", "--config", str(cfg), "--output", str(out))
    assert code == 1 and "more than once along 'ky'" in err and "1/2 of the range" in err
    assert not out.exists()


def test_chern_on_a_one_parameter_model_is_a_validation_error(tmp_path, capsys):
    model = tmp_path / "one.json"
    model.write_text(json.dumps({"name": "one", "dim": 2, "parameters": ["x"], "terms": [
        {"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "coeff": "x"}]}))
    cfg = _write_config(tmp_path, {"model": str(model), "chern": {"level": 0, "surface": {}}})
    code, _, err = _run(capsys, "chern", "--config", str(cfg),
                        "--output", str(tmp_path / "chern.csv"))
    assert code == 1 and "has no parameter None" in err


class TestDistanceCommand:
    def test_meridian_angle(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "distance": {"level": 1, "samples": 101,
                         "path": {"theta": "3.141592653589793*s", "phi": "0.1"}},
        })
        out = tmp_path / "d.csv"
        code, _, _ = _run(capsys, "distance", "--config", str(cfg), "--output", str(out))
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "length,angle,endpoint_fidelity_angle"
        length, angle, end_angle = (float(x) for x in lines[1].split(","))
        assert angle == pytest.approx(np.pi, abs=1e-8)
        assert length == pytest.approx(np.pi / 2, abs=1e-8)
        assert end_angle == pytest.approx(np.pi, abs=1e-6)


    def test_json_table_format(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "distance": {"level": 1, "samples": 51,
                         "path": {"theta": "3.141592653589793*s", "phi": "0.1"}},
        })
        out = tmp_path / "d.json"
        code, _, _ = _run(capsys, "distance", "--config", str(cfg),
                          "--output", str(out), "--format", "json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["data"][0]["angle"] == pytest.approx(np.pi, abs=1e-8)


class TestEvolveCommand:
    def test_precession_table(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "evolve": {
                "schedule": {"theta": "0", "phi": "0"},
                "t0": 0.0, "t1": 0.2, "dt": 0.001,
                "initial": {"amplitudes": [[0.7071067811865476, 0.0],
                                           [0.7071067811865476, 0.0]]},
                "level": 1,
            },
        })
        out = tmp_path / "evolve.csv"
        code, _, _ = _run(capsys, "evolve", "--config", str(cfg), "--output", str(out))
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["t", "energy_mean", "delta_e", "theta_rate_measured",
                          "theta_rate_aa", "ratio", "ratio_exact_zero", "leakage"]
        assert len(lines) - 1 == 200
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["delta_e"]) == pytest.approx(1.0, abs=1e-9)
        assert float(row["theta_rate_measured"]) == pytest.approx(2.0, abs=1e-6)
        assert row["ratio_exact_zero"] == "1"  # static schedule tags the 0/0 case

    def test_eigenstate_initial_level(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "evolve": {
                "schedule": {"theta": "1.5707963267948966", "phi": "0.1*t"},
                "t0": 0.0, "t1": 1.0, "dt": 0.01,
                "initial": {"level": 1},
            },
        })
        out = tmp_path / "evolve.csv"
        code, _, _ = _run(capsys, "evolve", "--config", str(cfg), "--output", str(out))
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["leakage"]) <= 1e-10


class TestCheckCommand:
    def test_cross_method_report(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "check": {"level": 1, "point": {"theta": 1.0471975511965976, "phi": 0.4},
                      "h": 1e-4},
        })
        out = tmp_path / "check.json"
        code, _, _ = _run(capsys, "check", "--config", str(cfg),
                          "--output", str(out), "--format", "json")
        assert code == 0
        doc = json.loads(out.read_text())
        slopes = doc["data"]["slopes"]
        assert 1.8 <= slopes["projector"] <= 2.2
        assert 1.8 <= slopes["overlap_metric"] <= 2.2
        for entry in doc["data"]["entries"]:
            assert entry["dev_projector"] <= 1e-6
            assert entry["dev_overlap"] <= 1e-6


class TestValidation:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = _run(capsys, "chern", "--config", str(tmp_path / "nope.json"))
        assert code == 1 and "error" in err

    def test_block_must_match_command(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"model": SPIN, "grid": {"level": 1, "axes": {}}})
        code, _, err = _run(capsys, "chern", "--config", str(cfg))
        assert code == 1 and "does not match" in err

    def test_exactly_one_block(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "grid": {"level": 1, "axes": {"theta": [0, 1, 2]}},
            "chern": {"level": 1, "surface": {}},
        })
        code, _, err = _run(capsys, "grid", "--config", str(cfg))
        assert code == 1 and "exactly one" in err

    def test_unknown_builtin(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": {"builtin": "mystery"},
            "chern": {"level": 1, "surface": {}},
        })
        code, _, err = _run(capsys, "chern", "--config", str(cfg))
        assert code == 1 and "mystery" in err

    def test_bad_level(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "model": SPIN,
            "chern": {"level": 5, "surface": {"closure": "sphere"}},
        })
        code, _, err = _run(capsys, "chern", "--config", str(cfg))
        assert code == 1 and "level" in err

    def test_usage_error_is_validation(self, capsys):
        code = main(["chern"])  # no --config
        capsys.readouterr()
        assert code == 1

    def test_malformed_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = _run(capsys, "grid", "--config", str(path))
        assert code == 1 and "JSON" in err


@pytest.mark.parametrize("command, block, needle", [
    ("evolve", {**EVOLVE, "level": 1.7}, "evolve: level must be"),
    ("evolve", {**EVOLVE, "level": True}, "evolve: level must be"),
    ("distance", {"level": 1, "samples": 2.5, "path": {"theta": "s", "phi": "0.1"}},
     "'samples' must be an integer"),
    ("grid", {"level": 1, "axes": {"theta": [0.1, 1, 2.5]}}, "'theta'"),
    ("grid", {"level": 1, "axes": {"theta": [0.1, 1, True]}}, "'theta'"),
], ids=["evolve-level-fraction", "evolve-level-bool", "distance-samples-fraction",
        "grid-count-fraction", "grid-count-bool"])
def test_integer_config_value_must_be_integral(tmp_path, capsys, command, block, needle):
    cfg = _write_config(tmp_path, {"model": SPIN, command: block})
    out = tmp_path / "out.csv"
    code, _, err = _run(capsys, command, "--config", str(cfg), "--output", str(out))
    assert code == 1 and needle in err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_matches_a_per_value_reference(tmp_path, fmt):
    # more rows than one formatting chunk, so a chunk seam lies inside the table
    n = 2 * cli.CHUNK_ROWS + 7
    rng = np.random.default_rng(8)
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1, 1e17]
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    for start in (0, cli.CHUNK_ROWS - 4, n - len(special)):
        values[start:start + len(special)] = special
    columns = {
        "flag": [bool(v) for v in rng.integers(0, 2, n)],
        "np_flag": rng.integers(0, 2, n).astype(np.bool_),
        "count": [int(v) for v in rng.integers(-10**15, 10**15, n)],
        "np_count": rng.integers(-2**62, 2**62, n, dtype=np.int64),
        "value": values,
        "integral": rng.integers(-1000, 1000, n).astype(float),
    }
    names = list(columns)
    meta = {"tool": "qgeom", "note": "a, b"}
    rows = list(zip(*columns.values()))

    def csv_value(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g")

    def json_value(v):
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        return float(v)

    if fmt == "csv":
        lines = [f"# {k}: {v}" for k, v in meta.items()] + [",".join(names)]
        lines += [",".join(csv_value(v) for v in row) for row in rows]
        expected = "\n".join(lines) + "\n"
    else:
        data = [dict(zip(names, map(json_value, row))) for row in rows]
        expected = json.dumps({"meta": meta, "data": data}, indent=2) + "\n"
    path, written = tmp_path / f"table.{fmt}", []
    cli._write_table(path, fmt, meta, names, list(columns.values()), written)
    assert written == [path]
    assert path.read_text() == expected
