import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from _pytest.assertion import util as assertion_util

from qgeom import cli, dynamics, qgt
from qgeom.cli import main
from qgeom.model import load_model_spec, two_band_lattice
from qgeom.qgt import DEFAULT_FD_STEP, qgt_overlap_fd, qgt_projector_fd, qgt_sum_over_states
from conftest import pytest_assertrepr_compare, random_trig_model


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

    def test_fixed_parameter_between_swept_ones(self, tmp_path, capsys):
        def c(re, im=0.0):
            return [re, im]

        model_doc = {
            "name": "fixed in the middle",
            "dim": 2,
            "parameters": ["kx", "b", "ky"],
            "terms": [
                {"matrix": [[c(0), c(1)], [c(1), c(0)]], "coeff": "sin(kx)"},
                {"matrix": [[c(0), c(0, -1)], [c(0, 1), c(0)]], "coeff": "sin(ky)*b"},
                {"matrix": [[c(1), c(0)], [c(0), c(-1)]], "coeff": "b + cos(kx) + cos(ky)"},
            ],
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_doc))
        axes = {"kx": [0.5, 2.5, 3], "ky": [0.2, 1.2, 2]}
        texts = []
        # a fixed parameter and a one-value axis holding its value give the same table
        blocks = {"fixed": {"axes": axes, "fixed": {"b": 1.25}},
                  "swept": {"axes": dict(axes, b=[1.25, 1.25, 1])}}
        for name, block in blocks.items():
            cfg = _write_config(tmp_path, {"model": str(model_path),
                                           "grid": {"level": 0, **block}}, f"{name}.json")
            out = tmp_path / f"{name}.csv"
            code, _, err = _run(capsys, "grid", "--config", str(cfg), "--output", str(out))
            assert code == 0, err
            texts.append([l for l in out.read_text().splitlines() if "config_sha256" not in l])
        assert texts[0] == texts[1]

        lines = [l for l in texts[0] if not l.startswith("#")]
        assert lines[0] == "kx,b,ky,g_00,g_01,g_02,g_11,g_12,g_22,f_01,f_02,f_12,min_gap"
        points = [(kx, 1.25, ky) for kx in np.linspace(0.5, 2.5, 3) for ky in (0.2, 1.2)]
        assert [row.split(",")[:3] for row in lines[1:]] == \
            [["%.17g" % v for v in lam] for lam in points]
        model = load_model_spec(str(model_path))
        (gi, gj), (fi, fj) = np.triu_indices(3), np.triu_indices(3, 1)
        for row, lam in zip(lines[1:], points):
            q = qgt_sum_over_states(model, lam, 0).matrix
            expected = [*q.real[gi, gj], *(-2.0 * q.imag[fi, fj])]
            assert np.allclose([float(v) for v in row.split(",")[3:-1]], expected,
                               rtol=1e-12, atol=1e-14)

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
    ("check", {"level": 1, "point": {"psi": 1.0}}, "check: 'point': unknown parameter 'psi'"),
], ids=["grid-list", "grid-value", "chern-number", "chern-value", "check-list", "check-value",
        "check-unknown-name"])
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
    (SPIN, "grid", {"level": 1}, "grid block needs 'axes'"),
    (SPIN, "grid", {"level": 1, "axes": [[0, 1, 2]]}, "grid: 'axes' must map parameter names"),
    (SPIN, "grid", {"level": 1, "axes": {"psi": [0, 1, 2]}}, "grid: unknown parameters ['psi']"),
    (SPIN, "chern", {"level": 1, "surface": [24, 24]}, "chern: 'surface' must be an object"),
    (SPIN, "chern", {"level": 1, "surface": {"closure": "open", "mu_range": [0, 1]}},
     "chern: open surfaces need mu_range and nu_range"),
    (SPIN, "chern", {"level": 1, "surface": {"closure": "cube"}},
     "chern: unknown closure 'cube'"),
    (SPIN, "evolve", {**EVOLVE, "initial": {}}, "evolve: 'initial' needs 'level' or 'amplitudes'"),
    (SPIN, "evolve", {**EVOLVE, "initial": {"amplitudes": [[1, 0], [0, 0]]}},
     "evolve: 'level' is required when starting from amplitudes"),
], ids=["evolve-t0", "evolve-t0-nan", "evolve-initial-level", "grid-axis",
        "distance-samples", "builtin-field", "chern-shape", "chern-polar-index",
        "chern-nu-list", "check-level-bool", "distance-path-number", "grid-no-axes",
        "grid-axes-list", "grid-unknown-axis", "chern-surface-list", "chern-open-no-ranges",
        "chern-unknown-closure", "evolve-initial-empty", "evolve-amplitudes-no-level"])
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


GRID = {"level": 1, "axes": {"theta": [0, 1, 2]}}


@pytest.mark.parametrize("doc, needle", [
    ([{"model": SPIN, "grid": GRID}], "config top level must be an object"),
    ({"model": SPIN, "grid": [GRID]}, "config block 'grid' must be an object"),
    ({"model": SPIN, "grid": GRID, "format": "xml"}, "unknown output format 'xml'"),
    ({"grid": GRID}, "config needs 'model'"),
], ids=["top-level-list", "block-list", "unknown-format", "no-model"])
def test_malformed_config_document_is_a_validation_error(tmp_path, capsys, doc, needle):
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    code, _, err = _run(capsys, "grid", "--config", str(cfg), "--output", str(out))
    assert code == 1 and needle in err
    assert not out.exists()


def test_output_in_a_missing_directory_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    cfg = _write_config(tmp_path, {"model": SPIN, "grid": GRID, "output": str(out)})
    code, _, err = _run(capsys, "grid", "--config", str(cfg))
    assert code == 1
    assert err == f"error: cannot write {out}: No such file or directory\n"


def test_unwritable_chern_summary_removes_the_plaquette_file(tmp_path, capsys):
    out = tmp_path / "summary"
    out.mkdir()
    cfg = _write_config(tmp_path, {
        "model": SPIN, "chern": {"level": 1, "surface": {"closure": "sphere", "shape": [8, 8]}},
    })
    code, _, err = _run(capsys, "chern", "--config", str(cfg), "--output", str(out))
    assert code == 1 and f"cannot write {out}: Is a directory" in err
    assert sorted(tmp_path.iterdir()) == sorted([cfg, out]) and out.is_dir()


def test_a_file_the_run_could_not_open_is_not_removed(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    cfg = _write_config(tmp_path, {"model": SPIN, "grid": GRID})
    opened = cli.Path.open

    def refuse(path, *args, **kwargs):
        if path == out:
            raise PermissionError(13, "Permission denied")
        return opened(path, *args, **kwargs)

    monkeypatch.setattr(cli.Path, "open", refuse)
    code, _, err = _run(capsys, "grid", "--config", str(cfg), "--output", str(out))
    monkeypatch.undo()
    assert code == 1 and f"cannot write {out}: Permission denied" in err
    assert out.read_text() == "kept\n"


def test_a_file_that_cannot_be_removed_is_left_quietly(tmp_path, capsys, monkeypatch):
    out = tmp_path / "summary"
    out.mkdir()
    cfg = _write_config(tmp_path, {
        "model": SPIN, "chern": {"level": 1, "surface": {"closure": "sphere", "shape": [8, 8]}},
    })

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.Path, "unlink", refuse)
    code, _, err = _run(capsys, "chern", "--config", str(cfg), "--output", str(out))
    monkeypatch.undo()
    assert (code, err) == (1, f"error: cannot write {out}: Is a directory\n")


def test_ambiguous_plaquette_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": {"builtin": "two_band_lattice", "mass": 1.0},
        "chern": {"level": 0, "surface": {"closure": "torus", "shape": [3, 3]}},
    })
    out = tmp_path / "chern.csv"
    code, _, err = _run(capsys, "chern", "--config", str(cfg), "--output", str(out))
    assert code == 2 and "plaquette (1, 1)" in err and err.endswith("grid too coarse\n")
    assert sorted(tmp_path.iterdir()) == [cfg]


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


@pytest.mark.parametrize("command, block", [
    ("grid", {"level": 1, "axes": {"theta": [0.1, 3, 200], "phi": [0, 6, 200]}}),
    ("chern", {"level": 1, "surface": {"closure": "sphere", "shape": [200, 200]}}),
])
def test_points_past_physical_memory_exit_1_before_any_allocation(tmp_path, capsys,
                                                                  monkeypatch, command, block):
    # 40,000 points of 7 doubles each (spin_half: 2 parameters and 2 levels) are 2.24 MB
    monkeypatch.setattr(dynamics, "_physical_memory", lambda: 2**20)
    cfg = _write_config(tmp_path, {"model": SPIN, command: block})
    out = tmp_path / "out.csv"
    code, _, err = _run(capsys, command, "--config", str(cfg), "--output", str(out))
    assert code == 1 and list(tmp_path.iterdir()) == [cfg]
    assert err == (f"error: {command}: 40000 points need 0.00209 GiB, more than the "
                   "0.000977 GiB of physical memory; use fewer points\n")


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
    def test_a_step_count_past_physical_memory_exits_1_and_writes_nothing(self, tmp_path,
                                                                           capsys):
        cfg = _write_config(tmp_path, {"model": SPIN,
                                       "evolve": {**EVOLVE, "t1": 1e12, "dt": 1e-3}})
        out = tmp_path / "evolve.csv"
        code, _, err = _run(capsys, "evolve", "--config", str(cfg), "--output", str(out))
        assert code == 1 and not out.exists()
        assert err.startswith("error: 1000000000000000 steps need ")
        assert err.endswith(" GiB of physical memory; use a larger dt or a shorter span\n")

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_slope_undefined_when_an_error_is_zero(self, tmp_path, capsys, fmt):
        # every overlap-route metric error is exactly 0 at the origin, so its
        # order cannot be fitted: no NaN, no warning
        model = tmp_path / "cubic.json"
        model.write_text(json.dumps({
            "name": "cubic", "dim": 2, "parameters": ["x", "y"],
            "terms": [{"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "coeff": "x*x*x"},
                      {"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "coeff": "1 + y"}],
        }))
        cfg = _write_config(tmp_path, {
            "model": str(model), "check": {"level": 0, "point": {"x": 0, "y": 0}},
        })
        out = tmp_path / f"check.{fmt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(capsys, "check", "--config", str(cfg),
                                "--output", str(out), "--format", fmt)
        assert code == 0, err
        text = out.read_text()
        if fmt == "csv":
            assert "# slope_overlap_metric: undefined\n" in text
            return

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(text, parse_constant=reject)
        assert doc["data"]["slopes"]["overlap_metric"] is None
        assert doc["meta"]["slope_overlap_metric"] == "undefined"

    # the check point of the benchmark's lattice workload at seed 3
    LATTICE_POINT = {"kx": -1.355904077240047, "ky": 0.9333496289465204}

    def _run_lattice_check(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"model": {"builtin": "two_band_lattice", "mass": 1.0},
                                       "check": {"level": 0, "point": self.LATTICE_POINT}})
        out = tmp_path / "check.csv"
        code, _, err = _run(capsys, "check", "--config", str(cfg), "--output", str(out))
        return code, err, out

    def test_a_route_that_does_not_converge_exits_2_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        # Q conjugated flips F's sign: the error no longer falls as h shrinks (order ~ 0)
        route = cli.projector_from_solved
        monkeypatch.setattr(cli, "projector_from_solved", lambda *args: dataclasses.replace(
            q := route(*args), matrix=q.matrix.conj()))
        code, err, out = self._run_lattice_check(tmp_path, capsys)
        assert code == 2 and not out.exists()
        assert err.startswith("numerical error: check: projector route converges at order ")
        assert err.endswith(" < 1.5, error 4.351e-02 at h = 0.004\n")

    def test_an_order_fitted_to_a_rounding_floor_error_passes(self, tmp_path, capsys,
                                                               monkeypatch):
        # a constant 1e-12 error fits order ~ 0, but lies below 1e-9 max(1, max|Q|)
        q = qgt_sum_over_states(two_band_lattice(1.0), list(self.LATTICE_POINT.values()), 0)
        monkeypatch.setattr(cli, "projector_from_solved", lambda *args: (
            dataclasses.replace(q, matrix=q.matrix + 1e-12)))
        code, err, out = self._run_lattice_check(tmp_path, capsys)
        assert (code, err) == (0, "")
        slope = float(next(line for line in out.read_text().splitlines()
                           if line.startswith("# slope_projector: ")).split(": ")[1])
        assert abs(slope) < 0.1

    def test_each_distinct_point_is_solved_once(self, tmp_path, capsys, monkeypatch):
        # the centre, then per step 2k axis points, k(k-1) diagonals and 2k(k-1) plaquette
        # corners: 1 + 4 * 10 matrices at k = 2 (65 when each route call solved its own)
        stacks, eigh = [], qgt._eigh
        monkeypatch.setattr(qgt, "_eigh", lambda a: stacks.append(len(a)) or eigh(a))
        cfg = _write_config(tmp_path, {"model": SPIN,
                                       "check": {"level": 1, "point": {"theta": 1.0, "phi": 0.3}}})
        code, _, err = _run(capsys, "check", "--config", str(cfg),
                            "--output", str(tmp_path / "check.csv"))
        assert (code, err) == (0, "")
        assert stacks == [41]

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_route_tensors_equal_the_standalone_routes_bit_for_bit(self, tmp_path,
                                                                   monkeypatch, dim):
        rng = np.random.default_rng(70 + dim)
        model = random_trig_model(rng, dim)
        lam = rng.uniform(-1.0, 1.0, model.n_parameters)
        seen = {}

        def record(name):
            route = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args: seen.setdefault(name, []).append(
                q := route(*args)) or q)

        record("projector_from_solved")
        record("overlap_from_solved")
        block = {"level": 0, "point": dict(zip(model.parameters, lam.tolist())), "h": 2e-4}
        cli._run_check(model, block, {}, tmp_path / "check.csv", "csv", [])
        steps = (2e-4, *(cli.ORDER_BASE_H / np.array([1.0, 2.0, 4.0])))
        for route, name in ((qgt_projector_fd, "projector_from_solved"),
                            (qgt_overlap_fd, "overlap_from_solved")):
            assert len(seen[name]) == len(steps)
            for h, q in zip(steps, seen[name]):
                assert q.matrix.tobytes() == route(model, lam, 0, h).matrix.tobytes(), (name, h)

    def test_a_vanishing_step_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"model": SPIN, "check": {
            "level": 1, "point": {"theta": 1.0, "phi": 0.3}, "h": 1e-300}})
        out = tmp_path / "check.csv"
        code, _, err = _run(capsys, "check", "--config", str(cfg), "--output", str(out))
        assert code == 2 and not out.exists()
        assert err.startswith("numerical error: step h = 1e-300 vanishes at parameter 'theta' = 1 ")

    def test_a_step_below_the_overlap_rounding_floor_exits_2_and_writes_nothing(self, tmp_path,
                                                                             capsys):
        cfg = _write_config(tmp_path, {"model": SPIN, "check": {
            "level": 1, "point": {"theta": 1.0, "phi": 0.3}, "h": 1e-8}})
        out = tmp_path / "check.csv"
        code, _, err = _run(capsys, "check", "--config", str(cfg), "--output", str(out))
        assert code == 2 and not out.exists()
        assert err.startswith("numerical error: step h = 1e-08 is too small for the overlap route")


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
        return float(v) if np.isfinite(v) else None  # JSON has no inf or nan

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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_axes_match_a_per_value_reference(tmp_path, fmt):
    axes = {
        "x": np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, 1e17, -2.5, 3.0]),
        "i": np.arange(-3, 250),
        "one": np.array([0.3]),  # a fixed parameter's axis
        "flag": np.array([True, False]),
    }
    n = int(np.prod([a.size for a in axes.values()]))
    assert n > 2 * cli.CHUNK_ROWS  # chunk seams fall inside the product
    rng = np.random.default_rng(9)
    columns = {"value": rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
               "count": rng.integers(-2**62, 2**62, n, dtype=np.int64)}
    names = [*axes, *columns]
    meta = {"tool": "qgeom"}
    rows = [(*lead, *data) for lead, data in zip(
        itertools.product(*(a.tolist() for a in axes.values())),
        zip(*(c.tolist() for c in columns.values())))]

    if fmt == "csv":
        def csv_value(v):
            return str(int(v)) if isinstance(v, (bool, int)) else format(v, ".17g")
        lines = [f"# {k}: {v}" for k, v in meta.items()] + [",".join(names)]
        lines += [",".join(map(csv_value, row)) for row in rows]
        expected = "\n".join(lines) + "\n"
    else:
        def json_value(v):  # JSON has no inf or nan
            return None if isinstance(v, float) and not np.isfinite(v) else v
        data = [dict(zip(names, map(json_value, row))) for row in rows]
        expected = json.dumps({"meta": meta, "data": data}, indent=2) + "\n"
    path, written = tmp_path / f"table.{fmt}", []
    cli._write_table(path, fmt, meta, names, list(columns.values()), written,
                     axes=list(axes.values()))
    assert written == [path]
    text = path.read_text()  # compared by line, so that a failure reports its first line
    assert text.endswith("\n") and text.splitlines() == expected.splitlines()


def test_an_axes_table_whose_last_chunk_is_formatted_by_percent(tmp_path):
    axes = [np.array([-0.5, 0.0, 2.5]), np.linspace(-1e-5, 3e17, 350)]
    rng = np.random.default_rng(26)
    value = rng.normal(size=1050) * 10.0 ** rng.integers(-30, 30, 1050)
    # 3 cells a row: one numpy chunk of 1,024 rows, then 26 rows of 26 values for %
    step = min(cli.CHUNK_ROWS, cli.CHUNK_VALUES // 3)
    assert 1050 - step == 26 < cli.KERNEL_MIN_VALUES <= step
    rows = [(*lead, v) for lead, v in zip(itertools.product(*(a.tolist() for a in axes)),
                                          value.tolist())]
    expected = ["# tool: qgeom", "x,y,value"]
    expected += [",".join(format(v, ".17g") for v in row) for row in rows]
    path = tmp_path / "table.csv"
    cli._write_table(path, "csv", {"tool": "qgeom"}, ["x", "y", "value"], [value], [], axes=axes)
    text = path.read_text()
    assert text.endswith("\n") and text.splitlines() == expected


def test_csv_writer_memory_is_bounded_by_its_chunk_not_by_the_table(tmp_path):
    columns = list(np.random.default_rng(27).normal(size=(3, 100_000)))
    cli._csv_tables()  # built once per process, at the first numpy chunk
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        cli._write_table(path, "csv", {"tool": "qgeom"}, ["a", "b", "c"], columns, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 5 * 2**20
    assert peak < 2 * 2**20


def _hard_floats():
    """Doubles next to each rounding, exponent and layout rule of %.17g, each with both
    neighbours and negated."""
    # ties of 17 digits: m + 2**-17 rounds half to even downwards, and the odd multiples
    # of 2**-17 tie in both directions; c 2**-24 and c 2**-25 tie where 10**k is inexact
    ties = [m + 2.0 ** -j for m in (1, 3, 5, 7, 9) for j in range(14, 53)]
    ties += (np.arange(2 ** 17 + 1, 2 ** 17 + 20_001, 2) * 2.0 ** -17).tolist()
    ties += [c * 2.0 ** -j for j in (24, 25) for c in range(1, 18, 2)]
    tens = [float(f"1e{k}") for k in range(-320, 309)]
    edges = [1e-05, 0.0001, 1e16, 9.9999999999999995e16, 1e17, 0.5, 1.0, 9.5, 10.0]
    near = np.array(ties + tens + edges)
    near = np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf)])
    specials = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, np.inf, np.nan, 1e-250, 1e250]
    return np.concatenate([near, specials, -near, np.negative(specials)])


def test_csv_numbers_are_written_exactly_as_percent_formats_them(tmp_path):
    # every cell must equal '%.17g' % v or '%d' % v, whichever path wrote its chunk
    rng = np.random.default_rng(24)
    hard = _hard_floats()
    values = np.concatenate([
        hard, rng.integers(0, 2 ** 64, 300_000, dtype=np.uint64).view(np.float64),
        (rng.standard_normal((61, 11000)) * 10.0 ** np.arange(-30, 31)[:, None]).ravel()])
    values = np.concatenate([values, np.zeros(-len(values) % 4)])
    assert len(values) > 1_000_000
    limit = [2 ** 53 + k for k in range(-3, 4)] + [10 ** 16 + k for k in range(-3, 4)]
    ints = np.concatenate([[0, 1, -1, 2 ** 63 - 1, -2 ** 63], limit, np.negative(limit),
                           rng.integers(-2 ** 63, 2 ** 63 - 1, 1000), np.arange(-5000, 5000)])
    # one table of four float and one integer column; then a chunk at the crossover, which
    # goes to numpy, and one just below it, which goes to %
    at, below = cli.KERNEL_MIN_VALUES // 2, (cli.KERNEL_MIN_VALUES - 1) // 3
    assert (2 * at, 3 * below) == (cli.KERNEL_MIN_VALUES, cli.KERNEL_MIN_VALUES - 1)
    tables = [[*values.reshape(4, -1), np.resize(ints, len(values) // 4)],
              [hard[:at], ints[:at]], [hard[:below], hard[below:2 * below], ints[:below]]]
    for k, table in enumerate(tables):
        path = tmp_path / f"t{k}.csv"
        cli._write_table(path, "csv", {"t": k}, [f"c{j}" for j in range(len(table))], table, [])
        row = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in table)
        expected = "\n".join([row] * len(table[0])) % tuple(
            itertools.chain.from_iterable(zip(*(c.tolist() for c in table))))
        assert path.read_text().split("\n", 2)[2] == expected + "\n"


def test_json_output_is_strict_json_with_null_for_non_finite_values(tmp_path, capsys):
    # a dim-1 model has no other level, so its min_gap is infinite
    model = tmp_path / "line.json"
    model.write_text(json.dumps({"name": "line", "dim": 1, "parameters": ["x"],
                                 "terms": [{"matrix": [[[1, 0]]], "coeff": "x*x"}]}))
    cfg = _write_config(tmp_path, {"model": str(model), "format": "json",
                                   "grid": {"level": 0, "axes": {"x": [0, 1, 3]}}})
    out = tmp_path / "grid.json"
    code, _, err = _run(capsys, "grid", "--config", str(cfg), "--output", str(out))
    assert code == 0, err

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    rows = json.loads(out.read_text(), parse_constant=reject)["data"]
    assert [row["min_gap"] for row in rows] == [None] * 3
    assert [row["x"] for row in rows] == [0.0, 0.5, 1.0]
    csv = tmp_path / "grid.csv"
    assert _run(capsys, "grid", "--config", str(cfg), "--output", str(csv),
                "--format", "csv")[0] == 0
    assert [line.split(",")[-1] for line in csv.read_text().splitlines()[-3:]] == ["inf"] * 3


@pytest.mark.parametrize("command, block, message", [
    ("grid", {"level": 1, "axes": {"theta": [0, 1]}},
     "error: grid: axis 'theta' must be [lo, hi, n]"),
    ("grid", {"level": 1, "axes": {"theta": [0, 1, 0]}},
     "error: grid: axis 'theta' count must be at least 1, not 0"),
    ("evolve", {**EVOLVE, "initial": {"amplitudes": [[1, 0], [0, 0, 0]]}},
     "error: evolve: 'amplitudes' must be a list of [re, im] pairs"),
    ("evolve", {**EVOLVE, "initial": {"amplitudes": [1, 0]}},
     "error: evolve: 'amplitudes' must be a list of [re, im] pairs"),
    ("distance", {"level": 1.0, "path": {"theta": "s", "phi": "0.1"}},
     "error: distance: level must be an integer in 0..1, not 1.0"),
], ids=["grid-axis-pair", "grid-axis-empty", "evolve-amplitude-triple",
        "evolve-amplitude-numbers", "distance-level-float"])
def test_malformed_config_value_message(tmp_path, capsys, command, block, message):
    cfg = _write_config(tmp_path, {"model": SPIN, command: block})
    code, _, err = _run(capsys, command, "--config", str(cfg),
                        "--output", str(tmp_path / "out.csv"))
    assert code == 1 and err == message + "\n"


@pytest.mark.parametrize("command, block, message", [
    ("distance", {"level": 1, "path": {"theta": "log(s)", "phi": "0.1"}},
     "coordinate 'theta' ('log(s)') at {'s': 0.0}: log of non-positive value 0.0"),
    ("evolve", {**EVOLVE, "schedule": {"theta": "sqrt(t-1)", "phi": "0.1"}},
     "coordinate 'theta' ('sqrt(t-1)') at {'t': 0.0}: sqrt of negative value -1.0"),
    ("evolve", {**EVOLVE, "schedule": {"theta": "1", "phi": "1/(t - 0.05)"},
                "initial": {"amplitudes": [[1, 0], [0, 0]]}, "level": 0},
     "coordinate 'phi' ('1/(t - 0.05)') at {'t': 0.05}: division by zero"),
], ids=["distance", "evolve-initial-level", "evolve-step"])
def test_curve_domain_error_names_the_coordinate_and_point(tmp_path, capsys, command, block,
                                                           message):
    out = tmp_path / "out.csv"
    cfg = _write_config(tmp_path, {"model": SPIN, command: block})
    code, _, err = _run(capsys, command, "--config", str(cfg), "--output", str(out))
    assert code == 2 and err == f"numerical error: {message}\n"
    assert not out.exists()


def test_check_fits_its_orders_on_fixed_steps(tmp_path, capsys):
    bodies = []
    for extra in ({}, {"order_base_h": 0.01}):
        out = tmp_path / f"check{len(bodies)}.csv"
        cfg = _write_config(tmp_path, {"model": SPIN, "check": {
            "level": 1, "point": {"theta": 1.0, "phi": 0.3}, **extra}})
        assert _run(capsys, "check", "--config", str(cfg), "--output", str(out))[0] == 0
        lines = out.read_text().splitlines()
        assert "# order_base_h: 0.0040000000000000001" in lines
        bodies.append([line for line in lines if not line.startswith("# config_sha256")])
    assert bodies[0] == bodies[1]  # a config that still sets the step is not read


def test_sphere_ignores_torus_keys_and_the_grid_defaults_hold(tmp_path, capsys):
    bodies = []
    for surface in ({"closure": "sphere"}, {"closure": "sphere", "shape": [24, 24]},
                    {"mu": "phi", "nu": "theta", "mu_range": [0, 1], "nu_range": "x"}):
        out = tmp_path / f"c{len(bodies)}.csv"
        cfg = _write_config(tmp_path, {"model": SPIN, "chern": {"level": 1, "surface": surface}})
        assert _run(capsys, "chern", "--config", str(cfg), "--output", str(out))[0] == 0
        plaquettes = out.with_name(out.name + ".plaquettes.csv").read_text().splitlines()
        assert len([line for line in plaquettes if not line.startswith("#")]) == 1 + 25 * 24
        bodies.append([line for line in out.read_text().splitlines()
                       if not line.startswith("# config_sha256")])
    assert bodies[0] == bodies[1] == bodies[2]


def test_torus_defaults_to_one_period_in_each_direction(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"model": {"builtin": "two_band_lattice", "mass": 1.0},
                                   "chern": {"level": 0, "surface": {"closure": "torus"}}})
    out = tmp_path / "c.json"
    code, _, _ = _run(capsys, "chern", "--config", str(cfg), "--output", str(out),
                      "--format", "json")
    assert code == 0 and round(json.loads(out.read_text())["data"]["chern"]) == -1


@pytest.mark.parametrize("closure", [["torus"], 3, None])
def test_closure_that_is_not_a_string_is_unknown(tmp_path, capsys, closure):
    cfg = _write_config(tmp_path, {"model": SPIN,
                                   "chern": {"level": 1, "surface": {"closure": closure}}})
    code, _, err = _run(capsys, "chern", "--config", str(cfg),
                        "--output", str(tmp_path / "c.csv"))
    assert code == 1 and f"chern: unknown closure {closure!r}" in err


def test_check_steps_by_the_library_default(tmp_path, capsys):
    bodies = []
    for extra in ({}, {"h": DEFAULT_FD_STEP}):
        out = tmp_path / f"check{len(bodies)}.csv"
        cfg = _write_config(tmp_path, {"model": SPIN, "check": {
            "level": 1, "point": {"theta": 1.0, "phi": 0.3}, **extra}})
        assert _run(capsys, "check", "--config", str(cfg), "--output", str(out))[0] == 0
        lines = out.read_text().splitlines()
        assert f"# h: {DEFAULT_FD_STEP:.17g}" in lines
        bodies.append([line for line in lines if not line.startswith("# config_sha256")])
    assert bodies[0] == bodies[1]


def test_module_runs_as_a_program(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    good = _write_config(tmp_path, {"model": SPIN, "grid": {
        "level": 0, "axes": {"theta": [0.5, 1.0, 3]}}}, "good.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out = tmp_path / "grid.csv"
    runs = [subprocess.run([sys.executable, "-m", "qgeom.cli", "grid", "--config", str(path),
                            "--output", str(out)], env=env, capture_output=True, text=True,
                           timeout=60) for path in (good, bad)]
    assert runs[0].returncode == 0 and runs[0].stderr == ""
    assert len(out.read_text().splitlines()) == 6 + 1 + 3  # header, column names, rows
    assert runs[1].returncode == 1 and runs[1].stderr.startswith("error: config ")
    assert "is not valid JSON" in runs[1].stderr


GRID = {"level": 0, "axes": {"theta": [0.5, 1.0, 3]}}


@pytest.mark.parametrize("config, model, message", [
    (b'\xff\xfe{"a":1}', None, "error: config {config} is not valid JSON: 'utf-16-le' codec"),
    (None, b"\xe9", "error: model file {model} is not valid JSON: 'utf-8' codec"),
    (None, "a\0b.json", "error: cannot read model file {model}: embedded null byte"),
], ids=["config-utf16-truncated", "model-not-utf8", "model-path-nul"])
def test_an_unreadable_input_exits_1_with_one_error_line(tmp_path, capsys, config, model,
                                                         message):
    if isinstance(model, bytes):
        (tmp_path / "model.json").write_bytes(model)
    model = str(tmp_path / (model if isinstance(model, str) else "model.json"))
    path = tmp_path / "config.json"
    path.write_bytes(config or json.dumps({"model": model, "grid": GRID}).encode())
    out = tmp_path / "out.csv"
    code, _, err = _run(capsys, "grid", "--config", str(path), "--output", str(out))
    assert code == 1 and err.startswith(message.format(config=path, model=model))
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("output", [5, ["out.csv"], True], ids=["int", "list", "bool"])
def test_a_non_string_output_is_a_validation_error(tmp_path, capsys, output):
    cfg = _write_config(tmp_path, {"model": SPIN, "grid": GRID, "output": output})
    code, _, err = _run(capsys, "grid", "--config", str(cfg))
    assert code == 1 and err == f"error: config 'output' must be a path string, not {output!r}\n"


@pytest.mark.parametrize("command, block", [
    ("check", {"level": 0, "point": {}}),
    ("distance", {"level": 0, "path": {}}),
    ("chern", {"level": 0, "surface": {"closure": "torus"}}),
    ("evolve", {"level": 0, "schedule": {}, "t0": 0, "t1": 1, "dt": 0.1, "initial": {"level": 0}}),
], ids=["check", "distance", "chern", "evolve"])
def test_a_model_without_parameters_is_a_validation_error(tmp_path, capsys, command, block):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"name": "constant", "dim": 2, "parameters": [], "terms": [
        {"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "coeff": "1"}]}))
    cfg = _write_config(tmp_path, {"model": str(model), command: block})
    code, _, err = _run(capsys, command, "--config", str(cfg),
                        "--output", str(tmp_path / "out.csv"))
    assert code == 1 and err == f"error: model file {model}: a model needs at least one parameter\n"


def test_an_empty_torus_range_is_a_validation_error(tmp_path, capsys):
    surface = {"closure": "torus", "mu": "kx", "nu": "ky", "shape": [8, 8],
               "mu_range": [1.0, 1.0]}
    cfg = _write_config(tmp_path, {"model": {"builtin": "two_band_lattice", "mass": 1.0},
                                   "chern": {"level": 0, "surface": surface}})
    code, _, err = _run(capsys, "chern", "--config", str(cfg),
                        "--output", str(tmp_path / "c.csv"))
    assert code == 1 and err == "error: grid 'mu_range' of a torus is empty: both ends are 1.0\n"




def _one_term_model(tmp_path, coeff):
    """A dim-2 model file over theta and phi whose one term is coeff * sigma_z."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "one term", "dim": 2, "parameters": ["theta", "phi"],
                                "terms": [{"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                                           "coeff": coeff}]}))
    return str(path)


@pytest.mark.parametrize("command, config, message", [
    ("grid", lambda tmp_path: '{"grid": ' + "[" * 1000 + "]" * 1000 + "}",
     "error: config {config} is not valid JSON: maximum recursion depth exceeded"),
    ("distance", lambda tmp_path: {"model": SPIN, "distance": {
        "level": 0, "path": {"theta": "(" * 200 + "s" + ")" * 200, "phi": "0.1"}}},
     "error: curve coordinate 'theta': expression is nested too deeply\n"),
    ("grid", lambda tmp_path: {
        "model": _one_term_model(tmp_path, "cos(" * 300 + "theta" + ")" * 300), "grid": GRID},
     "error: model file {model}: term 0: expression is nested too deeply\n"),
], ids=["config", "path", "model-term"])
def test_deeply_nested_input_exits_1_with_one_error_line(tmp_path, capsys, command, config,
                                                         message):
    doc = config(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out.csv"
    code, _, err = _run(capsys, command, "--config", str(cfg), "--output", str(out))
    assert code == 1 and err.startswith(message.format(config=cfg, model=tmp_path / "model.json"))
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("command, config", [
    ("distance", lambda tmp_path: {"model": SPIN, "distance": {
        "level": 0, "path": {"theta": "+".join(["0.001*s"] * 600), "phi": "0.1"}}}),
    ("grid", lambda tmp_path: {
        "model": _one_term_model(tmp_path, "+".join(["0.001*theta"] * 600)), "grid": GRID}),
], ids=["path", "model-term"])
def test_a_sum_of_600_terms_evaluates(tmp_path, capsys, command, config):
    # walked recursively, each sum would take 1,200 frames
    cfg = _write_config(tmp_path, config(tmp_path))
    out = tmp_path / "out.csv"
    code, _, err = _run(capsys, command, "--config", str(cfg), "--output", str(out))
    assert (code, err) == (0, "") and out.exists()

def test_a_non_finite_derivative_exits_2_naming_the_term_and_point(tmp_path, capsys):
    # the value 1e160 is finite; its partial -1e320 is not
    cfg = _write_config(tmp_path, {"model": _one_term_model(tmp_path, "1/theta"),
                                   "grid": {"level": 0, "axes": {"theta": [1e-160, 1e-160, 1]}}})
    out = tmp_path / "out.csv"
    code, _, err = _run(capsys, "grid", "--config", str(cfg), "--output", str(out))
    assert code == 2 and err == ("numerical error: term 0 ('1/theta') at {'theta': 1e-160, "
                                 "'phi': 0.0}: derivative evaluated to non-finite value -inf\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["a\nb.json", "a\rb.json", "a\x1b[2Jb.json", "a\tb.json"],
                         ids=["newline", "return", "escape", "tab"])
def test_a_control_character_in_a_path_is_shown_escaped(tmp_path, capsys, name):
    model = str(tmp_path / name)
    cfg = _write_config(tmp_path, {"model": model, "grid": GRID})
    code, _, err = _run(capsys, "grid", "--config", str(cfg),
                        "--output", str(tmp_path / "out.csv"))
    assert code == 1 and err.startswith(f"error: cannot read model file {model!r}: ")
    assert err.endswith("\n") and err[:-1].isprintable()


def test_an_overflowing_literal_in_a_model_term_exits_1(tmp_path, capsys):
    model = _one_term_model(tmp_path, "1e400*theta")
    cfg = _write_config(tmp_path, {"model": model, "grid": GRID})
    out = tmp_path / "out.csv"
    code, _, err = _run(capsys, "grid", "--config", str(cfg), "--output", str(out))
    assert code == 1 and err == (f"error: model file {model}: term 0: number literal '1e400' "
                                 "overflows a float (byte offset 0)\n")
    assert not out.exists()


def test_a_long_string_mismatch_reports_its_first_differing_line(pytestconfig):
    # pytest's own diff of two such strings can run for minutes
    left = "".join(f"row {i}\n" for i in range(3000))
    right = left.replace("row 1234\n", "row 1234 \n")
    assert pytest_assertrepr_compare("==", left, right) == [
        f"long strings differ ({len(left)} and {len(right)} characters), first at line 1235:",
        "left:  'row 1234\\n'", "right: 'row 1234 \\n'"]
    assert pytest_assertrepr_compare("==", left, left + "end") == [
        f"long strings differ ({len(left)} and {len(left) + 3} characters), first at line 3001:",
        "left:  (no such line)", "right: 'end'"]
    assert pytest_assertrepr_compare("==", "short", "shirt") is None
    assert pytest_assertrepr_compare("!=", left, left) is None
    assert pytest_assertrepr_compare("==", left, list(left)) is None
    # pytest's own report is skipped for the long pair alone
    assert assertion_util.assertrepr_compare(pytestconfig, "==", left, right) is None
    assert assertion_util.assertrepr_compare(pytestconfig, "==", "short", "shirt")
