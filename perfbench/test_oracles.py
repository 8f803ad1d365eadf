"""Each benchmark oracle accepts real CLI output and rejects a corrupted copy.

    python3 -m pytest perfbench -q

Run from the repository root; qgeom is imported from ``src/``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from qgeom import cli  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from oracles import SpinFamily, parse_csv  # noqa: E402

LATTICE = {"builtin": "two_band_lattice", "mass": 1.0}
SPIN_HALF = {"builtin": "spin_half", "mu_times_b": 1.0}


def outputs(tmp_path, inv: wl.Invocation) -> list[bytes]:
    """Run one invocation through the CLI and return its output files."""
    config = tmp_path / f"{inv.command}.json"
    config.write_text(json.dumps(inv.config))
    out = tmp_path / f"{inv.command}.csv"
    assert cli.main([inv.command, "--config", str(config), "--output", str(out)]) == 0
    files = [out] + ([out.with_name(out.name + ".plaquettes.csv")] if inv.command == "chern" else [])
    return [p.read_bytes() for p in files]


def edited(data: bytes, column: str, change) -> bytes:
    """Rewrite one column of a qgeom CSV with ``change(values)``."""
    meta, columns, rows = parse_csv(data)
    rows[:, columns.index(column)] = change(rows[:, columns.index(column)])
    lines = [f"# {k}: {v}" for k, v in meta.items()] + [",".join(columns)]
    lines += [",".join(format(x, ".17g") for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def edited_meta(data: bytes, key: str, value: str) -> bytes:
    lines = data.decode().splitlines()
    return ("\n".join(f"# {key}: {value}" if line.startswith(f"# {key}: ") else line
                      for line in lines) + "\n").encode()


@pytest.fixture(scope="module")
def spin_model(tmp_path_factory):
    """A small generated spin-3/2 model file and its closed form."""
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(wl.spin_model_doc(1.5, np.random.default_rng(3))))
    return str(path), SpinFamily.spin_model(1.5, 1.0)


def test_grid_oracle_rejects_flipped_curvature(tmp_path):
    fam = SpinFamily.two_band(1.0)
    inv = wl.grid(LATTICE, fam, ("kx", "ky"), {"kx": [-3.0, 3.0, 7], "ky": [-3.0, 3.0, 5]})
    (out,) = outputs(tmp_path, inv)
    assert inv.oracle(out) == []
    assert inv.oracle(edited(out, "f_01", lambda f: -f))
    assert inv.oracle(edited(out, "min_gap", lambda g: g * (1 + 1e-6)))


def test_grid_oracle_rejects_wrong_spin_metric(tmp_path, spin_model):
    path, fam = spin_model
    inv = wl.grid(path, fam, ("theta", "phi"), {"theta": [0.1, 3.0, 5], "phi": [0.0, 6.28, 4]})
    (out,) = outputs(tmp_path, inv)
    assert inv.oracle(out) == []
    assert inv.oracle(edited(out, "g_11", lambda g: 2 * g))


def test_chern_oracle_rejects_off_by_one_and_flipped_plaquettes(tmp_path):
    inv = wl.chern(LATTICE, "torus", 16, -1, SpinFamily.two_band(1.0))
    summary, plaq = outputs(tmp_path, inv)
    assert inv.oracle(summary, plaq) == []
    assert inv.oracle(edited(summary, "chern", lambda c: c + 1), plaq)
    assert inv.oracle(summary, edited(plaq, "flux", lambda f: -f))
    assert inv.oracle(edited(summary, "ambiguous", lambda a: a + 1), plaq)


def test_chern_oracle_rejects_wrong_sphere_charge(tmp_path, spin_model):
    path, _ = spin_model
    inv = wl.chern(path, "sphere", 16, 3)
    summary, plaq = outputs(tmp_path, inv)
    assert inv.oracle(summary, plaq) == []
    assert inv.oracle(edited(summary, "chern", lambda c: c - 1), plaq)
    assert inv.oracle(edited(summary, "monopole_charge", lambda m: m + 0.5), plaq)
    wrong = wl.chern(path, "sphere", 16, 4)
    assert wrong.oracle(summary, plaq)


def test_check_oracle_rejects_large_deviation_and_bad_slope(tmp_path, spin_model):
    path, fam = spin_model
    inv = wl.check(path, fam, ("theta", "phi"), [1.0, 0.3])
    (out,) = outputs(tmp_path, inv)
    assert inv.oracle(out) == []
    assert inv.oracle(edited(out, "dev_projector", lambda d: d + 1e-3))
    assert inv.oracle(edited(out, "q_sum_im", lambda q: -q))
    assert inv.oracle(edited_meta(out, "slope_overlap_metric", "1.0"))


def test_distance_oracle_rejects_wrong_length(tmp_path):
    fam = SpinFamily.spin_model(0.5, 2.0)
    inv = wl.distance(SPIN_HALF, fam, ("theta", "phi"), [0.0, 0.3], [math.pi, 0.3], 201, level=1)
    (out,) = outputs(tmp_path, inv)
    assert inv.oracle(out) == []
    assert inv.oracle(edited(out, "length", lambda x: x * (1 + 1e-5)))
    assert inv.oracle(edited(out, "endpoint_fidelity_angle", lambda a: a - 1e-3))


def test_distance_oracle_on_a_path_simpson_does_not_resolve(tmp_path):
    # the speed dips to 2% of its peak near s = 0.19; 201 Simpson nodes miss
    # the exact length by about 5e-7 and the CLI warns
    start = [2.8631482218431836, -0.10285369144121148]
    end = [start[0] - 4.080855054152847, start[1] - 0.24182142478314894]
    inv = wl.distance(LATTICE, SpinFamily.two_band(1.0), ("kx", "ky"), start, end, 201)
    with pytest.warns(UserWarning, match="refinement"):
        (out,) = outputs(tmp_path, inv)
    assert inv.oracle(out) == []
    assert inv.oracle(edited(out, "length", lambda x: x * (1 + 1e-8)))


def test_evolve_oracle_rejects_perturbed_uncertainty(tmp_path):
    fam = SpinFamily.spin_model(0.5, 2.0)
    inv = wl.evolve(SPIN_HALF, fam, ("theta", "phi"), [math.pi / 2, 0.0], 0.5, 1.0, 0.01)
    (out,) = outputs(tmp_path, inv)
    assert inv.oracle(out) == []
    assert inv.oracle(edited(out, "delta_e", lambda d: d * (1 + 1e-6)))
    assert inv.oracle(edited(out, "energy_mean", lambda e: -e))
    assert inv.oracle(edited(out, "leakage", lambda x: x + 1e-6))
    assert inv.oracle(edited(out, "ratio", lambda r: r * (1 + 1e-6)))


def test_evolve_oracle_on_a_spin_state_at_rest_on_its_level(tmp_path):
    # at t = 0 the spin-63/2 state is exactly on level 0; the CLI's dE is the
    # square root of a rounded variance, ~5e-7 instead of 0
    path = tmp_path / "model.json"
    workload = wl.dense(1247932845, str(path))
    path.write_text(json.dumps(workload.model_doc))
    inv = next(i for i in workload.invocations if i.command == "evolve")
    (out,) = outputs(tmp_path, inv)
    assert inv.oracle(out) == []
    assert inv.oracle(edited(out, "ratio", lambda r: r + 1e-6))


def test_evolve_oracle_on_fixed_lattice_point(tmp_path):
    fam = SpinFamily.two_band(1.0)
    inv = wl.evolve(LATTICE, fam, ("kx", "ky"), [0.4, -1.1], 0.0, 0.5, 0.01, [1.0, 0.5j])
    (out,) = outputs(tmp_path, inv)
    assert inv.oracle(out) == []
    assert inv.oracle(edited(out, "ratio_exact_zero", lambda z: 1 - z))


def test_generator_checks_refuse_broken_models():
    sx, sy, sz = wl.spin_matrices(2.5)
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-12
    rng = np.random.default_rng(0)
    wl.spin_model_terms(2.5, rng)  # a real spin passes
    with pytest.raises(RuntimeError, match="sphere not closed"):
        wl.check_sphere_closed(lambda th, ph: wl.spin_half_hamiltonian(th, ph)
                               + 0.8 * np.array([[0, np.exp(-1j * ph)], [np.exp(1j * ph), 0]]))
    with pytest.raises(RuntimeError, match="torus not periodic"):
        wl.check_torus_closed(lambda kx, ky: wl.two_band_hamiltonian(1.0, 0.9 * kx, ky), rng)


def test_runner_counts_nondeterministic_output_as_failed(tmp_path):
    class DriftingCli:
        calls = 0

        def main(self, argv):
            self.calls += 1
            Path(argv[argv.index("--output") + 1]).write_text(f"run {self.calls}\n")
            return 0

    inv = wl.Invocation("check", {"check": {}}, 1, lambda out: [])
    workload = wl.Workload(SPIN_HALF, None, (inv,))
    runner = run.Runner(DriftingCli(), workload, tmp_path)
    runner.one_pass()
    assert runner.check() == []
    runner.one_pass()
    assert runner.attempted == 2
    failures = runner.check()
    assert len(failures) == 1 and "differ" in failures[0]


def test_workload_sizes_do_not_depend_on_the_seed(tmp_path):
    for name in ("lattice", "drive"):
        a = wl.build(name, 1, tmp_path)
        b = wl.build(name, 2, tmp_path)
        assert [i.points for i in a.invocations] == [i.points for i in b.invocations]
        assert a.invocations[2].config != b.invocations[2].config
