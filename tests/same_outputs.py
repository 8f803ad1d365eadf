"""Check that two source trees write byte-identical output files.

    python tests/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that each hold a ``qgeom`` package
(``src`` of two checkouts).  The script writes the configs of the benchmark
workloads (``perfbench/workloads.build``: lattice, dense and drive, seeds
1-3) once, into a temporary directory; the configs must be shared because
the dense model's file path enters every ``config_sha256``.  Beside them it
writes its own for seeds 1-3: one spin_half ``evolve`` and one ``distance``
whose curves move theta and phi together, which no benchmark curve does; and,
on a three-parameter model file, a ``grid`` with a fixed parameter and a
length-1 axis, an open ``chern`` surface and a torus with a fixed third
parameter, which no workload lays out.  Each tree's ``qgeom.cli.main`` then
runs every config in CSV and in JSON, in its own ``python -B`` interpreter
with BLAS on one thread: 150 output files per tree.  Every file is compared
byte for byte.  The first difference is printed (file and line), and the
exit code is 1 on any difference or on a run that does not exit 0.  It reads
``perfbench/`` and writes nothing there; pytest does not collect it.  Needs
the standard library and numpy.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (1, 2, 3)
FORMATS = ("csv", "json")

# runs in each tree's interpreter: argv[1] is the tree, argv[2] the job list
RUN_JOBS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import qgeom.cli
if Path(qgeom.cli.__file__).resolve().parent != (Path(sys.argv[1]) / "qgeom").resolve():
    sys.exit(f"imported qgeom from {qgeom.cli.__file__}, not from {sys.argv[1]}")
codes = [qgeom.cli.main(argv) for argv in json.loads(Path(sys.argv[2]).read_text())]
print(json.dumps(codes))
"""


def two_parameter_curves(seed: int) -> list[tuple[str, dict]]:
    """(command, config) of a spin_half evolve and distance moving theta and phi."""
    model = {"builtin": "spin_half", "mu_times_b": 1.0}
    schedule = {"theta": f"0.9 + 0.05*{seed}*t", "phi": f"0.3 + 0.4*{seed}*t"}
    path = {"theta": f"0.4 + 0.5*{seed}*s", "phi": f"0.3 - 2*{seed}*s"}
    return [("evolve", {"model": model, "evolve": {"schedule": schedule, "t0": 0.0, "t1": 5.0,
                                                   "dt": 0.01, "initial": {"level": 0}}}),
            ("distance", {"model": model, "distance": {"level": 0, "samples": 201,
                                                       "path": path}})]


def axes_configs(seed: int, folder: Path) -> list[tuple[str, dict]]:
    """(command, config) of a three-parameter model file's grid with a fixed parameter and
    a length-1 axis, its open chern surface and its torus with a fixed third parameter."""
    pauli = ([[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
             [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]])
    coeffs = ("sin(kx) + 0.1*m^2*sin(ky)", "sin(ky)", "m + cos(kx) + exp(cos(ky)) - 1")
    model = folder / "three_parameter_model.json"
    model.write_text(json.dumps({"name": "three-parameter lattice", "dim": 2,
                                 "parameters": ["kx", "ky", "m"],
                                 "terms": [{"matrix": p, "coeff": c}
                                           for p, c in zip(pauli, coeffs)]}))
    mass, ky = 0.6 + 0.3 * seed, 0.4 * seed
    grid = {"level": 0, "axes": {"kx": [-3.0, 3.0, 9 + seed], "ky": [ky, ky, 1]},
            "fixed": {"m": mass}}
    open_surface = {"closure": "open", "mu": "kx", "nu": "m", "shape": [10, 12 + seed],
                    "mu_range": [-1.0, 1.0], "nu_range": [0.5, 1.5], "fixed": {"ky": ky}}
    torus = {"closure": "torus", "mu": "kx", "nu": "ky", "shape": [20, 23 + seed],
             "fixed": {"m": mass}}
    return [("grid", {"model": str(model), "grid": grid}),
            *(("chern", {"model": str(model), "chern": {"level": 0, "surface": surface}})
              for surface in (open_surface, torus))]


def write_configs(work: Path) -> list[tuple[str, list[str]]]:
    """(output name, argv without --output) for every config, seed and format."""
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # leaves no __pycache__ in perfbench/
    import workloads

    jobs = []
    for name in [*workloads.WORKLOADS, "two_parameter", "axes"]:
        for seed in SEEDS:
            folder = work / f"{name}_{seed}"
            folder.mkdir()
            configs = (two_parameter_curves(seed) if name == "two_parameter" else
                       axes_configs(seed, folder) if name == "axes" else
                       [(inv.command, inv.config)
                        for inv in workloads.build(name, seed, folder).invocations])
            for k, (command, doc) in enumerate(configs):
                config = folder / f"{k}_{command}.json"
                config.write_text(json.dumps(doc))
                for fmt in FORMATS:
                    jobs.append((f"{name}_{seed}_{k}_{command}.{fmt}",
                                 [command, "--config", str(config), "--format", fmt]))
    return jobs


def run_tree(src: Path, jobs, out: Path) -> list:
    """Run every job with ``src``'s CLI, writing into ``out``; return the exit codes."""
    out.mkdir()
    job_file = out.with_suffix(".jobs.json")
    job_file.write_text(json.dumps([argv + ["--output", str(out / name)] for name, argv in jobs]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-B", "-c", RUN_JOBS, str(src), str(job_file)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{src}: the runs failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def first_difference(old: bytes, new: bytes) -> str:
    """The first line where two files differ, as 'line N: OLD != NEW'."""
    a, b = old.splitlines(), new.splitlines()
    for n, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {n}: {x[:120]!r} != {y[:120]!r}"
    return f"line {min(len(a), len(b)) + 1}: one file ends ({len(a)} vs {len(b)} lines)"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = write_configs(work)
        outs = [work / "old", work / "new"]
        codes = [run_tree(src, jobs, out) for src, out in zip(trees, outs)]
        failed = [(name, a, b) for (name, _), a, b in zip(jobs, *codes) if (a, b) != (0, 0)]
        if failed:
            print(f"{len(failed)} runs did not exit 0 in both trees; first: "
                  "%s exited %s (old) and %s (new)" % failed[0])
            return 1
        names = sorted({p.name for out in outs for p in out.iterdir()})
        differ = [n for n in names
                  if not all((out / n).is_file() for out in outs)
                  or (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
        if differ:
            name = differ[0]
            detail = ("missing in one tree" if not all((out / name).is_file() for out in outs)
                      else first_difference(*((out / name).read_bytes() for out in outs)))
            print(f"{len(differ)} of {len(names)} output files differ; first: {name}: {detail}")
            return 1
    print(f"all {len(names)} output files are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
