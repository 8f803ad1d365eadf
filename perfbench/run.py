#!/usr/bin/env python3
"""qgeom benchmark: CLI workloads timed end to end, checked by closed forms.

    python3 perfbench/run.py --workload lattice|dense|drive --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the qgeom under test is the one in ``src/``.
One client in one process calls ``qgeom.cli.main`` for each command of the
workload in turn, each call only after the previous one returned (a closed
loop).  After one warm-up pass it repeats passes for ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics: for each command's call and
for a whole pass, the median of its wall time divided by the time of a
fixed reference computation measured around it (``reference_s``); the
set-up time of a fresh interpreter; and the peak RSS of this process.
``--trace 1`` runs untraced passes for half the time and traced passes
(see tracing.py) for the other half, and prints the per-layer metrics of
the traced passes.

Every output file is checked against an independent closed form
(oracles.py) and against the bytes of the same invocation's first output.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS threads are fixed before numpy loads, so that every run and every
# commit measures with the same thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
REFERENCE_ITERATIONS = 300_000
REFERENCE_EIGENSOLVES = 100
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def load_cli():
    """Import qgeom from ./src, refusing any other copy."""
    if not (SRC / "qgeom" / "__init__.py").is_file():
        sys.exit(f"error: no qgeom sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import qgeom.cli

    if Path(qgeom.__file__).resolve().parent != (SRC / "qgeom").resolve():
        sys.exit(f"error: imported qgeom from {qgeom.__file__}, not from {SRC}")
    return qgeom.cli


class Runner:
    """Writes a workload's configs and runs passes over its invocations."""

    def __init__(self, cli, wl: workloads.Workload, work: Path):
        self.cli = cli
        self.wl = wl
        self.argv, self.outputs = [], []
        for k, inv in enumerate(wl.invocations):
            config = work / f"{k}_{inv.command}.json"
            config.write_text(json.dumps(inv.config))
            out = work / f"{k}_{inv.command}.csv"
            self.argv.append([inv.command, "--config", str(config), "--output", str(out)])
            files = [out]
            if inv.command == "chern":
                files.append(out.with_name(out.name + ".plaquettes.csv"))
            self.outputs.append(files)
        self.call_s = {inv.command: [] for inv in wl.invocations}
        self.call_rel = {inv.command: [] for inv in wl.invocations}
        self.pass_s: list[float] = []
        self.pass_rel: list[float] = []
        self.attempted = 0
        self.output_bytes = 0
        self._first_digest: dict[int, str] = {}
        self._blobs: dict[str, tuple[int, list[bytes]]] = {}
        self._calls: list[tuple[int, str | None, list[str]]] = []
        self.invocation_commands: list[str] = []

    @property
    def points(self) -> int:
        return sum(inv.points for inv in self.wl.invocations)

    def one_pass(self, tracer: Tracer | None = None, reference=None) -> float:
        """Run every invocation once; return the pass's wall time.

        The pass time is the sum of the calls' wall times.  With
        ``reference`` (a function returning seconds), that is timed before
        the first call and after each call, and every call is recorded: its
        wall time, and that time over the mean of the reference times
        around it.
        """
        gc.collect()
        codes, times = [], []
        refs = [reference()] if reference else []
        for argv in self.argv:
            if tracer is not None:
                tracer.current_invocation = len(self.invocation_commands)
            self.invocation_commands.append(argv[0])
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a stopped run
                traceback.print_exc()
                code = "exception"
            times.append(time.perf_counter() - t0)
            codes.append(code)
            if reference:
                refs.append(reference())
        if reference:
            rel = [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
            for inv, t, r in zip(self.wl.invocations, times, rel):
                self.call_s[inv.command].append(t)
                self.call_rel[inv.command].append(r)
            self.pass_s.append(sum(times))
            self.pass_rel.append(sum(rel))
        self._verify(codes)
        return sum(times)

    def _verify(self, codes) -> None:
        """Exit codes and byte determinism now; oracles later, in ``check``."""
        self.output_bytes = 0
        for k, code in enumerate(codes):
            self.attempted += 1
            problems = [] if code == 0 else [f"exit code {code}"]
            digest = None
            if code == 0:
                try:
                    blobs = [p.read_bytes() for p in self.outputs[k]]
                except OSError as exc:
                    problems.append(f"output missing: {exc}")
            if not problems:
                self.output_bytes += sum(len(b) for b in blobs)
                digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
                self._blobs.setdefault(digest, (k, blobs))
                if self._first_digest.setdefault(k, digest) != digest:
                    problems.append("output bytes differ from the first call of this config")
            self._calls.append((k, digest, problems))

    def check(self) -> list[str]:
        """Run the oracles on each distinct output; return every failed call."""
        verdicts = {}
        for digest, (k, blobs) in self._blobs.items():
            try:
                verdicts[digest] = self.wl.invocations[k].oracle(*blobs)
            except Exception as exc:  # malformed output can break a checker
                verdicts[digest] = [f"oracle raised {exc!r}"]
        failures = []
        for k, digest, problems in self._calls:
            problems = problems + verdicts.get(digest, [])
            if problems:
                failures.append(f"{self.wl.invocations[k].command}: " + "; ".join(problems))
        return failures


# --------------------------------------------------------------------------
# measurements


def setup_times(wl: workloads.Workload) -> list[float]:
    """Fresh-interpreter import of qgeom plus the model build, in seconds."""
    if isinstance(wl.model, str):
        spec = ["file", wl.model]
    else:
        value = wl.model.get("mass", wl.model.get("mu_times_b"))
        spec = ["builtin", wl.model["builtin"], repr(value)]
    probe = str(Path(__file__).with_name("setup_probe.py"))
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        done = subprocess.run([sys.executable, probe, str(t0), *spec], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        out.append(int(done.stdout.strip().splitlines()[-1]) * 1e-9)
    return out


def reference_s() -> float:
    """Wall time of fixed work qgeom never runs: a Python loop and 64x64 eigensolves.

    The speed of the machine drifts by tens of percent over minutes, and
    qgeom's calls drift with it; divided by this time, measured next to
    them, they do not.
    """
    a = np.random.default_rng(0).standard_normal((64, 64))
    h = a + a.T
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i
    for _ in range(REFERENCE_EIGENSOLVES):
        np.linalg.eigh(h)
    return time.perf_counter() - t0


def passes(runner: Runner, seconds: float, tracer: Tracer | None = None,
           per_pass=None, reference=None) -> list[float]:
    """Passes until ``seconds`` have gone by (at least MIN_PASSES)."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        mark = tracer.mark() if tracer is not None else None
        times.append(runner.one_pass(tracer, reference))
        if per_pass is not None:
            per_pass.append(tracer.pass_metrics(mark))
    return times


def tail(samples: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    p = int(100 * (n - 11) / (n - 1))
    value = float(np.percentile(ordered, p))
    return p, value


def end_to_end(runner: Runner, setup_s, peak_rss_mb):
    walls = {**runner.call_s, "pass": runner.pass_s}
    rels = {**runner.call_rel, "pass": runner.pass_rel}
    metrics = {}
    for name, wall in walls.items():
        rel = statistics.median(rels[name])
        metrics[f"{name}_rel"] = {"value": rel, "unit": "ref"}
        extra = tail(wall)
        p = f"  p{extra[0]}={extra[1]:.6f} s" if extra else ""
        print(f"metric {name + '_rel':<13} {rel:10.4f} ref   "
              f"wall median={statistics.median(wall):.6f} s  n={len(wall)}{p}")
    metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    print(f"metric {'setup_s':<13} {statistics.median(setup_s):10.6f} s     n={len(setup_s)}")
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(f"metric {'peak_rss_mb':<13} {peak_rss_mb:10.3f} MB")
    return metrics


PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "evals": "count", "evals_per_point": "count/point",
    "assemblies": "count", "load_s": "s", "eigensolves": "count",
    "eigensolves_per_point": "count/point", "tensors": "count", "plaquettes": "count",
    "rk4_steps": "count", "hamiltonians_per_step": "count/step", "output_bytes": "B",
    "points": "count", "overhead_s": "s", "pass_s": "s", "coverage": "ratio",
}


def per_layer(runner: Runner, untraced, traced, per_pass: list[dict]):
    first = per_pass[0]
    for other in per_pass[1:]:
        moved = [k for k, v in first.items()
                 if not k.endswith("_s") and other[k] != v]
        if moved:
            print(f"warning: counts changed between traced passes: {moved}")
    timed = {k for k in first if k.endswith("_s")}
    values = {k: (statistics.median(p[k] for p in per_pass) if k in timed else first[k])
              for k in first}
    points = runner.points
    steps = values.pop("dynamics.rk4_steps")
    in_evolve = values.pop("dynamics.hamiltonians_in_evolve")
    values.update({
        "expr.evals_per_point": values["expr.evals"] / points,
        "numerics.eigensolves_per_point": values["numerics.eigensolves"] / points,
        "dynamics.rk4_steps": steps,
        "dynamics.hamiltonians_per_step": in_evolve / steps if steps else 0.0,
        "cli.output_bytes": runner.output_bytes,
        "points": points,
        "trace.pass_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.coverage": statistics.median(
            sum(p[f"{layer}.self_s"] for layer in LAYERS) / t for p, t in zip(per_pass, traced)),
    })
    for k, v in values.items():
        print(f"layer {k:<34} {v}")
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[-1]]}
            for k, v in values.items()}


def print_work_by_command(tracer: Tracer, since, first_call: int, runner: Runner) -> None:
    """Eigensolves and expression evaluations of each call of the first traced pass."""
    for label, names in (("eigensolves", ["numerics.hermitian_eigensystem"]),
                         ("expr.evals", ["expr.evaluate", "expr.evaluate_with_derivative"])):
        by_call = tracer.calls_by_invocation(since, names)
        row = {inv.command: by_call.get(first_call + k, 0)
               for k, inv in enumerate(runner.wl.invocations)}
        print(f"work {label} by command: {json.dumps(row)}")


# --------------------------------------------------------------------------
# environment record


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": int(BLAS_THREADS), "seed": seed,
        "commit": git_commit(),
    }


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_cli()
    print("env " + json.dumps(environment(args.seed)))
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        runner = Runner(cli, wl, work)
        if args.trace:
            runner.one_pass()
            untraced = passes(runner, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            per_pass: list[dict] = []
            since, first_call = tracer.mark(), len(runner.invocation_commands)
            try:
                traced = passes(runner, args.seconds / 2, tracer, per_pass)
            finally:
                tracer.uninstall()
            print_work_by_command(tracer, since, first_call, runner)
            trace_path = OUT / f"trace-{args.workload}.npz"
            tracer.save(trace_path, runner.invocation_commands)
            print(f"trace written to {trace_path.relative_to(ROOT)}")
            metrics = per_layer(runner, untraced, traced, per_pass)
        else:
            setup_s = setup_times(wl)
            runner.one_pass()
            passes(runner, args.seconds, reference=reference_s)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(runner, setup_s, peak)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = runner.check()
    failed = len(failures)
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / runner.attempted:.6f} ({failed} of {runner.attempted} calls)")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
