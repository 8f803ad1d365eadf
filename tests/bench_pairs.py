"""Alternated benchmark pairs of two source trees, recorded as one ``BENCH_<n>.json``.

    python tests/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_N.json \\
        --parent-label REV --change-label TEXT [--claim TEXT] \\
        [--workload NAME:PAIRS ...] [--seed N] [--seconds S]

Each tree is a checkout holding ``src/`` and ``perfbench/``.  For every pair
of a workload, each side runs ``perfbench/run.py --workload NAME --seed N
--seconds S --trace 0`` once, from a fresh copy of its tree's ``src/`` and
``perfbench/`` (so with no ``__pycache__`` and no earlier output), with BLAS
on one thread.  Even pairs run the parent first, odd pairs the change first.
The last line of a run's output is its JSON result.

The file holds the keys ``what``, ``parent``, ``change``, ``claim``,
``machine``, ``python``, ``numpy``, ``blas``, ``blas_threads``, ``summary``
and ``runs``.  Per workload, ``summary`` holds the pairs, the seeds, the
failed and attempted counts of each side, and per metric each side's median
and quartiles (linear interpolation), the change in the median, the parent's
interquartile range, and the pairs the change won and lost (ties count for
neither; ``better`` is read from the change tree's ``BENCHMARK.json``).  It is
rewritten after every run, so an interrupted recording keeps what it ran.
Standard library and numpy only; pytest does not collect it.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BLAS_THREADS = 1
SIDES = ("parent", "change")


def machine() -> dict:
    """The platform, the CPU count and the CPU model name (from /proc/cpuinfo where it exists)."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    model = next((l.split(":", 1)[1].strip() for l in lines if l.startswith("model name")), "")
    return {"platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count(), "cpu_model": model}


def blas() -> str:
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{dep.get('name', '?')} {dep.get('version', '?')}"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from a fresh copy of ``tree``; its last output line, parsed."""
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench_out", ".hypothesis")
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "perfbench"):
            shutil.copytree(tree / name, Path(tmp) / name, ignore=ignore)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: {tree} {workload} seed {seed} exited {done.returncode} with no JSON "
                 f"line:\n{done.stderr[-2000:]}")


def quartiles(values: list[float]) -> dict:
    """Median and quartiles by linear interpolation between order statistics."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict) -> dict:
    """Per workload: pairs, seeds, counts of each side and per-metric medians, quartiles, wins."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        side = {(r["pair"], r["side"]): r["result"] for r in mine}
        pairs = sorted(p for p, s in side if s == "parent" and (p, "change") in side)
        metrics = {}
        for name, first in (side[pairs[0], "parent"]["metrics"] if pairs else {}).items():
            value = {(p, s): side[p, s]["metrics"][name]["value"] for p in pairs for s in SIDES}
            lower = better.get(name, "lower") == "lower"
            stats = {s: quartiles([value[p, s] for p in pairs]) for s in SIDES}
            gains = [(value[p, "parent"] - value[p, "change"]) * (1 if lower else -1)
                     for p in pairs]
            metrics[name] = {
                "unit": first["unit"], "better": "lower" if lower else "higher", **stats,
                "median_change_pct":
                    100 * (stats["change"]["median"] / stats["parent"]["median"] - 1),
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
                "wins": sum(g > 0 for g in gains), "losses": sum(g < 0 for g in gains),
            }
        summary[workload] = {
            "pairs": len(pairs), "seeds": sorted({r["seed"] for r in mine}),
            "all_correct": all(r["result"]["correct"] for r in mine),
            "failed": {s: sum(r["result"]["failed"] for r in mine if r["side"] == s)
                       for s in SIDES},
            "attempted": {s: sum(r["result"]["attempted"] for r in mine if r["side"] == s)
                          for s in SIDES},
            "metrics": metrics,
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent-label", required=True)
    ap.add_argument("--change-label", required=True)
    ap.add_argument("--claim", default="")
    ap.add_argument("--workload", action="append", default=[], metavar="NAME:PAIRS")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    plan = [(w.partition(":")[0], int(w.partition(":")[2] or 10))
            for w in args.workload or ["lattice", "dense", "drive"]]
    try:
        end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    except (OSError, ValueError, KeyError):
        end_to_end = []
    better = {m["name"]: m["better"] for m in end_to_end}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    counts = ", ".join(f"{n} pairs on {w}" for w, n in plan)
    doc = {
        "what": f"alternated parent/change runs of `python3 perfbench/run.py --workload W "
                f"--seed {args.seed} --seconds {args.seconds:g} --trace 0`, seed {args.seed} on "
                f"every pair and both sides; {counts}; even pairs run the parent first, odd "
                f"pairs the change first; quartiles by linear interpolation; each side runs "
                f"from a fresh copy of its tree without __pycache__",
        "parent": args.parent_label, "change": args.change_label, "claim": args.claim,
        "machine": machine(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas(), "blas_threads": BLAS_THREADS, "summary": {}, "runs": [],
    }
    for workload, count in plan:
        for pair in range(count):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], workload, args.seed, args.seconds)
                doc["runs"].append({"workload": workload, "pair": pair, "seed": args.seed,
                                    "side": side, "order": " ".join(order), "result": result})
                doc["summary"] = summarize(doc["runs"], better)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{workload} pair {pair} {side}: correct={result['correct']} "
                      f"failed={result['failed']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
