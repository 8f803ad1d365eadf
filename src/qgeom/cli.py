"""Command-line front end: ``qgeom <command> --config <file>``.

Commands (one JSON config block each, matching the command name):

- ``grid``: tabulate metric, curvature and level gap over a parameter lattice
- ``chern``: total Berry flux / Chern number over a closed surface,
  plus a per-plaquette file
- ``distance``: quantum length and angle along a parametric path
- ``evolve``: propagate a state and report the rate diagnostics
- ``check``: cross-validate the three tensor methods at a point

The config is a single JSON document so a run is reproducible from one
artifact; the only flags are the config path and output path/format
overrides.  Exit codes: 0 success, 1 validation error, 2 numerical error
(degeneracy, step failure); error text names the offending point or time.

Outputs embed a header with the tool version, the config hash and the
convention notes.  Every table is handed to one writer as typed columns,
one 1-D array each: a CSV column is formatted by its dtype (bool and
integer columns as integers, booleans as 1/0; float columns with 17
significant digits, so values round-trip exactly), many rows per ``%``
operation, and JSON rows carry the same values as numbers and booleans.
Rows are emitted in row-major parameter order.
"""

import argparse
import hashlib
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import aa_consistency, adiabatic_diagnostic, evolve, schedule
from .errors import InputError, NumericalError
from .geometry import SurfaceGrid, berry_flux, fidelity_angle, path_quantum_length, path_spec
from .model import ModelSpec, load_model_spec, spin_half, two_band_lattice
from .numerics import integer_index, real_number, state_vector
from .qgt import (level_blocks, level_gap, level_states, qgt_overlap_fd, qgt_projector_fd,
                  qgt_sum_over_states)

COMMANDS = ("grid", "chern", "distance", "evolve", "check")
ORDER_BASE_H = 4e-3  # check fits its convergence orders on the steps 4e-3, 2e-3 and 1e-3

CONVENTIONS = (
    "fidelity angle: |<psi|chi>| = cos(theta/2)",
    "tensor: Q = g - (i/2) F with g = Re Q; the Bloch-sphere angular metric "
    "of a two-level system equals 4*g",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qgeom",
        description="quantum geometric tensor toolkit",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--output", help="output path (overrides the config)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="output format (overrides the config)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    written: list[Path] = []
    try:
        run(args.command, args.config, args.output, args.fmt, written)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _cleanup(written)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {getattr(exc, 'where', '')}{exc}", file=sys.stderr)
        _cleanup(written)
        return 2
    return 0


def _cleanup(written: list[Path]) -> None:
    for path in written:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass


def run(command: str, config_path, output, fmt, written: list[Path]) -> None:
    config_path = Path(config_path)
    try:
        raw_bytes = config_path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read config {config_path}: {exc}") from None
    try:
        cfg = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise InputError(f"config {config_path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError("config top level must be an object")

    present = [c for c in COMMANDS if c in cfg]
    if len(present) != 1:
        raise InputError(
            f"config must contain exactly one command block, found {present or 'none'}"
        )
    if present[0] != command:
        raise InputError(
            f"config block {present[0]!r} does not match command {command!r}"
        )
    block = cfg[command]
    if not isinstance(block, dict):
        raise InputError(f"config block {command!r} must be an object")

    model = _resolve_model(cfg.get("model"))
    fmt = fmt or cfg.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise InputError(f"unknown output format {fmt!r}")
    out_path = Path(output or cfg.get("output") or f"qgeom_{command}.{fmt}")

    meta = {
        "tool": "qgeom",
        "version": __version__,
        "command": command,
        "model": model.name,
        "config_sha256": hashlib.sha256(raw_bytes).hexdigest(),
        "conventions": "; ".join(CONVENTIONS),
    }

    handler = {
        "grid": _run_grid,
        "chern": _run_chern,
        "distance": _run_distance,
        "evolve": _run_evolve,
        "check": _run_check,
    }[command]
    handler(model, block, meta, out_path, fmt, written)


def _resolve_model(spec) -> ModelSpec:
    if isinstance(spec, str):
        return load_model_spec(spec)
    if isinstance(spec, dict) and "builtin" in spec:
        name = spec["builtin"]
        if name == "spin_half":
            return spin_half(_number(spec, "mu_times_b", "model", 1.0))
        if name == "two_band_lattice":
            return two_band_lattice(_number(spec, "mass", "model", 1.0))
        raise InputError(f"unknown builtin model {name!r}")
    raise InputError("config needs 'model': a file path or {'builtin': name, ...}")


def _require(block: dict, key: str, command: str):
    if key not in block:
        raise InputError(f"{command} block needs {key!r}")
    return block[key]


def _number(block: dict, key: str, command: str, default=None, kind=float):
    """block[key] read by ``real_number``; required when there is no default."""
    value = _require(block, key, command) if default is None else block.get(key, default)
    return real_number(value, f"{command}: {key!r}", kind)


def _level(block: dict, command: str, model: ModelSpec) -> int:
    return integer_index(_require(block, "level", command), model.dim, f"{command}: level")


def _point(model: ModelSpec, mapping, where: str) -> np.ndarray:
    """Parameter vector from a name -> value mapping; unnamed parameters are 0."""
    if not isinstance(mapping, dict):
        raise InputError(f"{where} must map parameter names to values")
    lam = np.zeros(model.n_parameters)
    for name in mapping:
        if name not in model.parameters:
            raise InputError(f"{where}: unknown parameter {name!r}")
        lam[model.parameters.index(name)] = _number(mapping, name, where)
    return lam


# --------------------------------------------------------------------------
# output plumbing


CHUNK_ROWS = 1024  # rows per % formatting call; bounds the Python values alive at once


def _write_table(path: Path, fmt: str, meta: dict, names, columns, written: list[Path],
                 data=lambda rows: rows) -> None:
    """Write equal-length 1-D ``columns`` as CSV, or as JSON rows passed through ``data``.

    A CSV column's format follows its dtype: bool and integer columns print
    with ``%d`` (booleans as 1/0), float columns with ``%.17g``.  An
    unwritable path is an InputError; a path joins ``written`` once open.
    """
    columns = [np.asarray(c) for c in columns]
    if fmt == "json":
        records = [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns))]
        lines = [json.dumps({"meta": meta, "data": data(records)}, indent=2)]
    else:
        lines = [f"# {k}: {v}" for k, v in meta.items()]
        lines.append(",".join(names))
        row_fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns)
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            chunk = [c[start:start + CHUNK_ROWS].tolist() for c in columns]
            lines.append("\n".join([row_fmt] * len(chunk[0]))
                         % tuple(chain.from_iterable(zip(*chunk))))
    try:
        with path.open("w") as out:
            written.append(path)
            out.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


# --------------------------------------------------------------------------
# command handlers


def _run_grid(model, block, meta, out_path, fmt, written) -> None:
    level = _level(block, "grid", model)
    axes = _require(block, "axes", "grid")
    if not isinstance(axes, dict) or not axes:
        raise InputError("grid: 'axes' must map parameter names to [lo, hi, n]")
    unknown = set(axes) - set(model.parameters)
    if unknown:
        raise InputError(f"grid: unknown parameters {sorted(unknown)}")
    fixed = block.get("fixed", {})
    base = _point(model, fixed, "grid: 'fixed'")
    if set(fixed) & set(axes):
        raise InputError("grid: a parameter cannot be both fixed and gridded")

    swept = [model.parameters.index(p) for p in model.parameters if p in axes]
    values = []
    for mu in swept:
        what, spec = f"grid: axis {model.parameters[mu]!r}", axes[model.parameters[mu]]
        if not isinstance(spec, list) or len(spec) != 3:
            raise InputError(f"{what} must be [lo, hi, n]")
        lo, hi = real_number(spec[0], what), real_number(spec[1], what)
        n = real_number(spec[2], f"{what} count", int)
        if n < 1:
            raise InputError(f"{what} count must be at least 1, not {n}")
        values.append(np.linspace(lo, hi, n))

    k = model.n_parameters
    # row-major over the swept axes, in model parameter order
    points = np.tile(base, (int(np.prod([v.size for v in values])), 1))
    grid = np.meshgrid(*values, indexing="ij")
    points[:, swept] = np.stack(grid, axis=-1).reshape(-1, len(swept))
    (gi, gj), (fi, fj) = np.triu_indices(k), np.triu_indices(k, 1)
    rows = []
    for energies, _, q in level_blocks(model, points, level, tensors=True,
                                       where=lambda i: f"lambda = {points[i].tolist()}"):
        g, f = q.real, -2.0 * q.imag
        rows.append(np.column_stack([g[:, gi, gj], f[:, fi, fj], level_gap(energies, level)]))
    table = np.column_stack([points, np.concatenate(rows)])

    names = list(model.parameters)
    names += [f"g_{i}{j}" for i in range(k) for j in range(i, k)]
    names += [f"f_{i}{j}" for i in range(k) for j in range(i + 1, k)]
    names.append("min_gap")
    _write_table(out_path, fmt, meta, names, table.T, written)


def _build_surface(model, surface) -> SurfaceGrid:
    if not isinstance(surface, dict):
        raise InputError("chern: 'surface' must be an object")
    closure = surface.get("closure", "sphere")
    shape = surface.get("shape", [24, 24])
    base = _point(model, surface.get("fixed", {}), "chern: surface 'fixed'")
    first, second = (*model.parameters, None)[:2]  # a missing one is named in the error
    if closure == "sphere":
        return SurfaceGrid.sphere(model, surface.get("polar", first),
                                  surface.get("azimuth", second), shape, base)
    if closure == "open" and not {"mu_range", "nu_range"} <= surface.keys():
        raise InputError("chern: open surfaces need mu_range and nu_range")
    if closure in ("torus", "open"):
        build = SurfaceGrid.torus if closure == "torus" else SurfaceGrid.open_grid
        return build(model, surface.get("mu", first), surface.get("nu", second), shape=shape,
                     mu_range=surface.get("mu_range", (0.0, 2 * np.pi)),
                     nu_range=surface.get("nu_range", (0.0, 2 * np.pi)), base=base)
    raise InputError(f"chern: unknown closure {closure!r}")


def _run_chern(model, block, meta, out_path, fmt, written) -> None:
    level = _level(block, "chern", model)
    grid = _build_surface(model, _require(block, "surface", "chern"))
    result = berry_flux(model, level, grid)

    fluxes = result.plaquette_fluxes
    row, col = np.indices(fluxes.shape)
    _write_table(out_path.with_name(out_path.name + ".plaquettes.csv"), "csv", meta,
                 ("row", "col", "flux"), (row.ravel(), col.ravel(), fluxes.ravel()), written)
    names = ("chern", "total_flux", "residue", "monopole_charge",
             "max_abs_plaquette", "ambiguous")
    summary = (result.chern, result.total_flux, result.residue,
               result.monopole_charge, np.abs(fluxes).max(), result.ambiguous)
    _write_table(out_path, fmt, meta, names, [[v] for v in summary], written,
                 data=lambda rows: rows[0])


def _run_distance(model, block, meta, out_path, fmt, written) -> None:
    level = _level(block, "distance", model)
    exprs = _require(block, "path", "distance")
    samples = _number(block, "samples", "distance", 201, int)
    path = path_spec(model, level, exprs, samples)
    length, angle = path_quantum_length(path)

    ends = level_states(model, path.curve.sample([0.0, 1.0])[0], level, lambda i: f"s = {i}")
    end_angle = fidelity_angle(ends[0], ends[1])

    names = ("length", "angle", "endpoint_fidelity_angle")
    _write_table(out_path, fmt, meta, names, [[length], [angle], [end_angle]], written)


def _run_evolve(model, block, meta, out_path, fmt, written) -> None:
    sched = schedule(model, _require(block, "schedule", "evolve"))
    t0, t1, dt = (_number(block, key, "evolve") for key in ("t0", "t1", "dt"))
    initial = _require(block, "initial", "evolve")
    if isinstance(initial, dict) and "level" in initial:
        default_level = _level(initial, "evolve: 'initial'", model)
        _, vectors, _ = next(level_blocks(model, sched.sample([t0])[0], default_level,
                                          where=lambda i: f"t = {t0:.9g}"))
        psi0 = vectors[0, :, default_level]
    elif isinstance(initial, dict) and "amplitudes" in initial:
        amps = initial["amplitudes"]
        if not isinstance(amps, list) or not all(isinstance(a, list) and len(a) == 2 for a in amps):
            raise InputError("evolve: 'amplitudes' must be a list of [re, im] pairs")
        psi0 = state_vector([complex(*(real_number(x, "evolve: 'amplitudes'") for x in a))
                             for a in amps])
        default_level = None
    else:
        raise InputError("evolve: 'initial' needs 'level' or 'amplitudes'")
    level = _level(block, "evolve", model) if "level" in block else default_level
    if level is None:
        raise InputError("evolve: 'level' is required when starting from amplitudes")

    traj = evolve(model, sched, psi0, t0, t1, dt)
    aa = aa_consistency(traj)
    adi = adiabatic_diagnostic(model, sched, level, traj)

    names = ("t", "energy_mean", "delta_e", "theta_rate_measured",
             "theta_rate_aa", "ratio", "ratio_exact_zero", "leakage")
    columns = (traj.times, traj.energy_mean, traj.energy_uncertainty, aa.rate_measured,
               aa.rate_aa, adi.ratio, adi.exact_zero, adi.leakage)
    _write_table(out_path, fmt, meta, names, [c[:traj.n_steps] for c in columns], written)


def _run_check(model, block, meta, out_path, fmt, written) -> None:
    level = _level(block, "check", model)
    lam = _point(model, _require(block, "point", "check"), "check: 'point'")
    h = _number(block, "h", "check", 1e-4)

    q = qgt_sum_over_states(model, lam, level).matrix
    dev_proj = qgt_projector_fd(model, lam, level, h).matrix - q
    dev_fd = qgt_overlap_fd(model, lam, level, h).matrix - q

    hs = ORDER_BASE_H / np.array([1.0, 2.0, 4.0])
    errors = {"projector": [np.abs(qgt_projector_fd(model, lam, level, hh).matrix - q).max()
                            for hh in hs],
              "overlap_metric": [np.abs(qgt_overlap_fd(model, lam, level, hh).metric - q.real).max()
                                 for hh in hs]}
    # an order is undefined unless every error is positive and finite
    slopes = {name: float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
              if np.isfinite(errs).all() and min(errs) > 0 else None
              for name, errs in errors.items()}
    meta = dict(meta, h="%.17g" % h, order_base_h="%.17g" % ORDER_BASE_H,
                **{f"slope_{name}": "undefined" if slope is None else "%.17g" % slope
                   for name, slope in slopes.items()})

    mu, nu = np.indices(q.shape)
    names = ("mu", "nu", "q_sum_re", "q_sum_im", "dev_projector", "dev_overlap")
    # np.hypot rounds as abs() of one complex does; np.abs of a complex array may not
    columns = (mu, nu, q.real, q.imag, np.hypot(dev_proj.real, dev_proj.imag),
               np.hypot(dev_fd.real, dev_fd.imag))
    _write_table(out_path, fmt, meta, names, [c.ravel() for c in columns], written,
                 data=lambda rows: {"slopes": slopes, "entries": rows})


if __name__ == "__main__":
    sys.exit(main())
