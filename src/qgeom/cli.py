"""Command-line front end: ``qgeom <command> --config <file>``.

Commands, the keys of ``COMMANDS`` (one JSON config block each, named alike):

- ``grid``: tabulate metric, curvature and level gap over a parameter lattice
- ``chern``: total Berry flux / Chern number over a closed surface,
  plus a per-plaquette file
- ``distance``: quantum length and angle along a parametric path
- ``evolve``: propagate a state and report the rate diagnostics
- ``check``: cross-validate the three tensor methods at a point

The config is one JSON document, read as a model file is by ``read_json``, so
a run is reproducible from one artifact; the only flags are the config path
and output path/format overrides.  Exit codes: 0 success, 1 validation error,
2 numerical error (degeneracy, step failure); error text names the point or time.

Outputs embed a header with the tool version, the config hash and the
convention notes.  Every table goes to one writer as 1-D arrays: its leading
grid columns as their axes, whose product it expands row-major (in parameter
order), then one array per column.  A CSV value is formatted by its dtype
(bool and integer values as integers, booleans as 1/0; floats with 17
significant digits, so values round-trip exactly), each axis value once, many
rows per ``%`` operation; JSON rows carry the same values as numbers and booleans.
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
from .model import ModelSpec, load_model_spec, read_json, spin_half, two_band_lattice
from .numerics import integer_index, real_number, state_vector
from .qgt import (DEFAULT_FD_STEP, derivative_matrices, fd_offsets, level_blocks, level_gap,
                  level_states, overlap_from_solved, projector_from_solved, qgt_from_eigensystem,
                  solve_displaced)

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
    raw_bytes, cfg = read_json(Path(config_path), "config")
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
    output = output or cfg.get("output") or f"qgeom_{command}.{fmt}"
    if not isinstance(output, str):
        raise InputError(f"config 'output' must be a path string, not {output!r}")

    meta = {
        "tool": "qgeom",
        "version": __version__,
        "command": command,
        "model": model.name,
        "config_sha256": hashlib.sha256(raw_bytes).hexdigest(),
        "conventions": "; ".join(CONVENTIONS),
    }

    COMMANDS[command](model, block, meta, Path(output), fmt, written)


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
                 data=lambda rows: rows, axes=()) -> None:
    """Write the row-major product of 1-D ``axes``, then equal-length 1-D ``columns``,
    as CSV, or as JSON rows passed through ``data``.

    A CSV value's format follows its dtype: bool and integer values print with ``%d``
    (booleans as 1/0), float values with ``%.17g``; each axis value is formatted once.
    An unwritable path is an InputError; a path joins ``written`` once open.
    """
    axes, columns = [np.asarray(a) for a in axes], [np.asarray(c) for c in columns]
    if fmt == "json":
        columns = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")] + columns
        records = [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns))]
        lines = [json.dumps({"meta": meta, "data": data(records)}, indent=2)]
    else:
        lines = [f"# {k}: {v}" for k, v in meta.items()]
        lines.append(",".join(names))
        formats = ["%.17g" if c.dtype.kind == "f" else "%d" for c in (*axes, *columns)]
        texts = [np.array([f % v for v in a.tolist()], dtype=object)
                 for f, a in zip(formats, axes)]
        row_fmt = ",".join(["%s"] * len(axes) + formats[len(axes):])
        for start in range(0, n := len(columns[0]), CHUNK_ROWS):
            rows = np.arange(start, min(start + CHUNK_ROWS, n))
            lead = np.unravel_index(rows, [a.size for a in axes]) if axes else ()
            chunk = [t[i].tolist() for t, i in zip(texts, lead)]
            chunk += [c[start:start + CHUNK_ROWS].tolist() for c in columns]
            lines.append("\n".join([row_fmt] * len(rows))
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

    values = []  # one axis per parameter in model order; a fixed parameter's holds its value
    for p, name in enumerate(model.parameters):
        if name not in axes:
            values.append(base[p:p + 1])
            continue
        what, spec = f"grid: axis {name!r}", axes[name]
        if not isinstance(spec, list) or len(spec) != 3:
            raise InputError(f"{what} must be [lo, hi, n]")
        lo, hi = real_number(spec[0], what), real_number(spec[1], what)
        n = real_number(spec[2], f"{what} count", int)
        if n < 1:
            raise InputError(f"{what} count must be at least 1, not {n}")
        values.append(np.linspace(lo, hi, n))

    k = model.n_parameters
    points = np.stack(np.meshgrid(*values, indexing="ij"), axis=-1).reshape(-1, k)  # row-major
    (gi, gj), (fi, fj) = np.triu_indices(k), np.triu_indices(k, 1)
    rows = []
    for energies, _, q in level_blocks(model, points, level, tensors=True,
                                       where=lambda i: f"lambda = {points[i].tolist()}"):
        g, f = q.real, -2.0 * q.imag
        rows.append(np.column_stack([g[:, gi, gj], f[:, fi, fj], level_gap(energies, level)]))

    names = [*model.parameters, *(f"g_{i}{j}" for i, j in zip(gi, gj)),
             *(f"f_{i}{j}" for i, j in zip(fi, fj)), "min_gap"]
    _write_table(out_path, fmt, meta, names, np.concatenate(rows).T, written, axes=values)


def _build_surface(model, surface) -> SurfaceGrid:
    if not isinstance(surface, dict):
        raise InputError("chern: 'surface' must be an object")
    base = _point(model, surface.get("fixed", {}), "chern: surface 'fixed'")
    closure = surface.get("closure", "sphere")
    if closure == "open" and not {"mu_range", "nu_range"} <= surface.keys():
        raise InputError("chern: open surfaces need mu_range and nu_range")
    if closure not in ("sphere", "torus", "open"):
        raise InputError(f"chern: unknown closure {closure!r}")
    sphere = closure == "sphere"
    # a missing direction is named in the grid's error; the grid's defaults fill other keys
    axes = ("polar", "azimuth") if sphere else ("mu", "nu")
    mu, nu = (surface.get(key, name) for key, name in zip(axes, (*model.parameters, None)))
    keys = ("shape",) if sphere else ("shape", "mu_range", "nu_range")
    build = {"sphere": SurfaceGrid.sphere, "torus": SurfaceGrid.torus,
             "open": SurfaceGrid.open_grid}[closure]
    return build(model, mu, nu, base=base, **{key: surface[key] for key in keys if key in surface})


def _run_chern(model, block, meta, out_path, fmt, written) -> None:
    level = _level(block, "chern", model)
    grid = _build_surface(model, _require(block, "surface", "chern"))
    result = berry_flux(model, level, grid)

    fluxes = result.plaquette_fluxes
    _write_table(out_path.with_name(out_path.name + ".plaquettes.csv"), "csv", meta,
                 ("row", "col", "flux"), (fluxes.ravel(),), written,
                 axes=[np.arange(n) for n in fluxes.shape])
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
    h = _number(block, "h", "check", DEFAULT_FD_STEP)

    hs = ORDER_BASE_H / np.array([1.0, 2.0, 4.0])
    steps = (h, *hs)  # at h for the deviations, then at hs for the fit
    # every step is validated, then one walk solves the centre and every step's points
    offsets = [fd_offsets(model, lam, s) for s in steps]
    solved = solve_displaced(model, lam, level, np.concatenate(offsets))
    q = qgt_from_eigensystem(solved.center, derivative_matrices(model, lam), level).matrix
    starts = range(0, len(solved.states), len(offsets[0]))  # each step's first row
    # each route once per step, the projector's steps first
    (dev_proj, *proj), (dev_fd, *over) = (
        [route(solved, level, s, start).matrix - q for s, start in zip(steps, starts)]
        for route in (projector_from_solved, overlap_from_solved))
    errors = {"projector": [np.abs(d).max() for d in proj],
              "overlap_metric": [np.abs(d.real).max() for d in over]}
    # an order is undefined unless every error is positive and finite
    slopes = {name: float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
              if np.isfinite(errs).all() and min(errs) > 0 else None
              for name, errs in errors.items()}
    # a route that does not converge fails, unless its error is at the rounding floor
    for name, slope in slopes.items():
        if slope is not None and slope < 1.5 and errors[name][0] > 1e-9 * max(1.0, np.abs(q).max()):
            raise NumericalError(f"check: {name} route converges at order {slope:.3g} < 1.5, "
                                 f"error {errors[name][0]:.3e} at h = {hs[0]:.3g}")
    meta = dict(meta, h="%.17g" % h, order_base_h="%.17g" % ORDER_BASE_H,
                **{f"slope_{name}": "undefined" if slope is None else "%.17g" % slope
                   for name, slope in slopes.items()})

    names = ("mu", "nu", "q_sum_re", "q_sum_im", "dev_projector", "dev_overlap")
    # np.hypot rounds as abs() of one complex does; np.abs of a complex array may not
    columns = (q.real, q.imag, np.hypot(dev_proj.real, dev_proj.imag),
               np.hypot(dev_fd.real, dev_fd.imag))
    _write_table(out_path, fmt, meta, names, [c.ravel() for c in columns], written,
                 data=lambda rows: {"slopes": slopes, "entries": rows},
                 axes=[np.arange(n) for n in q.shape])


COMMANDS = {"grid": _run_grid, "chern": _run_chern, "distance": _run_distance,
            "evolve": _run_evolve, "check": _run_check}  # argparse choices, block scan, dispatch

if __name__ == "__main__":
    sys.exit(main())
