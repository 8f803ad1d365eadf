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
and output path/format overrides.  Exit codes: 0 success, 1 validation error
(including a grid, surface or step count too large for memory), 2 numerical
error (degeneracy, step failure); error text names the point or time.

Outputs embed a header with the tool version, the config hash and the
convention notes.  Every table goes to one writer as 1-D arrays: its leading
grid columns as their axes, whose product it expands row-major (in parameter
order), then one array per column.  A CSV value is formatted by its dtype
(bool and integer values as integers, booleans as 1/0; floats with 17
significant digits, so values round-trip exactly), each axis value once; the
body is streamed chunk by chunk, a large chunk assembled in numpy with the
bytes of ``%``.  JSON rows carry the same values as numbers and booleans, with
null for a value that is not finite.
"""

import argparse
import hashlib
import json
import math
import sys
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, dynamics
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


def _check_fits(points: int, floats: int, command: str) -> None:
    """InputError, before anything is allocated, unless ``points`` of ``floats`` doubles
    each fit in physical memory."""
    if (need := 8 * points * floats) > (memory := dynamics._physical_memory()):
        raise InputError(f"{command}: {points} points need {need / 2**30:.3g} GiB, more than "
                         f"the {memory / 2**30:.3g} GiB of physical memory; use fewer points")


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


CHUNK_ROWS = 1024  # rows per CSV chunk at most
CHUNK_VALUES = 3072  # cells per CSV chunk at most, which bounds a chunk's arrays (~0.5 MB)
# A CSV chunk with fewer column values than this (rows times columns, axes not counted) is
# formatted by % alone.  Best of 300 on a 2-core Xeon, one table, % / numpy at 128, 256
# and 512 column values: 1 column and 2 axes 0.125 / 0.184, 0.221 / 0.226 and 0.414 /
# 0.322 ms; 5 columns and 2 axes 0.097 / 0.169, 0.177 / 0.201 and 0.479 / 0.334 ms;
# 8 columns 0.113 / 0.153, 0.222 / 0.176 and 0.412 / 0.228 ms.
KERNEL_MIN_VALUES = 256


def _write_table(path: Path, fmt: str, meta: dict, names, columns, written: list[Path],
                 data=lambda rows: rows, axes=()) -> None:
    """Write the row-major product of 1-D ``axes``, then equal-length 1-D ``columns``,
    as CSV, or as JSON rows passed through ``data``.

    A CSV value's format follows its dtype: bool and integer values print as ``%d``
    (booleans as 1/0), float values as ``%.17g``, and each axis value is formatted once.
    The body is written chunk by chunk as ``_csv_chunks`` makes them.  A JSON row holds
    numbers and booleans, with null for a value that is not finite (JSON has no inf or nan).
    An unwritable path is an InputError; a path joins ``written`` once open.
    """
    axes, columns = [np.asarray(a) for a in axes], [np.asarray(c) for c in columns]
    if fmt == "json":
        columns = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")] + columns
        values = [[v if np.isfinite(v) else None for v in c.tolist()]
                  if c.dtype.kind == "f" and not np.isfinite(c).all() else c.tolist()
                  for c in columns]
        records = [dict(zip(names, row)) for row in zip(*values)]
        head, chunks = json.dumps({"meta": meta, "data": data(records)}, indent=2), ()
    else:
        head = "\n".join([*(f"# {k}: {v}" for k, v in meta.items()), ",".join(names)])
        chunks = _csv_chunks(axes, columns)
    try:
        with path.open("w") as out:
            written.append(path)
            out.write(head + "\n")
            for chunk in chunks:
                out.write(chunk)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _csv_chunks(axes, columns):
    """The CSV text of each chunk of rows, each ending with its newline.

    A chunk of at least ``KERNEL_MIN_VALUES`` column values is assembled in numpy, with
    the bytes of ``%``, in one slot buffer of the table's cells kept across its chunks;
    a smaller one is formatted by one ``%``.
    """
    cols = (*axes, *columns)
    formats = ["%.17g" if c.dtype.kind == "f" else "%d" for c in cols]
    texts = [np.array([f % v for v in a.tolist()], dtype=object) for f, a in zip(formats, axes)]
    row_fmt = ",".join(["%s"] * len(axes) + formats[len(axes):])
    step, slots = max(1, min(CHUNK_ROWS, CHUNK_VALUES // len(cols))), None
    for start in range(0, n := len(columns[0]), step):
        rows = np.arange(start, min(start + step, n))
        lead = np.unravel_index(rows, [a.size for a in axes]) if axes else ()
        if rows.size * len(columns) < KERNEL_MIN_VALUES:
            chunk = [t[i].tolist() for t, i in zip(texts, lead)]
            chunk += [c[start:start + step].tolist() for c in columns]
            yield "".join([row_fmt + "\n"] * len(rows)) % tuple(chain.from_iterable(zip(*chunk)))
            continue
        if slots is None:  # each cell's slot and key, with each axis value's from its one text
            slots = np.zeros((min(step, n), len(cols), _SLOT), np.uint8)
            slots[:, len(axes):, :4] = np.frombuffer(b"-0.0", np.uint8)
            slots[:, len(axes):, _SEP_AT] = ord(",")
            slots[:, -1, _SEP_AT] = ord("\n")
            keys = np.empty(slots.shape[:2], np.intp)
            lead_cells = [(np.zeros((len(t), _SLOT), np.uint8), np.empty(len(t), np.intp))
                          for t in texts]
            for t, (axis_slots, axis_keys) in zip(texts, lead_cells):
                axis_slots[:, _SEP_AT] = ord(",")
                _place_texts(t.tolist(), axis_slots, axis_keys, np.arange(len(t)))
        chunk, chunk_keys = slots[:rows.size], keys[:rows.size]
        for j, ((axis_slots, axis_keys), i) in enumerate(zip(lead_cells, lead)):
            chunk[:, j], chunk_keys[:, j] = axis_slots[i], axis_keys[i]
        values = np.empty((rows.size, len(columns)))
        for j, c in enumerate(columns):  # an integer of 2**53 or more goes to %
            c = c[start:start + rows.size]
            values[:, j] = c if c.dtype.kind == "f" else np.where(
                (c > -2 ** 53) & (c < 2 ** 53), c, np.nan)
        row, j = np.nonzero(_kernel_cells(values, chunk[:, len(axes):], chunk_keys[:, len(axes):]))
        if row.size:  # the cells % writes
            _place_texts([formats[len(axes) + k] % columns[k][start + i] for i, k in
                          zip(row.tolist(), j.tolist())], chunk.reshape(-1, _SLOT),
                         chunk_keys.reshape(-1), row * len(cols) + len(axes) + j)
        *_, masks = _csv_tables()
        yield chunk[masks.take(chunk_keys, axis=0)].tobytes().decode("ascii")


# A CSV cell is assembled in a slot of 56 bytes, and a mask per slot picks its bytes in
# order.  Bytes 0-5 hold "-0.000", 6 "-", 7-23 the 17 digits D0..D16 of N, 24 ".", 25 "-",
# 26 D0 again, 27 "." and 28-43 D1..D16 again; 44-51 end with the exponent ("e-308"),
# and byte 52 is the separator.  Each %g layout is then a mask of few runs: 0.00DDD from
# 0-5 and 7-23, D.DDD and D.DDDe-308 from 25-43 and 44-52, DD.DDD from 6-24 and 28-43.
# A cell that % writes ends at byte 51 instead.
_SLOT, _SEP_AT = 56, 52
_CLASSES = 23  # layouts: %f with E = -4..16, then %e with a 2- and a 3-digit exponent
_TEXT_KEY = 2 * _CLASSES * 17  # keys are (sign, layout, significant digits), then texts
_E_OFF = 260  # the exponent tables hold E = -260..261 at E + _E_OFF
# |x| the kernel formats; in it Dekker's product and the scaled |x| stay normal and finite
_KERNEL_RANGE = (1e-250, 1e250)
# A fraction of N within this of 1/2 is left to %: the product's error is below 2**-47
# (1e16 <= N < 1e17), and it is exact where 10**(16 - E) is, which holds every exact tie.
_TIE_MARGIN = 2.0 ** -40
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter for 53-bit significands


@cache
def _csv_tables():
    """The 4-digit words, the words of D0 at bytes 4-7 and 24-27, the significant digits
    each 4-digit group ends at, each exponent's key base and suffix, for each E the least
    double >= 10**E and the hi, its two halves and lo of 10**(16 - E), and each key's mask.

    The exponent tables come from exact integers: 10**k is num / den, and a quotient of
    Python integers is correctly rounded.
    """
    g = np.arange(10000, dtype=np.uint16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=-1)
    words = (digits.astype(np.uint8) + ord("0")).view(np.uint32).ravel()
    last = (4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)) * (g > 0)  # 0 for 0000
    ends = np.where(last > 0, 1 + 4 * np.arange(4, dtype=np.uint8)[:, None] + last, 0)
    ends = ends.astype(np.uint8).ravel()

    e = np.arange(-_E_OFF, _E_OFF + 2)
    layout = np.where((e >= -4) & (e < 17), e + 4, 21 + (np.abs(e) >= 100))
    suffix = np.frombuffer(b"".join((b"e%+03d" % k).rjust(8, b"\0") for k in e.tolist()),
                           np.uint32).reshape(-1, 2).T  # right-aligned in bytes 44-51
    first = np.frombuffer(b"".join(b"00-%d.-%d." % (d, d) for d in range(10)), np.uint32)
    ten_floor, scale = np.empty(e.size), np.empty((4, e.size))
    for k in e.tolist():
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)  # the rest 10**(16 - k) - hi, rounded
        big = _SPLIT * hi - (_SPLIT * hi - hi)
        scale[:, k + _E_OFF] = hi, big, hi - big, lo
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        floor = num / den  # at most one step below 10**k
        a, b = floor.as_integer_ratio()
        ten_floor[k + _E_OFF] = floor if a * den >= num * b else np.nextafter(floor, np.inf)

    c = np.arange(_SLOT)
    neg = np.array([False, True])[:, None, None, None]
    cls = np.arange(_CLASSES)[:, None, None]
    nsig = np.arange(1, 18)[:, None]
    e, fixed = cls - 4, cls < 21
    b_led = ~fixed | (e == 0)  # D0.D1... from bytes 26-43
    zeros = np.where(fixed & (e < 0), -1 - e, 0)
    mask = ((c == _SEP_AT)
            | b_led & ((c == 25) & neg | (c >= 26) & (c < np.where(nsig > 1, 27 + nsig, 27)))
            | fixed & (e < 0) & ((c == 0) & neg | (c >= 1) & (c < 3 + zeros)
                                 | (c >= 7) & (c < 7 + nsig))
            | fixed & (e > 0) & ((c == 6) & neg | (c >= 7) & (c < 8 + e)
                                 | (nsig > e + 1) & ((c == 24) | (c >= 28 + e) & (c < 27 + nsig)))
            | ~fixed & (c >= _SEP_AT - 4 - (cls == 22)) & (c < _SEP_AT))
    texts = (c >= _SEP_AT - np.arange(25)[:, None]) & (c <= _SEP_AT)
    masks = np.concatenate([mask.reshape(-1, _SLOT), texts])
    return words, first.reshape(-1, 2).T, ends, layout * 17 - 1, suffix, ten_floor, scale, masks


def _place_texts(texts, slots, keys, cells) -> None:
    """Write each text into its cell's slot, ending before the separator, and its key."""
    data = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    starts = np.cumsum(lengths) - lengths
    at = np.repeat(cells * _SLOT + _SEP_AT - lengths - starts, lengths) + np.arange(data.size)
    slots.reshape(-1)[at] = data
    keys[cells] = _TEXT_KEY + lengths


def _kernel_cells(x, slots, keys):
    """Write each float of the 2-D ``x`` into its slot (``slots[i, j]``) as
    ``'%.17g' % v`` would, set its key, and return where % must write it instead."""
    words, first, ends, layout, suffix, ten_floor, scale, _ = _csv_tables()
    digits, e, spill = _digits(x, ten_floor, scale)  # its temporaries are freed here
    wide = slots.view(np.uint32)
    wide[..., 1], wide[..., 6] = first.take(digits[0], axis=1)
    for k, word in enumerate(words.take(digits[1:])):
        wide[..., 2 + k] = wide[..., 7 + k] = word
    wide[..., 11], wide[..., 12] = suffix.take(e, axis=1)
    nsig = ends.take(digits[1:] + np.arange(0, 40000, 10000)[:, None, None]).max(
        axis=0, initial=1)
    keys[:] = layout.take(e) + np.signbit(x) * (_CLASSES * 17) + nsig
    return spill


def _digits(x, ten_floor, scale):
    """D0 and the four 4-digit groups of N = round(|x| 10**(16 - E)), the index of E in
    the exponent tables, and where % must write x.

    E = floor(log10|x|) is exact, and N comes from Dekker's exact product with the
    (hi, lo) pair of 10**(16 - E), so that N holds the correctly rounded 17 digits; ±0
    give N = 0 at E = 0.  % writes x if it is not finite, subnormal or outside
    _KERNEL_RANGE, or if the rounding of N is a tie or too close to one to tell.
    """
    mag = np.abs(x)
    kept = (mag >= _KERNEL_RANGE[0]) & (mag <= _KERNEL_RANGE[1])
    mag[~kept] = 1.0
    e = np.floor(np.log10(mag)).astype(np.intp) + _E_OFF
    e += mag >= ten_floor[e + 1]  # log10 may be one off next to a power of ten
    e -= mag < ten_floor[e]
    p, r, margin = _scaled(mag, scale.take(e, axis=1))
    whole = np.floor(r)
    r -= whole  # the fraction of N
    up = r - margin > 0.5
    spill = ~up & (r + margin >= 0.5) | ~kept & (x != 0)
    # N = p + whole + up = top 1e8 + low: every step below is exact in doubles
    top = np.floor(p / 1e8)
    low = p - top * 1e8
    low += whole
    low += up
    over = np.floor(low / 1e8)
    top += over
    low -= over * 1e8
    nonzero = x != 0
    top *= nonzero
    low *= nonzero
    carry = top == 1e9  # N rounded up to 1e17: the digits of 1e16 at E + 1
    top -= carry * 9e8
    e += carry
    d0 = np.floor(top / 1e8)
    top -= d0 * 1e8
    high, below = np.floor(top / 1e4), np.floor(low / 1e4)
    return np.array([d0, high, top - high * 1e4, below, low - below * 1e4], np.intp), e, spill


def _scaled(mag, scale):
    """|x| 10**(16 - E) = p + r from ``scale``, the hi, its two halves and lo of
    10**(16 - E) at each value: p = fl(|x| hi), and r adds the rest q of the exact product
    |x| hi = p + q to |x| lo.  numpy has no fused multiply-add, so q comes from Dekker's
    product of Veltkamp halves (Numer. Math. 18 (1971) 224).  Also the tie margin of each
    value: 0 where lo is 0, as p + r is then exact."""
    hi, hi_big, hi_small, lo = scale
    split = _SPLIT * mag
    big = split - (split - mag)
    small = mag - big
    p = mag * hi
    r = ((big * hi_big - p) + big * hi_small + small * hi_big) + small * hi_small + mag * lo
    return p, r, (lo != 0) * _TIE_MARGIN


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
    _check_fits(math.prod(v.size for v in values), k * k + k + 1, "grid")  # points and table
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
    _check_fits(grid.mu_values.size * grid.nu_values.size,  # points, states and fluxes
                model.n_parameters + 2 * model.dim + 1, "chern")
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
