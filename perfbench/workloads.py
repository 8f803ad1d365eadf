"""Seeded inputs for the qgeom benchmark workloads.

Each workload is a fixed list of CLI invocations (one per command) over one
model.  ``build(name, seed)`` returns the model and config documents plus,
for every invocation, the number of parameter points it evaluates and the
oracle that checks its output.  The seed picks the Haar unitary of the
spin-S model and the points, paths and states of the smaller invocations;
the sizes of the invocations never depend on it, so work counts repeat
exactly across seeds.

Every workload runs all five commands, so every end-to-end metric exists on
every workload.  The commands each workload is about run at full size; the
others run small:

- ``lattice``: two_band_lattice(1.0), dim 2.  Full size: grid 80x80, chern
  on a 128x128 torus.  Per-point Python overhead dominates.
- ``dense``: spin S = 63/2 (dim 64) from a generated model file.  Full
  size: grid 24x24, chern on a 32x32 sphere, check.  64x64 eigensolves
  dominate.
- ``drive``: spin_half(1.0).  Full size: evolve over 2000 RK4 steps and
  distance over 201 samples; single-point calls that cannot be batched
  across steps.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oracles import (
    SpinFamily,
    bloch_vector,
    check_check,
    check_chern,
    check_distance,
    check_evolve,
    check_grid,
)

WORKLOADS = ("lattice", "dense", "drive")
DENSE_SPIN = 63 / 2
GENERATOR_TOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its config document, its work size and its oracle.

    ``oracle`` takes the bytes of the output file (and of the plaquette file
    for ``chern``) and returns a list of error strings.
    """

    command: str
    config: dict
    points: int
    oracle: Callable[..., list[str]]


@dataclass(frozen=True)
class Workload:
    model: dict | str  # the configs' "model" entry: a builtin or a file path
    model_doc: dict | None  # contents of the generated model file, if any
    invocations: tuple[Invocation, ...]


# --------------------------------------------------------------------------
# the generated spin-S model


def spin_matrices(spin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sx, Sy, Sz in the |S, m> basis, m = S, S-1, ..., -S, from ladder operators."""
    dim = int(round(2 * spin)) + 1
    m = spin - np.arange(dim)
    # <m+1|S+|m> = sqrt(S(S+1) - m(m+1))
    raise_ = np.diag(np.sqrt(spin * (spin + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    lower = raise_.conj().T
    return (raise_ + lower) / 2, (raise_ - lower) / 2j, np.diag(m).astype(complex)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, R's diagonal phases removed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


SPIN_COEFFS = ("sin(theta)*cos(phi)", "sin(theta)*sin(phi)", "cos(theta)")


def spin_model_terms(spin: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Sx, Sy, Sz conjugated by one seeded Haar unitary, checked to be a spin."""
    u = haar_unitary(int(round(2 * spin)) + 1, rng)
    terms = [_symmetrized(u @ s @ u.conj().T) for s in spin_matrices(spin)]
    sx, sy, sz = terms
    err = float(np.abs(sx @ sy - sy @ sx - 1j * sz).max())
    if not err <= GENERATOR_TOL * max(1.0, spin * spin):
        raise RuntimeError(f"generated terms break [Sx, Sy] = i Sz by {err:.3e}")
    return terms


def spin_model_doc(spin: float, rng: np.random.Generator) -> dict:
    terms = spin_model_terms(spin, rng)
    return {
        "name": f"spin-{spin:g} haar",
        "dim": terms[0].shape[0],
        "parameters": ["theta", "phi"],
        "terms": [
            {"matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()], "coeff": c}
            for m, c in zip(terms, SPIN_COEFFS)
        ],
    }


def spin_hamiltonian(doc: dict, theta: float, phi: float) -> np.ndarray:
    """H of a generated model file, evaluated in numpy (for the closure checks)."""
    coeffs = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    return sum(c * np.array([[complex(*z) for z in row] for row in t["matrix"]])
               for c, t in zip(coeffs, doc["terms"]))


def check_sphere_closed(hamiltonian: Callable[[float, float], np.ndarray]) -> None:
    """H at each pole must be the same for every azimuth."""
    for pole in (0.0, math.pi):
        ref = hamiltonian(pole, 0.0)
        for phi in np.linspace(0.0, 2 * math.pi, 7)[1:]:
            err = float(np.abs(hamiltonian(pole, phi) - ref).max())
            if not err <= GENERATOR_TOL * max(1.0, float(np.abs(ref).max())):
                raise RuntimeError(f"sphere not closed: H at theta={pole} moves by {err:.3e}")


def two_band_hamiltonian(mass: float, kx: float, ky: float) -> np.ndarray:
    d = (math.sin(kx), math.sin(ky), mass + math.cos(kx) + math.cos(ky))
    return np.array([[d[2], d[0] - 1j * d[1]], [d[0] + 1j * d[1], -d[2]]])


def spin_half_hamiltonian(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s * complex(math.cos(phi), -math.sin(phi))],
                     [s * complex(math.cos(phi), math.sin(phi)), -c]])


def check_torus_closed(hamiltonian: Callable[[float, float], np.ndarray],
                       rng: np.random.Generator) -> None:
    """H must be 2 pi periodic in both directions."""
    for kx, ky in rng.uniform(-math.pi, math.pi, (8, 2)):
        ref = hamiltonian(kx, ky)
        for shifted in (hamiltonian(kx + 2 * math.pi, ky), hamiltonian(kx, ky + 2 * math.pi)):
            err = float(np.abs(shifted - ref).max())
            if not err <= GENERATOR_TOL * max(1.0, float(np.abs(ref).max())):
                raise RuntimeError(f"torus not periodic at ({kx}, {ky}): {err:.3e}")


# --------------------------------------------------------------------------
# one invocation per command


def _cfg(model, command: str, block: dict) -> dict:
    return {"model": model, "format": "csv", command: block}


def _line(start: float, rate: float, var: str) -> str:
    """start + rate * var, written so the CLI evaluates the same doubles."""
    return f"{start!r} + ({rate!r})*{var}"


def grid(model, family, params, axes: dict) -> Invocation:
    block = {"level": 0, "axes": {p: list(v) for p, v in axes.items()}}
    n = math.prod(v[2] for v in axes.values())
    return Invocation("grid", _cfg(model, "grid", block), n,
                      lambda out: check_grid(out, family, params, axes))


def chern(model, closure: str, n: int, expected: int, family=None) -> Invocation:
    block = {"level": 0, "surface": {"closure": closure, "shape": [n, n]}}
    points = n * n + (2 if closure == "sphere" else 0)
    plaquettes = n * n + (n if closure == "sphere" else 0)
    return Invocation(
        "chern", _cfg(model, "chern", block), points,
        lambda out, plaq: check_chern(out, plaq, expected, plaquettes, family, (n, n)),
    )


def check(model, family, params, point) -> Invocation:
    block = {"level": 0, "point": dict(zip(params, point))}
    return Invocation("check", _cfg(model, "check", block), 1,
                      lambda out: check_check(out, family, point))


def distance(model, family, params, start, end, samples: int, level: int = 0) -> Invocation:
    """Straight path start -> end.  The oracle's metric and end angle are
    those of level 0, which every level shares only when the spin is 1/2."""
    block = {"level": level, "samples": samples,
             "path": {p: _line(a, b - a, "s") for p, a, b in zip(params, start, end)}}
    nodes = samples if samples % 2 else samples + 1
    return Invocation("distance", _cfg(model, "distance", block), 2 * nodes - 1,
                      lambda out: check_distance(out, family, start, end, samples))


def evolve(model, family, params, lam0, omega, t1, dt, amplitudes=None) -> Invocation:
    """Field turning about z at rate omega (fixed when omega is 0) from lam0."""
    sched = {params[0]: repr(lam0[0]),
             params[1]: _line(lam0[1], omega, "t") if omega else repr(lam0[1])}
    block = {"schedule": sched, "t0": 0.0, "t1": t1, "dt": dt, "level": 0}
    if amplitudes is None:
        block["initial"] = {"level": 0}
        _, n, _ = family.frame(np.array([lam0], float))
        m0 = -n[0]
    else:
        psi = np.asarray(amplitudes) / np.linalg.norm(amplitudes)
        block["initial"] = {"amplitudes": [[z.real, z.imag] for z in psi.tolist()]}
        m0 = bloch_vector(psi)
    steps = int(round(t1 / dt))
    return Invocation("evolve", _cfg(model, "evolve", block), steps + 1,
                      lambda out: check_evolve(out, family, lam0, omega, m0, 0.0, dt, steps))


# --------------------------------------------------------------------------
# workloads


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def lattice(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 0])
    check_torus_closed(lambda kx, ky: two_band_hamiltonian(1.0, kx, ky), rng)
    model = {"builtin": "two_band_lattice", "mass": 1.0}
    fam = SpinFamily.two_band(1.0)
    params = ("kx", "ky")
    pi = math.pi
    point = [_uniform(rng, -pi, pi), _uniform(rng, -pi, pi)]
    start = [_uniform(rng, -pi, pi), _uniform(rng, -pi, pi)]
    end = [_uniform(rng, -pi, pi), _uniform(rng, -pi, pi)]
    lam0 = [_uniform(rng, -pi, pi), _uniform(rng, -pi, pi)]
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return Workload(model, None, (
        grid(model, fam, params, {"kx": [-pi, pi, 80], "ky": [-pi, pi, 80]}),
        chern(model, "torus", 128, -1, fam),
        check(model, fam, params, point),
        distance(model, fam, params, start, end, 201),
        evolve(model, fam, params, lam0, 0.0, 5.0, 0.01, amps),
    ))


def dense(seed: int, model_path: str) -> Workload:
    spin = DENSE_SPIN
    rng = np.random.default_rng([seed, 1])
    doc = spin_model_doc(spin, rng)
    check_sphere_closed(lambda th, ph: spin_hamiltonian(doc, th, ph))
    fam = SpinFamily.spin_model(spin, 1.0)
    params = ("theta", "phi")
    start = [_uniform(rng, 0.3, 2.8), _uniform(rng, 0.0, 2 * math.pi)]
    end = [_uniform(rng, 0.3, 2.8), start[1] + _uniform(rng, -1.0, 1.0)]
    lam0 = [_uniform(rng, 0.5, 2.5), _uniform(rng, 0.0, 2 * math.pi)]
    return Workload(model_path, doc, (
        grid(model_path, fam, params, {"theta": [0.1, 3.0, 24], "phi": [0.0, 6.28, 24]}),
        chern(model_path, "sphere", 32, int(round(2 * spin))),
        check(model_path, fam, params, [1.0, 0.3]),
        distance(model_path, fam, params, start, end, 101),
        evolve(model_path, fam, params, lam0, 2.0, 0.2, 0.001),
    ))


def drive(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    check_sphere_closed(spin_half_hamiltonian)
    model = {"builtin": "spin_half", "mu_times_b": 1.0}
    fam = SpinFamily.spin_model(0.5, 2.0)
    params = ("theta", "phi")
    point = [_uniform(rng, 0.3, 2.8), _uniform(rng, 0.0, 2 * math.pi)]
    return Workload(model, None, (
        grid(model, fam, params, {"theta": [0.1, 3.0, 24], "phi": [0.0, 6.28, 24]}),
        chern(model, "sphere", 24, 1),
        check(model, fam, params, point),
        distance(model, fam, params, [0.0, 0.3], [math.pi, 0.3], 201, level=1),
        evolve(model, fam, params, [math.pi / 2, 0.0], 0.05, 20.0, 0.01),
    ))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's inputs; a model file, if any, goes into ``workdir``."""
    if name == "lattice":
        return lattice(seed)
    if name == "drive":
        return drive(seed)
    if name == "dense":
        path = workdir / "model.json"
        wl = dense(seed, str(path.resolve()))
        path.write_text(json.dumps(wl.model_doc))
        return wl
    raise ValueError(f"unknown workload {name!r}")
