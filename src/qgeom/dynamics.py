"""Time-dependent propagation and evolution-rate diagnostics.

States evolve under d psi / dt = -i H(t) psi (hbar = 1) with classic
fixed-step fourth-order Runge-Kutta.  The step is fixed, not adaptive,
because the rate diagnostics need uniformly sampled overlaps; accuracy is
policed by the norm-drift monitor and the documented dt^4 convergence.

Diagnostics:

- the energy uncertainty dE = sqrt(<H^2> - <H>^2) drives the speed of
  evolution: the measured ray angle per unit time equals 2 dE
  (checked per step by :func:`aa_consistency`);
- along a parameter schedule lambda(t), the instantaneous-eigenstate metric
  predicts dE = sqrt(g_mn d(lambda^m)/dt d(lambda^n)/dt) when the state
  tracks the level; :func:`adiabatic_diagnostic` reports the ratio R of the
  measured dE to that prediction together with the population leakage out
  of the level.
"""

import math
import os
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InputError, QgeomError, StepError
from .geometry import level_along
from .model import Curve, ModelSpec, curve, hamiltonian_blocks
from .numerics import real_number, state_vector

__all__ = [
    "schedule",
    "Trajectory",
    "evolve",
    "energy_uncertainty",
    "AaReport",
    "aa_consistency",
    "AdiabaticReport",
    "adiabatic_diagnostic",
]

MAX_NORM_DRIFT = 1e-6
STABILITY_LIMIT = 0.1  # dt * spectral radius must stay below this
# Up to this dim, evolve steps by RK4 step maps (three batched matrix products per block, one
# matrix-vector product per step), above it by a per-step loop.  2,000-step calls, 2-core Xeon,
# BLAS on one thread, maps / loop: d = 8 24 / 61 ms, 16 33 / 47, 20 45 / 43, 24 61 / 47 ms.
# Maps win through d = 16; 8 is a conservative cap, as no workload has a dim from 9 to 23.
STEP_MAP_MAX_DIM = 8


def schedule(model: ModelSpec, exprs: Mapping[str, str]) -> Curve:
    """Build the schedule lambda(t): a :class:`Curve` in the time ``t`` (units 1/energy)."""
    return curve(model, exprs, "t")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled evolution record.

    ``states`` are the propagated states divided by their norms;
    ``norm_drift_max`` is the largest raw deviation |norm - 1|.  ``step_angle``
    holds the ray angle between consecutive recorded states,
    2 arccos |<psi_k|psi_k+1>|.
    """

    times: np.ndarray           # (n+1,)
    states: np.ndarray          # (n+1, dim)
    energy_mean: np.ndarray     # (n+1,)
    energy_uncertainty: np.ndarray  # (n+1,)
    step_angle: np.ndarray      # (n,)
    dt: float
    norm_drift_max: float

    @property
    def n_steps(self) -> int:
        return self.step_angle.size


def energy_uncertainty(psi, h: np.ndarray) -> float:
    """dE = sqrt(<H^2> - <H>^2) for a normalized state.

    Tiny negative variances from rounding (within 1e-12 of zero, relative to
    max(1, <H^2>)) are clamped to zero; anything more negative indicates an
    internal inconsistency and raises.
    """
    psi = state_vector(psi)
    h = np.asarray(h, dtype=complex)
    if h.shape != (psi.size, psi.size):
        raise InputError(f"operator shape {h.shape} does not match state dim {psi.size}")
    return float(_energy_moments(psi[None], (h @ psi)[None])[1][0])


def _energy_moments(psi: np.ndarray, h_psi: np.ndarray):
    """<H> and dE of each normalized row of ``psi``, given the rows H psi."""
    mean = np.vecdot(psi, h_psi).real
    mean_sq = np.vecdot(h_psi, h_psi).real
    var = mean_sq - mean * mean
    negative = np.flatnonzero(var < -1e-12 * np.maximum(1.0, np.abs(mean_sq)))
    if negative.size:
        raise QgeomError(f"internal error: variance {float(var[negative[0]])!r} "
                         "is negative beyond rounding")
    return mean, np.sqrt(np.maximum(var, 0.0))


def _spectral_radii(hs) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(hs)).max(axis=-1)


def _check_drift(psis: np.ndarray, times: np.ndarray, dt: float, hs) -> None:
    """Raise StepError naming the first record whose norm is off 1 by more than MAX_NORM_DRIFT.

    ``hs[k]`` is H at record k.  A non-finite norm gets the stability bound of H there.
    """
    drift = np.abs(np.sqrt(np.vecdot(psis, psis).real) - 1.0)
    over = np.flatnonzero(~(drift <= MAX_NORM_DRIFT))  # a NaN norm counts as drift
    if over.size:
        k, first = over[0], drift[over[0]]
        suggested = (f"~ {dt * (1e-8 / first) ** 0.25:.3g}" if np.isfinite(first) else
                     f"< {STABILITY_LIMIT / max(_spectral_radii(hs[k]), 1e-300):.3g}")
        raise StepError(f"norm drift {first:.3e} at t = {times[k]:.9g} exceeds "
                        f"{MAX_NORM_DRIFT}; suggested dt {suggested}")


def _step_maps(hs: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """RK4 step maps M_k (psi_k+1 = M_k psi_k) from H at each step's left, mid and right."""
    a, b, c = ((-1j * dt) * hs[i:i + 2 * steps:2] for i in range(3))
    k2 = b + 0.5 * (b @ a)
    k3 = b + 0.5 * (b @ k2)
    maps = (a + 2.0 * k2 + 2.0 * k3 + (c + c @ k3)) / 6.0
    maps += np.eye(hs.shape[-1])
    return maps


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not report them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf


def evolve(
    model: ModelSpec,
    sched: Curve,
    psi0,
    t0: float,
    t1: float,
    dt: float,
) -> Trajectory:
    """Propagate psi0 from t0 to t1 with fixed-step RK4.

    Requires dt * (spectral radius of H(t0)) < 0.1; the bound is re-checked
    along the run and a warning is emitted if the spectrum grows past it.
    The raw propagated state is never renormalized; a drift of the norm
    beyond 1e-6 aborts with a suggested smaller step.  A step count whose
    records would not fit in physical memory is an InputError, raised before
    anything is allocated.
    """
    if sched.parameters != model.parameters:
        raise InputError("schedule was built for a different parameter list")
    t0, t1, dt = map(real_number, (t0, t1, dt), ("t0", "t1", "dt"))
    if not dt > 0:
        raise InputError("dt must be positive")
    if not t1 > t0:
        raise InputError("t1 must exceed t0")
    n = int(round(real_number((t1 - t0) / dt, "(t1 - t0) / dt")))
    if n < 1:
        raise InputError("time span shorter than one step")
    # the records: raw, H-applied and normalized states; times, H times and their points, norms
    need = 8 * (n + 1) * (6 * model.dim + 4 + 2 * model.n_parameters)
    if need > (memory := _physical_memory()):
        raise InputError(f"{n} steps need {need / 2**30:.3g} GiB of records, more than the "
                         f"{memory / 2**30:.3g} GiB of physical memory; use a larger dt or "
                         "a shorter span")
    psi = state_vector(psi0)
    if psi.size != model.dim:
        raise InputError(f"state dimension {psi.size} does not match model dim {model.dim}")

    times = t0 + dt * np.arange(n + 1)
    # H at t0, then at each step's midpoint and right end, in step order
    h_times = np.empty(2 * n + 1)
    h_times[0] = t0
    h_times[1::2] = times[:-1] + 0.5 * dt
    h_times[2::2] = times[:-1] + dt

    psis = np.empty((n + 1, psi.size), dtype=complex)  # the raw state and H psi per record
    h_psis = np.empty_like(psis)
    psis[0] = psi
    use_maps = model.dim <= STEP_MAP_MAX_DIM
    check_every = max(1, n // 64)  # growth marks: H(t_k+1) after the steps k = 0 mod this
    k0 = 0  # first step whose left-end H is carry[0]
    carry = np.empty((0, model.dim, model.dim), dtype=complex)
    # a blow-up overflows before its block ends; the drift check names its first record
    with np.errstate(over="ignore", invalid="ignore"):
        for block, _ in hamiltonian_blocks(model, sched.sample(h_times)[0]):
            hs = np.concatenate((carry, block))  # step k0 + j: H at hs[2j], hs[2j + 1], hs[2j + 2]
            if k0 == 0 and dt * (radius := _spectral_radii(hs[0])) >= STABILITY_LIMIT:
                raise StepError(f"dt * spectral radius = {dt * radius:.3g} >= {STABILITY_LIMIT}; "
                                f"use dt < {STABILITY_LIMIT / max(radius, 1e-300):.3g}")
            steps = (len(hs) - 1) // 2
            if use_maps:
                maps = _step_maps(hs, steps, dt)
                for j in range(steps):
                    psis[k0 + j + 1] = maps[j] @ psis[k0 + j]
            else:
                psi = psis[k0]
                for j in range(steps):
                    k1 = -1j * (hs[2 * j] @ psi)
                    k2 = -1j * (hs[2 * j + 1] @ (psi + 0.5 * dt * k1))
                    k3 = -1j * (hs[2 * j + 1] @ (psi + 0.5 * dt * k2))
                    k4 = -1j * (hs[2 * j + 2] @ (psi + dt * k3))
                    psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    psis[k0 + j + 1] = psi
            span = slice(k0, k0 + steps + 1)  # the block's records; the next block redoes the last
            h_psis[span] = (hs[:2 * steps + 1:2] @ psis[span, :, None])[:, :, 0]
            _check_drift(psis[span][1:], times[span][1:], dt, hs[2::2])
            marks = range(-k0 % check_every, steps, check_every)
            if len(marks):
                radii = _spectral_radii(hs[2::2][marks.start::check_every])
                over = np.flatnonzero(dt * radii >= STABILITY_LIMIT)
                if over.size:
                    k = k0 + marks[over[0]]  # the first mark past the limit, after step k
                    warnings.warn(f"dt * spectral radius grew to {dt * radii[over[0]]:.3g} at "
                                  f"t = {times[k + 1]:.9g}; results past here are suspect",
                                  stacklevel=2)
                    check_every = n + 1  # one warning: no later block has a mark
            carry = hs[2 * steps:]
            k0 += steps
    norms = np.linalg.norm(psis, axis=1)

    states = psis / norms[:, None]
    means, uncertainties = _energy_moments(states, h_psis / norms[:, None])
    overlaps = np.abs(np.einsum("ki,ki->k", states[:-1].conj(), states[1:]))
    step_angle = 2.0 * np.arccos(np.clip(overlaps, 0.0, 1.0))
    return Trajectory(times, states, means, uncertainties, step_angle, dt,
                      float(np.abs(norms - 1.0).max()))


@dataclass(frozen=True)
class AaReport:
    """Per-step comparison of the measured ray speed with 2 dE.

    ``rate_measured[k]`` is 2 arccos |<psi_k|psi_k+1>| / dt.  ``rate_aa[k]``
    is dE(t_k) + dE(t_k+1), the step-centered estimate of 2 dE: the measured
    angle spans the step, so pairing it with a one-endpoint dE would leave a
    first-order mismatch for time-varying dE and mask the second-order
    overlap error.  ``relative_deviation`` is their gap over the larger of
    the two (0 when both vanish).
    """

    times: np.ndarray
    rate_measured: np.ndarray
    rate_aa: np.ndarray
    relative_deviation: np.ndarray

    @property
    def max_relative_deviation(self) -> float:
        return float(self.relative_deviation.max()) if self.relative_deviation.size else 0.0


def aa_consistency(traj: Trajectory) -> AaReport:
    """Check that energy uncertainty drives the evolution rate, step by step."""
    measured = traj.step_angle / traj.dt
    aa = traj.energy_uncertainty[:-1] + traj.energy_uncertainty[1:]
    scale = np.maximum(np.abs(measured), np.abs(aa))
    deviation = np.divide(np.abs(measured - aa), scale, out=np.zeros_like(scale), where=scale > 0.0)
    return AaReport(traj.times[:-1], measured, aa, deviation)


@dataclass(frozen=True)
class AdiabaticReport:
    """Measured dE against the metric prediction along a schedule.

    ``ratio[k]`` is dE(t_k) / sqrt(g_mn lam_dot^m lam_dot^n); where the
    prediction is exactly zero (stationary schedule) the entry is tagged in
    ``exact_zero`` and ``ratio`` is set to 0 rather than NaN.  ``leakage``
    is 1 - |<level state|psi>|^2, the population outside the tracked level.
    """

    times: np.ndarray
    delta_e: np.ndarray
    metric_rate: np.ndarray
    ratio: np.ndarray
    exact_zero: np.ndarray
    leakage: np.ndarray


def adiabatic_diagnostic(
    model: ModelSpec,
    sched: Curve,
    level: int,
    traj: Trajectory,
) -> AdiabaticReport:
    """Per-step adiabaticity report for a trajectory along a schedule.

    Raises :class:`DegeneracyError` (naming the time) if the tracked level
    is degenerate somewhere on the schedule.
    """
    if sched.parameters != model.parameters:
        raise InputError("schedule was built for a different parameter list")
    if (dim := traj.states.shape[1]) != model.dim:
        raise InputError(f"trajectory state dimension {dim} does not match model dim {model.dim}")
    rate_pred, states = level_along(model, level, sched, traj.times,
                                    lambda i: f"t = {traj.times[i]:.9g}")
    o = np.vecdot(states, traj.states)  # np.hypot rounds as abs() does at one point
    leakage = 1.0 - np.hypot(o.real, o.imag) ** 2
    exact_zero = rate_pred == 0.0
    ratio = np.divide(traj.energy_uncertainty, rate_pred, out=np.zeros_like(rate_pred),
                      where=~exact_zero)
    return AdiabaticReport(
        traj.times.copy(), traj.energy_uncertainty.copy(), rate_pred,
        ratio, exact_zero, np.clip(leakage, 0.0, None),
    )
