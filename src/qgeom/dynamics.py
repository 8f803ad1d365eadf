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

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InputError, QgeomError, StepError
from .model import Curve, ModelSpec, curve, hamiltonian_blocks
from .numerics import state_vector
from .qgt import level_blocks

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


def _spectral_radius(h: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(h)).max())


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
    beyond 1e-6 aborts with a suggested smaller step.
    """
    if sched.parameters != model.parameters:
        raise InputError("schedule was built for a different parameter list")
    if not dt > 0:
        raise InputError("dt must be positive")
    if not t1 > t0:
        raise InputError("t1 must exceed t0")
    n = int(round((t1 - t0) / dt))
    if n < 1:
        raise InputError("time span shorter than one step")
    psi = state_vector(psi0)
    if psi.size != model.dim:
        raise InputError(f"state dimension {psi.size} does not match model dim {model.dim}")

    times = t0 + dt * np.arange(n + 1)
    # H at t0, then at each step's midpoint and right end, in step order
    h_times = np.empty(2 * n + 1)
    h_times[0] = t0
    h_times[1::2] = times[:-1] + 0.5 * dt
    h_times[2::2] = times[:-1] + dt
    hamiltonians = (h for block, _ in hamiltonian_blocks(model, sched.sample(h_times)[0])
                    for h in block)

    h0 = next(hamiltonians)
    radius = _spectral_radius(h0)
    if dt * radius >= STABILITY_LIMIT:
        raise StepError(
            f"dt * spectral radius = {dt * radius:.3g} >= {STABILITY_LIMIT}; "
            f"use dt < {STABILITY_LIMIT / max(radius, 1e-300):.3g}"
        )

    # raw states and H psi per record; H_k psi_k is also step k's k1
    psis = np.empty((n + 1, psi.size), dtype=complex)
    h_psis = np.empty_like(psis)
    norms = np.empty(n + 1)
    checked = 0

    def check_drift(upto: int) -> None:
        nonlocal checked
        norms[checked:upto] = np.linalg.norm(psis[checked:upto], axis=1)
        drift = np.abs(norms[checked:upto] - 1.0)
        over = np.flatnonzero(drift > MAX_NORM_DRIFT)
        if over.size:
            first = drift[over[0]]
            suggested = dt * (1e-8 / first) ** 0.25
            raise StepError(
                f"norm drift {first:.3e} at t = {times[checked + over[0]]:.9g} exceeds "
                f"{MAX_NORM_DRIFT}; suggested dt ~ {suggested:.3g}"
            )
        checked = upto

    check_every = max(1, n // 64)
    warned = False
    h_left = h0
    psis[0] = psi
    for k in range(n):
        h_mid = next(hamiltonians)
        h_right = next(hamiltonians)
        h_psis[k] = h_left @ psi
        k1 = -1j * h_psis[k]
        k2 = -1j * (h_mid @ (psi + 0.5 * dt * k1))
        k3 = -1j * (h_mid @ (psi + 0.5 * dt * k2))
        k4 = -1j * (h_right @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        psis[k + 1] = psi
        h_left = h_right
        if k % check_every == 0:
            check_drift(k + 2)
            if not warned:
                radius = _spectral_radius(h_left)
                if dt * radius >= STABILITY_LIMIT:
                    warnings.warn(
                        f"dt * spectral radius grew to {dt * radius:.3g} at "
                        f"t = {times[k + 1]:.9g}; results past here are suspect",
                        stacklevel=2,
                    )
                    warned = True
    h_psis[n] = h_left @ psi
    check_drift(n + 1)

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
    with np.errstate(invalid="ignore", divide="ignore"):
        deviation = np.where(scale > 0.0, np.abs(measured - aa) / np.where(scale > 0, scale, 1.0), 0.0)
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
    lam, lam_dot = sched.sample(traj.times, rates=True)
    rate_pred, leakage = np.empty(len(lam)), np.empty(len(lam))
    start = 0
    for _, vectors, q in level_blocks(model, lam, level, tensors=True,
                                      where=lambda i: f"t = {traj.times[i]:.9g}"):
        block, rate = slice(start, start + len(q)), lam_dot[start:start + len(q)]
        speed_sq = (rate[:, None] @ q.real @ rate[:, :, None])[:, 0, 0]
        rate_pred[block] = np.sqrt(np.maximum(speed_sq, 0.0))
        # the strided column and np.hypot round as np.vdot and abs() do at one point
        o = np.vecdot(vectors[:, :, level], traj.states[block])
        leakage[block] = 1.0 - np.hypot(o.real, o.imag) ** 2
        start += len(q)
    exact_zero = rate_pred == 0.0
    ratio = np.divide(traj.energy_uncertainty, rate_pred, out=np.zeros_like(rate_pred),
                      where=~exact_zero)
    return AdiabaticReport(
        traj.times.copy(), traj.energy_uncertainty.copy(), rate_pred,
        ratio, exact_zero, np.clip(leakage, 0.0, None),
    )
