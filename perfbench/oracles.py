"""Independent closed-form oracles for the qgeom CLI outputs.

Every benchmark model has the form H(lam) = E(lam) * n(lam).S, with S the
spin-S matrices, E > 0 the level spacing and n a unit vector.  Level 0 is
then the spin coherent state pointing along -n, and its geometry follows in
closed form from n alone:

- metric          g_ij  = (S/2) d_i n . d_j n
- Berry curvature F_01  = S n . (d_0 n x d_1 n)
- gap to level 1  E
- fidelity angle  2 arccos(cos(alpha/2)^(2S)), alpha the angle between the
  two field directions

The two-band lattice is S = 1/2 with E = 2|d(k)|, n = d/|d|; the builtin
spin-1/2 model is S = 1/2 with E = 2 * field; the generated spin-S model is
S = 63/2 with E = 1.  Nothing here calls qgeom: each checker parses the CSV
the CLI wrote and returns a list of error strings, empty when it passes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

TENSOR_RTOL = 1e-8    # sum-over-states entries against the closed form
LENGTH_RTOL = 1e-7    # converged Simpson path length against Gauss-Legendre
SIMPSON_RTOL = 1e-10  # path length against Simpson of the closed-form speed
ANGLE_ATOL = 1e-6     # fidelity angles
CHERN_RESIDUE = 1e-9  # distance of the Chern number to its integer
FD_DEV_RTOL = 1e-5    # finite-difference routes against the reference tensor
SLOPE_RANGE = (1.8, 2.2)  # fitted convergence orders of the FD routes
EVOLVE_RTOL = 1e-7    # RK4 diagnostics against the exact solution
RATE_RTOL = 1e-6      # measured ray speed against the exact one
RATIO_FLOOR = 1e-12   # below this the adiabatic ratio is compared absolutely


# --------------------------------------------------------------------------
# closed-form families


def _polar_frame(scale: float):
    def frame(lam):
        th, ph = lam[:, 0], lam[:, 1]
        n = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1)
        d_th = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)], -1)
        d_ph = np.stack([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), 0 * th], -1)
        return np.full(th.shape, scale), n, np.stack([d_th, d_ph], 1)
    return frame


def _two_band_frame(mass: float):
    def frame(lam):
        kx, ky = lam[:, 0], lam[:, 1]
        d = np.stack([np.sin(kx), np.sin(ky), mass + np.cos(kx) + np.cos(ky)], -1)
        norm = np.linalg.norm(d, axis=-1)
        n = d / norm[:, None]
        dd = np.stack([
            np.stack([np.cos(kx), 0 * kx, -np.sin(kx)], -1),
            np.stack([0 * ky, np.cos(ky), -np.sin(ky)], -1),
        ], 1)
        dn = (dd - n[:, None, :] * np.einsum("nc,nic->ni", n, dd)[:, :, None]) / norm[:, None, None]
        return 2.0 * norm, n, dn
    return frame


@dataclass(frozen=True)
class SpinFamily:
    """H(lam) = E(lam) n(lam).S over two parameters, level 0 tracked.

    ``frame`` maps points (N, 2) to E (N,), n (N, 3) and dn (N, 2, 3).
    """

    spin: float
    frame: Callable

    @staticmethod
    def spin_model(spin: float, scale: float) -> "SpinFamily":
        """Field of spacing ``scale`` along (theta, phi)."""
        return SpinFamily(spin, _polar_frame(scale))

    @staticmethod
    def two_band(mass: float) -> "SpinFamily":
        """sin kx sx + sin ky sy + (mass + cos kx + cos ky) sz."""
        return SpinFamily(0.5, _two_band_frame(mass))

    def geometry(self, lam):
        """Metric (N, 2, 2), curvature F_01 (N,) and gap (N,) at points (N, 2)."""
        lam = np.atleast_2d(np.asarray(lam, dtype=float))
        e, n, dn = self.frame(lam)
        g = 0.5 * self.spin * np.einsum("nic,njc->nij", dn, dn)
        f = self.spin * np.einsum("nc,nc->n", n, np.cross(dn[:, 0], dn[:, 1]))
        return g, f, e

    def qgt(self, lam) -> np.ndarray:
        """Q = g - (i/2) F at one point."""
        g, f, _ = self.geometry(lam)
        q = g[0].astype(complex)
        q[0, 1] -= 0.5j * f[0]
        q[1, 0] += 0.5j * f[0]
        return q

    def fidelity_angle(self, lam_a, lam_b) -> float:
        _, n, _ = self.frame(np.array([lam_a, lam_b], dtype=float))
        alpha = np.arccos(np.clip(n[0] @ n[1], -1.0, 1.0))
        return 2.0 * float(np.arccos(np.cos(alpha / 2.0) ** (2.0 * self.spin)))


# --------------------------------------------------------------------------
# output parsing


def parse_csv(data: bytes) -> tuple[dict, list[str], np.ndarray]:
    """Split a qgeom CSV into its '# key: value' header, columns and rows."""
    lines = data.decode().splitlines()
    meta = {}
    k = 0
    while k < len(lines) and lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition(": ")
        meta[key] = value
        k += 1
    if k >= len(lines):
        raise ValueError("no column header")
    columns = lines[k].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[k + 1:]])
    if rows.size == 0:
        rows = np.zeros((0, len(columns)))
    if rows.shape[1] != len(columns):
        raise ValueError("row width does not match the header")
    return meta, columns, rows


def _parsed(data: bytes, columns: list[str], errors: list[str]):
    try:
        meta, got, rows = parse_csv(data)
    except (ValueError, UnicodeDecodeError) as exc:
        errors.append(f"unparseable output: {exc}")
        return None, None
    if got != columns:
        errors.append(f"columns {got} != {columns}")
        return None, None
    if not np.all(np.isfinite(rows)):
        errors.append("non-finite values")
        return None, None
    return meta, rows


def _compare(errors, what, got, expected, rtol, floor=1.0):
    err = np.ravel(np.abs(got - expected) / np.maximum(floor, np.abs(expected)))
    worst = int(np.argmax(err)) if err.size else 0
    if err.size and not err[worst] <= rtol:
        errors.append(
            f"{what}: relative error {err[worst]:.3e} > {rtol:.0e} "
            f"at row {worst} (got {np.ravel(got)[worst]!r}, expected {np.ravel(expected)[worst]!r})"
        )


# --------------------------------------------------------------------------
# one checker per command


def check_grid(data: bytes, family: SpinFamily, params, axes) -> list[str]:
    """Every row of a 2-parameter grid against the closed-form geometry."""
    errors: list[str] = []
    cols = list(params) + ["g_00", "g_01", "g_11", "f_01", "min_gap"]
    _, rows = _parsed(data, cols, errors)
    if rows is None:
        return errors
    a = np.linspace(*axes[params[0]])
    b = np.linspace(*axes[params[1]])
    lam = np.stack(np.meshgrid(a, b, indexing="ij"), -1).reshape(-1, 2)
    if rows.shape[0] != lam.shape[0]:
        return [f"{rows.shape[0]} rows, expected {lam.shape[0]}"]
    _compare(errors, "grid points", rows[:, :2], lam, 1e-12)
    g, f, gap = family.geometry(lam)
    _compare(errors, "g_00", rows[:, 2], g[:, 0, 0], TENSOR_RTOL)
    _compare(errors, "g_01", rows[:, 3], g[:, 0, 1], TENSOR_RTOL)
    _compare(errors, "g_11", rows[:, 4], g[:, 1, 1], TENSOR_RTOL)
    _compare(errors, "f_01", rows[:, 5], f, TENSOR_RTOL)
    _compare(errors, "min_gap", rows[:, 6], gap, TENSOR_RTOL)
    return errors


SUMMARY_COLUMNS = ["chern", "total_flux", "residue", "monopole_charge",
                   "max_abs_plaquette", "ambiguous"]


def check_chern(summary: bytes, plaquettes: bytes, expected_chern: int,
                n_plaquettes: int, torus: SpinFamily | None = None,
                shape=None) -> list[str]:
    """Quantized total flux, consistent plaquette file.

    With ``torus`` (a family on the (0, 2 pi)^2 torus of ``shape``), every
    plaquette flux is also compared with the closed-form curvature at its
    center times its area.
    """
    errors: list[str] = []
    _, s = _parsed(summary, SUMMARY_COLUMNS, errors)
    _, p = _parsed(plaquettes, ["row", "col", "flux"], errors)
    if s is None or p is None:
        return errors
    if s.shape[0] != 1:
        return [f"summary has {s.shape[0]} rows"]
    chern, total, residue, monopole, max_abs, ambiguous = s[0]
    if not abs(chern - expected_chern) <= CHERN_RESIDUE:
        errors.append(f"chern {chern!r}, expected {expected_chern}")
    if not residue < CHERN_RESIDUE:
        errors.append(f"residue {residue!r} >= {CHERN_RESIDUE}")
    if ambiguous != 0:
        errors.append("a plaquette phase is ambiguous")
    if abs(monopole - abs(expected_chern) / 2.0) > 1e-9 * max(1.0, abs(expected_chern)):
        errors.append(f"monopole charge {monopole!r}, expected {abs(expected_chern) / 2.0}")
    if abs(total - 2.0 * np.pi * chern) > 1e-12 * max(1.0, abs(total)):
        errors.append("total_flux != 2 pi chern")
    if p.shape[0] != n_plaquettes:
        return errors + [f"{p.shape[0]} plaquettes, expected {n_plaquettes}"]
    flux = p[:, 2]
    if abs(flux.sum() - total) > 1e-9 * max(1.0, abs(total)):
        errors.append(f"plaquettes sum to {flux.sum()!r}, total_flux is {total!r}")
    if np.abs(flux).max() != max_abs:
        errors.append("max_abs_plaquette does not match the plaquette file")
    if not np.abs(flux).max() < np.pi:
        errors.append("a plaquette flux reaches pi")
    if torus is not None:
        n_mu, n_nu = shape
        h_mu, h_nu = 2.0 * np.pi / n_mu, 2.0 * np.pi / n_nu
        centers = np.stack([(p[:, 0] + 0.5) * h_mu, (p[:, 1] + 0.5) * h_nu], -1)
        _, f, _ = torus.geometry(centers)
        expected = f * h_mu * h_nu
        # midpoint rule: each plaquette's flux is off by O(h^2) of itself
        tol = 0.5 * (h_mu**2 + h_nu**2) * np.abs(expected).max()
        worst = float(np.abs(flux - expected).max())
        if worst > tol:
            errors.append(f"plaquette flux off the closed form by {worst:.3e} > {tol:.3e}")
    return errors


def check_check(data: bytes, family: SpinFamily, point) -> list[str]:
    """Reference tensor exact, FD routes close and second order."""
    errors: list[str] = []
    cols = ["mu", "nu", "q_sum_re", "q_sum_im", "dev_projector", "dev_overlap"]
    meta, rows = _parsed(data, cols, errors)
    if rows is None:
        return errors
    if rows.shape[0] != 4:
        return [f"{rows.shape[0]} rows, expected 4"]
    q = family.qgt(point)
    idx = rows[:, :2].astype(int)
    expected = q[idx[:, 0], idx[:, 1]]
    scale = max(1.0, float(np.abs(q).max()))
    _compare(errors, "q_sum_re", rows[:, 2], expected.real, TENSOR_RTOL, scale)
    _compare(errors, "q_sum_im", rows[:, 3], expected.imag, TENSOR_RTOL, scale)
    for col, name in ((4, "dev_projector"), (5, "dev_overlap")):
        if not rows[:, col].max() <= FD_DEV_RTOL * scale:
            errors.append(f"{name} {rows[:, col].max():.3e} > {FD_DEV_RTOL * scale:.3e}")
    for key in ("slope_projector", "slope_overlap_metric"):
        try:
            slope = float(meta[key])
        except (KeyError, ValueError):
            errors.append(f"missing {key}")
            continue
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            errors.append(f"{key} {slope!r} outside {SLOPE_RANGE}")
    return errors


def _simpson(values: np.ndarray) -> float:
    h = 1.0 / (values.size - 1)
    return float(h / 3 * (values[0] + values[-1] + 4 * values[1:-1:2].sum()
                          + 2 * values[2:-1:2].sum()))


def check_distance(data: bytes, family: SpinFamily, start, end, samples: int) -> list[str]:
    """Length of the straight parameter path start -> end, and its end angle.

    The CLI integrates the speed with composite Simpson on ``samples`` nodes
    (one more if even) and only warns when halving the step moves the result
    by more than 1e-8.  So the length must equal Simpson of the closed-form
    speed on those nodes, and, wherever that refinement test passes, also
    the exact (Gauss-Legendre) length.
    """
    errors: list[str] = []
    _, rows = _parsed(data, ["length", "angle", "endpoint_fidelity_angle"], errors)
    if rows is None:
        return errors
    if rows.shape[0] != 1:
        return [f"{rows.shape[0]} rows, expected 1"]
    start, end = np.asarray(start, float), np.asarray(end, float)
    rate = end - start

    def speed(s):
        g, _, _ = family.geometry(start + s[:, None] * rate)
        return np.sqrt(np.einsum("i,nij,j->n", rate, g, rate))

    n = samples + 1 - samples % 2
    coarse = _simpson(speed(np.linspace(0.0, 1.0, n)))
    fine = _simpson(speed(np.linspace(0.0, 1.0, 2 * n - 1)))
    got_length, got_angle, got_end = rows[0]
    _compare(errors, "length against Simpson on the same nodes",
             np.array([got_length]), np.array([coarse]), SIMPSON_RTOL)
    if abs(fine - coarse) <= 1e-8 * max(1.0, coarse):
        nodes, weights = np.polynomial.legendre.leggauss(256)
        exact = 0.5 * float(weights @ speed(0.5 * (nodes + 1.0)))
        _compare(errors, "length", np.array([got_length]), np.array([exact]), LENGTH_RTOL)
    if abs(got_angle - 2.0 * got_length) > 1e-12 * max(1.0, got_angle):
        errors.append("angle != 2 * length")
    end_angle = family.fidelity_angle(start, end)
    if abs(got_end - end_angle) > ANGLE_ATOL:
        errors.append(f"endpoint angle {got_end!r}, expected {end_angle!r}")
    return errors


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def bloch_vector(psi) -> np.ndarray:
    """<psi|sigma|psi> of a normalized two-component state."""
    return np.einsum("i,cij,j->c", np.conj(psi), PAULI, psi).real


def _spinor(m):
    beta = np.arccos(np.clip(m[2], -1.0, 1.0))
    return np.array([np.cos(beta / 2), np.exp(1j * np.arctan2(m[1], m[0])) * np.sin(beta / 2)])


def exact_drive(family: SpinFamily, lam0, omega: float, m0, times) -> np.ndarray:
    """Spin direction m(t) (T, 3) of a coherent state under a rotating field.

    The field keeps its spacing E and polar angle and turns about z at rate
    ``omega`` (the parameter lam[1] = lam0[1] + omega t for the spin
    families; omega = 0 for a fixed lattice point).  The spin-S motion is
    the spin-1/2 one: in the frame rotating with the field the Hamiltonian
    (E/2) n0.sigma - (omega/2) sigma_z is constant, so the propagator is
    cos(|k| t) - i sin(|k| t) k.sigma/|k|.
    """
    e, n, _ = family.frame(np.array([lam0], dtype=float))
    kappa = 0.5 * e[0] * n[0] - np.array([0.0, 0.0, 0.5 * omega])
    kn = np.linalg.norm(kappa)
    k_sigma = np.einsum("c,cij->ij", kappa / kn, PAULI)
    chi0 = _spinor(m0)
    out = np.empty((len(times), 3))
    for i, t in enumerate(times):
        chi = np.cos(kn * t) * chi0 - 1j * np.sin(kn * t) * (k_sigma @ chi0)
        psi = np.array([np.exp(-0.5j * omega * t), np.exp(0.5j * omega * t)]) * chi
        out[i] = bloch_vector(psi)
    return out


EVOLVE_COLUMNS = ["t", "energy_mean", "delta_e", "theta_rate_measured",
                  "theta_rate_aa", "ratio", "ratio_exact_zero", "leakage"]


def check_evolve(data: bytes, family: SpinFamily, lam0, omega: float, m0,
                 t0: float, dt: float, n_steps: int) -> list[str]:
    """Energy mean and uncertainty, leakage and rates against exact_drive."""
    errors: list[str] = []
    _, rows = _parsed(data, EVOLVE_COLUMNS, errors)
    if rows is None:
        return errors
    if rows.shape[0] != n_steps:
        return [f"{rows.shape[0]} records, expected {n_steps}"]
    times = t0 + dt * np.arange(n_steps + 1)
    _compare(errors, "t", rows[:, 0], times[:-1], 1e-12)
    lam = np.repeat(np.asarray(lam0, float)[None], times.size, 0)
    lam[:, 1] += omega * (times - t0)
    e, n, _ = family.frame(lam)
    m = exact_drive(family, lam0, omega, m0, times - t0)
    s = family.spin
    c = np.clip(np.einsum("nc,nc->n", n, m), -1.0, 1.0)
    mean = e * s * c
    delta = e * np.sqrt(0.5 * s * (1.0 - c * c))
    leakage = 1.0 - ((1.0 - c) / 2.0) ** (2.0 * s)
    scale = float(np.abs(e * s).max())
    _compare(errors, "energy_mean", rows[:, 1], mean[:-1], EVOLVE_RTOL, scale)
    _compare(errors, "delta_e", rows[:, 2], delta[:-1], EVOLVE_RTOL, scale)
    _compare(errors, "leakage", rows[:, 7], leakage[:-1], EVOLVE_RTOL)
    _compare(errors, "theta_rate_aa", rows[:, 4], delta[:-1] + delta[1:],
             EVOLVE_RTOL, scale)
    gamma = np.arccos(np.clip(np.einsum("nc,nc->n", m[:-1], m[1:]), -1.0, 1.0))
    rate = 2.0 * np.arccos(np.cos(gamma / 2.0) ** (2.0 * s)) / dt
    _compare(errors, "theta_rate_measured", rows[:, 3], rate, RATE_RTOL, scale)
    lam, delta = lam[:-1], delta[:-1]
    g, _, _ = family.geometry(lam)
    predicted = np.sqrt(g[:, 1, 1]) * abs(omega)
    zero = predicted == 0.0
    if not np.array_equal(rows[:, 6] != 0, zero):
        errors.append("ratio_exact_zero does not match the schedule")
    # The ratio is the delta_e column over the closed-form rate.  delta_e
    # was checked above; comparing the ratio with the exact dE instead would
    # ask the near-zero dE of a state on its level (sqrt of a rounded
    # variance, ~sqrt(eps) * |E S|) to be exact to an absolute 1e-7.
    ratio = np.where(zero, 0.0, rows[:, 2] / np.where(zero, 1.0, predicted))
    _compare(errors, "ratio", rows[:, 5], ratio, EVOLVE_RTOL, RATIO_FLOOR)
    return errors
