"""Quantum distances, path lengths, Berry flux and Chern numbers.

Angle convention: |<psi|chi>| = cos(theta/2), so theta = 2 arccos|<psi|chi>|
ranges over [0, pi] and equals the geodesic (great-circle) angle on the
Bloch sphere.  Path length under the metric obeys d(theta) = 2 ds.

Flux is computed by the link-variable method: the flux through a plaquette
is the phase of the Wilson loop of state overlaps around it.  On a closed
surface the plaquette fluxes sum to an exact multiple of 2 pi (every link
appears once in each direction), so the Chern number total/(2 pi) is an
integer up to float rounding whenever no plaquette phase is ambiguous
(magnitude >= pi).  Spheres are closed with polar caps: rows at the poles
are replaced by a single analytic state each, and the cap flux is the sum
of the triangular pole plaquettes.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError, StepError
from .model import Curve, ModelSpec, curve, hamiltonian_at, parameter_point
from .numerics import hermitian_eigensystem, state_vector
from .qgt import derivative_matrices, qgt_from_eigensystem, qgt_sum_over_states

__all__ = [
    "fidelity_angle",
    "PathSpec",
    "path_spec",
    "path_quantum_length",
    "small_separation_check",
    "SurfaceGrid",
    "FluxResult",
    "plaquette_flux_grid",
    "berry_flux",
]


def fidelity_angle(psi, chi) -> float:
    """Geodesic Bloch-sphere angle between two states, in [0, pi].

    theta = 2 arccos(clamp(|<psi|chi>|, 0, 1)); 0 for states on the same
    ray, pi for orthogonal states.  Symmetric in its arguments.
    """
    a = state_vector(psi)
    b = state_vector(chi)
    if a.size != b.size:
        raise InputError(f"state dimensions differ: {a.size} vs {b.size}")
    return 2.0 * float(np.arccos(np.clip(abs(np.vdot(a, b)), 0.0, 1.0)))


# --------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class PathSpec:
    """A level followed along a :class:`Curve` lambda(s), s in [0, 1]."""

    model: ModelSpec
    level: int
    curve: Curve
    samples: int


def path_spec(model: ModelSpec, level: int, exprs, samples: int) -> PathSpec:
    """Build a :class:`PathSpec` from per-coordinate expression strings in ``s``."""
    if samples < 2:
        raise InputError("a path needs at least 2 samples")
    return PathSpec(model, int(level), curve(model, exprs, "s"), int(samples))


def _speed(path: PathSpec, s: float) -> float:
    lam, rate = path.curve.values_and_rates(s)
    try:
        g = qgt_sum_over_states(path.model, lam, path.level).metric
    except DegeneracyError as exc:
        raise DegeneracyError(f"at s = {s:.6g}: {exc}") from None
    return float(np.sqrt(max(rate @ g @ rate, 0.0)))


def _simpson(values: np.ndarray, h: float) -> float:
    # len(values) odd
    return float(h / 3.0 * (values[0] + values[-1]
                 + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()))


def path_quantum_length(path: PathSpec, refine_check: bool = True) -> tuple[float, float]:
    """Length of the curve under the metric, and the angle 2 * length.

    Composite Simpson quadrature over the path's sample count (bumped to an
    odd node count).  With ``refine_check`` a one-step 2x refinement is
    evaluated and a warning is emitted if it moves the result by more than
    1e-8 * max(1, length).

    Raises
    ------
    DegeneracyError
        If the level is degenerate somewhere on the path (names the s value).
    """
    n = path.samples if path.samples % 2 == 1 else path.samples + 1
    svals = np.linspace(0.0, 1.0, n)
    speeds = np.array([_speed(path, s) for s in svals])
    length = _simpson(speeds, svals[1] - svals[0])
    if refine_check:
        n2 = 2 * n - 1
        svals2 = np.linspace(0.0, 1.0, n2)
        speeds2 = np.empty(n2)
        speeds2[::2] = speeds
        speeds2[1::2] = [_speed(path, s) for s in svals2[1::2]]
        refined = _simpson(speeds2, svals2[1] - svals2[0])
        if abs(refined - length) > 1e-8 * max(1.0, abs(length)):
            warnings.warn(
                f"path length changed by {abs(refined - length):.3e} under 2x "
                f"refinement; increase the sample count", stacklevel=2,
            )
    return length, 2.0 * length


def small_separation_check(model: ModelSpec, lam, delta, level: int) -> float:
    """Residual of the second-order overlap expansion at displacement delta.

    residual = | |<psi(l)|psi(l+d)>| - (1 - g_mn d^m d^n / 2) |, which decays
    like ||delta||^3 (or faster along parity-even directions).
    """
    lam = parameter_point(model, lam)
    delta = np.asarray(delta, dtype=float).ravel()
    if delta.size != model.n_parameters:
        raise InputError(f"displacement has {delta.size} entries, expected {model.n_parameters}")
    es = hermitian_eigensystem(hamiltonian_at(model, lam))
    g = qgt_from_eigensystem(es, derivative_matrices(model, lam), level).metric
    es2 = hermitian_eigensystem(hamiltonian_at(model, lam + delta))
    overlap = abs(np.vdot(es.vectors[:, level], es2.vectors[:, level]))
    predicted = 1.0 - 0.5 * float(delta @ g @ delta)
    return abs(overlap - predicted)


# --------------------------------------------------------------------------
# flux on a surface


@dataclass(frozen=True)
class SurfaceGrid:
    """Rectangular grid over two of a model's parameters.

    ``closure`` is one of:

    - ``"torus"``: both directions periodic; grid points exclude the
      duplicate endpoints and every plaquette wraps.
    - ``"sphere"``: the first (polar) direction runs over (0, pi) at cell
      centers and is capped by single analytic pole states; the second
      (azimuthal) direction is periodic over [0, 2 pi).
    - ``"open"``: inclusive endpoints, no closure; the total flux is not
      quantized.

    ``base`` supplies values for any parameters not being gridded.
    """

    mu: int
    nu: int
    mu_values: np.ndarray
    nu_values: np.ndarray
    closure: str
    base: np.ndarray

    @staticmethod
    def _resolve(model: ModelSpec, name_or_index) -> int:
        if isinstance(name_or_index, str):
            try:
                return model.parameters.index(name_or_index)
            except ValueError:
                raise InputError(
                    f"model {model.name!r} has no parameter {name_or_index!r}"
                ) from None
        return int(name_or_index)

    @staticmethod
    def _base(model: ModelSpec, base) -> np.ndarray:
        if base is None:
            return np.zeros(model.n_parameters)
        return parameter_point(model, base)

    @classmethod
    def sphere(cls, model: ModelSpec, polar, azimuth, shape=(24, 24), base=None):
        """Polar-capped sphere grid; rows sit at cell centers, off the poles."""
        n_th, n_ph = int(shape[0]), int(shape[1])
        if n_th < 2 or n_ph < 3:
            raise InputError("sphere grid needs shape >= (2, 3)")
        mu = cls._resolve(model, polar)
        nu = cls._resolve(model, azimuth)
        if mu == nu:
            raise InputError("polar and azimuth must differ")
        thetas = (np.arange(n_th) + 0.5) * np.pi / n_th
        phis = np.arange(n_ph) * 2.0 * np.pi / n_ph
        return cls(mu, nu, thetas, phis, "sphere", cls._base(model, base))

    @classmethod
    def torus(cls, model: ModelSpec, mu, nu, shape=(24, 24),
              mu_range=(0.0, 2.0 * np.pi), nu_range=(0.0, 2.0 * np.pi), base=None):
        """Doubly periodic grid; both ranges are one full period."""
        n_mu, n_nu = int(shape[0]), int(shape[1])
        if n_mu < 3 or n_nu < 3:
            raise InputError("torus grid needs shape >= (3, 3)")
        mu = cls._resolve(model, mu)
        nu = cls._resolve(model, nu)
        if mu == nu:
            raise InputError("grid directions must differ")
        mu_vals = mu_range[0] + np.arange(n_mu) * (mu_range[1] - mu_range[0]) / n_mu
        nu_vals = nu_range[0] + np.arange(n_nu) * (nu_range[1] - nu_range[0]) / n_nu
        return cls(mu, nu, mu_vals, nu_vals, "torus", cls._base(model, base))

    @classmethod
    def open_grid(cls, model: ModelSpec, mu, nu, mu_range, nu_range,
                  shape=(24, 24), base=None):
        """Open rectangle with inclusive endpoints."""
        n_mu, n_nu = int(shape[0]), int(shape[1])
        if n_mu < 2 or n_nu < 2:
            raise InputError("open grid needs shape >= (2, 2)")
        mu = cls._resolve(model, mu)
        nu = cls._resolve(model, nu)
        if mu == nu:
            raise InputError("grid directions must differ")
        return cls(mu, nu, np.linspace(*mu_range, n_mu),
                   np.linspace(*nu_range, n_nu), "open", cls._base(model, base))

    def point(self, j: int, i: int) -> np.ndarray:
        lam = self.base.copy()
        lam[self.mu] = self.mu_values[j]
        lam[self.nu] = self.nu_values[i]
        return lam


@dataclass(frozen=True)
class FluxResult:
    """Berry flux tabulated over a surface.

    ``plaquette_fluxes`` rows follow the grid; in sphere mode row 0 and the
    last row hold the polar cap triangles.  ``chern`` is total/(2 pi) and
    ``residue`` its distance to the nearest integer (meaningful for closed
    surfaces).  ``ambiguous`` is set when some plaquette phase reached pi,
    where the branch of the flux is undetermined; refine the grid.
    """

    plaquette_fluxes: np.ndarray
    total_flux: float
    chern: float
    residue: float
    ambiguous: bool
    closed: bool

    @property
    def monopole_charge(self) -> float:
        """|total flux| / (4 pi): 1/2 for a sphere enclosing a spin-1/2 degeneracy."""
        return abs(self.total_flux) / (4.0 * np.pi)


def _link(a: np.ndarray, b: np.ndarray, min_link: float) -> complex:
    o = np.vdot(a, b)
    if abs(o) < min_link:
        raise StepError(
            f"link overlap {abs(o):.3f} below {min_link}: grid too coarse"
        )
    return o


def plaquette_flux_grid(
    states: np.ndarray,
    closure: str,
    north: np.ndarray | None = None,
    south: np.ndarray | None = None,
    min_link: float = 0.2,
) -> np.ndarray:
    """Per-plaquette flux from a grid of states (gauge invariant).

    ``states`` has shape (n_mu, n_nu, dim).  The flux of a plaquette is
    minus the phase of the counterclockwise Wilson loop
    (j,i) -> (j+1,i) -> (j+1,i+1) -> (j,i+1), matching the orientation of
    the continuum flux F_mu_nu d mu d nu.  The caller picks the closure:
    "torus" wraps both directions, "sphere" wraps the second and caps the
    first with the supplied pole states, "open" wraps nothing.
    """
    n_mu, n_nu = states.shape[:2]

    def plaquette(a, b, c, d):
        loop = (_link(a, b, min_link) * _link(b, c, min_link)
                * _link(c, d, min_link) * _link(d, a, min_link))
        return -float(np.angle(loop))

    wrap_i = closure in ("torus", "sphere")
    n_cols = n_nu if wrap_i else n_nu - 1

    def interior_rows(n_rows, wrap_j):
        rows = np.empty((n_rows, n_cols))
        for j in range(n_rows):
            j2 = (j + 1) % n_mu if wrap_j else j + 1
            for i in range(n_cols):
                i2 = (i + 1) % n_nu if wrap_i else i + 1
                rows[j, i] = plaquette(
                    states[j, i], states[j2, i], states[j2, i2], states[j, i2]
                )
        return rows

    if closure == "torus":
        return interior_rows(n_mu, wrap_j=True)
    if closure == "open":
        return interior_rows(n_mu - 1, wrap_j=False)
    if closure != "sphere":
        raise InputError(f"unknown closure {closure!r}")
    if north is None or south is None:
        raise InputError("sphere closure needs both pole states")

    fluxes = np.empty((n_mu + 1, n_nu))
    fluxes[1:n_mu] = interior_rows(n_mu - 1, wrap_j=False)
    for i in range(n_nu):
        i2 = (i + 1) % n_nu
        # degenerate plaquettes with one edge contracted onto the pole
        loop_n = (_link(north, states[0, i], min_link)
                  * _link(states[0, i], states[0, i2], min_link)
                  * _link(states[0, i2], north, min_link))
        fluxes[0, i] = -float(np.angle(loop_n))
        loop_s = (_link(states[-1, i], south, min_link)
                  * _link(south, states[-1, i2], min_link)
                  * _link(states[-1, i2], states[-1, i], min_link))
        fluxes[n_mu, i] = -float(np.angle(loop_s))
    return fluxes


def berry_flux(
    model: ModelSpec,
    level: int,
    grid: SurfaceGrid,
    degeneracy_tol: float | None = None,
    min_link: float = 0.2,
) -> FluxResult:
    """Berry flux of one band over a surface grid, by link variables.

    The level must be non-degenerate at every grid point (and at the poles
    in sphere mode); a degeneracy raises and names the offending point.
    """
    dim = model.dim

    def solved_state(lam, where: str) -> np.ndarray:
        es = hermitian_eigensystem(hamiltonian_at(model, lam), degeneracy_tol)
        if len(es.group_of(level)) > 1:
            raise DegeneracyError(
                f"level {level} is degenerate at {where}; flux is undefined there"
            )
        return es.vectors[:, level]

    n_mu, n_nu = grid.mu_values.size, grid.nu_values.size
    states = np.empty((n_mu, n_nu, dim), dtype=complex)
    for j in range(n_mu):
        for i in range(n_nu):
            lam = grid.point(j, i)
            states[j, i] = solved_state(lam, f"lambda = {lam.tolist()}")

    north = south = None
    if grid.closure == "sphere":
        for name, value in (("north", 0.0), ("south", np.pi)):
            lam = grid.base.copy()
            lam[grid.mu] = value
            lam[grid.nu] = grid.nu_values[0]
            pole = solved_state(lam, f"{name} pole, lambda = {lam.tolist()}")
            if name == "north":
                north = pole
            else:
                south = pole

    fluxes = plaquette_flux_grid(states, grid.closure, north, south, min_link)
    total = float(fluxes.sum())
    chern = total / (2.0 * np.pi)
    closed = grid.closure in ("torus", "sphere")
    ambiguous = bool(np.abs(fluxes).max() >= np.pi - 1e-9)
    if ambiguous:
        warnings.warn(
            "a plaquette flux reached magnitude pi; its branch is ambiguous, "
            "refine the grid", stacklevel=2,
        )
    return FluxResult(
        plaquette_fluxes=fluxes,
        total_flux=total,
        chern=chern,
        residue=abs(chern - round(chern)),
        ambiguous=ambiguous,
        closed=closed,
    )
