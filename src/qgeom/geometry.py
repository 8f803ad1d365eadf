"""Quantum distances, path lengths, Berry flux and Chern numbers.

Angle convention: |<psi|chi>| = cos(theta/2), so theta = 2 arccos|<psi|chi>|
ranges over [0, pi] and equals the geodesic (great-circle) angle on the
Bloch sphere.  Path length under the metric obeys d(theta) = 2 ds.

Flux is computed by the link-variable method: the flux through a plaquette
is the phase of the Wilson loop of state overlaps around it.  On a closed
surface the plaquette fluxes sum to an exact multiple of 2 pi (every link
appears once in each direction), so the Chern number total/(2 pi) is an
integer up to float rounding whenever no plaquette phase is ambiguous
(magnitude >= pi).  Each link overlap is computed once, into one array per
grid direction; a closure only adds link rows and columns to them.  A
sphere is closed by one state at each pole, and each cap is a row of
plaquettes whose edge along the pole is contracted to a point.

That quantization holds on any grid that wraps, so it proves nothing by
itself: :class:`SurfaceGrid` alone knows how its surface closes, and
:func:`berry_flux` first checks, from H alone, that H agrees on the points
the closure identifies, and that a torus range is one period, not several.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, StepError
from .model import Curve, ModelSpec, curve, hamiltonian_blocks, parameter_point
from .numerics import real_number, state_vector
from .qgt import level_blocks, level_states, qgt_sum_over_states

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

FLAT_PROBE = (np.sqrt(5.0) - 1.0) / 2.0  # an edge repeats at this fraction only if H is flat


def fidelity_angle(psi, chi) -> float:
    """Geodesic Bloch-sphere angle between two states, in [0, pi].

    theta = 2 arccos(clamp(|<psi|chi>|, 0, 1)); 0 for states on the same
    ray, pi for orthogonal states.  Symmetric in its arguments.
    """
    a = state_vector(psi)
    b = state_vector(chi)
    if a.size != b.size:
        raise InputError(f"state dimensions differ: {a.size} vs {b.size}")
    return float(ray_angles(a[None], b[None])[0])


def ray_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The angle of :func:`fidelity_angle` between each row of the unit states ``a`` and
    the same row of ``b`` (n, d), unvalidated."""
    overlaps = np.abs(np.einsum("ki,ki->k", a.conj(), b))
    return 2.0 * np.arccos(np.clip(overlaps, 0.0, 1.0))


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
    if (samples := real_number(samples, "path samples", int)) < 2:
        raise InputError("a path needs at least 2 samples")
    return PathSpec(model, real_number(level, "path level", int), curve(model, exprs, "s"), samples)


def level_along(model: ModelSpec, level: int, curve: Curve, xs, where):
    """Metric speed sqrt(rate . g . rate) (N,) and unit ``level`` state (N, d) at each x,
    from one walk of :func:`level_blocks`.  State rows are strided as ``eigh``'s columns
    are, so a product with a row rounds as one with that point's column does.  The first
    x whose squared speed is not finite, as a huge rate gives, raises NumericalError
    naming ``where(i)``."""
    lam, rate = curve.sample(xs, rates=True)
    g, columns = zip(*[(q.real, v[:, :, level].T.copy())  # no block of eigenvectors kept
                       for _, v, q in level_blocks(model, lam, level, True, where)])
    with np.errstate(over="ignore", invalid="ignore"):
        speed_sq = (rate[:, None] @ np.concatenate(g) @ rate[:, :, None])[:, 0, 0]
    if (bad := np.flatnonzero(~np.isfinite(speed_sq))).size:
        raise NumericalError(f"level {level} metric speed at {where(bad[0])} is not finite")
    return np.sqrt(np.maximum(speed_sq, 0.0)), np.concatenate(columns, axis=1).T


def _simpson(values: np.ndarray, h: float) -> float:
    # len(values) odd
    return float(h / 3.0 * (values[0] + values[-1]
                 + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()))


def path_quantum_length(path: PathSpec, refine_check: bool = True) -> tuple[float, float]:
    """Length of the curve under the metric, and the angle 2 * length.

    Composite Simpson quadrature over the path's sample count (bumped to an
    odd node count).  With ``refine_check`` the midpoints are solved with the
    nodes, and a warning is emitted if the 2x refined sum moves the result by
    more than 1e-8 * max(1, length).

    Raises
    ------
    DegeneracyError
        If the level is degenerate somewhere on the path (names the s value).
    """
    n = path.samples if path.samples % 2 == 1 else path.samples + 1
    fine = 2 if refine_check else 1  # the refinement adds the n - 1 midpoints
    svals = np.linspace(0.0, 1.0, fine * (n - 1) + 1)
    speeds, _ = level_along(path.model, path.level, path.curve, svals,
                            lambda i: f"s = {svals[i]:.6g}")
    length = _simpson(speeds[::fine], fine * (svals[1] - svals[0]))
    if refine_check:
        refined = _simpson(speeds, svals[1] - svals[0])
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
    psi, chi = level_states(model, [lam, lam + delta], level)
    g = qgt_sum_over_states(model, lam, level).metric
    overlap = abs(np.vdot(psi, chi))
    predicted = 1.0 - 0.5 * float(delta @ g @ delta)
    return abs(overlap - predicted)


# --------------------------------------------------------------------------
# flux on a surface


@dataclass(frozen=True)
class SurfaceGrid:
    """Rectangular grid over two of a model's parameters.

    ``closure`` is one of:

    - ``"torus"``: both directions periodic over ``mu_range`` and
      ``nu_range``; grid points exclude the duplicate endpoints and every
      plaquette wraps.
    - ``"sphere"``: the first (polar) direction runs over (0, pi) at cell
      centers and is capped by single pole states at its ends; the second
      (azimuthal) direction is periodic over [0, 2 pi).
    - ``"open"``: inclusive endpoints, no closure; the total flux is not
      quantized.

    ``mu_range`` and ``nu_range`` hold the ends of each direction: the seam
    a periodic direction closes on, or the poles of the polar direction.
    ``base`` supplies values for any parameters not being gridded.
    """

    mu: int
    nu: int
    mu_values: np.ndarray
    nu_values: np.ndarray
    closure: str
    base: np.ndarray
    mu_range: tuple[float, float]
    nu_range: tuple[float, float]

    @staticmethod
    def _resolve(model: ModelSpec, name_or_index, key: str) -> int:
        if isinstance(name_or_index, str) and name_or_index in model.parameters:
            return model.parameters.index(name_or_index)
        try:  # otherwise an integral index in range
            if 0 <= (index := real_number(name_or_index, key, int)) < model.n_parameters:
                return index
        except InputError:
            pass
        raise InputError(f"grid {key!r}: model {model.name!r} has no parameter {name_or_index!r}")

    @staticmethod
    def _pair(value, key: str, kind=float) -> tuple:
        try:
            a, b = value
        except (TypeError, ValueError):
            raise InputError(f"grid {key!r} must be two numbers, not {value!r}") from None
        return real_number(a, f"grid {key!r}", kind), real_number(b, f"grid {key!r}", kind)

    @classmethod
    def _build(cls, model: ModelSpec, closure: str, mu, nu, shape, mu_range, nu_range, base):
        """Validate the arguments every closure shares and lay out its grid values."""
        shape = cls._pair(shape, "shape", int)
        least = {"sphere": (2, 3), "torus": (3, 3), "open": (2, 2)}[closure]
        if shape[0] < least[0] or shape[1] < least[1]:
            raise InputError(f"{closure} grid needs shape >= {least}")
        keys = ("polar", "azimuth") if closure == "sphere" else ("mu", "nu")
        mu, nu = (cls._resolve(model, p, key) for p, key in zip((mu, nu), keys))
        if mu == nu:
            raise InputError("grid directions must differ")
        ranges = cls._pair(mu_range, "mu_range"), cls._pair(nu_range, "nu_range")
        for key, (lo, hi) in zip(("mu_range", "nu_range"), ranges):
            if closure == "torus" and lo == hi:  # no period to close on; reversed is fine
                raise InputError(f"grid {key!r} of a torus is empty: both ends are {lo!r}")
        if closure == "open":
            values = [np.linspace(lo, hi, n) for (lo, hi), n in zip(ranges, shape)]
        else:  # a periodic direction starts on its seam; polar rows sit at cell centers
            offsets = (0.5 if closure == "sphere" else 0.0, 0.0)
            values = [lo + (np.arange(n) + offset) * (hi - lo) / n
                      for (lo, hi), n, offset in zip(ranges, shape, offsets)]
        base = np.zeros(model.n_parameters) if base is None else parameter_point(model, base)
        return cls(mu, nu, *values, closure, base, *ranges)

    @classmethod
    def sphere(cls, model: ModelSpec, polar, azimuth, shape=(24, 24), base=None):
        """Polar-capped sphere grid; rows sit at cell centers, off the poles."""
        return cls._build(model, "sphere", polar, azimuth, shape, (0.0, np.pi),
                          (0.0, 2 * np.pi), base)

    @classmethod
    def torus(cls, model: ModelSpec, mu, nu, shape=(24, 24),
              mu_range=(0.0, 2.0 * np.pi), nu_range=(0.0, 2.0 * np.pi), base=None):
        """Doubly periodic grid; both ranges are one full period."""
        return cls._build(model, "torus", mu, nu, shape, mu_range, nu_range, base)

    @classmethod
    def open_grid(cls, model: ModelSpec, mu, nu, mu_range, nu_range, shape=(24, 24), base=None):
        """Open rectangle with inclusive endpoints."""
        return cls._build(model, "open", mu, nu, shape, mu_range, nu_range, base)

    def _at(self, mu_values, nu_values) -> np.ndarray:
        """Points (N, k) at broadcast pairs of mu and nu values, row-major."""
        mu_values, nu_values = np.broadcast_arrays(mu_values, nu_values)
        lam = np.tile(self.base, (mu_values.size, 1))
        lam[:, self.mu] = mu_values.ravel()
        lam[:, self.nu] = nu_values.ravel()
        return lam

    def point(self, j: int, i: int) -> np.ndarray:
        return self._at(self.mu_values[j], self.nu_values[i])[0]

    def poles(self) -> dict[str, np.ndarray]:
        """The points of a sphere's "north" and "south" caps (none otherwise)."""
        if self.closure != "sphere":
            return {}
        return {name: self._at(value, self.nu_values[0])[0]
                for name, value in zip(("north", "south"), self.mu_range)}

    def check_closed(self, model: ModelSpec) -> None:
        """Check, with H evaluations only, that the closure's premise holds.

        A periodic direction needs H on its first edge to equal H one period
        further; a pole needs H to be the same at every azimuth of the grid.
        A torus range must be one period, not several: H on the first edge
        must not repeat at 1/p of it, for each prime p up to the direction's
        grid count (m periods repeat at 1/p for each prime p | m), unless H
        does not depend on that direction.  The primes come from a sieve, and
        all probes are compared with the edge in one pass at its first point,
        then the probes that still repeat in one pass over the whole edge.

        Raises
        ------
        InputError
            On a mismatch above 1e-9 * max(1, max|H|), max|H| being the
            largest entry of the two H compared; names the direction or pole,
            the two points and the mismatch.  On a torus range of several
            periods; names the direction and p.
        """
        mu_name, nu_name = model.parameters[self.mu], model.parameters[self.nu]
        seams = []  # (where, points, the points identified with them)
        if self.closure in ("torus", "sphere"):
            lo, hi = self.nu_range
            seams.append((f"along {nu_name!r}", self._at(self.mu_values, lo),
                          self._at(self.mu_values, hi)))
        if self.closure == "torus":
            lo, hi = self.mu_range
            seams.append((f"along {mu_name!r}", self._at(lo, self.nu_values),
                          self._at(hi, self.nu_values)))
        for name, lam in self.poles().items():
            others = self.nu_values[1:]
            seams.append((f"at the {name} pole",
                          self._at(lam[self.mu], np.full_like(others, lam[self.nu])),
                          self._at(lam[self.mu], others)))
        for where, a, b in seams:
            start = 0
            for (ha, _), (hb, _) in zip(hamiltonian_blocks(model, a), hamiltonian_blocks(model, b)):
                mismatch, bad = _mismatch(ha, hb)
                bad = np.flatnonzero(bad)
                if bad.size:
                    i = start + bad[0]
                    raise InputError(
                        f"surface is not closed {where}: H at lambda = {a[i].tolist()} and "
                        f"at lambda = {b[i].tolist()} differ by {mismatch[bad[0]]:.3e}"
                    )
                start += len(ha)
        if self.closure != "torus":
            return
        for name, (lo, hi), along_mu, others in ((mu_name, self.mu_range, True, self.nu_values),
                                                 (nu_name, self.nu_range, False, self.mu_values)):
            primes = _primes((self.mu_values if along_mu else self.nu_values).size)
            xs = np.concatenate([[lo, lo + (hi - lo) * FLAT_PROBE], lo + (hi - lo) / primes])
            rows = np.arange(len(xs))  # lo, the flat probe, then one per prime
            for edge in (others[:1], others):  # one edge point already rules most primes out
                at = xs[rows, None]
                points = self._at(at, edge) if along_mu else self._at(edge, at)
                h = np.concatenate([b for b, _ in hamiltonian_blocks(model, points)])
                h = h.reshape(len(rows), len(edge), *h.shape[1:])  # (probe, edge point, H)
                same = ~_mismatch(h[:1], h[1:])[1].any(axis=1)  # each probe row against lo's
                rows = rows[np.r_[True, True, same[1:]]]
                if len(rows) == 2:
                    break
            if len(rows) > 2 and not same[0]:  # a direction H does not depend on has no flux
                raise InputError(
                    f"surface covers its period more than once along {name!r}: H on the edge "
                    f"at {name} = {lo!r} repeats at 1/{primes[rows[2] - 2]} of the range; "
                    "use one period")


def _mismatch(ha: np.ndarray, hb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per broadcast point max|Ha - Hb|, and whether it exceeds 1e-9 * max(1, max|H|)."""
    with np.errstate(invalid="ignore"):  # inf - inf: the walk that solves H names its point
        mismatch = np.abs(ha - hb).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.maximum(np.abs(ha), np.abs(hb)).max(axis=(-2, -1)))
    return mismatch, mismatch > 1e-9 * scale


def _primes(n: int) -> np.ndarray:
    """The primes up to n, by the sieve of Eratosthenes."""
    sieve = np.arange(n + 1) > 1
    for p in range(2, int(n**0.5) + 1):  # a composite p crosses out multiples of its factors
        sieve[p * p::p] = False
    return np.flatnonzero(sieve)


@dataclass(frozen=True)
class FluxResult:
    """Berry flux tabulated over a surface.

    ``plaquette_fluxes`` rows follow the grid; in sphere mode row 0 and the
    last row are the polar caps, so the shape is (n_theta + 1, n_phi).
    ``chern`` is total/(2 pi) and ``residue`` its distance to the nearest
    integer (meaningful for closed surfaces).  ``ambiguous`` is always False:
    a plaquette phase that reaches pi, where the branch of the flux is
    undetermined, raises StepError instead.
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
    first with the supplied pole states, "open" wraps nothing.  A link
    overlap below ``min_link`` (a number in [0, 1]) raises StepError naming the weakest link.
    """
    if closure not in ("torus", "sphere", "open"):
        raise InputError(f"unknown closure {closure!r}")
    if closure == "sphere" and (north is None or south is None):
        raise InputError("sphere closure needs both pole states")
    if not 0.0 <= real_number(min_link, "min_link") <= 1.0:
        raise InputError(f"min_link must be in [0, 1], not {min_link!r}")
    shape, least = np.shape(states), 1 + (closure == "open")  # an open grid needs 2 x 2 points
    poles = [np.shape(pole) for pole in (north, south)] if closure == "sphere" else []
    if len(shape) != 3 or min(shape[:2]) < least or any(p[-1:] != shape[-1:] for p in poles):
        raise InputError(f"{closure} states need shape (n_mu, n_nu, dim) with n_mu, n_nu >= "
                         f"{least}" + (" and poles of shape (dim,)" if poles else "")
                         + f"; got states {shape}" + "".join(f", pole {p}" for p in poles))
    # u_mu[j, i] = <(j,i)|(j+1,i)> and u_nu[j, i] = <(j,i)|(j,i+1)>, each link once.
    # A closure adds link rows and columns; plaquette (j, i) is then bounded by
    # u_mu[j, i], u_nu[j+1, i], u_mu[j, i+1] and u_nu[j, i].
    u_mu = np.vecdot(states[:-1], states[1:])
    u_nu = np.vecdot(states[:, :-1], states[:, 1:])
    if closure != "open":
        u_nu = np.concatenate([u_nu, np.vecdot(states[:, -1:], states[:, :1])], axis=1)
    if closure == "torus":
        u_mu = np.concatenate([u_mu, np.vecdot(states[-1:], states[:1])])
        u_nu = np.concatenate([u_nu, u_nu[:1]])
    if closure == "sphere":
        # each cap is a row of plaquettes whose edge along its pole is contracted
        u_mu = np.concatenate([np.vecdot(north, states[:1]), u_mu,
                               np.vecdot(states[-1:], south)])
        u_nu = np.pad(u_nu, [(1, 1), (0, 0)], constant_values=1)
    if closure != "open":
        u_mu = np.concatenate([u_mu, u_mu[:, :1]], axis=1)

    mags = np.abs(u_mu), np.abs(u_nu)
    d = int(mags[1].min() < mags[0].min())
    j, i = np.unravel_index(mags[d].argmin(), mags[d].shape)
    if mags[d][j, i] < min_link:
        j -= closure == "sphere"  # a sphere's link rows start at its north pole
        start = f"the north pole to grid point (0, {i})" if j < 0 else f"grid point ({j}, {i})"
        raise StepError(f"link overlap {mags[d].min():.3f} below {min_link} along "
                        f"{('mu', 'nu')[d]} from {start}: grid too coarse")
    return -np.angle(u_mu[:, :-1] * u_nu[1:] * u_mu[:, 1:].conj() * u_nu[:-1].conj())


def berry_flux(model: ModelSpec, level: int, grid: SurfaceGrid,
               min_link: float = 0.2) -> FluxResult:
    """Berry flux of one band over a surface grid, by link variables.

    The grid's closure is checked first (:meth:`SurfaceGrid.check_closed`).
    The level must be non-degenerate at every grid point (and at the poles
    in sphere mode); a degeneracy raises and names the offending point, as
    does a spectrum that is not finite (NumericalError, from :func:`level_states`).  A
    plaquette flux of magnitude pi (within 1e-9) raises StepError naming
    the plaquette's row and column in ``plaquette_fluxes``.
    """
    grid.check_closed(model)
    n_mu, n_nu = grid.mu_values.size, grid.nu_values.size
    poles = grid.poles()
    names = model.parameters  # the grid's axes, its base elsewhere; poles join its last block
    points = (np.vstack([grid._at(grid.mu_values[:, None], grid.nu_values), *poles.values()])
              if poles else {**dict(zip(names, grid.base)), names[grid.mu]: grid.mu_values[:, None],
                             names[grid.nu]: grid.nu_values})

    def where(i: int) -> str:
        pole = f"{list(poles)[i - n_mu * n_nu]} pole, " if i >= n_mu * n_nu else ""
        at = list(poles.values())[i - n_mu * n_nu] if pole else grid.point(*divmod(i, n_nu))
        return f"{pole}lambda = {at.tolist()}"

    states = level_states(model, points, level, where)
    fluxes = plaquette_flux_grid(states[:n_mu * n_nu].reshape(n_mu, n_nu, model.dim),
                                 grid.closure, min_link=min_link,
                                 **dict(zip(poles, states[n_mu * n_nu:])))
    total = float(fluxes.sum())
    chern = total / (2.0 * np.pi)
    j, i = np.unravel_index(np.abs(fluxes).argmax(), fluxes.shape)
    if abs(fluxes[j, i]) >= np.pi - 1e-9:
        raise StepError(f"plaquette ({j}, {i}) flux {fluxes[j, i]:.17g} reached magnitude pi, "
                        "where its branch is ambiguous: grid too coarse")
    return FluxResult(
        plaquette_fluxes=fluxes,
        total_flux=total,
        chern=chern,
        residue=abs(chern - round(chern)),
        ambiguous=False,
        closed=grid.closure in ("torus", "sphere"),
    )
