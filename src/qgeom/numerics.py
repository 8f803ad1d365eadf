"""Dense complex linear algebra and the Hermitian eigensystem contract.

Everything downstream (Hamiltonian families, geometric tensors, flux
integrals, propagation) is built on the small set of guarantees provided
here: matrices are finite, Hermitian matrices are Hermitian *as stored*,
state vectors are normalized, and eigensystems come back sorted, orthonormal
and grouped into degenerate clusters.

All functions are pure: no shared mutable state, safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "complex_matrix",
    "hermitian",
    "state_vector",
    "EigenSystem",
    "hermitian_eigensystem",
    "level_eigenvectors",
    "degeneracy_groups",
    "real_number",
    "integer_index",
]

STATE_SOLVES = 3  # shifted solves per state before level_eigenvectors gives up
# nonzero real and imaginary parts of a dim-2 stack that _eigh solves itself: inside it no
# zheevd, dsteqr or zlarfg rescaling fires (they start near 1.4e-146, 1.2e-122 and 2e-292
# from below, 7e145 and 2.2e153 from above)
EIGH2_RANGE = (1e-120, 1e145)
# shorter dim-2 stacks go to LAPACK, whose cost per call is lower: best of 9 per call on a
# 2-core Xeon, BLAS on one thread, _eigh / eigh took 0.105 / 0.006 ms at 1 matrix, 0.096 /
# 0.036 at 41, 0.117 / 0.091 at 96, 0.123 / 0.122 at 128, 0.127 / 0.181 at 192 and
# 0.254 / 0.875 at 1,024
EIGH2_MIN_STACK = 128
LAPACK_EPS, LAPACK_SAFMIN = 2.0 ** -53, np.finfo(float).tiny  # dlamch('E'), dlamch('S')


def complex_matrix(entries) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InputError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InputError("matrix has non-finite entries")
    return m


def hermitian(entries, asymmetry_tol: float | None = None) -> np.ndarray:
    """Return a matrix that is Hermitian exactly as stored.

    The input is symmetrized via (M + M†)/2, which in IEEE arithmetic yields
    entry(i, j) == conj(entry(j, i)) bit for bit and a real diagonal.

    Parameters
    ----------
    entries : array-like
        Square complex matrix.
    asymmetry_tol : float, optional
        If given, reject the input when max |M - M†| exceeds
        ``asymmetry_tol * max(1, max|M|)`` instead of silently symmetrizing.
        The error message names the worst entry.

    Returns
    -------
    np.ndarray
        The symmetrized matrix.
    """
    m = complex_matrix(entries)
    asym = m - m.conj().T
    if asymmetry_tol is not None:
        scale = max(1.0, float(np.abs(m).max()))
        worst = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(asym)), asym.shape))
        worst_val = float(np.abs(asym[worst]))
        if worst_val > asymmetry_tol * scale:
            raise InputError(
                f"matrix is not Hermitian: entry {worst} differs from the "
                f"conjugate of its transpose by {worst_val:.3e} "
                f"(tolerance {asymmetry_tol * scale:.3e})"
            )
    return (m + m.conj().T) / 2


def real_number(value, what: str, kind=float):
    """``value`` as a finite ``kind`` (float or int): the one test of what counts as a number.

    Only a Python or numpy int or float is accepted, never a bool or a
    string; with ``kind=int`` it must also be integral.  The InputError
    names the value by ``what``.
    """
    try:
        valid = (isinstance(value, (int, float, np.integer, np.floating))
                 and not isinstance(value, bool) and np.isfinite(float(value))
                 and (kind is not int or float(value).is_integer()))
    except OverflowError:  # an int too large for a float
        valid = False
    if not valid:
        expected = "an integer" if kind is int else "a finite number"
        raise InputError(f"{what} must be {expected}, not {value!r}")
    return kind(value)


def integer_index(i, size: int, what: str):
    """``i`` if a Python or numpy int (not a bool) in 0..size-1, else InputError naming ``what``."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < size:
        raise InputError(f"{what} must be an integer in 0..{size - 1}, not {i!r}")
    return i


def state_vector(amplitudes) -> np.ndarray:
    """Validate, normalize and return a complex state vector."""
    v = np.array(amplitudes, dtype=complex).ravel()
    if v.size == 0:
        raise InputError("empty state vector")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise InputError("state vector has non-finite entries")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise InputError("cannot normalize the zero vector")
    return v / norm


@dataclass(frozen=True)
class EigenSystem:
    """Solved Hermitian eigenproblem at one parameter point.

    Attributes
    ----------
    energies : np.ndarray
        Real eigenvalues in non-decreasing order.
    vectors : np.ndarray
        Orthonormal eigenvectors as columns; ``vectors[:, i]`` belongs to
        ``energies[i]``.  Each column's overall phase is arbitrary and MUST
        NOT be relied on: a different machine or library version may return
        different phases for the same matrix.  Dim-2 blocks solved by
        ``qgt`` carry the phases of this LAPACK build (its n = 2 steps are
        replayed in numpy); under another LAPACK they may differ from that
        build's in the last bits, as any ``eigh`` result may.
    groups : tuple[tuple[int, ...], ...]
        Partition of level indices into maximal degenerate clusters,
        ordered by energy.
    """

    energies: np.ndarray
    vectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.energies.size

    def group_of(self, level: int) -> tuple[int, ...]:
        """The degenerate cluster containing ``level``."""
        integer_index(level, self.dim, "level")
        return next(g for g in self.groups if level in g)

    def gap(self, level: int) -> float:
        """Distance from ``level`` to the nearest energy outside its cluster."""
        others = np.delete(self.energies, self.group_of(level))
        return float(np.abs(others - self.energies[level]).min(initial=np.inf))


def degeneracy_groups(energies, tol: float) -> tuple[tuple[int, ...], ...]:
    """Cluster ascending energies into maximal groups with consecutive gaps <= tol.

    Empty input yields an empty partition.
    """
    e = np.asarray(energies, dtype=float)
    if e.size == 0:
        return ()
    cuts = np.flatnonzero(~(np.diff(e) <= tol)) + 1  # a NaN gap splits too
    return tuple(tuple(g.tolist()) for g in np.split(np.arange(e.size), cuts))


def default_degeneracy_tol(energies):
    """Scale-aware clustering tolerance: 1e-9 * max(1, spectral range).

    For a stack of ascending spectra (..., d), one tolerance per spectrum.
    """
    e = np.asarray(energies, dtype=float)
    spread = e[..., -1] - e[..., 0] if e.shape[-1] else 0.0
    return 1e-9 * np.maximum(1.0, spread)


def hermitian_eigensystem(h: np.ndarray, degeneracy_tol: float | None = None) -> EigenSystem:
    """Diagonalize a Hermitian matrix.

    Parameters
    ----------
    h : np.ndarray
        Hermitian matrix (as produced by :func:`hermitian`).
    degeneracy_tol : float, optional
        Energy gap below which adjacent levels are clustered as degenerate.
        Defaults to ``1e-9 * max(1, spectral range)``.

    Returns
    -------
    EigenSystem
        Ascending energies, orthonormal eigenvector columns and the
        degeneracy partition.  Output is deterministic for identical
        input bits.
    """
    m = hermitian(h, asymmetry_tol=1e-12)  # tolerate rounding asymmetry, not more
    if degeneracy_tol is not None and not degeneracy_tol > 0:
        raise InputError("degeneracy_tol must be positive")
    energies, vectors = np.linalg.eigh(m)
    tol = degeneracy_tol if degeneracy_tol is not None else default_degeneracy_tol(energies)
    return EigenSystem(energies, vectors, degeneracy_groups(energies, tol))


def _eigh(h):
    """``np.linalg.eigh(h)`` of a stack (n, d, d), bit for bit; at d = 2 by LAPACK's steps.

    ``eigh`` runs ``zheevd('V', 'L')``.  At n = 2 that is ``zlarfg`` on A(2,1), the
    ``zhetd2`` update of A(2,2), ``dsteqr``'s split test or ``dlaev2`` rotation, its
    ascending sort and the ``zunm2r`` back-transform of row 2.  Each is done here in the
    same floating-point operations, in their order, over the whole stack, which skips
    LAPACK's cost per matrix.  Any other d, a stack shorter than ``EIGH2_MIN_STACK``,
    and any entry that is not finite or has a nonzero part outside ``EIGH2_RANGE``
    (where LAPACK would rescale) go to ``eigh``.
    """
    if h.shape[-1] != 2 or h.dtype != complex or len(h) < EIGH2_MIN_STACK:
        return np.linalg.eigh(h)
    parts = np.abs(np.ascontiguousarray(h).view(float))  # real and imaginary parts
    if not np.all((parts == 0) | (parts >= EIGH2_RANGE[0]) & (parts <= EIGH2_RANGE[1])):  # or NaN
        return np.linalg.eigh(h)
    d1, d2, ar, ai = h[:, 0, 0].real, h[:, 1, 1].real, h[:, 1, 0].real, h[:, 1, 0].imag
    eps = LAPACK_EPS
    with np.errstate(invalid="ignore", divide="ignore"):  # rows that take no step are masked
        # zlarfg: beta = -sign(ar) dlapy3(ar, ai, 0), tau = ((beta - ar) / beta, -ai / beta)
        big = np.maximum(np.abs(ar), np.abs(ai))
        norm = big * np.sqrt((np.abs(ar) / big) ** 2 + (np.abs(ai) / big) ** 2)  # dlapy3
        beta = -np.copysign(norm, ar)
        reflect = ai != 0  # else tau = 0 and e = ar
        tr = np.where(reflect, (beta - ar) / beta, 0.0)
        ti = np.where(reflect, -ai / beta, 0.0)
        e = np.where(reflect, beta, ar)
        # zhetd2: w = tau d2 - tau conj(tau d2) / 2, then A(2,2) = (d2 - Re w) - Re w
        wr = tr * d2 + ((-0.5 * tr) * (tr * d2) - (-0.5 * ti) * -(ti * d2))
        dd = np.where(reflect, (d2 - wr) - wr, d2)
        # dsteqr: the split test, then its QL one (they differ at rounding's edge)
        a1, a2 = np.abs(d1), np.abs(dd)
        split = ((np.abs(e) <= np.sqrt(a1) * np.sqrt(a2) * eps)
                 | (e * e <= eps * eps * a1 * a2 + LAPACK_SAFMIN))
        # dlaev2(d1, e, dd): rt1, rt2 and the rt1 eigenvector (c, s)
        sm, df, tb = d1 + dd, d1 - dd, e + e
        adf, ab = np.abs(df), np.abs(tb)
        hi, lo = np.maximum(adf, ab), np.minimum(adf, ab)
        rt = hi * np.sqrt(1.0 + (lo / hi) ** 2)  # ab sqrt(2) when adf == ab
        rt1 = 0.5 * (sm + np.where(sm < 0, -rt, rt))
        first = a1 > a2
        acmx, acmn = np.where(first, d1, dd), np.where(first, dd, d1)
        rt2 = np.where(sm == 0, -0.5 * rt, (acmx / rt1) * acmn - (e / rt1) * e)
        cs = df + np.where(df >= 0, rt, -rt)
        over = np.abs(cs) > ab  # ab == 0 only where e == 0, a split row
        t = np.where(over, -tb / cs, -cs / tb)
        r = 1.0 / np.sqrt(1.0 + t * t)
        c, s = np.where(over, t * r, r), np.where(over, r, t * r)
        c, s = np.where((sm < 0) == (df < 0), (-s, c), (c, s))  # sgn1 == sgn2
    energies = np.where(split[:, None], np.stack([d1, dd], 1), np.stack([rt1, rt2], 1))
    z = np.where(split[:, None, None], np.eye(2), np.stack([c, -s, s, c], 1).reshape(-1, 2, 2))
    swap = energies[:, 1] < energies[:, 0]  # the selection sort
    energies = np.where(swap[:, None], energies[:, ::-1], energies)
    z = np.where(swap[:, None, None], z[:, :, ::-1], z)
    # zunm2r: row 2 becomes z - tau z, its imaginary part 0.0 + (-ti z)
    vectors = z.astype(complex)
    vectors[:, 1].real -= tr[:, None] * z[:, 1]
    vectors[:, 1].imag = 0.0 - ti[:, None] * z[:, 1]
    return energies, vectors


def level_eigenvectors(h, energies, level: int, where) -> np.ndarray:
    """Unit eigenvectors (n, d) of an isolated ``level`` of Hermitian H (n, d, d).

    Inverse iteration from ``energies`` (``eigvalsh``): x solves (H - s) x = b with
    s = E - 2 eps max(1, range, |E|), until ||(H - s) x - rho x|| <= d eps max(1, range),
    rho = x^dag (H - s) x, with s + rho nearest E (then the gap bounds the angle
    to the eigenvector).  Failing rows are solved again, up to STATE_SOLVES
    solves; then NumericalError names the first by ``where(row)``.
    """
    n, d = energies.shape
    eps = np.finfo(float).eps
    e, scale = energies[:, level], np.maximum(1.0, energies[:, -1] - energies[:, 0])
    offset, bound = 2 * eps * np.maximum(scale, np.abs(e)), d * eps * scale
    sigma, a = e - offset, np.array(h, dtype=complex)
    a.reshape(n, d * d)[:, ::d + 1] -= sigma[:, None]
    states, residual, rows = np.empty((n, d), dtype=complex), np.full(n, np.inf), np.arange(n)
    x = np.exp(1j * np.arange(1, d + 1))[None, :, None]  # broadcast over the stack
    for _ in range(STATE_SOLVES):
        try:
            y = np.linalg.solve(a, x)
        except np.linalg.LinAlgError:  # exact zero pivots: step those shifts down once more
            hit = np.linalg.slogdet(a)[0] == 0
            sigma[rows[hit]] -= offset[rows[hit]]
            a.reshape(len(rows), d * d)[hit, ::d + 1] += offset[rows[hit], None]
            continue
        x = y / np.sqrt(np.vecdot(y, y, axis=1).real)[:, None]
        ax = a @ x
        rho = np.vecdot(x, ax, axis=1)  # (m, 1)
        residual[rows] = np.linalg.norm((ax - rho[:, None] * x)[..., 0], axis=1)
        nearest = np.abs(energies[rows] - (sigma[rows, None] + rho.real)).argmin(axis=1) == level
        done = nearest & (residual[rows] <= bound[rows])
        states[rows[done]] = x[done, :, 0]
        x, a, rows = x[~done], a[~done], rows[~done]
        if not rows.size:
            return states
    i = rows[0]
    raise NumericalError(f"at {where(i)}: the level {level} state did not converge in "
                         f"{STATE_SOLVES} solves (residual {residual[i]:.3e} > {bound[i]:.3e})")
