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
]

STATE_SOLVES = 3  # shifted solves per state before level_eigenvectors gives up


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
        different phases for the same matrix.
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
        for g in self.groups:
            if level in g:
                return g
        raise InputError(f"level {level} out of range 0..{self.dim - 1}")

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
    m = complex_matrix(h)
    if not np.array_equal(m, m.conj().T):
        # tolerate rounding asymmetry but insist callers meant Hermitian
        m = hermitian(m, asymmetry_tol=1e-12)
    if degeneracy_tol is not None and not degeneracy_tol > 0:
        raise InputError("degeneracy_tol must be positive")
    energies, vectors = np.linalg.eigh(m)
    tol = degeneracy_tol if degeneracy_tol is not None else default_degeneracy_tol(energies)
    return EigenSystem(energies, vectors, degeneracy_groups(energies, tol))


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
