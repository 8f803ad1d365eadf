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

from .errors import InputError

__all__ = [
    "complex_matrix",
    "hermitian",
    "state_vector",
    "EigenSystem",
    "hermitian_eigensystem",
    "degeneracy_groups",
]


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
