"""Quantum geometric tensor of a Hamiltonian family at a point.

Three independent routes to the same tensor, kept deliberately separate so
they can cross-validate each other:

``qgt_sum_over_states``
    The reference method.  Uses exact dH/dmu matrix elements and energy
    denominators; no eigenvector derivative ever appears, so the arbitrary
    phases returned by the eigensolver cannot enter the result.

``qgt_projector``
    Projects numerical eigenvector derivatives off the level:
    Q_mn = <d_m psi| (1 - |psi><psi|) |d_n psi>.  The derivatives must come
    from phase-aligned central differences; accurate to O(h^2).

``qgt_overlap_fd``
    Uses only overlap moduli (for the metric, via the quadratic expansion
    |<psi(l)|psi(l+d)>| = 1 - g_mn d^m d^n / 2 and a polarization identity)
    and closed-loop phases (for the curvature, via a small Wilson-loop
    plaquette).  Manifestly gauge invariant; accurate to O(h^2).

Decomposition: metric g = Re Q, Berry curvature F = -2 Im Q, so
Q = g - (i/2) F.  Note the spin-1/2 Bloch-sphere angular metric equals
4 * g in this normalization.

The non-Abelian variant generalizes the sum formula to a degenerate level:
each tensor entry becomes a d x d block over the level's internal basis and
transforms by conjugation under basis rotations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError, StepError
from .model import ModelSpec, _derivative_at, hamiltonian_at, parameter_point
from .numerics import EigenSystem, hermitian_eigensystem

__all__ = [
    "QgtTensor",
    "NonAbelianQgt",
    "derivative_matrices",
    "qgt_from_eigensystem",
    "qgt_sum_over_states",
    "aligned_neighbor_states",
    "derivative_states_from_neighbors",
    "qgt_projector",
    "qgt_projector_fd",
    "qgt_overlap_fd",
    "nonabelian_from_eigensystem",
    "qgt_nonabelian",
    "berry_connection",
]

NEAR_DEGENERACY_FACTOR = 1e-6  # warn when gap < factor * spectral scale
DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class QgtTensor:
    """k x k complex tensor Q over the parameter indices.

    ``matrix`` is Hermitian as stored; units of entry (m, n) are
    1 / (unit of parameter m * unit of parameter n).

    Attributes
    ----------
    matrix : np.ndarray
        The complex tensor Q.
    near_degenerate : bool
        Set when the level's gap was within 1e-6 of the spectral scale;
        energy denominators amplify noise there.
    """

    matrix: np.ndarray
    near_degenerate: bool = False

    @property
    def n_parameters(self) -> int:
        return self.matrix.shape[0]

    @property
    def metric(self) -> np.ndarray:
        """Real part: the Riemannian (Fubini-Study) metric g."""
        return self.matrix.real.copy()

    @property
    def curvature(self) -> np.ndarray:
        """Berry curvature F = -2 Im Q (antisymmetric)."""
        return -2.0 * self.matrix.imag


def _as_qgt(matrix: np.ndarray, near_degenerate: bool, herm_tol: float) -> QgtTensor:
    scale = max(1.0, float(np.abs(matrix).max()))
    asym = float(np.abs(matrix - matrix.conj().T).max())
    if asym > herm_tol * scale:
        raise InputError(f"tensor is not Hermitian: max asymmetry {asym:.3e}")
    return QgtTensor((matrix + matrix.conj().T) / 2, near_degenerate)


@dataclass(frozen=True)
class NonAbelianQgt:
    """QGT of a degenerate level: a d x d block for each (mu, nu).

    ``blocks[m, n]`` is the d x d complex block; blocks satisfy
    blocks[m, n] == blocks[n, m].conj().T and transform as W^dag B W under
    a unitary rotation W of the degenerate subspace (block eigenvalues are
    invariant).  For d = 1 this reduces to the scalar tensor.
    """

    blocks: np.ndarray  # shape (k, k, d, d)
    level_indices: tuple[int, ...]

    @property
    def degeneracy(self) -> int:
        return self.blocks.shape[-1]

    def as_abelian(self) -> QgtTensor:
        """Collapse to a scalar tensor (only valid for d = 1)."""
        if self.degeneracy != 1:
            raise InputError("level is degenerate; no scalar reduction")
        return _as_qgt(self.blocks[:, :, 0, 0].copy(), False, 1e-10)


def derivative_matrices(model: ModelSpec, lam) -> list[np.ndarray]:
    """dH/dmu for every parameter, evaluated exactly."""
    lam = parameter_point(model, lam)
    return [_derivative_at(model, lam, mu) for mu in range(model.n_parameters)]


def _check_isolated(es: EigenSystem, level: int) -> bool:
    """Reject degenerate levels; return the near-degeneracy flag."""
    group = es.group_of(level)
    if len(group) > 1:
        raise DegeneracyError(
            f"level {level} is degenerate with levels {group}; "
            "use qgt_nonabelian for the block tensor"
        )
    scale = max(1.0, es.spectral_range())
    return es.gap(level) < NEAR_DEGENERACY_FACTOR * scale


def qgt_from_eigensystem(
    es: EigenSystem, dh_list, level: int
) -> QgtTensor:
    """Sum-over-states tensor from a solved eigensystem and dH/dmu matrices.

    Q_mn = sum_{j != level} <level|dH_m|j><j|dH_n|level> / (E_level - E_j)^2.

    The result is Hermitian and positive semidefinite by construction and
    independent of every eigenvector phase.
    """
    near = _check_isolated(es, level)
    k = len(dh_list)
    v = es.vectors
    psi = v[:, level]
    others = [j for j in range(es.dim) if j != level]
    # rows of a: a[m, j] = <j|dH_m|level>
    a = np.array([(v[:, others].conj().T @ (dh @ psi)) for dh in dh_list])
    denom = (es.energies[level] - es.energies[others]) ** 2
    q = (a.conj() / denom) @ a.T if k else np.zeros((0, 0), dtype=complex)
    return _as_qgt(q, near, 1e-10)


def qgt_sum_over_states(
    model: ModelSpec, lam, level: int, degeneracy_tol: float | None = None
) -> QgtTensor:
    """Reference QGT at a parameter point (see :func:`qgt_from_eigensystem`)."""
    lam = parameter_point(model, lam)
    es = hermitian_eigensystem(hamiltonian_at(model, lam), degeneracy_tol)
    return qgt_from_eigensystem(es, derivative_matrices(model, lam), level)


# --------------------------------------------------------------------------
# phase-aligned finite differences


def _aligned_state(
    model: ModelSpec, lam, level: int, center: np.ndarray, min_overlap: float
) -> np.ndarray:
    """The ``level`` eigenstate at ``lam``, phase-aligned to ``center``.

    The state is rephased so its overlap with ``center`` is real and
    positive.  An overlap modulus below ``min_overlap`` means the step from
    the center is too large (or the level crossed another inside the step).
    """
    es = hermitian_eigensystem(hamiltonian_at(model, lam))
    vec = es.vectors[:, level]
    overlaps = np.abs(es.vectors.conj().T @ center)
    if int(np.argmax(overlaps)) != level:
        raise StepError(
            f"level ordering changed inside the step: level {level} at the "
            f"neighbor point no longer matches the center state"
        )
    o = np.vdot(vec, center)  # <vec|center>
    if abs(o) < min_overlap:
        raise StepError(
            f"neighbor overlap {abs(o):.3f} below {min_overlap}; reduce the step"
        )
    return vec * (o / abs(o))


def _aligned_pairs(
    model: ModelSpec, lam: np.ndarray, level: int, h: float, center: np.ndarray,
    min_overlap: float,
) -> list[tuple[np.ndarray, np.ndarray]]:
    if not h > 0:
        raise InputError("step h must be positive")
    pairs = []
    for step in h * np.eye(model.n_parameters):
        plus, minus = (_aligned_state(model, lam + sign * step, level, center, min_overlap)
                       for sign in (+1.0, -1.0))
        pairs.append((plus, minus))
    return pairs


def aligned_neighbor_states(
    model: ModelSpec, lam, level: int, h: float, min_overlap: float = 0.5
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenstates of ``level`` at lambda +- h e_mu, phase-aligned to the center.

    Returns one (plus, minus) pair per parameter.  Alignment rephases each
    neighbor so its overlap with the center state is real positive, which is
    the simplest smooth gauge near the point.
    """
    lam = parameter_point(model, lam)
    center = hermitian_eigensystem(hamiltonian_at(model, lam)).vectors[:, level]
    return _aligned_pairs(model, lam, level, h, center, min_overlap)


def derivative_states_from_neighbors(neighbors, h: float) -> np.ndarray:
    """Central-difference state derivatives, one row per parameter."""
    return np.array([(plus - minus) / (2.0 * h) for plus, minus in neighbors])


def qgt_projector(es: EigenSystem, derivative_states, level: int) -> QgtTensor:
    """QGT from numerical state derivatives projected off the level.

    Q_mn = <d_m psi|(1 - |psi><psi|)|d_n psi> with ``derivative_states`` the
    k phase-aligned central differences (rows).  Agrees with the
    sum-over-states tensor to O(h^2).
    """
    near = _check_isolated(es, level)
    psi = es.vectors[:, level]
    d = np.asarray(derivative_states, dtype=complex)
    if d.ndim != 2 or d.shape[1] != psi.size:
        raise InputError(f"derivative states have shape {d.shape}, expected (k, {psi.size})")
    gram = d.conj() @ d.T
    onto = d.conj() @ psi  # <d_m|psi>
    q = gram - np.outer(onto, onto.conj())
    return _as_qgt(q, near, 1e-8)


def qgt_projector_fd(
    model: ModelSpec, lam, level: int, h: float = DEFAULT_FD_STEP
) -> QgtTensor:
    """Convenience wrapper: aligned neighbors -> derivatives -> projector QGT."""
    lam = parameter_point(model, lam)
    es = hermitian_eigensystem(hamiltonian_at(model, lam))
    neighbors = _aligned_pairs(model, lam, level, h, es.vectors[:, level], 0.5)
    return qgt_projector(es, derivative_states_from_neighbors(neighbors, h), level)


def qgt_overlap_fd(
    model: ModelSpec, lam, level: int, h: float = DEFAULT_FD_STEP
) -> QgtTensor:
    """Gauge-invariant QGT from overlap moduli and Wilson-loop phases.

    Metric: diagonal entries from the symmetrized quadratic overlap decay
    g_mm = (2 - |o(+h e_m)| - |o(-h e_m)|) / h^2; off-diagonal entries by the
    polarization identity with the diagonal displacement h (e_m + e_n).
    Curvature: F_mn = (plaquette phase of the four-link Wilson loop around
    the h x h cell centered on lambda) / h^2.  Only overlap moduli and
    closed-loop phases enter, so eigenvector phases cannot matter.

    Requires every involved overlap modulus to exceed 0.9.
    """
    lam = parameter_point(model, lam)
    if not h > 0:
        raise InputError("step h must be positive")
    es = hermitian_eigensystem(hamiltonian_at(model, lam))
    near = _check_isolated(es, level)
    center = es.vectors[:, level]
    k = model.n_parameters

    def state(point):
        return _aligned_state(model, point, level, center, min_overlap=0.9)

    def decay(delta):
        # symmetrized 2(1 - |overlap|), one quadratic-form sample
        plus = abs(np.vdot(state(lam + delta), center))
        minus = abs(np.vdot(state(lam - delta), center))
        return (2.0 - plus - minus)

    basis = np.eye(k)
    g = np.zeros((k, k))
    for m in range(k):
        g[m, m] = decay(h * basis[m]) / h**2
    for m in range(k):
        for n in range(m + 1, k):
            q_mn = decay(h * (basis[m] + basis[n])) / h**2
            g[m, n] = g[n, m] = (q_mn - g[m, m] - g[n, n]) / 2.0

    f = np.zeros((k, k))
    for m in range(k):
        for n in range(m + 1, k):
            # centered plaquette, counterclockwise in the (m, n) plane
            half_m, half_n = 0.5 * h * basis[m], 0.5 * h * basis[n]
            corners = [
                state(lam - half_m - half_n),
                state(lam + half_m - half_n),
                state(lam + half_m + half_n),
                state(lam - half_m + half_n),
            ]
            loop = 1.0 + 0.0j
            for a in range(4):
                loop *= np.vdot(corners[a], corners[(a + 1) % 4])
            f[m, n] = -np.angle(loop) / h**2
            f[n, m] = -f[m, n]

    return QgtTensor(g - 0.5j * f, near)


# --------------------------------------------------------------------------
# degenerate levels


def nonabelian_from_eigensystem(es: EigenSystem, dh_list, group) -> NonAbelianQgt:
    """Block QGT of a degenerate level from a solved eigensystem.

    [Q_mn]_ij = sum_{l outside group} <g_i|dH_m|l><l|dH_n|g_j> / (E0 - E_l)^2
    where E0 is the (common) group energy and the sum runs over every level
    of every other cluster.
    """
    group = tuple(int(i) for i in group)
    if group not in es.groups:
        raise InputError(
            f"{group} is not a maximal degeneracy cluster; clusters are {es.groups}"
        )
    k = len(dh_list)
    d = len(group)
    v = es.vectors
    others = [j for j in range(es.dim) if j not in group]
    e0 = float(np.mean(es.energies[list(group)]))
    denom = (e0 - es.energies[others]) ** 2
    # a[m, l, i] = <l|dH_m|g_i>
    a = np.array([(v[:, others].conj().T @ (dh @ v[:, group])) for dh in dh_list])
    blocks = np.zeros((k, k, d, d), dtype=complex)
    for m in range(k):
        for n in range(k):
            blocks[m, n] = (a[m].conj() / denom[:, None]).T @ a[n]
    return NonAbelianQgt(blocks, group)


def qgt_nonabelian(
    model: ModelSpec, lam, group, degeneracy_tol: float | None = None
) -> NonAbelianQgt:
    """Non-Abelian QGT of a degenerate level at a parameter point."""
    lam = parameter_point(model, lam)
    es = hermitian_eigensystem(hamiltonian_at(model, lam), degeneracy_tol)
    return nonabelian_from_eigensystem(es, derivative_matrices(model, lam), group)


# --------------------------------------------------------------------------
# diagnostics


def berry_connection(
    es: EigenSystem,
    neighbors,
    level: int,
    h: float,
    imag_tol: float | None = None,
) -> np.ndarray:
    """Berry connection i <psi|d_mu psi> from central differences.

    This is a gauge-DEPENDENT diagnostic: its value reflects the phase
    convention of the ``neighbors`` the caller supplies.  In the alignment
    gauge (neighbor overlaps real positive) it vanishes along the aligned
    directions by construction.

    The analytic connection is purely real; the finite-difference residue in
    the imaginary part (O(h^2)) is truncated when below ``imag_tol``
    (default max(1e-10, 10 h^2)) and raises otherwise.
    """
    psi = es.vectors[:, level]
    if imag_tol is None:
        imag_tol = max(1e-10, 10.0 * h * h)
    beta = np.empty(len(neighbors))
    for mu, (plus, minus) in enumerate(neighbors):
        value = 1j * (np.vdot(psi, plus) - np.vdot(psi, minus)) / (2.0 * h)
        if abs(value.imag) > imag_tol:
            raise InputError(
                f"connection component {mu} has imaginary residue "
                f"{value.imag:.3e} > {imag_tol:.3e}; are the neighbor states normalized?"
            )
        beta[mu] = value.real
    return beta
