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
transforms by conjugation under basis rotations; the Abelian tensor is its
group-of-one case.  Every route solves its points through one blocked core,
:func:`level_blocks`: one ``eigh`` per block of H, a vectorised isolation
test and the sum-over-states tensors of the whole block.  States alone come
from :func:`level_states`: from ``STATE_SOLVE_MIN_DIM`` up by ``eigvalsh`` and a
shifted solve per point, under the same isolation test.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError, StepError
from .model import ModelSpec, hamiltonian_blocks, parameter_point
from .numerics import (EigenSystem, default_degeneracy_tol, degeneracy_groups, hermitian,
                       hermitian_eigensystem, level_eigenvectors)

__all__ = [
    "QgtTensor",
    "NonAbelianQgt",
    "level_gap",
    "level_blocks",
    "level_states",
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
STATE_SOLVE_MIN_DIM = 6  # per point, solve/eigh: 1.5 at d = 2, 1.15 at 5, 0.97 at 6, 0.8 at 64


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
        return QgtTensor(hermitian(self.blocks[:, :, 0, 0], asymmetry_tol=1e-10))


# --------------------------------------------------------------------------
# the blocked core


def _sum_over_states(energies, vectors, dh, group) -> np.ndarray:
    """[Q_mn]_ij = sum_{l outside group} <g_i|dH_m|l><l|dH_n|g_j> / (E0 - E_l)^2, shape
    (n, k, k, g, g), from energies (n, d), vectors (n, d, d), dh (n, k, d, d)."""
    group = list(group)
    others = [j for j in range(energies.shape[-1]) if j not in group]
    denom = (energies[:, group].mean(axis=1, keepdims=True) - energies[:, others]) ** 2
    # a[:, m, l, i] = <l|dH_m|g_i>
    a = vectors[:, None, :, others].conj().swapaxes(-1, -2) @ (dh @ vectors[:, None, :, group])
    n, k, n_other, g = a.shape
    a = a.swapaxes(-1, -2).reshape(n, k * g, n_other)
    q = (a.conj() / denom[:, None, :]) @ a.swapaxes(-1, -2)
    return q.reshape(n, k, g, k, g).swapaxes(2, 3)


def _abelian(energies, vectors, dh, level: int) -> np.ndarray:
    """Q (n, k, k) of an isolated level: the group-of-one case, Hermitian by construction."""
    q = _sum_over_states(energies, vectors, dh, (level,))[..., 0, 0]
    return (q + q.conj().swapaxes(-1, -2)) / 2


def _degenerate(level: int, group) -> str:
    return (f"level {level} is degenerate with levels {group}; "
            "use qgt_nonabelian for the block tensor")


def level_gap(energies, level: int) -> np.ndarray:
    """Distance from ``level`` to the adjacent levels, per row of ascending energies."""
    e = np.asarray(energies, dtype=float)
    none = np.full(e.shape[:-1], np.inf)
    below = e[..., level] - e[..., level - 1] if level > 0 else none
    above = e[..., level + 1] - e[..., level] if level + 1 < e.shape[-1] else none
    return np.fmin(below, above)  # a NaN gap is no neighbour, as in degeneracy_groups


def _near_degenerate(energies: np.ndarray, level: int) -> bool:
    scale = max(1.0, float(energies[-1] - energies[0]))
    return bool(level_gap(energies, level) < NEAR_DEGENERACY_FACTOR * scale)


def _solved_blocks(model: ModelSpec, points, level: int, where, directions, vectors: bool):
    """(index of its first point, H, dH, energies, eigenvectors or None) per H block,
    under the one isolation rule of :func:`level_blocks` and :func:`level_states`."""
    if not 0 <= level < model.dim:
        raise InputError(f"level {level} out of range 0..{model.dim - 1}")
    start = 0
    for h, dh in hamiltonian_blocks(model, points, directions):
        energies, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
        tol = default_degeneracy_tol(energies)
        bad = np.flatnonzero(level_gap(energies, level) <= tol)
        if bad.size:
            i = bad[0]
            group = next(g for g in degeneracy_groups(energies[i], tol[i]) if level in g)
            label = f"at {where(start + i)}: " if where else ""
            raise DegeneracyError(label + _degenerate(level, group))
        yield start, h, dh, energies, v
        start += len(h)


def level_blocks(model: ModelSpec, points, level: int, tensors: bool = False, where=None):
    """Yield (energies (n, d), eigenvectors (n, d, d), Q (n, k, k) or None) per H block.

    Q, the sum-over-states tensor of ``level``, comes with ``tensors``.  The
    first point where the level is not isolated (as by :func:`degeneracy_groups`
    with :func:`default_degeneracy_tol`) raises DegeneracyError, prefixed
    "at {where(i)}: " when ``where`` is given.
    """
    directions = model.parameters if tensors else ()
    for _, _, dh, e, v in _solved_blocks(model, points, level, where, directions, True):
        yield e, v, _abelian(e, v, dh, level) if tensors else None


def level_states(model: ModelSpec, points, level: int, where=None) -> np.ndarray:
    """Unit ``level`` eigenstates (N, d) at the points, each in an arbitrary phase.

    Isolation is checked as by :func:`level_blocks`.  Below ``STATE_SOLVE_MIN_DIM``
    the states are ``eigh``'s columns; from it up they come from ``eigvalsh`` and
    :func:`~qgeom.numerics.level_eigenvectors`, which raises NumericalError
    naming the point where a state does not converge.
    """
    solve = model.dim >= STATE_SOLVE_MIN_DIM
    label = where or (lambda i: f"point {i}")
    parts = [
        level_eigenvectors(h, e, level, lambda i: label(start + i)) if solve
        else v[:, :, level].copy()  # copied, so no block of eigenvectors outlives its turn
        for start, h, _, e, v in _solved_blocks(model, points, level, where, (), not solve)]
    return np.concatenate(parts) if parts else np.empty((0, model.dim), complex)


def derivative_matrices(model: ModelSpec, lam) -> list[np.ndarray]:
    """dH/dmu for every parameter, evaluated exactly."""
    lam = parameter_point(model, lam)
    (_, dh), = hamiltonian_blocks(model, lam[None], model.parameters)
    return list(dh[0])


def _check_isolated(es: EigenSystem, level: int) -> bool:
    """Reject degenerate levels; return the near-degeneracy flag."""
    group = es.group_of(level)
    if len(group) > 1:
        raise DegeneracyError(_degenerate(level, group))
    return _near_degenerate(es.energies, level)


def qgt_from_eigensystem(
    es: EigenSystem, dh_list, level: int
) -> QgtTensor:
    """Sum-over-states tensor from a solved eigensystem and dH/dmu matrices.

    Q_mn = sum_{j != level} <level|dH_m|j><j|dH_n|level> / (E_level - E_j)^2.

    The result is Hermitian and positive semidefinite by construction and
    independent of every eigenvector phase.
    """
    near = _check_isolated(es, level)
    dh = np.reshape(dh_list, (1, -1, es.dim, es.dim))
    return QgtTensor(_abelian(es.energies[None], es.vectors[None], dh, level)[0], near)


def qgt_sum_over_states(model: ModelSpec, lam, level: int) -> QgtTensor:
    """Reference QGT at a parameter point (see :func:`qgt_from_eigensystem`)."""
    lam = parameter_point(model, lam)
    (energies, _, q), = level_blocks(model, lam[None], level, True)
    return QgtTensor(q[0], _near_degenerate(energies[0], level))


# --------------------------------------------------------------------------
# phase-aligned finite differences


def _aligned_states(
    model: ModelSpec, lam: np.ndarray, level: int, steps: np.ndarray, floor: float
) -> tuple[EigenSystem, np.ndarray]:
    """The eigensystem at ``lam`` and the ``level`` states at ``lam + steps``.

    Each displaced state is rephased so its overlap with the centre state is
    real and positive.  An overlap modulus below ``floor`` means the
    step is too large (or the level crossed another inside the step); the
    first such step raises StepError.
    """
    points = lam + np.vstack([np.zeros(lam.size), steps])
    es, parts = None, []
    for energies, vectors, _ in level_blocks(model, points, level):  # one block kept at a time
        if es is None:  # the centre leads the first block
            tol = default_degeneracy_tol(energies[0])
            es = EigenSystem(energies[0], vectors[0], degeneracy_groups(energies[0], tol))
        center = es.vectors[:, level]
        parts.append((np.abs(center @ vectors.conj()).argmax(axis=1) != level,
                      np.vecdot(vectors[:, :, level], center), vectors[:, :, level].copy()))
    swapped, o, states = (np.concatenate(part)[1:] for part in zip(*parts))
    modulus = np.hypot(o.real, o.imag)  # rounds like abs() of one complex number
    bad = np.flatnonzero(swapped | (modulus < floor))
    if bad.size and swapped[bad[0]]:
        raise StepError(
            f"level ordering changed inside the step: level {level} at the "
            f"neighbor point no longer matches the center state"
        )
    if bad.size:
        raise StepError(
            f"neighbor overlap {modulus[bad[0]]:.3f} below {floor}; reduce the step"
        )
    return es, states * (o / modulus)[:, None]


def _central_steps(k: int, h: float) -> np.ndarray:
    """Rows +h e_0, -h e_0, +h e_1, -h e_1, ..."""
    if not h > 0:
        raise InputError("step h must be positive")
    return h * np.stack([np.eye(k), -np.eye(k)], axis=1).reshape(2 * k, k)


def aligned_neighbor_states(model: ModelSpec, lam, level: int,
                            h: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenstates of ``level`` at lambda +- h e_mu, phase-aligned to the center.

    Returns one (plus, minus) pair per parameter.  Alignment rephases each
    neighbor so its overlap with the center state is real positive, which is
    the simplest smooth gauge near the point.  An overlap below 0.5 raises
    StepError.
    """
    lam = parameter_point(model, lam)
    steps = _central_steps(model.n_parameters, h)
    _, states = _aligned_states(model, lam, level, steps, 0.5)
    return list(zip(states[0::2], states[1::2]))


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
    return QgtTensor(hermitian(q, asymmetry_tol=1e-8), near)


def qgt_projector_fd(
    model: ModelSpec, lam, level: int, h: float = DEFAULT_FD_STEP
) -> QgtTensor:
    """Convenience wrapper: aligned neighbors -> derivatives -> projector QGT."""
    lam = parameter_point(model, lam)
    steps = _central_steps(model.n_parameters, h)
    es, states = _aligned_states(model, lam, level, steps, 0.5)
    neighbors = zip(states[0::2], states[1::2])
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
    k = model.n_parameters
    basis, half = np.eye(k), 0.5 * h * np.eye(k)
    planes = [(m, n) for m in range(k) for n in range(m + 1, k)]
    # overlap decay along each axis, then each diagonal; then, per plane, the
    # corners of the centered plaquette, counterclockwise in the (m, n) plane
    diagonals = [s * h * (basis[m] + basis[n]) for m, n in planes for s in (1.0, -1.0)]
    corners = [c for m, n in planes for c in (-half[m] - half[n], half[m] - half[n],
                                               half[m] + half[n], -half[m] + half[n])]
    steps = np.array([*_central_steps(k, h), *diagonals, *corners]).reshape(-1, k)
    es, states = _aligned_states(model, lam, level, steps, 0.9)
    near = _near_degenerate(es.energies, level)

    o = np.vecdot(states[:2 * (k + len(planes))], es.vectors[:, level])
    moduli = np.hypot(o.real, o.imag)
    decay = (2.0 - moduli[0::2] - moduli[1::2]) / h**2  # symmetrized 2(1 - |overlap|)
    g = np.diag(decay[:k])
    for (m, n), q_mn in zip(planes, decay[k:]):
        g[m, n] = g[n, m] = (q_mn - g[m, m] - g[n, n]) / 2.0

    loops = states[2 * (k + len(planes)):].reshape(len(planes), 4, model.dim)
    phases = -np.angle(np.prod(np.vecdot(loops, np.roll(loops, -1, axis=1)), axis=1)) / h**2
    f = np.zeros((k, k))
    for (m, n), phase in zip(planes, phases):
        f[m, n], f[n, m] = phase, -phase

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
    dh = np.reshape(dh_list, (1, -1, es.dim, es.dim))
    return NonAbelianQgt(_sum_over_states(es.energies[None], es.vectors[None], dh, group)[0], group)


def qgt_nonabelian(model: ModelSpec, lam, group) -> NonAbelianQgt:
    """Non-Abelian QGT of a degenerate level at a parameter point."""
    lam = parameter_point(model, lam)
    (h, dh), = hamiltonian_blocks(model, lam[None], model.parameters)
    return nonabelian_from_eigensystem(hermitian_eigensystem(h[0]), dh[0], group)


# --------------------------------------------------------------------------
# diagnostics


def berry_connection(es: EigenSystem, neighbors, level: int, h: float) -> np.ndarray:
    """Berry connection i <psi|d_mu psi> from central differences.

    This is a gauge-DEPENDENT diagnostic: its value reflects the phase
    convention of the ``neighbors`` the caller supplies.  In the alignment
    gauge (neighbor overlaps real positive) it vanishes along the aligned
    directions by construction.

    The analytic connection is purely real; the finite-difference residue in
    the imaginary part (O(h^2)) is truncated when below max(1e-10, 10 h^2)
    and raises otherwise.
    """
    psi = es.vectors[:, level]
    limit = max(1e-10, 10.0 * h * h)
    beta = np.empty(len(neighbors))
    for mu, (plus, minus) in enumerate(neighbors):
        value = 1j * (np.vdot(psi, plus) - np.vdot(psi, minus)) / (2.0 * h)
        if abs(value.imag) > limit:
            raise InputError(
                f"connection component {mu} has imaginary residue "
                f"{value.imag:.3e} > {limit:.3e}; are the neighbor states normalized?"
            )
        beta[mu] = value.real
    return beta
