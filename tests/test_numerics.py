import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qgeom as qg
from conftest import SX, SZ, random_hermitian


class TestConstructors:
    def test_complex_matrix_rejects_non_square(self):
        with pytest.raises(qg.InputError):
            qg.complex_matrix([[1, 2, 3], [4, 5, 6]])

    def test_complex_matrix_rejects_non_finite(self):
        with pytest.raises(qg.InputError, match="non-finite"):
            qg.complex_matrix([[np.inf, 0], [0, 1]])

    def test_hermitian_is_exact_as_stored(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            h = qg.hermitian(m)
            assert np.array_equal(h, h.conj().T)
            assert np.all(h.diagonal().imag == 0.0)

    def test_hermitian_rejects_large_asymmetry(self):
        m = [[0, 1], [1 + 1e-3, 0]]
        with pytest.raises(qg.InputError, match=r"\(0, 1\)|\(1, 0\)"):
            qg.hermitian(m, asymmetry_tol=1e-12)

    def test_state_vector_normalizes(self):
        v = qg.state_vector([3.0, 4.0])
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    def test_state_vector_rejects_zero(self):
        with pytest.raises(qg.InputError):
            qg.state_vector([0.0, 0.0])


class TestEigensystem:
    def test_pauli_z_diagonal(self):
        es = qg.hermitian_eigensystem(SZ)
        assert np.allclose(es.energies, [-1.0, 1.0])
        # eigenvectors up to phase: e2 for -1, e1 for +1
        assert abs(es.vectors[1, 0]) == pytest.approx(1.0, abs=1e-14)
        assert abs(es.vectors[0, 1]) == pytest.approx(1.0, abs=1e-14)

    def test_pauli_x(self):
        es = qg.hermitian_eigensystem(SX)
        assert np.allclose(es.energies, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(np.vdot(minus, es.vectors[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(plus, es.vectors[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_random_4x4(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 4)
        es = qg.hermitian_eigensystem(h)
        rebuilt = (es.vectors * es.energies) @ es.vectors.conj().T
        assert np.abs(rebuilt - h).max() <= 1e-10 * (1 + np.abs(h).max())

    def test_reconstruction_property_1000(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            h = random_hermitian(rng, n)
            es = qg.hermitian_eigensystem(h)
            rebuilt = (es.vectors * es.energies) @ es.vectors.conj().T
            scale = max(np.linalg.norm(h), 1e-300)
            assert np.linalg.norm(rebuilt - h) / scale <= 1e-10
            assert abs(es.energies.sum() - np.trace(h).real) <= 1e-10 * max(1, scale)
            gram = es.vectors.conj().T @ es.vectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(es.energies) >= 0)

    def test_residual_invariant(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 6)
        es = qg.hermitian_eigensystem(h)
        for i in range(6):
            r = np.linalg.norm(h @ es.vectors[:, i] - es.energies[i] * es.vectors[:, i])
            assert r <= 1e-10 * (1 + np.linalg.norm(h))

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 5)
        a = qg.hermitian_eigensystem(h.copy())
        b = qg.hermitian_eigensystem(h.copy())
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(qg.InputError):
            qg.hermitian_eigensystem(np.array([[0, 1], [2, 0]], dtype=complex))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(qg.InputError):
            qg.hermitian_eigensystem(SZ, degeneracy_tol=-1.0)

    def test_gap_and_group(self):
        es = qg.hermitian_eigensystem(np.diag([0.0, 0.0, 1.0]).astype(complex),
                                      degeneracy_tol=1e-8)
        assert es.groups == ((0, 1), (2,))
        assert es.group_of(1) == (0, 1)
        assert es.gap(0) == pytest.approx(1.0)
        assert es.gap(2) == pytest.approx(1.0)


class TestDegeneracyGroups:
    def test_exact_degeneracy(self):
        assert qg.degeneracy_groups([0.0, 0.0, 1.0], 1e-8) == ((0, 1), (2,))

    def test_sub_tolerance_gap(self):
        assert qg.degeneracy_groups([0.0, 1e-12, 1.0], 1e-8) == ((0, 1), (2,))

    def test_gapped(self):
        assert qg.degeneracy_groups([0.0, 0.5, 1.0], 1e-8) == ((0,), (1,), (2,))

    def test_empty(self):
        assert qg.degeneracy_groups([], 1e-8) == ()

    def test_chained_clusters_are_maximal(self):
        # consecutive gaps all below tol chain into one cluster
        assert qg.degeneracy_groups([0.0, 1e-9, 2e-9, 1.0], 1e-8) == ((0, 1, 2), (3,))


def _groups_by_loop(energies, tol):
    """Consecutive-gap clustering, one level at a time."""
    groups = []
    for i, e in enumerate(energies):
        if groups and e - energies[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


# few distinct values, so repeats and gaps near each tolerance are common
_spectra = st.lists(st.sampled_from([-1.0, 0.0, 1e-9, 3e-9, 1e-8, 0.5, 1.0]), max_size=9)


@given(energies=_spectra.map(sorted), tol=st.sampled_from([1e-9, 2e-9, 1e-8, 0.6]))
@example(energies=[], tol=1e-9)
@example(energies=[0.0, np.nan, 1.0], tol=1e-9)
@example(energies=[0.0, 0.0, np.nan, 1.0, 1.0], tol=1e-9)
def test_one_isolation_rule(energies, tol):
    """Grouping and the vectorised gap test decide a level's isolation alike."""
    groups = qg.degeneracy_groups(energies, tol)
    assert groups == _groups_by_loop(energies, tol)
    for level in range(len(energies)):
        group = next(g for g in groups if level in g)
        assert (len(group) > 1) == bool(qg.level_gap(energies, level) <= tol)


@pytest.mark.parametrize("energies, tol", [([0.0, 1e-9], 1e-9), ([0.0, 1e-8, 1.0], 1e-8)])
def test_a_gap_equal_to_the_tolerance_joins_one_cluster(energies, tol):
    # the random spectra above reach a gap of exactly tol only by chance
    assert np.diff(energies)[0] == tol
    assert qg.degeneracy_groups(energies, tol)[0] == (0, 1)
    assert qg.level_gap(energies, 0) <= tol


@pytest.mark.parametrize("amplitudes, message", [
    ([], r"^empty state vector$"),
    ([1.0, np.nan], r"^state vector has non-finite entries$"),
    ([1.0, complex(0.0, np.inf)], r"^state vector has non-finite entries$"),
])
def test_state_vector_rejects_empty_and_non_finite_amplitudes(amplitudes, message):
    with pytest.raises(qg.InputError, match=message):
        qg.state_vector(amplitudes)
