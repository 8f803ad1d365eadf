import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qgeom as qg
from qgeom import numerics
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

    def test_hermitian_halves_before_it_adds(self):
        # (M + M^H) / 2 bit for bit wherever the halves are normal, and no overflow past it
        rng = np.random.default_rng(30)
        for scale in 10.0 ** rng.integers(-300, 300, 50):
            m = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            assert np.array_equal(qg.hermitian(m), (m + m.conj().T) / 2)
        h = qg.hermitian([[1e308, 1.5e308], [1.7e308, -1e308]])
        assert np.array_equal(h, [[1e308, 1.6e308], [1.6e308, -1e308]])

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


def test_the_degeneracy_tolerance_keeps_its_bits_and_stays_finite_past_the_float_range():
    rng = np.random.default_rng(30)
    e = np.sort(rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-20, 300, (2000, 1)), axis=1)
    expected = 1e-9 * np.maximum(1.0, e[:, -1] - e[:, 0])
    assert np.array_equal(numerics.default_degeneracy_tol(e), expected)
    # the spread of 2e308 overflowed to an infinite tolerance, so every level was degenerate
    assert numerics.default_degeneracy_tol([-1e308, 1e308]) == 2e-9 * 1e308
    assert qg.degeneracy_groups([-1e308, 1e308], 2e-9 * 1e308) == ((0,), (1,))


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


@pytest.mark.parametrize("amplitudes, unit", [
    ([1e-200, 1e-200], [1, 1]),
    ([1e-170, 0], [1, 0]),
    ([5e-324, 0], [1, 0]),
    ([-5e-324j, 5e-324], [-1j, 1]),
    ([1e308, 1e308], [1, 1]),
    ([1.7e308 + 1.7e308j, 0], [1 + 1j, 0]),
], ids=["underflow", "subnormal-square", "least-subnormal", "signed-parts", "overflow",
        "overflowing-modulus"])
def test_a_norm_that_under_or_overflows_normalizes_as_the_scaled_vector(amplitudes, unit):
    # the 2-norm of each is 0 or inf: the first four were "the zero vector", the last two 0
    v = qg.state_vector(amplitudes)
    assert np.array_equal(v, qg.state_vector(unit))
    assert np.array_equal(np.signbit(v.view(float)), np.signbit(qg.state_vector(unit).view(float)))


# --------------------------------------------------------------------------
# the dim-2 eigensolver: LAPACK's own n = 2 steps


def _stack(d1, d2, re, im):
    """2x2 Hermitian matrices with diagonal d1, d2 and A(2,1) = re + i im, sign bits kept."""
    h = np.zeros((len(d1), 2, 2), complex)
    h[:, 0, 0].real, h[:, 1, 1].real = d1, d2
    h[:, 1, 0].real, h[:, 1, 0].imag = re, im
    h[:, 0, 1].real, h[:, 0, 1].imag = re, -im
    return h


def _branch_stack(n=256):
    """Seeded rows for every step of ``numerics._eigh``, one block per case."""
    rng = np.random.default_rng(2)
    d1, d2, re, im = rng.normal(size=(4, n))
    edge = np.sqrt(np.abs(d1)) * np.sqrt(np.abs(d2)) * 2.0**-53  # where |e| meets the split test
    signed_zeros = 0.0 * rng.choice([-1.0, 1.0], size=(4, n))
    ones = np.ones(n)
    return np.concatenate([
        _stack(d1, d2, re, im),  # a reflection (tau != 0), then the dlaev2 rotation
        _stack(d1, d2, re, 0 * im),  # tau = 0: e is A(2,1) itself
        _stack(d1, d2, re, 1e-17 * im),  # tau just off 0
        _stack(d1, d2, 1e-20 * re, 1e-20 * im),  # split rows
        *(_stack(d1, d2, edge * (1 + k * 2.0**-52), 0 * im) for k in (-1, 0, 1)),  # each test
        _stack(d1, -d1, re, im),  # sm == 0
        _stack(ones, ones + 2.0**-52, re, im),  # |cs| <= |tb|
        _stack(d1, d2, 0 * re, 0 * im),  # diagonal: e == 0, sorted or swapped
        _stack(d1, d1, 0 * re, 0 * im),  # scalar
        _stack(0 * d1, 0 * d2, re, im),  # zero diagonal
        _stack(*signed_zeros),  # +-0.0 everywhere, the zero matrix among them
        _stack(signed_zeros[0], d2, re, signed_zeros[3]),
        _stack(d1, signed_zeros[1], signed_zeros[2], im),
        _stack(0.99e145 * np.tanh(d1), 0.99e145 * np.tanh(d2), 1e-120 * (1 + re**2),
               1e145 * np.tanh(im)),  # EIGH2_RANGE's edges
    ])


def _torus_stack():
    ks = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    points = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    return np.concatenate([h for h, _ in qg.hamiltonian_blocks(qg.two_band_lattice(1.0), points)])


def _sphere_stack():
    theta, phi = np.linspace(0.0, np.pi, 65), np.linspace(0.0, 2 * np.pi, 65)  # poles included
    points = np.stack(np.meshgrid(theta, phi, indexing="ij"), axis=-1).reshape(-1, 2)
    return np.concatenate([h for h, _ in qg.hamiltonian_blocks(qg.spin_half(1.0), points)])


@pytest.mark.parametrize("stack", [_branch_stack, _torus_stack, _sphere_stack],
                         ids=["branches", "torus", "sphere"])
def test_dim2_eigh_equals_lapack_bit_for_bit(monkeypatch, stack):
    h = stack()
    want = np.linalg.eigh(h)

    def no_lapack(a):
        raise AssertionError("np.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    got = numerics._eigh(h)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        differ = (g != w) | (np.signbit(g.real) != np.signbit(w.real)) | (
            np.signbit(g.imag) != np.signbit(w.imag))
        assert not differ.any(), f"{differ.reshape(len(h), -1).any(axis=1).sum()} matrices differ"


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1j * np.nan, 9.9e-121, -2e145,
                                   1j * 2e145, 1e-300j], ids=repr)
def test_dim2_eigh_leaves_what_lapack_would_rescale_to_lapack(monkeypatch, entry):
    h = _branch_stack(numerics.EIGH2_MIN_STACK)
    h[5, 1, 0] = entry
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or "eigh")
    assert numerics._eigh(h) == "eigh" and calls[0] is h


@pytest.mark.parametrize("dim, n", [(3, 200), (2, numerics.EIGH2_MIN_STACK - 1)])
def test_dim2_eigh_leaves_other_dims_and_short_stacks_to_lapack(monkeypatch, dim, n):
    rng = np.random.default_rng(dim)
    h = np.stack([qg.hermitian(random_hermitian(rng, dim)) for _ in range(n)])
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or "eigh")
    assert numerics._eigh(h) == "eigh" and calls[0] is h
