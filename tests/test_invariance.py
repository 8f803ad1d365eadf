"""Property tests: the Chern number and the flux do not depend on how a surface is cut.

Link-variable Chern numbers (Fukui, Hatsugai & Suzuki 2005) are exact
integers on a closed grid fine enough that no plaquette phase reaches pi;
for the two-band lattice model that holds on the grids used here as long
as the mass keeps away from the gap closings at 0 and +-2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgeom as qg

TWO_PI = 2.0 * np.pi
QUANTIZED = 1e-9  # residue of an exact integer after float rounding

MASSES = st.one_of(st.floats(-1.7, -0.3), st.floats(0.3, 1.7))
SIZES = st.integers(16, 32)


def _chern(model, level=0, shape=(24, 24), mu_range=(0.0, TWO_PI), nu_range=(0.0, TWO_PI)):
    grid = qg.SurfaceGrid.torus(model, "kx", "ky", shape, mu_range, nu_range)
    result = qg.berry_flux(model, level, grid)
    assert result.residue <= QUANTIZED and not result.ambiguous
    return round(result.chern)


def _expected(mass, level=0):
    # lower band: -sign(m) for 0 < |m| < 2; the upper band carries the opposite sign
    return int(-np.sign(mass)) * (1 if level == 0 else -1)


@settings(max_examples=25, deadline=None)
@given(mass=MASSES, shift=st.tuples(st.floats(-TWO_PI, TWO_PI), st.floats(-TWO_PI, TWO_PI)))
def test_chern_is_invariant_under_a_torus_origin_shift(mass, shift):
    model = qg.two_band_lattice(mass)
    (s, t) = shift
    assert _chern(model, mu_range=(s, s + TWO_PI), nu_range=(t, t + TWO_PI)) == _expected(mass)


@settings(max_examples=25, deadline=None)
@given(mass=MASSES, n_mu=SIZES, n_nu=SIZES, level=st.sampled_from([0, 1]))
def test_chern_is_invariant_under_grid_refinement(mass, n_mu, n_nu, level):
    model = qg.two_band_lattice(mass)
    assert _chern(model, level, (n_mu, n_nu)) == _expected(mass, level)


def _haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=25, deadline=None)
@given(mass=MASSES, seed=st.integers(0, 2**32 - 1))
def test_chern_is_invariant_under_a_unitary_change_of_basis(mass, seed):
    model = qg.two_band_lattice(mass)
    u = _haar_unitary(np.random.default_rng(seed), model.dim)
    rotated = qg.model_spec(
        "rotated", model.dim, model.parameters,
        [(u @ matrix @ u.conj().T, src)
         for (matrix, _), src in zip(model.terms, model.coeff_sources)],
    )
    assert _chern(rotated) == _chern(model) == _expected(mass)


@settings(max_examples=25, deadline=None)
@given(
    theta0=st.floats(0.2, 1.2), width=st.floats(0.5, 1.8), phi0=st.floats(-3.0, 3.0),
    shape=st.tuples(st.integers(3, 30), st.integers(3, 30)), cut=st.floats(0.0, 1.0),
    axis=st.sampled_from([0, 1]),
)
def test_flux_is_additive_when_an_open_grid_is_split(theta0, width, phi0, shape, cut, axis):
    model = qg.spin_half(1.0)
    axes = [np.linspace(theta0, theta0 + width, shape[0]), np.linspace(phi0, phi0 + 1.5, shape[1])]

    def flux(theta, phi):
        grid = qg.SurfaceGrid.open_grid(model, "theta", "phi", (theta[0], theta[-1]),
                                        (phi[0], phi[-1]), (theta.size, phi.size))
        return qg.berry_flux(model, 1, grid).total_flux

    j = 1 + int(cut * (shape[axis] - 3))  # an interior grid line
    halves = [list(axes), list(axes)]
    halves[0][axis], halves[1][axis] = axes[axis][:j + 1], axes[axis][j:]
    whole, parts = flux(*axes), flux(*halves[0]) + flux(*halves[1])
    assert abs(whole - parts) <= 1e-12 * max(1.0, abs(whole))


@pytest.mark.parametrize("prop", [
    test_chern_is_invariant_under_a_torus_origin_shift,
    test_chern_is_invariant_under_grid_refinement,
    test_chern_is_invariant_under_a_unitary_change_of_basis,
    test_flux_is_additive_when_an_open_grid_is_split,
], ids=lambda prop: prop.__name__.removeprefix("test_"))
def test_properties_hold_on_the_state_route(state_route, prop):
    # the properties above run where level_states takes eigh's column (dim 2);
    # here every dim takes eigvalsh and the shifted solve
    prop()
