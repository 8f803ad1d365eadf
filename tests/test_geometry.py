import math
import re
import warnings

import numpy as np
import pytest

import qgeom as qg
import qgeom.model as model_mod
from conftest import SX, SY, SZ, bloch_overlap, random_trig_model, upper_state


class TestFidelityAngle:
    def test_same_ray_is_zero(self):
        psi = qg.state_vector([1.0, 1j])
        chi = np.exp(1j * 0.77) * psi
        assert qg.fidelity_angle(psi, chi) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_is_pi(self):
        assert qg.fidelity_angle([1, 0], [0, 1]) == pytest.approx(np.pi, abs=1e-14)

    def test_equal_superposition_is_half_pi(self):
        up = [1.0, 0.0]
        mix = [1.0, 1.0]
        assert qg.fidelity_angle(up, mix) == pytest.approx(np.pi / 2, abs=1e-14)

    def test_symmetric_and_in_range(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            t1 = qg.fidelity_angle(a, b)
            t2 = qg.fidelity_angle(b, a)
            assert t1 == pytest.approx(t2, abs=1e-14)
            assert 0.0 <= t1 <= np.pi

    def test_dimension_mismatch(self):
        with pytest.raises(qg.InputError):
            qg.fidelity_angle([1, 0], [1, 0, 0])


class TestPathLength:
    def test_meridian(self, spin_model):
        # pole to pole at fixed azimuth: length pi/2, angle pi
        path = qg.path_spec(
            spin_model, 1, {"theta": "3.141592653589793 * s", "phi": "0.25"}, 101
        )
        length, angle = qg.path_quantum_length(path)
        assert length == pytest.approx(np.pi / 2, abs=1e-9)
        assert angle == pytest.approx(np.pi, abs=1e-9)

    def test_meridian_endpoints_are_orthogonal(self, spin_model):
        north = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, [0.0, 0.25]))
        south = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, [np.pi, 0.25]))
        angle = qg.fidelity_angle(north.vectors[:, 1], south.vectors[:, 1])
        assert angle == pytest.approx(np.pi, abs=1e-7)

    def test_equator_arc(self, spin_model):
        path = qg.path_spec(
            spin_model, 1,
            {"theta": "1.5707963267948966", "phi": "3.141592653589793 * s"}, 101,
        )
        length, _ = qg.path_quantum_length(path)
        assert length == pytest.approx(np.pi / 2, abs=1e-9)

    def test_constant_path_has_zero_length(self, spin_model):
        path = qg.path_spec(spin_model, 1, {"theta": "1.0", "phi": "2.0"}, 11)
        assert qg.path_quantum_length(path) == (0.0, 0.0)

    def test_additivity_along_a_curve(self, spin_model):
        # theta(s) = pi s^2 traversed whole, then split at s = 1/2
        whole = qg.path_spec(
            spin_model, 1,
            {"theta": "3.141592653589793 * s^2", "phi": "0.1"}, 201,
        )
        first = qg.path_spec(
            spin_model, 1,
            {"theta": "3.141592653589793 * (s/2)^2", "phi": "0.1"}, 201,
        )
        second = qg.path_spec(
            spin_model, 1,
            {"theta": "3.141592653589793 * ((s+1)/2)^2", "phi": "0.1"}, 201,
        )
        l_whole, _ = qg.path_quantum_length(whole)
        l_first, _ = qg.path_quantum_length(first)
        l_second, _ = qg.path_quantum_length(second)
        assert l_first + l_second == pytest.approx(l_whole, abs=1e-8)

    def test_degeneracy_on_path_names_location(self):
        model = qg.model_spec(
            "pinch", 2, ("x",),
            [(np.array([[1, 0], [0, -1]], dtype=complex), "x")],
        )
        path = qg.path_spec(model, 1, {"x": "1 - 2*s"}, 21)
        with pytest.raises(qg.DegeneracyError, match="s = 0.5"):
            qg.path_quantum_length(path)

    def test_validation(self, spin_model):
        with pytest.raises(qg.InputError, match="phi"):
            qg.path_spec(spin_model, 1, {"theta": "s"}, 11)
        with pytest.raises(qg.InputError):
            qg.path_spec(spin_model, 1, {"theta": "s", "phi": "s", "zeta": "s"}, 11)
        with pytest.raises(qg.InputError):
            qg.path_spec(spin_model, 1, {"theta": "s", "phi": "s"}, 1)

    def test_undersampled_path_warns_on_refinement(self, spin_model):
        path = qg.path_spec(spin_model, 1, {"theta": "sin(1.5*s)", "phi": "0.2"}, 3)
        with pytest.warns(UserWarning, match="refine|sample"):
            qg.path_quantum_length(path)


class TestSmallSeparation:
    def test_residual_small_along_meridian(self, spin_model):
        r = qg.small_separation_check(spin_model, [np.pi / 3, 0.4], [1e-2, 0.0], 1)
        assert r <= 1e-5

    def test_zero_displacement(self, spin_model):
        assert qg.small_separation_check(spin_model, [1.0, 1.0], [0.0, 0.0], 1) == 0.0

    def test_parity_of_expansion(self, spin_model):
        lam = [np.pi / 3, 0.4]
        plus = qg.small_separation_check(spin_model, lam, [1e-2, 0.0], 1)
        minus = qg.small_separation_check(spin_model, lam, [-1e-2, 0.0], 1)
        assert abs(plus - minus) <= 1e-12

    def test_matches_closed_form_overlap(self, spin_model):
        lam = (np.pi / 3, 0.7)
        delta = np.array([0.8, 0.6]) * 1e-2
        g = qg.qgt_sum_over_states(spin_model, lam, 1).metric
        expected = abs(
            bloch_overlap(lam, (lam[0] + delta[0], lam[1] + delta[1]))
            - (1 - 0.5 * delta @ g @ delta)
        )
        got = qg.small_separation_check(spin_model, lam, delta, 1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_one_point_per_block(self):
        # at dim 48 every H block holds one point, so lam and lam + delta solve apart
        model = random_trig_model(np.random.default_rng(4), 48)
        lam, delta = np.array([0.4, 1.1, -0.3]), np.array([3e-3, -2e-3, 1e-3])
        g = qg.qgt_sum_over_states(model, lam, 7).metric
        psi, chi = qg.level_states(model, [lam, lam + delta], 7)
        expected = abs(abs(np.vdot(psi, chi)) - (1.0 - 0.5 * delta @ g @ delta))
        assert qg.small_separation_check(model, lam, delta, 7) == expected

    def test_cubic_scaling_in_mixed_direction(self, spin_model):
        lam = [np.pi / 3, 0.7]
        direction = np.array([0.8, 0.6])
        mags = np.array([1e-1, 1e-2, 1e-3])
        residuals = [
            qg.small_separation_check(spin_model, lam, m * direction, 1) for m in mags
        ]
        slope = np.polyfit(np.log(mags), np.log(residuals), 1)[0]
        assert 2.7 <= slope <= 3.3


class TestBerryFluxSphere:
    def test_both_bands_quantized(self, spin_model):
        grid = qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (24, 24))
        upper = qg.berry_flux(spin_model, 1, grid)
        lower = qg.berry_flux(spin_model, 0, grid)
        assert upper.chern == pytest.approx(-1.0, abs=1e-9)
        assert lower.chern == pytest.approx(+1.0, abs=1e-9)
        assert upper.residue < 1e-9 and lower.residue < 1e-9
        assert upper.monopole_charge == pytest.approx(0.5, abs=1e-9)
        assert upper.chern + lower.chern == pytest.approx(0.0, abs=1e-9)
        assert upper.closed and not upper.ambiguous

    def test_plaquette_fluxes_match_curvature_density(self, spin_model):
        # one interior plaquette vs F integrated over its cell
        grid = qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (24, 24))
        result = qg.berry_flux(spin_model, 1, grid)
        j, i = 11, 3
        th_mid = 0.5 * (grid.mu_values[j] + grid.mu_values[j + 1])
        cell = (grid.mu_values[1] - grid.mu_values[0]) * (grid.nu_values[1] - grid.nu_values[0])
        expected = -0.5 * np.sin(th_mid) * cell
        # the loop phase tracks the cell integral up to O(spacing^2)
        assert result.plaquette_fluxes[j + 1, i] == pytest.approx(expected, rel=1e-2)

    def test_gauge_invariance_of_fluxes(self, spin_model):
        grid = qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (12, 12))
        states = np.empty((12, 12, 2), dtype=complex)
        for j in range(12):
            for i in range(12):
                es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, grid.point(j, i)))
                states[j, i] = es.vectors[:, 1]
        north = upper_state(0.0, 0.0)
        south = upper_state(np.pi, 0.0)
        reference = qg.plaquette_flux_grid(states, "sphere", north, south)
        rng = np.random.default_rng(31)
        rephased = states * np.exp(1j * rng.uniform(0, 2 * np.pi, (12, 12, 1)))
        again = qg.plaquette_flux_grid(
            rephased, "sphere",
            north * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            south * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
        assert abs(again.sum() - reference.sum()) < 1e-12
        assert np.abs(again - reference).max() < 1e-12

    def test_charge_is_grid_independent(self, spin_model):
        for shape in ((12, 16), (30, 20)):
            grid = qg.SurfaceGrid.sphere(spin_model, "theta", "phi", shape)
            result = qg.berry_flux(spin_model, 1, grid)
            assert result.monopole_charge == pytest.approx(0.5, abs=1e-9)

    def test_coarse_grid_rejected_by_link_check(self, spin_model):
        grid = qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (2, 3))
        with pytest.raises(qg.StepError, match="coarse"):
            qg.berry_flux(spin_model, 1, grid, min_link=0.95)


class TestBerryFluxTorus:
    def test_two_band_lattice_phases(self):
        # Chern transitions of the lattice model: |m|>2 trivial, 0<|m|<2 not
        for mass, size in ((1.0, 24), (-1.0, 24), (3.0, 12)):
            model = qg.two_band_lattice(mass)
            grid = qg.SurfaceGrid.torus(model, "kx", "ky", (size, size))
            lower = qg.berry_flux(model, 0, grid)
            upper = qg.berry_flux(model, 1, grid)
            assert lower.residue < 1e-9
            assert lower.chern + upper.chern == pytest.approx(0.0, abs=1e-9)
            if abs(mass) > 2:
                assert round(lower.chern) == 0
            else:
                assert abs(round(lower.chern)) == 1

    def test_opposite_masses_have_opposite_chern(self):
        results = []
        for mass in (1.0, -1.0):
            model = qg.two_band_lattice(mass)
            grid = qg.SurfaceGrid.torus(model, "kx", "ky", (24, 24))
            results.append(round(qg.berry_flux(model, 0, grid).chern))
        assert results[0] == -results[1] != 0

    def test_degenerate_point_named(self):
        model = qg.two_band_lattice(2.0)  # gap closes at kx = ky = pi
        grid = qg.SurfaceGrid.torus(model, "kx", "ky", (4, 4))
        with pytest.raises(qg.DegeneracyError, match="3.14"):
            qg.berry_flux(model, 0, grid)

    def test_plaquette_at_pi_is_a_step_error(self):
        # on a 3x3 torus plaquette (1, 1) holds exactly -pi, whose branch is
        # undetermined, so the total is not a trustworthy Chern number
        model = qg.two_band_lattice(1.0)
        grid = qg.SurfaceGrid.torus(model, "kx", "ky", (3, 3))
        with pytest.raises(qg.StepError, match=r"^plaquette \(1, 1\) flux -3\.14159265358979"
                                               r"\d* reached magnitude pi.*: grid too coarse$"):
            qg.berry_flux(model, 0, grid)


class TestOpenSurface:
    def test_open_patch_matches_curvature_integral(self, spin_model):
        grid = qg.SurfaceGrid.open_grid(
            spin_model, "theta", "phi", (0.5, 1.5), (0.2, 1.2), (41, 41)
        )
        result = qg.berry_flux(spin_model, 1, grid)
        exact = -0.5 * (np.cos(0.5) - np.cos(1.5)) * 1.0  # int -sin/2 dth dph
        assert not result.closed
        assert result.total_flux == pytest.approx(exact, rel=1e-3)

    def test_orthogonal_link_raises(self):
        states = np.zeros((2, 2, 2), dtype=complex)
        states[0, 0] = [1, 0]
        states[0, 1] = [1, 0]
        states[1, 0] = [0, 1]  # orthogonal to its mu-neighbor
        states[1, 1] = [0, 1]
        with pytest.raises(qg.StepError, match="coarse"):
            qg.plaquette_flux_grid(states, "open")


class TestSurfaceGridValidation:
    def test_unknown_parameter_name(self, spin_model):
        with pytest.raises(qg.InputError, match="zeta"):
            qg.SurfaceGrid.sphere(spin_model, "zeta", "phi")

    def test_same_axis_rejected(self, spin_model):
        with pytest.raises(qg.InputError):
            qg.SurfaceGrid.torus(spin_model, "theta", "theta")

    def test_shape_minimums(self, spin_model):
        with pytest.raises(qg.InputError):
            qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (1, 8))
        with pytest.raises(qg.InputError):
            qg.SurfaceGrid.torus(spin_model, "theta", "phi", (2, 3))

    def test_base_point_used_for_other_parameters(self):
        # grid over (kx, ky) of a 3-parameter family keeps the third fixed
        model = qg.model_spec(
            "three knob", 2, ("kx", "ky", "b"),
            [(np.array([[0, 1], [1, 0]], dtype=complex), "sin(kx)"),
             (np.array([[0, -1j], [1j, 0]], dtype=complex), "sin(ky)"),
             (np.array([[1, 0], [0, -1]], dtype=complex), "b + cos(kx) + cos(ky)")],
        )
        grid = qg.SurfaceGrid.torus(model, "kx", "ky", (16, 16), base=[0.0, 0.0, 1.0])
        result = qg.berry_flux(model, 0, grid)
        assert result.residue < 1e-9
        assert abs(round(result.chern)) == 1

    @pytest.mark.parametrize("key", ["mu_range", "nu_range"])
    def test_empty_torus_range_is_rejected(self, key):
        # with lo == hi every period probe sits on lo, so no closure could be checked
        with pytest.raises(qg.InputError, match=rf"^grid '{key}' of a torus is empty: "
                                                r"both ends are 1\.0$"):
            qg.SurfaceGrid.torus(qg.two_band_lattice(1.0), "kx", "ky", (8, 8), **{key: (1.0, 1.0)})

    def test_reversed_torus_range_flips_the_orientation(self):
        model = qg.two_band_lattice(1.0)
        chern = [qg.berry_flux(model, 0, qg.SurfaceGrid.torus(model, "kx", "ky", (8, 8),
                                                             mu_range=r)).chern
                 for r in [(0.0, 2 * np.pi), (2 * np.pi, 0.0)]]
        assert chern == [-1.0, 1.0]


def _states_near_one(rng, shape, dim):
    """Unit states scattered around one random state, each with a random phase."""
    center = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    noise = rng.normal(size=shape + (dim,)) + 1j * rng.normal(size=shape + (dim,))
    states = center + 0.3 * np.linalg.norm(center) * noise / np.sqrt(dim)
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    return states * np.exp(1j * rng.uniform(0, 2 * np.pi, shape + (1,)))


def _wilson_loops(states, closure, north=None, south=None):
    """Per-plaquette -arg of the four-link loop, one np.vdot per link.

    A sphere's caps are the rows between a pole, repeated at every azimuth,
    and the first or last grid row.
    """
    if closure == "sphere":
        states = np.concatenate([np.broadcast_to(north, states[:1].shape), states,
                                 np.broadcast_to(south, states[:1].shape)])
    n_mu, n_nu = states.shape[:2]
    rows = n_mu if closure == "torus" else n_mu - 1
    cols = n_nu - 1 if closure == "open" else n_nu
    fluxes = np.empty((rows, cols))
    weakest = 1.0
    for j in range(rows):
        for i in range(cols):
            j2, i2 = (j + 1) % n_mu, (i + 1) % n_nu
            a, b, c, d = states[j, i], states[j2, i], states[j2, i2], states[j, i2]
            links = [np.vdot(a, b), np.vdot(b, c), np.vdot(c, d), np.vdot(d, a)]
            weakest = min(weakest, *(abs(u) for u in links))
            fluxes[j, i] = -np.angle(links[0] * links[1] * links[2] * links[3])
    return fluxes, weakest


class TestPlaquetteFluxGrid:
    @pytest.mark.parametrize("closure, shape, dim", [
        ("torus", (7, 9), 3), ("sphere", (6, 8), 4), ("open", (8, 5), 2),
    ])
    def test_each_plaquette_matches_a_direct_wilson_loop(self, closure, shape, dim):
        rng = np.random.default_rng(32)
        states = _states_near_one(rng, (shape[0] + 2, shape[1]), dim)
        north, south, states = states[0, 0], states[-1, 0], states[1:-1]
        poles = {"north": north, "south": south} if closure == "sphere" else {}
        expected, weakest = _wilson_loops(states, closure, **poles)
        assert weakest > 0.3
        got = qg.plaquette_flux_grid(states, closure, **poles)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-14

    @staticmethod
    def _real_states(angles):
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1).astype(complex)

    @pytest.mark.parametrize("closure", ["torus", "sphere", "open"])
    @pytest.mark.parametrize("neighbor, expected", [
        ((1, 3), "along mu from grid point (1, 3)"),
        ((2, 2), "along nu from grid point (2, 2)"),
    ])
    def test_link_guard_names_the_weakest_link(self, closure, neighbor, expected):
        angles = np.zeros((5, 6))
        angles[2, 3] = 1.4
        angles[neighbor] = -0.1  # cos(1.5): weaker than the other links of (2, 3)
        angles[3, 3] = 0.1
        poles = self._real_states(np.zeros(2)) if closure == "sphere" else ()
        with pytest.raises(qg.StepError) as err:
            qg.plaquette_flux_grid(self._real_states(angles), closure, *poles)
        assert str(err.value) == f"link overlap 0.071 below 0.2 {expected}: grid too coarse"

    def test_link_guard_names_a_pole(self):
        angles = np.zeros((3, 5))
        angles[0] = 0.01 * np.arange(5)
        north, south = self._real_states(np.array([-1.5, 0.0]))
        with pytest.raises(
            qg.StepError, match=r"along mu from the north pole to grid point \(0, 4\):"
        ):
            qg.plaquette_flux_grid(self._real_states(angles), "sphere", north, south)

    @pytest.mark.parametrize("closure, poles, message", [
        ("cube", (), "unknown closure 'cube'"),
        ("sphere", (np.array([1.0, 0.0]),), "sphere closure needs both pole states"),
    ], ids=["unknown-closure", "sphere-one-pole"])
    def test_bad_closure_is_an_input_error(self, closure, poles, message):
        with pytest.raises(qg.InputError, match=f"^{message}$"):
            qg.plaquette_flux_grid(self._real_states(np.zeros((3, 4))), closure, *poles)

    @pytest.mark.parametrize("closure, shape, poles, expected", [
        ("torus", (3, 4), (), "torus states need shape (n_mu, n_nu, dim) with n_mu, n_nu >= 1; "
         "got states (3, 4)"),
        ("open", (1, 3, 2), (), "open states need shape (n_mu, n_nu, dim) with n_mu, n_nu >= 2; "
         "got states (1, 3, 2)"),
        ("open", (3, 1, 2), (), "open states need shape (n_mu, n_nu, dim) with n_mu, n_nu >= 2; "
         "got states (3, 1, 2)"),
        ("torus", (0, 3, 2), (), "torus states need shape (n_mu, n_nu, dim) with n_mu, n_nu >= 1; "
         "got states (0, 3, 2)"),
        ("sphere", (3, 0, 2), (2, 2), "sphere states need shape (n_mu, n_nu, dim) with n_mu, "
         "n_nu >= 1 and poles of shape (dim,); got states (3, 0, 2), pole (2,), pole (2,)"),
        ("sphere", (3, 4, 2), (3, 2), "sphere states need shape (n_mu, n_nu, dim) with n_mu, "
         "n_nu >= 1 and poles of shape (dim,); got states (3, 4, 2), pole (3,), pole (2,)"),
        ("torus", (1, 3, 2), (), (1, 3)),
        ("torus", (3, 1, 2), (), (3, 1)),
        ("sphere", (1, 1, 2), (2, 2), (2, 1)),
        ("open", (2, 2, 2), (), (1, 1)),
    ], ids=["2d-states", "open-one-row", "open-one-column", "empty-axis", "sphere-empty-axis",
            "long-pole", "torus-1x3", "torus-3x1", "sphere-1x1", "open-2x2"])
    def test_states_that_are_no_grid_are_an_input_error(self, closure, shape, poles, expected):
        # these raised numpy's AxisError, "zero-size array to reduction" or vecdot's ValueError
        states = np.ones(shape, complex) / np.sqrt(shape[-1])
        poles = [np.ones(n, complex) / np.sqrt(n) for n in poles]
        if isinstance(expected, str):
            with pytest.raises(qg.InputError, match=f"^{re.escape(expected)}$"):
                qg.plaquette_flux_grid(states, closure, *poles)
        else:  # the smallest grids keep working
            assert qg.plaquette_flux_grid(states, closure, *poles).shape == expected

    @pytest.mark.parametrize("min_link, message", [
        (float("nan"), "^min_link must be a finite number, not nan$"),
        ("x", "^min_link must be a finite number, not 'x'$"),
        (-1.0, r"^min_link must be in \[0, 1\], not -1.0$"),
        (1.5, r"^min_link must be in \[0, 1\], not 1.5$"),
    ], ids=["nan", "string", "negative", "above-one"])
    def test_min_link_is_a_number_in_the_unit_interval(self, spin_model, min_link, message):
        grid = qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (6, 6))
        with pytest.raises(qg.InputError, match=message):
            qg.berry_flux(spin_model, 0, grid, min_link=min_link)
        with pytest.raises(qg.StepError, match=r"^link overlap 0\.876 below 0\.99 along nu "):
            qg.berry_flux(spin_model, 0, grid, min_link=0.99)


def _offset_spin_model():
    """Spin-1/2 in a unit field plus 0.8 (cos phi, sin phi, 0): at theta = 0
    H still depends on phi, so the "pole" of a (theta, phi) sphere is a circle."""
    return qg.model_spec("offset spin", 2, ("theta", "phi"), [
        (SX, "sin(theta)*cos(phi) + 0.8*cos(phi)"),
        (SY, "sin(theta)*sin(phi) + 0.8*sin(phi)"),
        (SZ, "cos(theta)"),
    ])


class TestClosureCheck:
    @pytest.mark.parametrize("periods", [1.6, 1.8, 1.9])
    def test_torus_short_of_a_period_is_rejected(self, periods):
        # the link method would still report an exactly quantized chern = -1
        model = qg.two_band_lattice(1.0)
        grid = qg.SurfaceGrid.torus(model, "kx", "ky", (24, 24),
                                    mu_range=(0.0, periods * np.pi))
        with pytest.raises(qg.InputError, match="not closed along 'kx'.*differ by"):
            qg.berry_flux(model, 0, grid)

    @pytest.mark.parametrize("periods", [2, 3])
    @pytest.mark.parametrize("key, name", [("mu_range", "kx"), ("nu_range", "ky")])
    def test_torus_over_several_periods_is_rejected(self, periods, key, name):
        # the link method would report chern = -periods with residue 0 and no warning
        model = qg.two_band_lattice(1.0)
        grid = qg.SurfaceGrid.torus(model, "kx", "ky", (24, 24),
                                    **{key: (0.0, periods * 2 * np.pi)})
        with pytest.raises(qg.InputError, match=f"more than once along '{name}'.*"
                                                f"1/{periods} of the range"):
            qg.berry_flux(model, 0, grid)

    def test_flat_direction_may_span_several_periods(self):
        model = qg.model_spec("flat in c", 2, ("kx", "ky", "c"), [
            (SX, "sin(kx)"), (SY, "sin(ky)"), (SZ, "1 + cos(kx) + cos(ky)")])
        grid = qg.SurfaceGrid.torus(model, "kx", "c", (12, 12), nu_range=(0.0, 4 * np.pi),
                                    base=[0.0, 0.3, 0.0])
        assert abs(qg.berry_flux(model, 0, grid).chern) < 1e-9

    def test_half_period_torus_is_rejected_before_the_link_guard(self):
        model = qg.two_band_lattice(1.0)
        grid = qg.SurfaceGrid.torus(model, "kx", "ky", (24, 24), nu_range=(0.0, np.pi))
        with pytest.raises(qg.InputError, match=r"along 'ky': H at lambda = \[0\.0, 0\.0\] "
                                                r"and at lambda = \[0\.0, 3\.14159"):
            qg.berry_flux(model, 0, grid)

    @pytest.mark.parametrize("n", [12, 24, 48])
    def test_sphere_whose_pole_depends_on_azimuth_is_rejected(self, n):
        model = _offset_spin_model()
        grid = qg.SurfaceGrid.sphere(model, "theta", "phi", (n, n))
        with pytest.raises(qg.InputError, match="not closed at the north pole"):
            qg.berry_flux(model, 0, grid)

    def test_sphere_whose_azimuth_is_not_periodic_is_rejected(self):
        model = qg.model_spec("half-angle spin", 2, ("theta", "phi"), [
            (SX, "sin(theta)*cos(phi/2)"),
            (SZ, "cos(theta)"),
        ])
        grid = qg.SurfaceGrid.sphere(model, "theta", "phi", (12, 12))
        with pytest.raises(qg.InputError, match="not closed along 'phi'"):
            qg.berry_flux(model, 0, grid)

    def test_shifted_period_passes(self):
        model = qg.two_band_lattice(1.0)
        grid = qg.SurfaceGrid.torus(model, "kx", "ky", (12, 12),
                                    mu_range=(-np.pi, np.pi), nu_range=(0.5, 0.5 + 2 * np.pi))
        assert round(qg.berry_flux(model, 0, grid).chern) == -1


@pytest.mark.parametrize("dim", range(2, 9))
def test_path_length_does_not_depend_on_the_parametrization(dim):
    # the same segment traced at rate s and at rate s^2: the metric length
    # integral of sqrt(rate . g . rate) is invariant under s -> s^2
    for seed in range(3):
        model = random_trig_model(np.random.default_rng(seed), dim, n_params=2)
        lengths = [qg.path_quantum_length(qg.path_spec(model, dim // 2, {
            "p0": f"0.4 + 0.4*{s}", "p1": f"-0.3 + 0.4*{s}"}, 801), refine_check=False)[0]
            for s in ("s", "s*s")]
        assert lengths[1] == pytest.approx(lengths[0], rel=1e-8, abs=0.0)


@pytest.mark.parametrize("level, samples, message", [
    (1.7, 3, "path level must be an integer, not 1.7"),
    (1, 2.9, "path samples must be an integer, not 2.9"),
    (True, 3, "path level must be an integer, not True"),
    (1, "3", "path samples must be an integer, not '3'"),
])
def test_path_spec_does_not_truncate(spin_model, level, samples, message):
    with pytest.raises(qg.InputError, match=f"^{message}$"):
        qg.path_spec(spin_model, level, {"theta": "s", "phi": "0.1"}, samples)
    path = qg.path_spec(spin_model, 1.0, {"theta": "s", "phi": "0.1"}, 3.0)
    assert (path.level, path.samples) == (1, 3) and type(path.samples) is int


@pytest.mark.parametrize("samples", [2, 3, 10, 200, 201])
def test_refinement_check_leaves_the_length_bit_for_bit(spin_model, samples):
    # the refined run takes its coarse sum from every other of its 2n - 1 speeds
    path = qg.path_spec(spin_model, 1, {"theta": "0.3 + 2*s^2", "phi": "3*s"}, samples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # few samples warn that the refinement moved the length
        refined = qg.path_quantum_length(path)
    assert refined == qg.path_quantum_length(path, refine_check=False)


def test_surface_grid_takes_parameters_by_index():
    model = qg.two_band_lattice(1.0)
    by_name = qg.SurfaceGrid.torus(model, "kx", "ky", (8, 8))
    for mu, nu in ((0, 1), (np.int64(0), 1.0)):
        grid = qg.SurfaceGrid.torus(model, mu, nu, (8, 8))
        assert (grid.mu, grid.nu) == (0, 1)
        assert np.array_equal(grid.mu_values, by_name.mu_values)
        assert qg.berry_flux(model, 0, grid).chern == qg.berry_flux(model, 0, by_name).chern


@pytest.mark.parametrize("periods, n, key, name", [(11, 128, "mu_range", "kx"),
                                                   (13, 160, "nu_range", "ky")])
def test_torus_over_a_large_prime_number_of_periods_is_rejected(periods, n, key, name):
    # the link method would report chern = -periods; no prime up to 7 divides periods
    model = qg.two_band_lattice(1.0)
    grid = qg.SurfaceGrid.torus(model, "kx", "ky", (n, n), **{key: (0.0, periods * 2 * np.pi)})
    with pytest.raises(qg.InputError, match=f"more than once along '{name}'.*"
                                            f"repeats at 1/{periods} of the range; use one period"):
        qg.berry_flux(model, 0, grid)


def _counting_points(monkeypatch):
    """Patch the H evaluation ``check_closed`` calls; return the list of its point counts."""
    counted, blocks = [], qg.geometry.hamiltonian_blocks

    def counting(model, points, *args):
        counted.append(len(points))
        return blocks(model, points, *args)

    monkeypatch.setattr(qg.geometry, "hamiltonian_blocks", counting)
    return counted


def test_torus_period_probe_evaluates_one_edge_point_per_prime(monkeypatch):
    # the seams take 4 * 128 points and each direction probes lo, the flat point and 31
    # primes at one edge point; evaluating every probed edge in full would take 8,960
    grid = qg.SurfaceGrid.torus(qg.two_band_lattice(1.0), "kx", "ky", (128, 128))
    counted = _counting_points(monkeypatch)
    grid.check_closed(qg.two_band_lattice(1.0))
    assert sum(counted) <= 600


def test_torus_period_probe_decides_on_the_full_edge(monkeypatch):
    # at ky = 0, the first point of every kx edge, H does not depend on kx, so every prime
    # matches there; the full kx edges then rule each of them out
    model = qg.model_spec("kx-flat at ky = 0", 2, ("kx", "ky"), [
        (SX, "sin(ky)*cos(kx)"), (SY, "sin(ky)*sin(kx)"), (SZ, "0.5 + cos(ky)")])
    grid = qg.SurfaceGrid.torus(model, "kx", "ky", (16, 16))
    counted = _counting_points(monkeypatch)
    grid.check_closed(model)
    # seams, then 8 probes in kx (of which the 6 primes match) and 8 in ky, then 8 kx edges
    assert counted == [16, 16, 16, 16, 8, 8 * 16, 8]
    periods = qg.SurfaceGrid.torus(model, "kx", "ky", (16, 16), mu_range=(0.0, 6 * np.pi))
    with pytest.raises(qg.InputError, match="along 'kx'.* repeats at 1/3 of the range"):
        periods.check_closed(model)


def test_torus_period_probe_primes_match_trial_division():
    for n in range(2, 301):
        expected = [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]
        assert qg.geometry._primes(n).tolist() == expected, n


def test_torus_period_probe_compares_once_per_pass_whatever_the_prime_count(monkeypatch):
    # ky probes lo, the flat point and the 17,984 primes up to 200,000: one comparison per
    # pass (one edge point, then the whole edge), not one per prime; the seams compare
    # once per block of H
    model = qg.two_band_lattice(1.0)
    grid = qg.SurfaceGrid.torus(model, "kx", "ky", (3, 200_000))
    calls, mismatch = [], qg.geometry._mismatch
    monkeypatch.setattr(qg.geometry, "_mismatch", lambda *h: calls.append(1) or mismatch(*h))
    grid.check_closed(model)
    seam_blocks = 1 + math.ceil(200_000 / model_mod.BLOCK_POINTS)
    assert seam_blocks < len(calls) <= seam_blocks + 4


def test_small_separation_check_needs_one_entry_per_parameter(spin_model):
    with pytest.raises(qg.InputError, match=r"^displacement has 3 entries, expected 2$"):
        qg.small_separation_check(spin_model, [1.0, 0.3], [1e-3, 0.0, 0.0], 0)


@pytest.mark.parametrize("on_state_route", [False, True], ids=["default", "solve"])
@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_open_grid_flux_converges_to_the_curvature_integral(request, dim, on_state_route):
    # link-phase flux against a Gauss-Legendre integral of the sum-over-states F, at O(h^2)
    if on_state_route:
        request.getfixturevalue("state_route")
    model, level = random_trig_model(np.random.default_rng(5), dim, 2, 5), dim // 2 - 1
    (a, b), (c, d) = (0.4, 0.8), (-0.3, 0.1)
    x, w = np.polynomial.legendre.leggauss(24)
    mu, nu = (lo + (hi - lo) * (x + 1) / 2 for lo, hi in ((a, b), (c, d)))
    points = np.stack(np.meshgrid(mu, nu, indexing="ij"), axis=-1).reshape(-1, 2)
    f = np.concatenate([-2.0 * q[:, 0, 1].imag
                        for _, _, q in qg.level_blocks(model, points, level, tensors=True)])
    integral = (b - a) * (d - c) / 4 * np.outer(w, w).ravel() @ f
    ns = np.array([4, 8, 16, 32])
    errors = [abs(qg.berry_flux(model, level, qg.SurfaceGrid.open_grid(
        model, "p0", "p1", (a, b), (c, d), (n + 1, n + 1))).total_flux - integral) for n in ns]
    order = -np.polyfit(np.log(ns), np.log(errors), 1)[0]
    assert 1.8 <= order <= 2.2, (order, errors)
