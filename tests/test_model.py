import json

import numpy as np
import pytest

import qgeom as qg
from conftest import SX, SZ, random_trig_model, upper_state


class TestSpinHalf:
    def test_field_along_z(self, spin_model):
        h = qg.hamiltonian_at(spin_model, [0.0, 0.0])
        assert np.allclose(h, SZ, atol=1e-15)

    def test_field_along_x(self, spin_model):
        h = qg.hamiltonian_at(spin_model, [np.pi / 2, 0.0])
        assert np.allclose(h, SX, atol=1e-15)

    def test_spectrum_isotropic(self, spin_model):
        rng = np.random.default_rng(5)
        for _ in range(25):
            lam = [rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)]
            es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, lam))
            assert np.abs(es.energies - np.array([-1.0, 1.0])).max() <= 1e-12

    def test_gap_is_constant(self, spin_model):
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, [np.pi / 3, 0.4]))
        assert es.gap(0) == pytest.approx(2.0, abs=1e-12)

    def test_upper_eigenvector_matches_closed_form(self, spin_model):
        # up to a global phase
        rng = np.random.default_rng(6)
        for _ in range(10):
            th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)
            es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, [th, ph]))
            overlap = abs(np.vdot(upper_state(th, ph), es.vectors[:, 1]))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_zero_field_rejected(self):
        with pytest.raises(qg.InputError):
            qg.spin_half(0.0)

    def test_scale_carries_through(self):
        model = qg.spin_half(2.5)
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(model, [1.0, 2.0]))
        assert np.allclose(es.energies, [-2.5, 2.5], atol=1e-12)


class TestHamiltonianOps:
    def test_linear_combination(self):
        h1 = np.diag([1.0, -1.0]).astype(complex)
        h2 = SX
        model = qg.model_spec("two-term", 2, ("lambda1",), [(h1, "1"), (h2, "lambda1")])
        h = qg.hamiltonian_at(model, [2.0])
        assert np.allclose(h, h1 + 2.0 * h2, atol=1e-15)

    def test_output_hermitian_as_stored(self):
        rng = np.random.default_rng(7)
        model = random_trig_model(rng, 4)
        h = qg.hamiltonian_at(model, rng.uniform(-1, 1, 3))
        assert np.array_equal(h, h.conj().T)

    def test_derivative_theta_at_pole(self, spin_model):
        dh = qg.hamiltonian_derivative_at(spin_model, [0.0, 0.0], 0)
        assert np.allclose(dh, SX, atol=1e-15)

    def test_derivative_phi_at_pole_vanishes(self, spin_model):
        dh = qg.hamiltonian_derivative_at(spin_model, [0.0, 0.0], 1)
        assert np.abs(dh).max() == 0.0

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(8)
        models = [qg.spin_half(1.0), qg.two_band_lattice(1.0)]
        models += [random_trig_model(rng, int(rng.integers(2, 5))) for _ in range(3)]
        h_step = 1e-6
        for model in models:
            k = model.n_parameters
            for _ in range(100 // len(models) + 1):
                lam = rng.uniform(-2, 2, k)
                mu = int(rng.integers(k))
                exact = qg.hamiltonian_derivative_at(model, lam, mu)
                up, down = lam.copy(), lam.copy()
                up[mu] += h_step
                down[mu] -= h_step
                fd = (qg.hamiltonian_at(model, up) - qg.hamiltonian_at(model, down)) / (2 * h_step)
                scale = max(1.0, np.abs(exact).max())
                assert np.abs(exact - fd).max() <= 1e-6 * scale

    def test_index_out_of_range(self, spin_model):
        with pytest.raises(qg.InputError):
            qg.hamiltonian_derivative_at(spin_model, [0.1, 0.2], 2)

    def test_point_length_checked(self, spin_model):
        with pytest.raises(qg.InputError):
            qg.hamiltonian_at(spin_model, [0.1])

    def test_point_finite_checked(self, spin_model):
        with pytest.raises(qg.InputError):
            qg.hamiltonian_at(spin_model, [np.nan, 0.0])

    def test_evaluation_error_names_term(self):
        model = qg.model_spec(
            "singular", 2, ("x",), [(SZ, "1/x"), (SX, "x")]
        )
        with pytest.raises(qg.EvaluationError, match="term 0"):
            qg.hamiltonian_at(model, [0.0])


class TestModelSpecValidation:
    def test_needs_a_term(self):
        with pytest.raises(qg.InputError):
            qg.model_spec("empty", 2, ("x",), [])

    def test_dimension_mismatch(self):
        with pytest.raises(qg.InputError, match="term 1"):
            qg.model_spec("bad", 2, ("x",), [(SZ, "x"), (np.eye(3), "x")])

    def test_undeclared_parameter(self):
        with pytest.raises(qg.InputError, match="term 0"):
            qg.model_spec("bad", 2, ("x",), [(SZ, "x + y")])

    def test_duplicate_parameters(self):
        with pytest.raises(qg.InputError):
            qg.model_spec("bad", 2, ("x", "x"), [(SZ, "x")])

    def test_frozen(self, spin_model):
        with pytest.raises(Exception):
            spin_model.dim = 3


def _spin_half_file(tmp_path, mutate=None):
    def c(z):
        return [z.real, z.imag]

    doc = {
        "name": "spin-half from file",
        "dim": 2,
        "parameters": ["theta", "phi"],
        "terms": [
            {"matrix": [[c(0j), c(1 + 0j)], [c(1 + 0j), c(0j)]],
             "coeff": "sin(theta)*cos(phi)"},
            {"matrix": [[c(0j), c(-1j)], [c(1j), c(0j)]],
             "coeff": "sin(theta)*sin(phi)"},
            {"matrix": [[c(1 + 0j), c(0j)], [c(0j), c(-1 + 0j)]],
             "coeff": "cos(theta)"},
        ],
    }
    if mutate:
        mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


class TestModelFiles:
    def test_round_trip(self, tmp_path, spin_model):
        model = qg.load_model_spec(_spin_half_file(tmp_path))
        assert len(model.terms) == 3
        assert model.parameters == ("theta", "phi")
        lam = [0.8, 1.3]
        assert np.allclose(
            qg.hamiltonian_at(model, lam), qg.hamiltonian_at(spin_model, lam), atol=1e-15
        )

    def test_non_hermitian_entry_named(self, tmp_path):
        def mutate(doc):
            doc["terms"][0]["matrix"][0][1] = [1.001, 0.0]

        path = _spin_half_file(tmp_path, mutate)
        with pytest.raises(qg.InputError, match=r"\(0, 1\)|\(1, 0\)"):
            qg.load_model_spec(path)

    def test_undeclared_parameter_names_term(self, tmp_path):
        def mutate(doc):
            doc["terms"][1]["coeff"] = "sin(alpha)"

        path = _spin_half_file(tmp_path, mutate)
        with pytest.raises(qg.InputError, match="term 1"):
            qg.load_model_spec(path)

    def test_missing_field(self, tmp_path):
        def mutate(doc):
            del doc["parameters"]

        path = _spin_half_file(tmp_path, mutate)
        with pytest.raises(qg.InputError, match="parameters"):
            qg.load_model_spec(path)

    def test_entry_not_pair(self, tmp_path):
        def mutate(doc):
            doc["terms"][0]["matrix"][0][0] = 0.0

        path = _spin_half_file(tmp_path, mutate)
        with pytest.raises(qg.InputError, match=r"\(0,0\)"):
            qg.load_model_spec(path)

    def test_wrong_row_count(self, tmp_path):
        def mutate(doc):
            doc["terms"][0]["matrix"] = doc["terms"][0]["matrix"][:1]

        path = _spin_half_file(tmp_path, mutate)
        with pytest.raises(qg.InputError, match="rows"):
            qg.load_model_spec(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(qg.InputError, match="JSON"):
            qg.load_model_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(qg.InputError):
            qg.load_model_spec(tmp_path / "absent.json")


class TestCurve:
    def test_paths_and_schedules_are_one_type(self, spin_model):
        path = qg.path_spec(spin_model, 1, {"theta": "1 + 0.4*sin(s)", "phi": "0.3*s^2"}, 11)
        sched = qg.schedule(spin_model, {"theta": "1 + 0.4*sin(t)", "phi": "0.3*t^2"})
        assert isinstance(path.curve, qg.Curve) and isinstance(sched, qg.Curve)
        for x in (0.0, 0.37, 1.0):
            lam_s, rate_s = path.curve.values_and_rates(x)
            lam_t, rate_t = sched.values_and_rates(x)
            assert np.array_equal(lam_s, lam_t) and np.array_equal(rate_s, rate_t)
            assert np.array_equal(sched.values(x), lam_t)
        assert np.allclose(rate_t, [0.4 * np.cos(1.0), 0.6], atol=1e-15)
