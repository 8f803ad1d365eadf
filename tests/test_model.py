import json
import os

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

    @pytest.mark.parametrize("terms, message", [
        ([(SZ, "x"), (np.eye(3), "x")], "term 1: matrix is 3x3, expected 2x2"),
        ([([[0, 1], [2, 0]], "x")], "term 0: matrix is not Hermitian: entry (0, 1) differs from "
         "the conjugate of its transpose by 1.000e+00 (tolerance 2.000e-12)"),
        ([(SZ, "x"), (SX, "x + y")], "term 1: unknown identifier 'y' (byte offset 4)"),
    ], ids=["size", "hermitian", "parse"])
    def test_a_term_error_is_prefixed_once(self, terms, message):
        with pytest.raises(qg.InputError) as err:
            qg.model_spec("bad", 2, ("x",), terms)
        assert type(err.value) is qg.InputError
        assert str(err.value) == message

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


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _set_term(k, key, value):
    def mutate(doc):
        doc["terms"][k][key] = value
    return mutate


def _ragged_row(doc):
    doc["terms"][0]["matrix"][1] = doc["terms"][0]["matrix"][1][:1]


@pytest.mark.parametrize("mutate, needle", [
    (_set("name", 3), "'name' must be a string"),
    (_set("dim", 0), "'dim' must be a positive integer"),
    (_set("parameters", ["theta", 1]), "'parameters' must be a list of strings"),
    (_set("terms", 5), "'terms' must be a list"),
    (_set("terms", []), "a model needs at least one term"),
    (_set("terms", [[1, 2]]), "term 0 must be an object with 'matrix' and 'coeff'"),
    (_ragged_row, "term 0: row 1 must have 2 entries"),
    (_set_term(2, "coeff", 1), "term 2: expression must be a string, not int"),
], ids=["name", "dim", "parameters", "terms-type", "terms-empty", "term-type", "ragged-row",
        "coeff-type"])
def test_malformed_model_file_names_the_file(tmp_path, mutate, needle):
    path = _spin_half_file(tmp_path, mutate)
    with pytest.raises(qg.InputError) as err:
        qg.load_model_spec(path)
    assert str(path) in str(err.value) and needle in str(err.value)


def test_model_file_top_level_must_be_an_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    with pytest.raises(qg.InputError, match=r"top level must be an object$"):
        qg.load_model_spec(path)


@pytest.mark.parametrize("mu", [1.0, True, "1", -1, 2])
def test_derivative_index_must_be_an_integer_in_range(spin_model, mu):
    with pytest.raises(qg.InputError, match=r"^parameter index must be an integer in 0\.\.1, not"):
        qg.hamiltonian_derivative_at(spin_model, [0.1, 0.2], mu)
    assert np.array_equal(qg.hamiltonian_derivative_at(spin_model, [0.1, 0.2], np.int64(1)),
                          qg.hamiltonian_derivative_at(spin_model, [0.1, 0.2], 1))


@pytest.mark.parametrize("exprs, message", [
    ({"theta": "log(s)", "phi": "0.1"},
     "coordinate 'theta' ('log(s)') at {'s': 0.0}: "),
    ({"theta": "1", "phi": "sqrt(s - 0.5)"},
     "coordinate 'phi' ('sqrt(s - 0.5)') at {'s': 0.0}: "),
])
def test_curve_domain_errors_are_located(spin_model, exprs, message):
    # the message stays point-wise; ``where`` names the coordinate and the point
    curve = qg.curve(spin_model, exprs, "s")
    with pytest.raises(qg.EvaluationError) as err:
        curve.sample(np.linspace(0.0, 1.0, 5), rates=True)
    assert err.value.where == message and not str(err.value).startswith("coordinate")


@pytest.mark.parametrize("points", [np.zeros((3, 3)), np.zeros(2), [[np.nan, 0.0]],
                                    [[0.0, np.inf]]])
def test_hamiltonian_blocks_reject_malformed_points(spin_model, points):
    with pytest.raises(qg.InputError, match=r"^parameter points must be finite, of shape "
                                            r"\(N, 2\); got shape \(") as info:
        next(qg.hamiltonian_blocks(spin_model, points))
    assert str(info.value).endswith(f"got shape {np.shape(points)}")


def test_lattice_mass_must_be_finite():
    with pytest.raises(qg.InputError, match=r"^mass must be finite$"):
        qg.two_band_lattice(np.inf)


def test_integer_entry_past_64_bits_is_read_as_a_float(tmp_path):
    # numpy holds 2**64 only in an object array, so the entry-by-entry walk reads the matrix
    def big(doc):
        doc["terms"][2]["matrix"][0][0] = [2**64, 0]
    model = qg.load_model_spec(_spin_half_file(tmp_path, big))
    h = qg.hamiltonian_at(model, [0.0, 0.0])
    assert h[0, 0] == 2.0**64 and h[1, 1] == -1.0


def test_a_model_needs_a_parameter():
    with pytest.raises(qg.InputError, match=r"^a model needs at least one parameter$"):
        qg.model_spec("constant", 2, [], [(np.diag([1.0, -1.0]), "1")])


def test_model_file_encoding_is_detected(tmp_path):
    utf8 = _spin_half_file(tmp_path)
    utf16 = tmp_path / "model16.json"
    utf16.write_bytes(utf8.read_text().encode("utf-16"))
    lam = [0.8, 1.3]
    assert np.array_equal(qg.hamiltonian_at(qg.load_model_spec(utf16), lam),
                          qg.hamiltonian_at(qg.load_model_spec(utf8), lam))


@pytest.mark.parametrize("mutate, needle", [
    (_set_term(0, "matrix", [[[1, 0], [0, 0]]]), "term 0: matrix must have 2 rows"),
    (_ragged_row, "term 0: row 1 must have 2 entries"),
    (_set_term(0, "matrix", [[[1, 0], 0], [[0, 0], [1, 0]]]),
     "term 0: entry (0,1) must be a 2-array [re, im]"),
    (_set_term(0, "matrix", [[[2**1100, 0], [0, 0]], [[0, 0], [1, 0]]]),
     "term 0: entry (0,0) is too large for a float"),
], ids=["rows", "row-length", "pair", "too-large"])
def test_matrix_errors_start_with_the_model_file_prefix(tmp_path, mutate, needle):
    path = _spin_half_file(tmp_path, mutate)
    with pytest.raises(qg.InputError) as err:
        qg.load_model_spec(path)
    assert str(err.value) == f"model file {path}: {needle}"


# --------------------------------------------------------------------------
# a model file is decoded once per content


@pytest.fixture
def empty_slot(monkeypatch):
    """No model file decoded yet in this process; the slot is restored afterwards."""
    monkeypatch.setattr(qg.model, "_last_decoded", (b"", None))


def test_unchanged_bytes_are_decoded_once_wherever_they_are(tmp_path, monkeypatch, empty_slot):
    parsed = []
    parse = qg.model._parse_complex_matrix
    monkeypatch.setattr(qg.model, "_parse_complex_matrix",
                        lambda *args: parsed.append(args[2]) or parse(*args))
    path = _spin_half_file(tmp_path)
    model = qg.load_model_spec(path)
    assert parsed == ["term 0", "term 1", "term 2"]
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    assert qg.load_model_spec(path) is model and qg.load_model_spec(copy) is model
    assert len(parsed) == 3


def test_a_file_rewritten_with_its_size_and_mtime_is_decoded_again(tmp_path, empty_slot):
    path = _spin_half_file(tmp_path)
    before = qg.load_model_spec(path)
    stat = path.stat()
    text = path.read_text()
    assert text.count("[1.0, 0.0]") == 3  # sx twice, then sz at (0, 0)
    path.write_text(text.replace("[1.0, 0.0]", "[2.0, 0.0]"))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    after = qg.load_model_spec(path)
    assert np.array_equal(after.terms[0][0], 2 * before.terms[0][0])
    assert np.array_equal(after.terms[2][0], np.diag([2.0, -1.0]))


@pytest.mark.parametrize("text, needle", [
    ("{nope", "is not valid JSON: "),
    (json.dumps({"name": "m", "dim": 0, "parameters": ["a"], "terms": []}),
     ": 'dim' must be a positive integer"),
], ids=["json", "schema"])
def test_an_error_is_not_kept_for_the_next_path(tmp_path, empty_slot, text, needle):
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(qg.InputError) as err:
            qg.load_model_spec(path)
        assert str(path) in str(err.value) and needle in str(err.value)
    assert qg.model._last_decoded == (b"", None)


def test_term_matrices_are_read_only(tmp_path, spin_model):
    for model in (qg.load_model_spec(_spin_half_file(tmp_path)), spin_model):
        with pytest.raises(ValueError, match="read-only"):
            model.terms[0][0][0, 1] = 5.0
    assert np.array_equal(spin_model.terms[0][0], SX)


@pytest.mark.parametrize("matrix, entry", [
    ([[[True, False], [0, 0]], [[0, 0], [False, False]]], "(0,0)"),
    ([[[0, 0], [True, 0.5]], [[True, -0.5], [0, 0]]], "(0,1)"),
    ([[[0, 0], [1, 0]], [[1.0, False], [0, 0]]], "(1,0)"),
    ([[[2**64, 0], [0, True]], [[0, 0], [1, 0]]], "(0,1)"),
], ids=["all-bool", "mixed", "one-imaginary-part", "entry-walk"])
def test_a_boolean_matrix_entry_is_an_error(tmp_path, matrix, entry):
    path = _spin_half_file(tmp_path, _set_term(0, "matrix", matrix))
    with pytest.raises(qg.InputError) as err:
        qg.load_model_spec(path)
    assert str(err.value) == f"model file {path}: term 0: entry {entry} must be a 2-array [re, im]"
