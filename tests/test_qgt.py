import re

import numpy as np
import pytest

import qgeom as qg
import qgeom.qgt as qgt_mod
from conftest import (
    analytic_qgt_two_level,
    doubled_spin_half,
    lower_state,
    random_trig_model,
    twisted_doubled_spin_half,
    upper_state,
)


def _rephase_eigh(monkeypatch, rng):
    """Give every eigenvector from the blocked eigensolver a random phase; return the call log."""
    calls = []
    true_eigh = qgt_mod._eigh

    def rephased(h):
        calls.append(np.shape(h))
        energies, vectors = true_eigh(h)
        shape = vectors.shape[:-2] + (1, vectors.shape[-1])
        return energies, vectors * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))

    monkeypatch.setattr(qgt_mod, "_eigh", rephased)
    return calls


def _random_angles(rng, n):
    return [(rng.uniform(0.05, np.pi - 0.05), rng.uniform(0.0, 2 * np.pi)) for _ in range(n)]


class TestSumOverStates:
    def test_matches_analytic_both_bands(self, spin_model):
        rng = np.random.default_rng(20)
        for th, ph in _random_angles(rng, 20):
            for level, band in ((1, +1), (0, -1)):
                q = qg.qgt_sum_over_states(spin_model, [th, ph], level)
                assert np.abs(q.matrix - analytic_qgt_two_level(th, band)).max() <= 1e-12

    def test_scale_invariance_of_tensor(self):
        # energy scale cancels between numerator and denominators
        q1 = qg.qgt_sum_over_states(qg.spin_half(1.0), [1.0, 2.0], 1)
        q2 = qg.qgt_sum_over_states(qg.spin_half(7.0), [1.0, 2.0], 1)
        assert np.abs(q1.matrix - q2.matrix).max() <= 1e-12

    def test_band_sign_flip_of_curvature(self, spin_model):
        th = np.pi / 3
        upper = qg.qgt_sum_over_states(spin_model, [th, 0.7], 1)
        lower = qg.qgt_sum_over_states(spin_model, [th, 0.7], 0)
        assert upper.curvature[0, 1] == pytest.approx(-0.5 * np.sin(th), abs=1e-12)
        assert lower.curvature[0, 1] == pytest.approx(+0.5 * np.sin(th), abs=1e-12)

    def test_decomposition_identity(self, spin_model):
        q = qg.qgt_sum_over_states(spin_model, [1.1, 0.3], 1)
        rebuilt = q.metric - 0.5j * q.curvature
        assert np.array_equal(rebuilt, q.matrix)
        assert np.abs(q.metric - q.metric.T).max() == 0.0
        assert np.abs(q.curvature + q.curvature.T).max() == 0.0

    def test_degenerate_level_directs_to_nonabelian(self):
        model = doubled_spin_half()
        with pytest.raises(qg.DegeneracyError, match="nonabelian"):
            qg.qgt_sum_over_states(model, [1.0, 2.0], 0)

    def test_near_degeneracy_flag(self):
        model = qg.model_spec(
            "narrow gap", 2, ("x",),
            [(np.array([[1e-8, 0], [0, -1e-8]], dtype=complex), "1"),
             (np.array([[0, 1], [1, 0]], dtype=complex), "x")],
        )
        q = qg.qgt_sum_over_states(model, [1e-9], 0)
        assert q.near_degenerate
        wide = qg.qgt_sum_over_states(qg.spin_half(1.0), [1.0, 1.0], 0)
        assert not wide.near_degenerate

    def test_gauge_invariance_under_rephasing(self, spin_model):
        rng = np.random.default_rng(21)
        lam = np.array([1.2, 0.4])
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, lam))
        dh = qg.derivative_matrices(spin_model, lam)
        reference = qg.qgt_from_eigensystem(es, dh, 1).matrix
        for _ in range(50):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, es.dim))
            rephased = qg.EigenSystem(es.energies, es.vectors * phases, es.groups)
            q = qg.qgt_from_eigensystem(rephased, dh, 1).matrix
            assert np.abs(q - reference).max() <= 1e-12

    def test_positive_semidefinite_and_hermitian_fuzz(self):
        rng = np.random.default_rng(22)
        done = 0
        while done < 40:
            dim = int(rng.integers(2, 7))
            model = random_trig_model(rng, dim)
            lam = rng.uniform(-2, 2, 3)
            es = qg.hermitian_eigensystem(qg.hamiltonian_at(model, lam))
            level = int(rng.integers(dim))
            if len(es.group_of(level)) > 1:
                continue
            q = qg.qgt_from_eigensystem(es, qg.derivative_matrices(model, lam), level)
            asym = np.abs(q.matrix - q.matrix.conj().T).max()
            assert asym <= 1e-10
            assert np.linalg.eigvalsh(q.matrix).min() >= -1e-10
            done += 1


class TestProjectorMethod:
    def test_agrees_with_sum_at_small_h(self, spin_model):
        lam = [np.pi / 3, 0.7]
        q_sum = qg.qgt_sum_over_states(spin_model, lam, 1)
        q_proj = qg.qgt_projector_fd(spin_model, lam, 1, h=1e-4)
        assert np.abs(q_proj.matrix - q_sum.matrix).max() <= 1e-6

    def test_second_order_convergence(self, spin_model):
        lam = [np.pi / 3, 0.7]
        q_sum = qg.qgt_sum_over_states(spin_model, lam, 1).matrix
        hs = np.array([4e-3, 2e-3, 1e-3])
        errs = [
            np.abs(qg.qgt_projector_fd(spin_model, lam, 1, h).matrix - q_sum).max()
            for h in hs
        ]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_single_parameter_model_is_real_scalar(self):
        model = qg.model_spec(
            "one knob", 2, ("a",),
            [(np.array([[1, 0], [0, -1]], dtype=complex), "cos(a)"),
             (np.array([[0, 1], [1, 0]], dtype=complex), "sin(a)")],
        )
        q = qg.qgt_projector_fd(model, [0.9], 1, h=1e-4)
        assert q.matrix.shape == (1, 1)
        assert abs(q.matrix[0, 0].imag) <= 1e-12
        assert q.matrix[0, 0].real >= 0.0
        q_sum = qg.qgt_sum_over_states(model, [0.9], 1)
        assert abs(q.matrix[0, 0] - q_sum.matrix[0, 0]) <= 1e-6

    def test_large_step_rejected(self, spin_model):
        # a step of ~pi moves the state nearly orthogonal
        with pytest.raises(qg.StepError):
            qg.aligned_neighbor_states(spin_model, [np.pi / 2, 0.0], 1, h=3.0)

    def test_gauge_invariance_via_rephased_eigensolver(self, spin_model, monkeypatch):
        lam = [1.0, 0.5]
        reference = qg.qgt_projector_fd(spin_model, lam, 1, h=1e-4).matrix
        calls = _rephase_eigh(monkeypatch, np.random.default_rng(23))
        q = qg.qgt_projector_fd(spin_model, lam, 1, h=1e-4).matrix
        assert calls
        assert np.abs(q - reference).max() <= 1e-12


class TestOverlapMethod:
    def test_metric_and_curvature_close_to_analytic(self, spin_model):
        th = np.pi / 3
        q = qg.qgt_overlap_fd(spin_model, [th, 0.3], 1, h=1e-3)
        g_exact = 0.25 * np.diag([1.0, np.sin(th) ** 2])
        assert np.abs(q.metric - g_exact).max() <= 1e-5
        assert abs(q.curvature[0, 1] - (-0.5 * np.sin(th))) <= 1e-5

    def test_gauge_invariance_via_rephased_eigensolver(self, spin_model, monkeypatch):
        # Only overlap moduli and loop phases enter, so rephasing moves each
        # modulus by at most a couple of ulp; the metric assembly divides the
        # tiny 1 - |o| difference by h^2, which sets the noise floor here.
        h = 1e-3
        lam = [np.pi / 3, 0.3]
        reference = qg.qgt_overlap_fd(spin_model, lam, 1, h=h).matrix
        calls = _rephase_eigh(monkeypatch, np.random.default_rng(24))
        q = qg.qgt_overlap_fd(spin_model, lam, 1, h=h).matrix
        assert calls
        assert np.abs(q - reference).max() <= 2e-15 / h**2

    @pytest.mark.parametrize("h", [1e-8, 1e-9])
    def test_a_step_below_the_rounding_floor_raises(self, spin_model, h):
        # g_00 = 0.25 here; without the floor the route returned -2.22 at 1e-8 and
        # 0.0 (with g_01 = 111) at 1e-9, while the projector route stays within 1e-7
        with pytest.raises(qg.StepError, match=f"^step h = {h:.3g} is too small for the overlap"):
            qg.qgt_overlap_fd(spin_model, [1.0, 0.3], 1, h)
        assert abs(qg.qgt_projector_fd(spin_model, [1.0, 0.3], 1, h).metric[0, 0] - 0.25) <= 1e-7

    @pytest.mark.parametrize("h", [qgt_mod.DEFAULT_FD_STEP, 4e-3, 2e-3, 1e-3])
    def test_the_rounding_floor_admits_the_default_and_fit_steps_at_dim_64(self, h):
        # the floor 2 (d + 2) eps / h^2 is largest at the largest dim and smallest step
        rng = np.random.default_rng(64)
        model = random_trig_model(rng, 64)
        lam = rng.uniform(-1.0, 1.0, model.n_parameters)
        reference = qg.qgt_sum_over_states(model, lam, 0).matrix
        assert np.abs(qg.qgt_overlap_fd(model, lam, 0, h).matrix - reference).max() <= 1e-4

    def test_single_parameter_no_two_form(self):
        model = qg.model_spec(
            "one knob", 2, ("a",),
            [(np.array([[1, 0], [0, -1]], dtype=complex), "cos(a)"),
             (np.array([[0, 1], [1, 0]], dtype=complex), "sin(a)")],
        )
        q = qg.qgt_overlap_fd(model, [0.9], 1, h=1e-3)
        assert q.curvature.shape == (1, 1)
        assert q.curvature[0, 0] == 0.0
        assert q.metric[0, 0] >= 0.0

    def test_metric_second_order_convergence(self, spin_model):
        lam = [np.pi / 3, 0.7]
        g_sum = qg.qgt_sum_over_states(spin_model, lam, 1).metric
        hs = np.array([4e-3, 2e-3, 1e-3])
        errs = [
            np.abs(qg.qgt_overlap_fd(spin_model, lam, 1, h).metric - g_sum).max()
            for h in hs
        ]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_level_crossing_detected(self):
        # levels swap order across x = 0; a step straddling it must refuse
        model = qg.model_spec(
            "crossing", 2, ("x", "y"),
            [(np.array([[1, 0], [0, -1]], dtype=complex), "x")],
        )
        with pytest.raises(qg.StepError):
            qg.qgt_overlap_fd(model, [1e-6, 1.0], 1, h=1e-3)


def _three_knob_model():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return qg.model_spec(
        "three-knob", 2, ("a", "b", "c"),
        [(sx, "sin(a)*cos(b)"),
         (sy, "sin(a)*sin(b) + 0.3*c"),
         (sz, "cos(a) + 0.2*c^2")],
    )


class TestThreeParameterCrossMethods:
    # exercises every (mu, nu) pair: polarization identity off-diagonals and
    # three independent Wilson-loop planes

    def test_all_methods_agree(self):
        model = _three_knob_model()
        lam = [0.9, 0.5, 0.3]
        q_sum = qg.qgt_sum_over_states(model, lam, 1)
        q_proj = qg.qgt_projector_fd(model, lam, 1, h=1e-4)
        q_fd = qg.qgt_overlap_fd(model, lam, 1, h=1e-3)
        assert np.abs(q_proj.matrix - q_sum.matrix).max() <= 1e-6
        assert np.abs(q_fd.metric - q_sum.metric).max() <= 1e-6
        assert np.abs(q_fd.curvature - q_sum.curvature).max() <= 1e-6

    def test_tensor_shape_and_structure(self):
        model = _three_knob_model()
        q = qg.qgt_sum_over_states(model, [0.9, 0.5, 0.3], 1)
        assert q.matrix.shape == (3, 3)
        assert np.abs(q.matrix - q.matrix.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(q.metric).min() >= -1e-10
        assert np.abs(q.curvature + q.curvature.T).max() == 0.0


def _pulled_back(model, a):
    """The model with lambda = A u written into every coefficient string."""
    names = tuple(f"u{j}" for j in range(a.shape[1]))

    def linear(match):
        row = a[int(match.group(1))]
        return "(" + " + ".join(f"{float(c)!r}*{u}" for c, u in zip(row, names)) + ")"

    return qg.model_spec("pulled back", model.dim, names, [
        (matrix, re.sub(r"\bp(\d+)\b", linear, src))
        for (matrix, _), src in zip(model.terms, model.coeff_sources)])


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 48])
def test_q_transforms_as_a_tensor(dim):
    # Q'(u) = A^T Q(A u) A for lambda = A u; the finite-difference routes,
    # which see states only and never dH, must give the same pulled-back tensor
    rng = np.random.default_rng(70 + dim)
    model = random_trig_model(rng, dim)
    a = rng.uniform(-1.0, 1.0, (3, 2))
    u = rng.uniform(-1.0, 1.0, (10, 2))  # 7 points per block at dim 48
    pulled = _pulled_back(model, a)
    q = np.concatenate([q for *_, q in qg.level_blocks(model, u @ a.T, 1, tensors=True)])
    q_u = np.concatenate([q for *_, q in qg.level_blocks(pulled, u, 1, tensors=True)])
    want = a.T @ q @ a
    scale = np.abs(q).max()
    assert np.abs(q_u - want).max() <= 1e-12 * scale
    projected = np.array([qg.qgt_projector_fd(pulled, point, 1).matrix for point in u])
    assert np.abs(projected - want).max() <= 1e-5 * scale  # O(h^2) at h = 1e-4
    overlaps = np.array([qg.qgt_overlap_fd(pulled, point, 1, h=1e-3).matrix for point in u])
    assert np.abs(overlaps - want).max() <= 1e-3 * scale  # O(h^2) at h = 1e-3


class TestNonAbelian:
    def test_doubled_model_is_scalar_times_identity(self, spin_model):
        model = doubled_spin_half()
        lam = [1.1, 0.6]
        na = qg.qgt_nonabelian(model, lam, (0, 1))
        scalar = qg.qgt_sum_over_states(spin_model, lam, 0).matrix
        for m in range(2):
            for n in range(2):
                assert np.abs(na.blocks[m, n] - scalar[m, n] * np.eye(2)).max() <= 1e-10

    def test_reduces_to_abelian_for_singleton(self, spin_model):
        lam = [0.9, 1.7]
        na = qg.qgt_nonabelian(spin_model, lam, (1,))
        q = qg.qgt_sum_over_states(spin_model, lam, 1)
        assert np.abs(na.as_abelian().matrix - q.matrix).max() <= 1e-12

    def test_block_hermiticity(self):
        model = twisted_doubled_spin_half()
        na = qg.qgt_nonabelian(model, [1.0, 0.4], (0, 1))
        for m in range(2):
            for n in range(2):
                assert np.abs(na.blocks[m, n] - na.blocks[n, m].conj().T).max() <= 1e-10

    def test_conjugation_under_subspace_rotation(self):
        rng = np.random.default_rng(25)
        model = twisted_doubled_spin_half()
        lam = np.array([1.0, 0.4])
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(model, lam))
        dh = qg.derivative_matrices(model, lam)
        group = es.group_of(0)
        assert len(group) == 2
        na = qg.nonabelian_from_eigensystem(es, dh, group)

        # random unitary rotation of the degenerate columns
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w, _ = np.linalg.qr(a)
        vectors = es.vectors.copy()
        vectors[:, list(group)] = vectors[:, list(group)] @ w
        rotated = qg.nonabelian_from_eigensystem(
            qg.EigenSystem(es.energies, vectors, es.groups), dh, group
        )
        def matched_distance(ev_a, ev_b):
            pool = list(ev_b)
            worst = 0.0
            for z in ev_a:
                j = int(np.argmin(np.abs(np.array(pool) - z)))
                worst = max(worst, abs(pool.pop(j) - z))
            return worst

        for m in range(2):
            for n in range(2):
                expected = w.conj().T @ na.blocks[m, n] @ w
                assert np.abs(rotated.blocks[m, n] - expected).max() <= 1e-10
                ev_a = np.linalg.eigvals(na.blocks[m, n])
                ev_b = np.linalg.eigvals(rotated.blocks[m, n])
                assert matched_distance(ev_a, ev_b) <= 1e-10

    def test_group_must_be_maximal(self):
        model = doubled_spin_half()
        with pytest.raises(qg.InputError, match="maximal"):
            qg.qgt_nonabelian(model, [1.0, 2.0], (0,))


class TestBerryConnection:
    def test_closed_form_gauge_value(self, spin_model):
        # neighbors supplied in the half-angle closed-form gauge
        th, ph, h = 1.1, 0.7, 1e-5
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, [th, ph]))
        # replace the solver's arbitrary-phase column with the closed form
        vectors = es.vectors.copy()
        vectors[:, 1] = upper_state(th, ph)
        es = qg.EigenSystem(es.energies, vectors, es.groups)
        neighbors = [
            (upper_state(th + h, ph), upper_state(th - h, ph)),
            (upper_state(th, ph + h), upper_state(th, ph - h)),
        ]
        beta = qg.berry_connection(es, neighbors, 1, h)
        assert beta[0] == pytest.approx(0.0, abs=1e-8)
        assert beta[1] == pytest.approx(0.5 * np.cos(th), abs=1e-8)

    def test_lower_band_sign(self, spin_model):
        th, ph, h = 1.1, 0.7, 1e-5
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, [th, ph]))
        vectors = es.vectors.copy()
        vectors[:, 0] = lower_state(th, ph)
        es = qg.EigenSystem(es.energies, vectors, es.groups)
        neighbors = [
            (lower_state(th + h, ph), lower_state(th - h, ph)),
            (lower_state(th, ph + h), lower_state(th, ph - h)),
        ]
        beta = qg.berry_connection(es, neighbors, 0, h)
        assert beta[1] == pytest.approx(-0.5 * np.cos(th), abs=1e-8)

    def test_real_family_has_zero_connection(self):
        model = qg.model_spec(
            "real family", 2, ("a",),
            [(np.array([[1, 0], [0, -1]], dtype=complex), "cos(a)"),
             (np.array([[0, 1], [1, 0]], dtype=complex), "sin(a)")],
        )
        h = 1e-5
        lam = np.array([0.8])
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(model, lam))

        def real_gauge(x):
            v = qg.hermitian_eigensystem(qg.hamiltonian_at(model, [x])).vectors[:, 1]
            # rotate the arbitrary phase away so the vector is real
            idx = int(np.argmax(np.abs(v)))
            return v * np.exp(-1j * np.angle(v[idx]))

        vectors = es.vectors.copy()
        vectors[:, 1] = real_gauge(0.8)
        es = qg.EigenSystem(es.energies, vectors, es.groups)
        beta = qg.berry_connection(es, [(real_gauge(0.8 + h), real_gauge(0.8 - h))], 1, h)
        assert abs(beta[0]) <= 1e-8

    def test_alignment_gauge_vanishes(self, spin_model):
        lam = np.array([1.2, 0.4])
        h = 1e-4
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, lam))
        neighbors = qg.aligned_neighbor_states(spin_model, lam, 1, h)
        beta = qg.berry_connection(es, neighbors, 1, h)
        assert np.abs(beta).max() <= 1e-8


class TestGammaDecomposition:
    def test_connection_corrected_tensor_is_symmetric(self, spin_model):
        # gamma = g + beta beta^T, assembled in the alignment gauge
        lam = np.array([1.0, 0.9])
        h = 1e-4
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, lam))
        neighbors = qg.aligned_neighbor_states(spin_model, lam, 1, h)
        beta = qg.berry_connection(es, neighbors, 1, h)
        g = qg.qgt_sum_over_states(spin_model, lam, 1).metric
        gamma = g + np.outer(beta, beta)
        assert np.abs(gamma - gamma.T).max() <= 1e-12


LAM = [1.0, 0.3]
MODEL_ROUTES = {
    "sum_over_states": lambda m, level: qg.qgt_sum_over_states(m, LAM, level),
    "level_states": lambda m, level: qg.level_states(m, [LAM], level),
    "level_blocks": lambda m, level: list(qg.level_blocks(m, [LAM], level, tensors=True)),
    "projector_fd": lambda m, level: qg.qgt_projector_fd(m, LAM, level),
    "overlap_fd": lambda m, level: qg.qgt_overlap_fd(m, LAM, level),
    "berry_flux": lambda m, level: qg.berry_flux(
        m, level, qg.SurfaceGrid.sphere(m, "theta", "phi", (6, 6))),
}


@pytest.mark.parametrize("on_state_route", [False, True], ids=["eigh", "solve"])
@pytest.mark.parametrize("route", MODEL_ROUTES)
@pytest.mark.parametrize("level", [1.0, True, np.float64(1.0), "1", None, 2, -1],
                         ids=["float", "bool", "numpy-float", "str", "none", "above", "below"])
def test_model_routes_take_only_integer_levels(request, spin_model, on_state_route, route,
                                               level):
    if on_state_route:
        request.getfixturevalue("state_route")
    with pytest.raises(qg.InputError, match=r"^level must be an integer in 0\.\.1, not "):
        MODEL_ROUTES[route](spin_model, level)
    MODEL_ROUTES[route](spin_model, np.int64(1))  # a numpy integer is a level


@pytest.mark.parametrize("level", [1.0, True, 2])
def test_eigensystem_routes_take_only_integer_levels(spin_model, level):
    es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, LAM))
    neighbors = qg.aligned_neighbor_states(spin_model, LAM, 1, 1e-4)
    routes = [
        lambda: qg.qgt_from_eigensystem(es, qg.derivative_matrices(spin_model, LAM), level),
        lambda: qg.qgt_projector(es, np.zeros((2, 2)), level),
        lambda: qg.berry_connection(es, neighbors, level, 1e-4),
        lambda: es.gap(level),
    ]
    for route in routes:
        with pytest.raises(qg.InputError, match=rf"^level must be an integer in 0\.\.1, not {level}$"):
            route()


def test_eigensystem_routes_reject_a_degenerate_level():
    model = doubled_spin_half()
    es = qg.hermitian_eigensystem(qg.hamiltonian_at(model, LAM))
    message = r"^level 0 is degenerate with levels \(0, 1\); use qgt_nonabelian"
    with pytest.raises(qg.DegeneracyError, match=message):
        qg.qgt_from_eigensystem(es, qg.derivative_matrices(model, LAM), 0)
    with pytest.raises(qg.DegeneracyError, match=message):
        qg.qgt_projector(es, np.zeros((2, 4)), 0)


def test_overlap_below_the_floor_asks_for_a_smaller_step(spin_model):
    # |<psi(theta)|psi(theta + h)>| = cos(h / 2) = 0.825 < 0.9, still the largest overlap
    with pytest.raises(qg.StepError, match=r"^neighbor overlap 0\.825 below 0\.9; reduce the step$"):
        qg.qgt_overlap_fd(spin_model, LAM, 1, h=1.2)


def test_connection_of_unnormalized_neighbors_is_rejected(spin_model):
    es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, LAM))
    psi = es.vectors[:, 1]
    with pytest.raises(qg.InputError, match=r"^connection component 1 has imaginary residue "
                                            r"5\.000e\+03 > 1\.000e-07; are the neighbor"):
        qg.berry_connection(es, [(psi, psi), (2.0 * psi, psi)], 1, 1e-4)


def test_a_fractional_group_member_is_an_input_error():
    model, lam = doubled_spin_half(), (1.0, 0.3)
    es = qg.hermitian_eigensystem(qg.hamiltonian_at(model, lam))
    dh = qg.derivative_matrices(model, lam)
    with pytest.raises(qg.InputError, match=r"^group member must be an integer in 0\.\.3, not 0\.7$"):
        qg.nonabelian_from_eigensystem(es, dh, (0.7, 1.2))
    assert qg.nonabelian_from_eigensystem(es, dh, np.array([0, 1])).level_indices == (0, 1)


@pytest.mark.parametrize("group", [5, np.array(0)])
def test_a_group_that_is_not_a_sequence_is_an_input_error(group):
    with pytest.raises(qg.InputError, match=rf"^group must be a sequence of level indices, "
                                            rf"not {re.escape(repr(group))}$"):
        qg.qgt_nonabelian(doubled_spin_half(), (1.0, 0.3), group)


@pytest.mark.parametrize("level", [True, -1, 1.0, 3])
def test_level_gap_checks_its_level(level):
    with pytest.raises(qg.InputError, match=rf"^level must be an integer in 0\.\.2, not {level}$"):
        qg.level_gap([-1.0, 0.5, 2.0], level)
    assert qg.level_gap([-1.0, 0.5, 2.0], np.int64(1)) == 1.5


def test_level_gap_of_zero_dimensional_energies_is_an_input_error():
    with pytest.raises(qg.InputError, match=r"^energies must have a level axis, got shape \(\)$"):
        qg.level_gap(1.0, 0)


def test_tensor_counts_its_parameters(spin_model):
    assert qg.qgt_sum_over_states(spin_model, LAM, 0).n_parameters == 2


def test_a_degenerate_block_has_no_scalar_reduction():
    na = qg.qgt_nonabelian(doubled_spin_half(), (1.0, 0.3), (0, 1))
    with pytest.raises(qg.InputError, match=r"^level is degenerate; no scalar reduction$"):
        na.as_abelian()


@pytest.mark.parametrize("route", [qg.qgt_projector_fd, qg.qgt_overlap_fd])
@pytest.mark.parametrize("lam, h, where", [
    ((1.0, 0.3), 1e-17, "'theta' = 1 "),  # 1 + h rounds to 1: Q was all zero
    ((0.0, 0.0), 1e-200, "'theta' = 0 "),  # h*h underflows to 0
    ((0.0, 1e3), 1e-14, "'phi' = 1000 "),  # only phi + h rounds to phi
], ids=["rounded-coordinate", "underflowing-square", "second-parameter"])
def test_a_vanishing_step_is_a_step_error(spin_model, route, lam, h, where):
    with pytest.raises(qg.StepError, match=f"^step h = {h:.3g} vanishes at parameter {where}"):
        route(spin_model, lam, 1, h)


def test_a_route_asked_for_rows_that_were_not_solved_is_an_input_error(spin_model):
    axes = qg.fd_offsets(spin_model, LAM, 1e-3)[:4]  # the projector's rows alone
    solved = qg.solve_displaced(spin_model, LAM, 1, axes)
    assert qg.projector_from_solved(solved, 1, 1e-3).matrix.tobytes() == \
        qg.qgt_projector_fd(spin_model, LAM, 1, 1e-3).matrix.tobytes()
    with pytest.raises(qg.InputError, match=r"^rows up to 10 asked of 4 solved points$"):
        qg.overlap_from_solved(solved, 1, 1e-3)
    with pytest.raises(qg.InputError, match=r"^offsets have shape \(4,\), expected \(n, 2\)$"):
        qg.solve_displaced(spin_model, LAM, 1, axes[0].repeat(2))


def test_projector_route_needs_a_positive_step(spin_model):
    with pytest.raises(qg.InputError, match=r"^step h must be positive$"):
        qg.qgt_projector_fd(spin_model, LAM, 0, h=0.0)


def test_projector_rejects_derivative_states_of_the_wrong_shape(spin_model):
    es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, LAM))
    with pytest.raises(qg.InputError, match=r"^derivative states have shape \(2, 3\), "
                                            r"expected \(k, 2\)$"):
        qg.qgt_projector(es, np.zeros((2, 3)), 0)
