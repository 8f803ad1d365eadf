import re

import numpy as np
import pytest

import qgeom as qg
from conftest import (
    analytic_qgt_two_level,
    doubled_spin_half,
    lower_state,
    random_trig_model,
    twisted_doubled_spin_half,
    upper_state,
)


def _rephase_eigh(monkeypatch, rng):
    """Give every eigenvector from np.linalg.eigh a random phase; return the call log."""
    calls = []
    true_eigh = np.linalg.eigh

    def rephased(h):
        calls.append(np.shape(h))
        energies, vectors = true_eigh(h)
        shape = vectors.shape[:-2] + (1, vectors.shape[-1])
        return energies, vectors * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))

    monkeypatch.setattr(np.linalg, "eigh", rephased)
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
