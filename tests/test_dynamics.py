import dataclasses
import re
import warnings

import numpy as np
import pytest

import qgeom as qg
import qgeom.dynamics as dynamics
import qgeom.model as model_mod
from conftest import SX, SZ, rabi_state, rabi_tracking_state, random_trig_model


@pytest.fixture
def loop_path(monkeypatch):
    """Propagate by the per-step loop whatever the model's dim."""
    monkeypatch.setattr(dynamics, "STEP_MAP_MAX_DIM", 0)


def _static_schedule(model, theta="0", phi="0"):
    return qg.schedule(model, {"theta": theta, "phi": phi})


class TestEnergyUncertainty:
    def test_eigenstate_is_zero(self):
        assert qg.energy_uncertainty([1.0, 0.0], SZ) == 0.0

    def test_equal_superposition(self):
        mu_b = 1.7
        psi = [1 / np.sqrt(2), 1 / np.sqrt(2)]
        assert qg.energy_uncertainty(psi, mu_b * SZ) == pytest.approx(mu_b, abs=1e-12)

    def test_bernoulli_variance(self):
        psi = [np.sqrt(0.9), np.sqrt(0.1)]
        assert qg.energy_uncertainty(psi, SZ) == pytest.approx(0.6, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(40)
        psi = qg.state_vector(rng.normal(size=3) + 1j * rng.normal(size=3))
        h = qg.hermitian(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        base = qg.energy_uncertainty(psi, h)
        shifted = qg.energy_uncertainty(np.exp(1j * 0.9) * psi, h)
        assert abs(base - shifted) <= 1e-10

    def test_identity_shift_invariance(self):
        rng = np.random.default_rng(41)
        psi = qg.state_vector(rng.normal(size=4) + 1j * rng.normal(size=4))
        h = qg.hermitian(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        scale = float(np.abs(np.linalg.eigvalsh(h)).max())
        base = qg.energy_uncertainty(psi, h)
        shifted = qg.energy_uncertainty(psi, h + scale * np.eye(4))
        assert abs(base - shifted) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(qg.InputError):
            qg.energy_uncertainty([1.0, 0.0, 0.0], SZ)


class TestEvolve:
    def test_stationary_state(self, spin_model):
        sched = _static_schedule(spin_model)
        traj = qg.evolve(spin_model, sched, [1.0, 0.0], 0.0, 2.0, 1e-3)
        overlaps = np.abs(traj.states @ np.array([1.0, 0.0]).conj())
        assert np.abs(overlaps - 1.0).max() <= 1e-10
        assert traj.norm_drift_max <= 1e-8

    def test_precession_overlap(self, spin_model):
        # H = sz on (e1+e2)/sqrt 2: |<psi0|psi(t)>| = |cos t|
        sched = _static_schedule(spin_model)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        traj = qg.evolve(spin_model, sched, psi0, 0.0, 3.0, 1e-3)
        expected = np.abs(np.cos(traj.times))
        got = np.abs(traj.states @ psi0.conj())
        assert np.abs(got - expected).max() <= 1e-8
        assert traj.norm_drift_max <= 1e-8

    def test_fourth_order_convergence(self, spin_model):
        sched = _static_schedule(spin_model)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        t1 = 2.0

        def final_error(dt):
            traj = qg.evolve(spin_model, sched, psi0, 0.0, t1, dt)
            exact = np.array([np.exp(-1j * t1), np.exp(1j * t1)]) / np.sqrt(2)
            exact *= np.exp(-1j * np.angle(np.vdot(exact, traj.states[-1])))
            return np.linalg.norm(traj.states[-1] - exact)

        e1, e2 = final_error(0.02), final_error(0.01)
        assert e1 / e2 == pytest.approx(16.0, rel=0.3)

    def test_rk4_slope_over_three_decades(self, spin_model):
        sched = _static_schedule(spin_model)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        t1 = 2.0
        dts = np.array([0.08, 0.008, 0.0008])
        errs = []
        for dt in dts:
            traj = qg.evolve(spin_model, sched, psi0, 0.0, t1, dt)
            exact = np.array([np.exp(-1j * t1), np.exp(1j * t1)]) / np.sqrt(2)
            exact *= np.exp(-1j * np.angle(np.vdot(exact, traj.states[-1])))
            errs.append(np.linalg.norm(traj.states[-1] - exact))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 <= slope <= 4.3

    def test_oversized_step_rejected(self, spin_model):
        sched = _static_schedule(spin_model)
        with pytest.raises(qg.StepError, match="spectral radius"):
            qg.evolve(spin_model, sched, [1.0, 0.0], 0.0, 1.0, 0.2)

    def test_norm_drift_aborts_with_suggestion(self, spin_model):
        sched = _static_schedule(spin_model)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(qg.StepError, match="suggested dt"):
            qg.evolve(spin_model, sched, psi0, 0.0, 60.0, 0.099)

    def test_norm_drift_aborts_early_in_a_long_span(self, monkeypatch, spin_model):
        # the drift passes 1e-6 within a few hundred of 60,606 steps, so the run
        # stops at the next check (step 946) with H for under 2,000 of its
        # 121,213 times assembled, not after every block of the span
        consumed, blocks = [], dynamics.hamiltonian_blocks

        def counted(*args):
            for block in blocks(*args):
                consumed.append(len(block[0]))
                yield block

        monkeypatch.setattr(dynamics, "hamiltonian_blocks", counted)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(qg.StepError, match="suggested dt"):
            qg.evolve(spin_model, _static_schedule(spin_model), psi0, 0.0, 6000.0, 0.099)
        assert 0 < sum(consumed) <= 2 * 1024

    def test_norm_drift_names_the_first_drifting_time(self):
        # drift is checked every n // 64 steps; the error still names the
        # first record past 1e-6 (record 1614, between two checks)
        model = qg.model_spec(
            "ramp", 2, ("x",),
            [(np.array([[0, 1], [1, 0]], dtype=complex), "x")],
        )
        sched = qg.schedule(model, {"x": "1 + 0.5*t"})
        message = ("norm drift 1.001e-06 at t = 16.14 exceeds 1e-06; "
                   "suggested dt ~ 0.00316")
        with pytest.raises(qg.StepError, match=f"^{re.escape(message)}$"):
            qg.evolve(model, sched, [1.0, 0.0], 0.0, 40.0, 0.01)

    def test_growing_spectrum_warns_adaptively(self):
        model = qg.model_spec(
            "ramp", 2, ("x",),
            [(np.array([[1, 0], [0, -1]], dtype=complex), "x")],
        )
        sched = qg.schedule(model, {"x": "1 + 1.4*t"})
        with pytest.warns(UserWarning, match="spectral radius"):
            qg.evolve(model, sched, [1.0, 0.0], 0.0, 1.0, 0.05)

    def test_bad_time_arguments(self, spin_model):
        sched = _static_schedule(spin_model)
        with pytest.raises(qg.InputError):
            qg.evolve(spin_model, sched, [1.0, 0.0], 1.0, 0.0, 1e-2)
        with pytest.raises(qg.InputError):
            qg.evolve(spin_model, sched, [1.0, 0.0], 0.0, 1.0, -1e-2)

    def test_schedule_validation(self, spin_model):
        with pytest.raises(qg.InputError, match="phi"):
            qg.schedule(spin_model, {"theta": "t"})
        with pytest.raises(qg.InputError):
            qg.schedule(spin_model, {"theta": "t", "phi": "t", "x": "t"})


class TestLoopPath:
    """The per-step loop passes the step maps' propagation tests unchanged."""

    def test_fourth_order_convergence(self, loop_path, spin_model):
        TestEvolve.test_fourth_order_convergence(self, spin_model)

    def test_norm_drift_aborts_with_suggestion(self, loop_path, spin_model):
        TestEvolve.test_norm_drift_aborts_with_suggestion(self, spin_model)

    def test_norm_drift_names_the_first_drifting_time(self, loop_path):
        TestEvolve.test_norm_drift_names_the_first_drifting_time(self)

    def test_norm_drift_aborts_early_in_a_long_span(self, loop_path, monkeypatch, spin_model):
        TestEvolve.test_norm_drift_aborts_early_in_a_long_span(self, monkeypatch, spin_model)

    def test_growing_spectrum_warns_adaptively(self, loop_path):
        TestEvolve.test_growing_spectrum_warns_adaptively(self)


def _driven(model):
    exprs = {p: f"{0.3 + 0.1 * k!r} + 0.2*sin({1.0 + 0.3 * k!r}*t)"
             for k, p in enumerate(model.parameters)}
    return qg.schedule(model, exprs)


def _evolve_steps(model, steps, dt=0.01):
    psi0 = np.arange(1, model.dim + 1) + 0.5j
    return qg.evolve(model, _driven(model), psi0 / np.linalg.norm(psi0), 0.0, steps * dt, dt)


@pytest.mark.parametrize("dim", [2, 8])
def test_step_maps_agree_with_the_loop(monkeypatch, spin_model, dim):
    model = spin_model if dim == 2 else random_trig_model(np.random.default_rng(8), 8)
    maps = _evolve_steps(model, 500, dt=0.005)
    monkeypatch.setattr(dynamics, "STEP_MAP_MAX_DIM", 0)
    loop = _evolve_steps(model, 500, dt=0.005)
    assert np.abs(maps.states - loop.states).max() <= 1e-12
    assert np.abs(maps.energy_mean - loop.energy_mean).max() <= 1e-12


@pytest.mark.parametrize("dim", [8, 9])
def test_step_maps_only_up_to_the_cap(monkeypatch, dim):
    built, step_maps = [], dynamics._step_maps

    def spy(*args):
        built.append(args)
        return step_maps(*args)

    monkeypatch.setattr(dynamics, "_step_maps", spy)
    _evolve_steps(random_trig_model(np.random.default_rng(dim), dim), 20, dt=0.002)
    assert bool(built) == (dim <= dynamics.STEP_MAP_MAX_DIM)


@pytest.mark.parametrize("path", ["maps", "loop"])
@pytest.mark.parametrize("dim", [2, 3])
def test_block_seams_do_not_change_the_trajectory(monkeypatch, path, dim):
    # blocks of 1, 2, 3, 5 and 7 H put step seams at every offset; the d = 2
    # ramp's spectrum grows past the stability limit, so its warning is
    # compared too
    if path == "loop":
        monkeypatch.setattr(dynamics, "STEP_MAP_MAX_DIM", 0)
    if dim == 2:
        model = qg.model_spec("ramp", 2, ("x",), [(SZ, "x"), (0.3 * SX, "1")])
        sched = qg.schedule(model, {"x": "1 + 8*t"})
    else:
        model = random_trig_model(np.random.default_rng(3), 3)
        sched = _driven(model)
    psi0 = qg.state_vector(np.arange(1, dim + 1) + 0.5j)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = qg.evolve(model, sched, psi0, 0.0, 1.3, 0.01)
        return traj, [str(w.message) for w in caught]

    reference, reference_warnings = run()
    assert len(reference_warnings) == (dim == 2)
    for per_block in (1, 2, 3, 5, 7):
        monkeypatch.setattr(model_mod, "BLOCK_ENTRIES", per_block * dim**2)
        traj, caught = run()
        assert caught == reference_warnings
        for field in dataclasses.fields(traj):
            assert np.array_equal(getattr(traj, field.name), getattr(reference, field.name))


class TestAaConsistency:
    def test_precession_rate_matches_uncertainty(self, spin_model):
        sched = _static_schedule(spin_model)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        traj = qg.evolve(spin_model, sched, psi0, 0.0, 1.0, 1e-4)
        report = qg.aa_consistency(traj)
        assert np.abs(report.rate_aa - 2.0).max() <= 1e-9
        assert report.max_relative_deviation <= 1e-6

    def test_eigenstate_rates_both_zero(self, spin_model):
        sched = _static_schedule(spin_model)
        traj = qg.evolve(spin_model, sched, [1.0, 0.0], 0.0, 0.5, 1e-3)
        report = qg.aa_consistency(traj)
        # both rates vanish up to rounding floors: sqrt(eps) in the variance,
        # and arccos near 1 amplifying one ulp of overlap noise
        assert np.abs(report.rate_aa).max() <= 1e-7
        assert np.abs(report.rate_measured).max() <= 1e-4
        assert report.max_relative_deviation <= 1.0  # 0/0 guarded, no NaN
        assert not np.isnan(report.relative_deviation).any()

    def test_deviation_shrinks_with_step(self, spin_model):
        # drive the angles so the overlap error term is exercised
        sched = qg.schedule(spin_model, {"theta": "1.0 + 0.4*sin(t)", "phi": "0.3*t"})
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)

        def max_gap(dt):
            traj = qg.evolve(spin_model, sched, psi0, 0.0, 2.0, dt)
            report = qg.aa_consistency(traj)
            return np.abs(report.rate_measured - report.rate_aa).max()

        assert max_gap(0.02) / max_gap(0.01) >= 3.0

    def test_accumulated_angle_matches_fidelity_angle(self, spin_model):
        # valid until the first orthogonality at t = pi/2
        sched = _static_schedule(spin_model)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        traj = qg.evolve(spin_model, sched, psi0, 0.0, np.pi / 2 - 0.01, 1e-3)
        accumulated = np.concatenate([[0.0], np.cumsum(traj.step_angle)])
        for k in (100, 700, traj.n_steps):
            direct = qg.fidelity_angle(psi0, traj.states[k])
            assert accumulated[k] == pytest.approx(direct, abs=1e-6)


class TestAdiabaticDiagnostic:
    def test_static_eigenstate_is_tagged_exact_zero(self, spin_model):
        sched = _static_schedule(spin_model, theta="0.7", phi="0.2")
        es = qg.hermitian_eigensystem(qg.hamiltonian_at(spin_model, [0.7, 0.2]))
        traj = qg.evolve(spin_model, sched, es.vectors[:, 1], 0.0, 0.5, 1e-3)
        report = qg.adiabatic_diagnostic(spin_model, sched, 1, traj)
        assert report.exact_zero.all()
        assert np.abs(report.ratio).max() == 0.0
        assert not np.isnan(report.ratio).any()
        assert report.leakage.max() <= 1e-10

    def test_tracking_state_ratio_near_one(self, spin_model):
        # dressed start: R stays flat at mu_b/Omega = 1/sqrt(1 + r^2)
        ratio = 0.1
        omega = 2.0 * ratio
        sched = qg.schedule(
            spin_model, {"theta": "1.5707963267948966", "phi": f"{omega!r}*t"}
        )
        psi0 = rabi_tracking_state(1.0, omega, 1)
        traj = qg.evolve(spin_model, sched, psi0, 0.0, 2 * np.pi / omega, 0.01)
        report = qg.adiabatic_diagnostic(spin_model, sched, 1, traj)
        expected = 1.0 / np.sqrt(1.0 + ratio**2)
        assert np.abs(report.ratio - expected).max() <= 1e-4
        assert report.leakage.max() <= ratio**2 + 1e-4

    def test_eigenstate_start_wobbles_as_rabi_oracle_predicts(self, spin_model):
        # sudden start in the instantaneous eigenstate: dE oscillates between
        # 0 and twice the metric prediction at the dressed precession rate
        omega = 0.2
        sched = qg.schedule(
            spin_model, {"theta": "1.5707963267948966", "phi": f"{omega!r}*t"}
        )
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        traj = qg.evolve(spin_model, sched, psi0, 0.0, 2 * np.pi / omega, 0.005)
        report = qg.adiabatic_diagnostic(spin_model, sched, 1, traj)

        omega_eff = np.sqrt(1.0 + omega**2 / 4.0)
        s = 0.5 * omega / omega_eff
        exact_de = np.array([
            2.0 * s * abs(np.sin(omega_eff * t))
            * np.sqrt(1.0 - (s * np.sin(omega_eff * t)) ** 2)
            for t in traj.times
        ])
        assert np.abs(report.delta_e - exact_de).max() <= 1e-5
        assert report.ratio.max() == pytest.approx(2.0, abs=0.05)
        assert report.ratio.min() <= 0.05

    def test_rabi_oracle_agrees_with_propagator(self, spin_model):
        omega = 0.4
        sched = qg.schedule(
            spin_model, {"theta": "1.5707963267948966", "phi": f"{omega!r}*t"}
        )
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        traj = qg.evolve(spin_model, sched, psi0, 0.0, 20.0, 0.005)
        for k in (0, 1500, 4000):
            exact = rabi_state(1.0, omega, traj.times[k], psi0)
            overlap = abs(np.vdot(exact, traj.states[k]))
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_fast_drive_leaks(self, spin_model):
        # omega comparable to the gap: population leaves the tracked level
        omega = 2.0
        sched = qg.schedule(
            spin_model, {"theta": "1.5707963267948966", "phi": f"{omega!r}*t"}
        )
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        traj = qg.evolve(spin_model, sched, psi0, 0.0, 10.0, 0.005)
        report = qg.adiabatic_diagnostic(spin_model, sched, 1, traj)
        assert report.leakage.max() > 0.3

    def test_degeneracy_names_time(self):
        model = qg.model_spec(
            "pinch", 2, ("x",),
            [(np.array([[1, 0], [0, -1]], dtype=complex), "x")],
        )
        sched = qg.schedule(model, {"x": "1 - t"})
        traj = qg.evolve(model, sched, [1.0, 0.0], 0.0, 1.0, 0.01)
        with pytest.raises(qg.DegeneracyError, match="t = 1"):
            qg.adiabatic_diagnostic(model, sched, 0, traj)
