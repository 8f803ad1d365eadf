"""The state route of ``level_states``: eigvalsh plus a shifted solve per point.

From ``STATE_SOLVE_MIN_DIM`` up, ``level_states`` takes each block's energies
from ``np.linalg.eigvalsh`` and the level's state from inverse iteration
(``numerics.level_eigenvectors``).  Its oracle is the ``eigh`` column that
``level_blocks`` returns; the ``state_route`` fixture sends every dim through
the solve so both sides of the crossover are covered.
"""

import json

import numpy as np
import pytest

import qgeom as qg
import qgeom.model as model_mod
import qgeom.numerics as numerics
from conftest import random_trig_model
from qgeom.cli import main

EPS = np.finfo(float).eps


def _eigh_columns(model, points, level):
    return np.concatenate([v[:, :, level] for _, v, _ in qg.level_blocks(model, points, level)])


def _residuals(model, points, level, states):
    """The acceptance test's residual and bound per point, as documented.

    ||A x - rho x|| with A = H - sigma, sigma = E_level - 2 eps max(1, range,
    |E_level|) and rho = x^dag A x, against d eps max(1, range).
    """
    h = np.concatenate([block for block, _ in qg.hamiltonian_blocks(model, points)])
    energies = np.linalg.eigvalsh(h)
    e, scale = energies[:, level], np.maximum(1.0, energies[:, -1] - energies[:, 0])
    a = h - (e - 2 * EPS * np.maximum(scale, np.abs(e)))[:, None, None] * np.eye(model.dim)
    ax = (a @ states[:, :, None])[:, :, 0]
    rho = np.vecdot(states, ax).real
    return np.linalg.norm(ax - rho[:, None] * states, axis=1), model.dim * EPS * scale


def _start_vector(dim):
    """The fixed start vector, as handed to the first solve of the route."""
    seen, solve = [], np.linalg.solve

    def spy(a, b):
        seen.append(np.array(b[0, :, 0]))
        return solve(a, b)

    model = qg.model_spec("diagonal", dim, ("x",), [(np.diag(np.arange(dim)).astype(complex), "1")])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", spy)
        patch.setattr(qg.qgt, "STATE_SOLVE_MIN_DIM", 1)
        qg.level_states(model, [[0.0]], 0)
    return seen[0]


def _orthogonal_start_model(dim):
    """Level 0 is a state v with <v|start vector> == 0 exactly; the gap above it is 1."""
    b = _start_vector(dim)
    v = np.zeros(dim, dtype=complex)
    v[0], v[1] = np.conj(b[1]), -np.conj(b[0])  # <v|b> = b1 b0 - b0 b1
    assert np.vdot(v, b) == 0
    v /= np.linalg.norm(v)
    rest = np.diag(np.r_[0.0, 0.0, np.arange(1, dim - 1)]).astype(complex)
    model = qg.model_spec("orthogonal start", dim, ("x",),
                          [(np.outer(v, v.conj()), "-1 - 0.5*x*x"), (rest, "1 + 0.1*x")])
    return model, v


@pytest.mark.parametrize("dim", [3, 5, 6, 8, 48, 64])
def test_states_agree_with_the_eigh_columns(state_route, dim):
    model = random_trig_model(np.random.default_rng(dim), dim)
    points = np.random.default_rng(100 + dim).uniform(-2.0, 2.0, size=(200 if dim < 48 else 24, 3))
    for level in (0, dim // 2):
        states = qg.level_states(model, points, level)
        overlaps = np.abs(np.vecdot(_eigh_columns(model, points, level), states))
        assert (1.0 - overlaps).max() <= 1e-14
        residual, bound = _residuals(model, points, level, states)
        assert (residual <= bound).all()


def test_an_exactly_representable_spectrum_far_from_zero(state_route):
    # eigvalsh returns the diagonal bit for bit; a shift of 4 eps (spectral
    # range) below E = 103 rounds back onto E and leaves H - sigma singular
    dim = 8
    model = qg.model_spec("offset diagonal", dim, ("x",), [
        (np.diag(np.arange(dim)).astype(complex), "1 + 0.1*x"),
        (np.eye(dim, dtype=complex), "100")])
    points = np.linspace(-1.0, 1.0, 9)[:, None]
    states = qg.level_states(model, points, 3)
    assert np.abs(np.abs(states[:, 3]) - 1.0).max() <= 1e-15
    assert np.abs(np.delete(states, 3, axis=1)).max() <= 1e-14


def test_a_level_state_orthogonal_to_the_start_vector(state_route):
    model, v = _orthogonal_start_model(8)
    points = np.linspace(-1.0, 1.0, 21)[:, None]
    states = qg.level_states(model, points, 0)
    assert (1.0 - np.abs(states @ v.conj())).max() <= 1e-14
    residual, bound = _residuals(model, points, 0, states)
    assert (residual <= bound).all()


def test_an_exact_zero_pivot_moves_only_that_shift(monkeypatch):
    # energies one shift step above the true level put sigma exactly on it:
    # the diagonal LU meets an exact zero pivot in the second matrix only
    h = np.tile(np.diag(np.arange(9.0)).astype(complex), (2, 1, 1))
    energies = np.linalg.eigvalsh(h)
    energies[1, 4] = 4.0 + 16.0 * EPS  # sigma = E - 2 eps max(1, range) = 4.0 exactly
    raised, solve = [], np.linalg.solve

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(len(a))
            raise

    alone = numerics.level_eigenvectors(h[:1], energies[:1], 4, str)
    monkeypatch.setattr(np.linalg, "solve", spy)
    states = numerics.level_eigenvectors(h, energies, 4, str)
    assert raised == [2]
    assert np.array_equal(states[0], alone[0])  # the first matrix keeps its shift
    assert np.abs(np.abs(states[:, 4]) - 1.0).max() <= 1e-15
    assert np.abs(np.delete(states, 4, axis=1)).max() <= 1e-14


def test_a_state_of_another_level_is_not_accepted():
    # energies that put sigma next to level 3 instead of level 4: the solves
    # converge to level 3's state, whose residual alone would pass
    h = np.diag(np.arange(9.0)).astype(complex)[None]
    energies = np.linalg.eigvalsh(h)
    energies[0, 4] = 3.0 + 1e-7
    with pytest.raises(qg.NumericalError, match=r"^at row 0: the level 4 state did not converge"):
        numerics.level_eigenvectors(h, energies, 4, lambda i: f"row {i}")


def _crossing_model():
    """H = diag(x, 0, 2, ..., 7): levels 0 and 1 meet at x = 0."""
    return qg.model_spec("crossing", 8, ("x",), [
        (np.diag(np.r_[1.0, np.zeros(7)]).astype(complex), "x"),
        (np.diag(np.r_[0.0, 0.0, np.arange(2.0, 8.0)]).astype(complex), "1")])


@pytest.mark.parametrize("labelled", [True, False])
def test_degeneracy_is_reported_as_by_level_blocks(monkeypatch, state_route, labelled):
    monkeypatch.setattr(model_mod, "BLOCK_ENTRIES", 3 * 64)  # the crossing is in block 4
    points = np.linspace(-1.0, 1.0, 21)[:, None]
    where = (lambda i: f"x = {points[i, 0]:.3g}") if labelled else None
    with pytest.raises(qg.DegeneracyError) as blocks:
        list(qg.level_blocks(_crossing_model(), points, 0, where=where))
    with pytest.raises(qg.DegeneracyError) as states:
        qg.level_states(_crossing_model(), points, 0, where)
    message = "level 0 is degenerate with levels (0, 1); use qgt_nonabelian for the block tensor"
    assert str(states.value) == str(blocks.value) == ("at x = 0: " if labelled else "") + message


@pytest.mark.parametrize("route", ["eigh", "solve"])
def test_no_points_give_no_states(request, route):
    if route == "solve":
        request.getfixturevalue("state_route")
    states = qg.level_states(qg.spin_half(1.0), np.empty((0, 2)), 0)
    assert states.shape == (0, 2) and states.dtype == complex


def test_an_unconverged_state_names_its_point(monkeypatch, state_route):
    # an orthogonal start needs a third solve; with two the first point fails
    monkeypatch.setattr(numerics, "STATE_SOLVES", 2)
    model, _ = _orthogonal_start_model(8)
    points = np.linspace(-1.0, 1.0, 21)[:, None]
    with pytest.raises(qg.NumericalError,
                       match=r"^at x = -1: the level 0 state did not converge in 2 solves "
                             r"\(residual \S+ > \S+\)$"):
        qg.level_states(model, points, 0, lambda i: f"x = {points[i, 0]:.3g}")


def test_an_unconverged_state_exits_2(monkeypatch, state_route, tmp_path, capsys):
    # one solve rarely meets the bound at dim 2, where the shift is a whole
    # eps * range away from a level of range 2
    monkeypatch.setattr(numerics, "STATE_SOLVES", 1)
    config = tmp_path / "chern.json"
    config.write_text(json.dumps({
        "model": {"builtin": "spin_half"},
        "chern": {"level": 1, "surface": {"closure": "sphere", "shape": [12, 12]}}}))
    out = tmp_path / "chern.csv"
    assert main(["chern", "--config", str(config), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: at ")
    assert "lambda = [" in err and "the level 1 state did not converge in 1 solves" in err
    assert not out.exists()


@pytest.mark.parametrize("dim", [6, 8, 16])
def test_states_do_not_depend_on_the_block_size(monkeypatch, dim):
    model = random_trig_model(np.random.default_rng(40 + dim), dim)
    points = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(60, 3))
    reference = qg.level_states(model, points, 1)
    for per_block in (1, 3, 7):
        monkeypatch.setattr(model_mod, "BLOCK_ENTRIES", per_block * dim**2)
        assert np.array_equal(qg.level_states(model, points, 1), reference)
