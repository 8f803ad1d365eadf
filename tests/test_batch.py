"""The batched evaluation path against its per-point oracle.

``evaluate_gradient`` walks an expression tree once for many points; the
scalar ``evaluate``/``evaluate_with_derivative`` walk it for one.  The
blocked core (``hamiltonian_blocks``, ``level_blocks``) solves many
parameter points in bounded blocks; the per-point API is its N = 1 case.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qgeom as qg
import qgeom.model as model_mod

from conftest import SX, SZ, random_trig_model

PARAMS = ("a", "b", "c")

_constants = st.one_of(
    st.sampled_from(["0", "1", "2", "0.5"]),
    st.floats(-3, 3, allow_nan=False).map(lambda x: f"{x:.6g}"),
)
_leaves = st.one_of(st.sampled_from(PARAMS), _constants)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"),
        st.tuples(st.sampled_from(qg.expr.FUNCTION_NAMES), children).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, children).map(lambda t: f"({t[0]})^({t[1]})"),
        st.tuples(children, st.sampled_from(["2", "3", "0.5", "1", "-1", "0"])).map(
            lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda c: f"-({c})"),
    )


EXPRESSIONS = st.recursive(_leaves, _extend, max_leaves=8)
COORDINATE = st.one_of(st.floats(-3, 3, allow_nan=False), st.sampled_from([0.0, 1.0, -1.0]))
POINTS = st.lists(st.tuples(COORDINATE, COORDINATE, COORDINATE), min_size=1, max_size=6)
DIRECTIONS = st.lists(st.sampled_from(PARAMS), max_size=3, unique=True)


def _pointwise(ast, point, directions):
    """[value, partial along each direction] at one point, or None if it fails."""
    env = dict(zip(PARAMS, point))
    try:
        return [qg.evaluate(ast, env)] + [
            qg.evaluate_with_derivative(ast, env, d)[1] for d in directions
        ]
    except qg.EvaluationError:
        return None


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(src=EXPRESSIONS, points=POINTS, directions=DIRECTIONS)
def test_gradient_walk_matches_the_pointwise_walk(src, points, directions):
    ast = qg.parse_expression(src, PARAMS)
    expected = [_pointwise(ast, point, directions) for point in points]
    columns = {p: np.array([point[i] for point in points]) for i, p in enumerate(PARAMS)}
    if any(row is None for row in expected):
        with pytest.raises(qg.EvaluationError):
            qg.evaluate_gradient(ast, columns, directions)
        return
    values, partials = qg.evaluate_gradient(ast, columns, directions)
    assert values.shape == (len(points),)
    assert partials.shape == (len(directions), len(points))
    got = np.vstack([values, partials]).T
    np.testing.assert_allclose(got, np.array(expected), rtol=1e-14, atol=0)


def _pinch_model():
    # H = x sz + y sx is degenerate only at x = y = 0
    return qg.model_spec("pinch", 2, ("x", "y"), [(SZ, "x"), (SX, "y")])


class TestBlocks:
    def test_block_size_is_bounded_by_the_entry_budget(self):
        points = np.column_stack([np.linspace(0.1, 1.0, 2500), np.zeros(2500)])
        sizes = [len(h) for h, _ in qg.hamiltonian_blocks(_pinch_model(), points)]
        assert sizes == [1024, 1024, 452]  # 2^12 complex entries / (2 x 2)

    def test_a_dim_64_block_holds_four_points(self):
        model = qg.model_spec("wide", 64, ("x",), [(np.eye(64), "x")])
        points = np.linspace(0.1, 1.0, 10)[:, None]
        assert [len(h) for h, _ in qg.hamiltonian_blocks(model, points)] == [4, 4, 2]

    def test_a_dim_3_block_is_capped_in_points(self):
        model = qg.model_spec("narrow", 3, ("x",), [(np.eye(3), "x")])
        points = np.linspace(0.1, 1.0, 2500)[:, None]
        sizes = [len(h) for h, _ in qg.hamiltonian_blocks(model, points)]
        assert sizes == [1024, 1024, 452]  # the entry budget alone would give 1820

    def test_a_patched_entry_budget_sets_the_points_at_dim_64(self, monkeypatch):
        monkeypatch.setattr(model_mod, "BLOCK_ENTRIES", 3 * 64**2)
        model = qg.model_spec("wide", 64, ("x",), [(np.eye(64), "x")])
        points = np.linspace(0.1, 1.0, 10)[:, None]
        assert [len(h) for h, _ in qg.hamiltonian_blocks(model, points)] == [3, 3, 3, 1]

    @pytest.mark.parametrize("dim", [48, 64])
    def test_large_dim_results_do_not_depend_on_the_block_size(self, monkeypatch, dim):
        model = random_trig_model(np.random.default_rng(60 + dim), dim)
        points = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(10, 3))

        def solve():
            blocks = [np.concatenate(part) for part in
                      zip(*qg.level_blocks(model, points, 1, tensors=True))]
            return blocks + [qg.level_states(model, points, 1)]

        default = solve()  # 7 points per block at dim 48, 4 at dim 64
        for per_block in (1, 3):
            monkeypatch.setattr(model_mod, "BLOCK_ENTRIES", per_block * dim**2)
            for a, b in zip(solve(), default, strict=True):
                assert np.array_equal(a, b)

    def test_results_do_not_depend_on_the_block_size(self, monkeypatch):
        model = qg.two_band_lattice(1.0)
        k = np.linspace(-np.pi, np.pi, 45)
        points = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)

        def solve():
            return [np.concatenate(part) for part in
                    zip(*qg.level_blocks(model, points, 0, tensors=True))]

        wide = solve()
        monkeypatch.setattr(model_mod, "BLOCK_ENTRIES", 12)  # 3 points per block
        narrow = solve()
        for a, b in zip(wide, narrow):
            assert np.array_equal(a, b)

    def test_scalar_api_is_the_one_point_case(self):
        model = qg.two_band_lattice(0.7)
        points = np.random.default_rng(5).uniform(-np.pi, np.pi, (1500, 2))
        energies, vectors, q = (np.concatenate(part) for part in
                                zip(*qg.level_blocks(model, points, 1, tensors=True)))
        h, dh = (np.concatenate(part) for part in
                 zip(*qg.hamiltonian_blocks(model, points, model.parameters)))
        for i in (0, 1023, 1024, 1499):
            assert np.array_equal(h[i], qg.hamiltonian_at(model, points[i]))
            assert np.array_equal(dh[i], qg.derivative_matrices(model, points[i]))
            assert np.array_equal(q[i], qg.qgt_sum_over_states(model, points[i], 1).matrix)
            es = qg.hermitian_eigensystem(qg.hamiltonian_at(model, points[i]))
            assert np.array_equal(energies[i], es.energies)
            assert np.array_equal(vectors[i], es.vectors)


def _term_loop(terms, coefficients):
    """sum_t coefficients[t] terms[t] one term at a time, then (H + H^dagger) / 2."""
    out = np.zeros(coefficients.shape[1:] + terms.shape[1:], dtype=complex)
    for c, matrix in zip(coefficients, terms):
        out += c[..., None, None] * matrix
    return (out + out.conj().swapaxes(-1, -2)) / 2


def _assert_same_bits(got, want):
    got, want = got.view(float), want.view(float)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _hermitian_terms(rng, n_terms, dim):
    """Exactly Hermitian terms with entries of mixed scale, some exactly zero."""
    shape = (n_terms, dim, dim, 2)
    raw = rng.normal(size=shape) * 10.0 ** rng.uniform(-150, 0, shape)
    raw[rng.random(raw.shape) < 0.2] = 0.0
    return np.array([qg.hermitian(m) for m in raw.view(complex)[..., 0]])


# +-0, subnormals and wide exponents; |H| stays far from overflow
COEFFICIENTS = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0]))


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2, 3, 64]), n_terms=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_assembly_matches_a_term_by_term_loop(dim, n_terms, seed, data):
    # each coefficient is a bare parameter, so the points are the coefficients
    terms = _hermitian_terms(np.random.default_rng(seed), n_terms, dim)
    names = "abcdefgh"[:n_terms]
    model = qg.model_spec("terms", dim, names, list(zip(terms, names)))
    row = st.lists(COEFFICIENTS, min_size=n_terms, max_size=n_terms)
    points = np.array(data.draw(st.lists(row, min_size=1, max_size=5)))
    h, dh = (np.concatenate(part) for part in
             zip(*qg.hamiltonian_blocks(model, points, model.parameters)))
    partials = np.broadcast_to(np.eye(n_terms)[:, None], (n_terms, len(points), n_terms))
    _assert_same_bits(h, _term_loop(terms, points.T))
    _assert_same_bits(dh, _term_loop(terms, partials))
    for m in (h, dh):
        assert np.array_equal(m, m.conj().swapaxes(-1, -2))


def test_assembly_reads_f_ordered_coefficients():
    rng = np.random.default_rng(8)
    terms = _hermitian_terms(rng, 5, 3)
    exponents = rng.integers(-300, 300, (5, 7, 2))
    coefficients = np.asfortranarray(rng.normal(size=(5, 7, 2)) * 10.0**exponents)
    got = model_mod._assemble(terms, coefficients)
    assert got.shape == (7, 2, 3, 3)
    _assert_same_bits(got, _term_loop(terms, coefficients))


class TestErrorsNameTheFirstFailingPoint:
    """First failures placed past the first block (1024 points at dim 2)."""

    def test_domain_error_on_a_grid(self):
        model = qg.model_spec("edge", 2, ("x", "y"), [(SZ, "log(0.7 - x)"), (SX, "y")])
        x = np.linspace(0.0, 1.0, 40)
        points = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        first = int(np.flatnonzero(points[:, 0] >= 0.7)[0])
        assert first > 1024
        env = dict(zip(("x", "y"), points[first].tolist()))
        with pytest.raises(qg.EvaluationError) as err:
            list(qg.level_blocks(model, points, 0, tensors=True))
        assert str(err.value).startswith(f"term 0 ('log(0.7 - x)') at {env}: log of ")

    @pytest.mark.parametrize("coeff, x, y, message", [
        # one walk with both partials would stop at "derivative of sqrt at 0 is singular"
        ("sqrt(x) + log(x - 1)", 0.0, 0.0, "log of non-positive value -1.0"),
        ("x*x*x", 1e150, 0.0, "expression evaluated to non-finite value inf"),
        # one walk with both partials would stop at the base check of the y partial
        ("x^y", 0.0, 0.0, "derivative of 0 ^ 0.0 is singular"),
    ])
    def test_values_then_each_partial_are_named(self, coeff, x, y, message):
        model = qg.model_spec("edge", 2, ("x", "y"), [(SZ, coeff), (SX, "1 + y")])
        points = np.tile([2.0, 0.5], (1100, 1))
        points[1050] = x, y
        env = {"x": x, "y": y}
        with pytest.raises(qg.EvaluationError) as err:
            list(qg.level_blocks(model, points, 0, tensors=True))
        assert str(err.value) == f"term 0 ({coeff!r}) at {env}: {message}"

    def test_degeneracy_on_a_grid(self):
        x = np.linspace(-0.5, 0.5, 41)
        y = np.linspace(-0.6, 0.6, 61)
        points = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1).reshape(-1, 2)
        first = int(np.flatnonzero((points == 0.0).all(axis=1))[0])
        assert first > 1024
        with pytest.raises(qg.DegeneracyError,
                           match=rf"^at lambda = \[0\.0, 0\.0\]: level 0 is degenerate"):
            list(qg.level_blocks(_pinch_model(), points, 0, tensors=True,
                                 where=lambda i: f"lambda = {points[i].tolist()}"))

    def test_degeneracy_on_a_path(self):
        path = qg.path_spec(_pinch_model(), 0, {"x": "0.75 - s", "y": "0"}, 2001)
        with pytest.raises(qg.DegeneracyError, match=r"^at s = 0\.75: level 0 is degenerate"):
            qg.path_quantum_length(path, refine_check=False)

    def test_domain_error_on_a_path(self):
        path = qg.path_spec(_pinch_model(), 0, {"x": "1 + log(0.6 - s)", "y": "1"}, 2001)
        with pytest.raises(qg.EvaluationError, match=r"^log of non-positive value -?0\.0$"):
            qg.path_quantum_length(path, refine_check=False)


def test_results_do_not_depend_on_eigenvector_phases(monkeypatch, spin_model):
    lam = [1.0, 0.5]
    grid = qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (12, 12))

    def results():
        return (qg.qgt_sum_over_states(spin_model, lam, 1).matrix,
                qg.qgt_projector_fd(spin_model, lam, 1, h=1e-4).matrix,
                qg.qgt_overlap_fd(spin_model, lam, 1, h=1e-3).matrix,
                qg.berry_flux(spin_model, 1, grid).plaquette_fluxes)

    reference = results()
    rng = np.random.default_rng(31)
    true_eigh = np.linalg.eigh

    def rephased(h):
        energies, vectors = true_eigh(h)
        shape = vectors.shape[:-2] + (1, vectors.shape[-1])
        return energies, vectors * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))

    monkeypatch.setattr(np.linalg, "eigh", rephased)
    for got, want, tol in zip(results(), reference, (1e-15, 1e-12, 2e-15 / 1e-6, 1e-14)):
        assert np.abs(got - want).max() <= tol


@pytest.mark.parametrize("route", ["eigh", "solve"])
def test_flux_does_not_depend_on_state_phases(monkeypatch, request, spin_model, route):
    # the eigh route rephases every eigenvector; the solve route rephases
    # every right-hand side handed to np.linalg.solve, the start vector included
    if route == "solve":
        request.getfixturevalue("state_route")
    grid = qg.SurfaceGrid.sphere(spin_model, "theta", "phi", (12, 12))
    reference = qg.berry_flux(spin_model, 1, grid).plaquette_fluxes
    rng = np.random.default_rng(32)
    calls = {"eigh": 0, "solve": 0}
    true_eigh, true_solve = np.linalg.eigh, np.linalg.solve

    def phases(shape):
        return np.exp(1j * rng.uniform(0, 2 * np.pi, shape))

    def eigh(h):
        calls["eigh"] += 1
        energies, vectors = true_eigh(h)
        return energies, vectors * phases(vectors.shape[:-2] + (1, vectors.shape[-1]))

    def solve(a, b):
        calls["solve"] += 1
        return true_solve(a, b * phases((len(a), 1, 1)))

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "solve", solve)
    assert np.abs(qg.berry_flux(spin_model, 1, grid).plaquette_fluxes - reference).max() <= 1e-14
    assert (calls["eigh"] > 0, calls["solve"] > 0) == (route == "eigh", route == "solve")
