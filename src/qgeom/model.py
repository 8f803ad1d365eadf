"""Parameterized Hamiltonian families H(lambda) = sum_k f_k(lambda) H_k.

A model is a fixed list of Hermitian basis matrices paired with scalar
coefficient expressions over named parameters.  This linear-in-coefficients
form makes the parameter derivatives of H exact: differentiating the
coefficients with dual numbers gives dH/dmu = sum_k (df_k/dmu) H_k with no
finite differencing.  :func:`hamiltonian_blocks` walks each coefficient
once for many points and yields H and dH in blocks of BLOCK_ENTRIES // dim^2
points, at most BLOCK_POINTS (memory stays bounded at large dim, and at dim 64
a block still holds four points to share its per-block work); per-point
functions wrap it.
Each H and dH is a single exact sum over the term stack, Hermitian as
stored by construction because every term is.

Units: hbar = 1 throughout; energies set the inverse time scale.

Model files are JSON objects::

    {
      "name": "my model",
      "dim": 2,
      "parameters": ["theta", "phi"],
      "terms": [
        {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
         "coeff": "sin(theta)*cos(phi)"}
      ]
    }

Complex matrix entries are 2-arrays [re, im]; matrices are row-major,
dim x dim.  Each matrix must be Hermitian within 1e-12 (relative to its
largest entry); it is then symmetrized exactly.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import expr
from .errors import EvaluationError, InputError
from .numerics import hermitian

__all__ = [
    "ModelSpec",
    "model_spec",
    "parameter_point",
    "hamiltonian_blocks",
    "hamiltonian_at",
    "hamiltonian_derivative_at",
    "Curve",
    "curve",
    "spin_half",
    "two_band_lattice",
    "load_model_spec",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

BLOCK_ENTRIES = 2**14  # complex entries of H in one block: 4 points at dim 64, bounded memory
BLOCK_POINTS = 1024  # cap on the points in one block; larger ones were no faster at dim 2


@dataclass(frozen=True)
class ModelSpec:
    """Immutable Hamiltonian family.

    Attributes
    ----------
    name : str
        Free-text label.
    dim : int
        Hilbert-space dimension of every term matrix.
    parameters : tuple[str, ...]
        Ordered parameter names.
    terms : tuple[tuple[np.ndarray, ExprNode], ...]
        (Hermitian matrix, coefficient AST) pairs.
    coeff_sources : tuple[str, ...]
        The coefficient expressions as written (for reports and errors).
    """

    name: str
    dim: int
    parameters: tuple[str, ...]
    terms: tuple[tuple[np.ndarray, expr.ExprNode], ...]
    coeff_sources: tuple[str, ...]

    @property
    def n_parameters(self) -> int:
        return len(self.parameters)


def model_spec(name: str, dim: int, parameters, terms) -> ModelSpec:
    """Validate and build a :class:`ModelSpec`.

    Parameters
    ----------
    terms : iterable of (matrix, coefficient)
        The coefficient may be an expression string or an already-parsed AST.
    """
    params = tuple(str(p) for p in parameters)
    if len(set(params)) != len(params):
        raise InputError(f"duplicate parameter names in {params}")
    if not terms:
        raise InputError("a model needs at least one term")
    built = []
    sources = []
    for k, (matrix, coeff) in enumerate(terms):
        try:
            h = hermitian(matrix, asymmetry_tol=1e-12)
        except InputError as exc:
            raise InputError(f"term {k}: {exc}") from None
        if h.shape[0] != dim:
            raise InputError(
                f"term {k}: matrix is {h.shape[0]}x{h.shape[0]}, expected {dim}x{dim}"
            )
        if isinstance(coeff, str):
            src = coeff
            try:
                ast = expr.parse_expression(coeff, params)
            except expr.ParseError as exc:
                raise InputError(f"term {k}: {exc}") from None
        else:
            ast = coeff
            src = expr.format_expression(ast)
            unknown = expr.parameters_used(ast) - set(params)
            if unknown:
                raise InputError(f"term {k}: undeclared parameters {sorted(unknown)}")
        built.append((h, ast))
        sources.append(src)
    return ModelSpec(str(name), int(dim), params, tuple(built), tuple(sources))


def parameter_point(model: ModelSpec, values) -> np.ndarray:
    """Validate a parameter point against the model's parameter list."""
    lam = np.asarray(values, dtype=float).ravel()
    if lam.size != model.n_parameters:
        raise InputError(
            f"parameter point has {lam.size} values, model "
            f"{model.name!r} expects {model.n_parameters}"
        )
    if not np.all(np.isfinite(lam)):
        raise InputError("parameter point has non-finite values")
    return lam


def _evaluate_all(asts, names, points: np.ndarray, directions, label):
    """Values (A, N) and partials (A, N, k) of A trees at the rows of ``points``.

    A domain error is located after the batch, point by point (each tree's
    values, then its partials one direction at a time), and raised with the
    point-wise message after ``label(tree index, binding)``.
    """
    try:
        pairs = [expr.evaluate_gradient(ast, dict(zip(names, points.T)), directions)
                 for ast in asts]
    except EvaluationError:
        for row in points:
            env = dict(zip(names, row.tolist()))
            for k, ast in enumerate(asts):
                try:
                    for seeds in [(), *zip(directions)]:  # values, then each direction
                        expr.evaluate_gradient(ast, dict(zip(names, row[:, None])), seeds)
                except EvaluationError as exc:
                    raise EvaluationError(f"{label(k, env)}{exc}") from None
        raise
    values = np.array([np.broadcast_to(v, len(points)) for v, _ in pairs])
    return values, np.array([p.T for _, p in pairs])


def _assemble(terms: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_t coefficients[t, ...] terms[t], shape (..., dim, dim), as one real einsum.

    It adds in term-loop order, so H is Hermitian bit for bit; BLAS would reorder
    the sums.  The C-ordered buffer keeps the complex view valid for any layout.
    """
    shape = coefficients.shape[1:]
    floats = terms.reshape(len(terms), -1).view(float)
    out = np.einsum("t...,tj->...j", coefficients, floats, out=np.empty(shape + floats.shape[1:]))
    return out.view(complex).reshape(shape + terms.shape[1:])


def hamiltonian_blocks(model: ModelSpec, points, directions=()):
    """Yield (H, dH) for consecutive blocks of the (N, k) parameter ``points``.

    H is (n, dim, dim) and dH/d(directions) is (n, len(directions), dim, dim),
    or None without directions.  A domain error names the term and the first
    point where it occurs.
    """
    lam = np.asarray(points, dtype=float)
    if lam.ndim != 2 or lam.shape[1] != model.n_parameters or not np.isfinite(lam).all():
        raise InputError(f"parameter points must be finite, of shape (N, "
                         f"{model.n_parameters}); got shape {lam.shape}")
    values, partials = _evaluate_all(
        [ast for _, ast in model.terms], model.parameters, lam, directions,
        lambda k, env: f"term {k} ({model.coeff_sources[k]!r}) at {env}: ",
    )
    terms = np.array([matrix for matrix, _ in model.terms])
    step = min(BLOCK_POINTS, max(1, BLOCK_ENTRIES // model.dim**2))
    for lo in range(0, len(lam), step):
        block = slice(lo, lo + step)
        dh = _assemble(terms, partials[:, block]) if directions else None
        yield _assemble(terms, values[:, block]), dh


def hamiltonian_at(model: ModelSpec, lam) -> np.ndarray:
    """H(lambda) = sum_k f_k(lambda) H_k, Hermitian as stored because the H_k are."""
    (h, _), = hamiltonian_blocks(model, parameter_point(model, lam)[None])
    return h[0]


def hamiltonian_derivative_at(model: ModelSpec, lam, mu: int) -> np.ndarray:
    """Exact dH/dmu = sum_k (df_k/dmu)(lambda) H_k via dual numbers."""
    lam = parameter_point(model, lam)
    if not 0 <= mu < model.n_parameters:
        raise InputError(f"parameter index {mu} out of range")
    (_, dh), = hamiltonian_blocks(model, lam[None], model.parameters[mu:mu + 1])
    return dh[0, 0]


@dataclass(frozen=True)
class Curve:
    """Model parameters as expressions in one variable, with exact rates.

    A path lambda(s) through parameter space and a time schedule lambda(t)
    are both curves; only the name of the variable differs.  ``coords`` holds
    one expression per model parameter, in model parameter order.
    """

    parameters: tuple[str, ...]
    variable: str
    coords: tuple[expr.ExprNode, ...]
    coord_sources: tuple[str, ...]

    def sample(self, xs, rates: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """lambda(x) (N, k) at every x, and d lambda / dx (N, k) if ``rates``, else None."""
        directions = (self.variable,) if rates else ()
        lam, rate = _evaluate_all(self.coords, (self.variable,), np.reshape(xs, (-1, 1)),
                                  directions, lambda k, env: "")
        return lam.T, (rate[:, :, 0].T if rates else None)

    def values(self, x: float) -> np.ndarray:
        return self.sample([x])[0][0]

    def values_and_rates(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """lambda(x) and d lambda / dx, exact via dual numbers."""
        lam, rate = self.sample([x], rates=True)
        return lam[0], rate[0]


def curve(model: ModelSpec, exprs: Mapping[str, str], variable: str) -> Curve:
    """Build a :class:`Curve` with one expression in ``variable`` per model parameter."""
    if not isinstance(exprs, Mapping):
        raise InputError(f"curve in {variable!r} must map parameter names to expressions")
    missing = set(model.parameters) - set(exprs)
    if missing:
        raise InputError(f"curve in {variable!r} does not cover parameters {sorted(missing)}")
    extra = set(exprs) - set(model.parameters)
    if extra:
        raise InputError(f"curve in {variable!r} names unknown parameters {sorted(extra)}")
    coords = []
    for name in model.parameters:
        try:
            coords.append(expr.parse_expression(exprs[name], (variable,)))
        except expr.ParseError as exc:
            raise InputError(f"curve coordinate {name!r}: {exc}") from None
    return Curve(
        model.parameters, variable, tuple(coords), tuple(exprs[n] for n in model.parameters)
    )


def spin_half(mu_times_b: float) -> ModelSpec:
    """Spin-1/2 in a field of fixed magnitude and orientation (theta, phi).

    H = mu_times_b * (sin th cos ph sx + sin th sin ph sy + cos th sz); the
    spectrum is (-mu_times_b, +mu_times_b) at every point.  Which band is the
    ground state depends on the sign of ``mu_times_b``; pick levels explicitly.
    """
    if not np.isfinite(mu_times_b) or mu_times_b == 0.0:
        raise InputError("field scale must be finite and non-zero")
    return model_spec(
        "spin-half",
        2,
        ("theta", "phi"),
        [
            (mu_times_b * PAULI_X, "sin(theta)*cos(phi)"),
            (mu_times_b * PAULI_Y, "sin(theta)*sin(phi)"),
            (mu_times_b * PAULI_Z, "cos(theta)"),
        ],
    )


def two_band_lattice(mass: float) -> ModelSpec:
    """Two-band lattice model on a periodic (kx, ky) torus.

    H = sin(kx) sx + sin(ky) sy + (mass + cos kx + cos ky) sz.  The bands
    carry Chern number +-1 for 0 < |mass| < 2 and 0 for |mass| > 2; the gap
    closes at |mass| in {0, 2}.
    """
    if not np.isfinite(mass):
        raise InputError("mass must be finite")
    mass = float(mass)
    return model_spec(
        "two-band-lattice",
        2,
        ("kx", "ky"),
        [
            (PAULI_X, "sin(kx)"),
            (PAULI_Y, "sin(ky)"),
            (PAULI_Z, f"{mass!r} + cos(kx) + cos(ky)"),
        ],
    )


def load_model_spec(path) -> ModelSpec:
    """Read and validate a model definition file (schema in module docs)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"model file {path}: top level must be an object")
    for field in ("name", "dim", "parameters", "terms"):
        if field not in raw:
            raise InputError(f"model file {path}: missing field {field!r}")
    name = raw["name"]
    dim = raw["dim"]
    params = raw["parameters"]
    if not isinstance(name, str):
        raise InputError(f"model file {path}: 'name' must be a string")
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"model file {path}: 'dim' must be a positive integer")
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise InputError(f"model file {path}: 'parameters' must be a list of strings")
    if not isinstance(raw["terms"], list) or not raw["terms"]:
        raise InputError(f"model file {path}: 'terms' must be a non-empty list")
    terms = []
    for k, term in enumerate(raw["terms"]):
        if not isinstance(term, dict) or "matrix" not in term or "coeff" not in term:
            raise InputError(
                f"model file {path}: term {k} must be an object with 'matrix' and 'coeff'"
            )
        matrix = _parse_complex_matrix(term["matrix"], dim, f"{path}: term {k}")
        coeff = term["coeff"]
        if not isinstance(coeff, str):
            raise InputError(f"model file {path}: term {k}: 'coeff' must be a string")
        terms.append((matrix, coeff))
    try:
        return model_spec(name, dim, params, terms)
    except InputError as exc:
        raise InputError(f"model file {path}: {exc}") from None


def _parse_complex_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise InputError(f"{where}: matrix must have {dim} rows")
    try:
        pairs = np.array(rows)
    except ValueError:  # ragged nesting
        pairs = np.empty(0)
    if pairs.shape == (dim, dim, 2) and pairs.dtype.kind in "biuf":
        # the [re, im] float pairs viewed as complex: exactly complex(re, im)
        return pairs.astype(float).view(complex)[..., 0]
    # the entry-by-entry walk names the first malformed entry
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"{where}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
            ):
                raise InputError(
                    f"{where}: entry ({i},{j}) must be a 2-array [re, im]"
                )
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise InputError(f"{where}: entry ({i},{j}) is too large for a float") from None
    return out
