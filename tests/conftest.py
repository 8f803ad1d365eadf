"""Shared fixtures and independent oracles for the test suite.

The analytic two-level expressions here (closed-form band states, their
exact tensor, the exact rotating-frame propagator) are deliberately written
from scratch, independent of the library code paths they check.  A failed
``==`` of two long strings reports its first differing line, not a diff.
"""

import numpy as np
import pytest
from _pytest.assertion import util as assertion_util

import qgeom as qg

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)


# --------------------------------------------------------------------------
# closed-form two-level band states and their geometry


def upper_state(theta, phi):
    """Closed-form eigenstate of n.sigma with eigenvalue +1 (half-angle gauge)."""
    return np.array([
        np.exp(-1j * phi / 2) * np.cos(theta / 2),
        np.exp(1j * phi / 2) * np.sin(theta / 2),
    ])


def lower_state(theta, phi):
    """Closed-form eigenstate of n.sigma with eigenvalue -1."""
    return np.array([
        -np.exp(-1j * phi / 2) * np.sin(theta / 2),
        np.exp(1j * phi / 2) * np.cos(theta / 2),
    ])


def analytic_qgt_two_level(theta, band):
    """Exact Q over (theta, phi) for the band with eigenvalue `band` (+1/-1).

    Derived by differentiating the closed-form states: both bands share
    g = diag(1, sin^2)/4, and Im Q_theta_phi = band * sin(theta)/4.
    """
    s = np.sin(theta)
    q = np.array([
        [0.25, 1j * band * s / 4.0],
        [-1j * band * s / 4.0, s * s / 4.0],
    ])
    return q


def bloch_overlap(l1, l2):
    """|<psi(l1)|psi(l2)>| for unit-field two-level states: cos(angle/2)."""
    def n(th, ph):
        return np.array([
            np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)
        ])
    c = float(np.clip(n(*l1) @ n(*l2), -1.0, 1.0))
    return np.cos(np.arccos(c) / 2.0)


# --------------------------------------------------------------------------
# exact rotating-frame (Rabi) solution for the driven spin


def rabi_effective(mu_b, omega):
    """Static frame Hamiltonian of the theta=pi/2, phi=omega*t drive."""
    return mu_b * SX - 0.5 * omega * SZ


def rabi_state(mu_b, omega, t, psi0):
    """Exact state at time t for H(t) = mu_b (cos wt sx + sin wt sy)."""
    heff = rabi_effective(mu_b, omega)
    ev, vec = np.linalg.eigh(heff)
    chi = vec @ (np.exp(-1j * ev * t) * (vec.conj().T @ np.asarray(psi0, complex)))
    rot = np.array([np.exp(-1j * omega * t / 2), np.exp(1j * omega * t / 2)])
    return rot * chi


def rabi_tracking_state(mu_b, omega, level):
    """The state that follows the driven level without wobble (dressed state)."""
    _, vec = np.linalg.eigh(rabi_effective(mu_b, omega))
    return vec[:, level]


# --------------------------------------------------------------------------
# model builders


def doubled_spin_half(mu_b=1.0):
    """Direct sum H(+) H: every level twofold degenerate."""
    terms = []
    for pauli, coeff in zip(PAULIS, (
        "sin(theta)*cos(phi)", "sin(theta)*sin(phi)", "cos(theta)",
    )):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = pauli
        m[2:, 2:] = pauli
        terms.append((mu_b * m, coeff))
    return qg.model_spec("doubled spin-half", 4, ("theta", "phi"), terms)


def twisted_doubled_spin_half(mu_b=1.0):
    """Two decoupled unit-field copies seeing different orientations.

    The ground level is still twofold degenerate everywhere, but the two
    diagonal blocks of the degenerate-level tensor differ, which makes
    basis-rotation (conjugation) checks non-trivial.
    """
    coeffs_a = ("sin(theta)*cos(phi)", "sin(theta)*sin(phi)", "cos(theta)")
    coeffs_b = (
        "sin(theta + 0.4)*cos(phi - 0.3)",
        "sin(theta + 0.4)*sin(phi - 0.3)",
        "cos(theta + 0.4)",
    )
    terms = []
    for pauli, ca, cb in zip(PAULIS, coeffs_a, coeffs_b):
        top = np.zeros((4, 4), dtype=complex)
        top[:2, :2] = pauli
        bottom = np.zeros((4, 4), dtype=complex)
        bottom[2:, 2:] = pauli
        terms.append((mu_b * top, ca))
        terms.append((mu_b * bottom, cb))
    return qg.model_spec("twisted doubled spin-half", 4, ("theta", "phi"), terms)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_trig_model(rng, dim, n_params=3, n_terms=4):
    """Random Hermitian basis with smooth trig-polynomial coefficients."""
    params = tuple(f"p{i}" for i in range(n_params))
    pool = (
        "{c:.6f}*sin({a})*cos({b})",
        "{c:.6f}*cos({a})",
        "{c:.6f}*sin({b})",
        "{c:.6f} + {d:.6f}*cos({a})*cos({b})",
        "{c:.6f}*{a}",
    )
    terms = []
    for _ in range(n_terms):
        template = pool[rng.integers(len(pool))]
        coeff = template.format(
            a=params[rng.integers(n_params)],
            b=params[rng.integers(n_params)],
            c=rng.uniform(-2, 2),
            d=rng.uniform(-2, 2),
        )
        terms.append((random_hermitian(rng, dim), coeff))
    return qg.model_spec("fuzzed", dim, params, terms)


# --------------------------------------------------------------------------
# assertion reports


LONG_TEXT = 10_000  # characters; pytest's own diff of longer strings can run for minutes


def _long_strings(op, left, right) -> bool:
    return (op == "==" and isinstance(left, str) and isinstance(right, str)
            and max(len(left), len(right)) > LONG_TEXT)


def pytest_assertrepr_compare(op, left, right):
    """For ``==`` of two strings, either longer than LONG_TEXT, report the first
    differing line instead of a full diff; the assertion itself is unchanged."""
    if not _long_strings(op, left, right):
        return None
    lines = left.splitlines(keepends=True), right.splitlines(keepends=True)
    k = next((i for i, (a, b) in enumerate(zip(*lines)) if a != b), min(map(len, lines)))
    shown = [repr(side[k]) if k < len(side) else "(no such line)" for side in lines]
    return [f"long strings differ ({len(left)} and {len(right)} characters), "
            f"first at line {k + 1}:", f"left:  {shown[0]}", f"right: {shown[1]}"]


def pytest_configure(config):
    """Skip pytest's own report where the hook above reports: pytest calls every
    implementation of the hook and keeps the first report, so its diff would still run."""
    report = assertion_util.assertrepr_compare

    def unless_long(config, op, left, right, **kwargs):
        return None if _long_strings(op, left, right) else report(config, op, left, right, **kwargs)

    assertion_util.assertrepr_compare = unless_long
    config.add_cleanup(lambda: setattr(assertion_util, "assertrepr_compare", report))


@pytest.fixture
def spin_model():
    return qg.spin_half(1.0)


@pytest.fixture
def state_route(monkeypatch):
    """level_states takes eigvalsh and the shifted solve at every dim."""
    monkeypatch.setattr(qg.qgt, "STATE_SOLVE_MIN_DIM", 1)
