"""Quantum geometry of parameterized Hamiltonian families.

A numpy library (plus the ``qgeom`` command-line tool) that computes the
quantum geometric tensor of finite-dimensional Hamiltonian families by three
independent, cross-validating methods and derives quantum distances, Berry
curvature and Chern numbers, and evolution-rate diagnostics from it.

Conventions used throughout:

- hbar = 1; time is measured in inverse energy.
- Fidelity angle: |<psi|chi>| = cos(theta/2), theta in [0, pi].
- Tensor split: Q = g - (i/2) F with metric g = Re Q and Berry curvature
  F = -2 Im Q.  For a two-level system the Bloch-sphere angular metric
  equals 4 * g in this normalization.
"""

__version__ = "0.1.0"

from . import dynamics, errors, expr, geometry, model, numerics, qgt
from .errors import *  # noqa: F403
from .numerics import (EigenSystem, complex_matrix, degeneracy_groups, hermitian,
                       hermitian_eigensystem, state_vector)
from .expr import (Dual, evaluate, evaluate_gradient, evaluate_with_derivative,
                   format_expression, parse_expression)
from .model import *  # noqa: F403
from .qgt import *  # noqa: F403
from .geometry import *  # noqa: F403
from .dynamics import *  # noqa: F403

# each module's __all__ lists its public names; numerics and expr export only
# the ones imported above, keeping level_eigenvectors and the AST types inside
__all__ = ["__version__"] + [
    name for module in (errors, numerics, expr, model, qgt, geometry, dynamics)
    for name in module.__all__ if name in globals()
]
