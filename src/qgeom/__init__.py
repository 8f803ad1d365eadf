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

from .errors import (
    DegeneracyError,
    EvaluationError,
    InputError,
    NumericalError,
    ParseError,
    QgeomError,
    StepError,
)
from .numerics import (
    EigenSystem,
    complex_matrix,
    degeneracy_groups,
    hermitian,
    hermitian_eigensystem,
    state_vector,
)
from .expr import (
    Dual,
    evaluate,
    evaluate_gradient,
    evaluate_with_derivative,
    format_expression,
    parse_expression,
)
from .model import (
    Curve,
    ModelSpec,
    curve,
    hamiltonian_at,
    hamiltonian_blocks,
    hamiltonian_derivative_at,
    load_model_spec,
    model_spec,
    parameter_point,
    spin_half,
    two_band_lattice,
)
from .qgt import (
    NonAbelianQgt,
    QgtTensor,
    aligned_neighbor_states,
    berry_connection,
    derivative_matrices,
    derivative_states_from_neighbors,
    level_blocks,
    level_gap,
    level_states,
    nonabelian_from_eigensystem,
    qgt_from_eigensystem,
    qgt_nonabelian,
    qgt_overlap_fd,
    qgt_projector,
    qgt_projector_fd,
    qgt_sum_over_states,
)
from .geometry import (
    FluxResult,
    PathSpec,
    SurfaceGrid,
    berry_flux,
    fidelity_angle,
    path_quantum_length,
    path_spec,
    plaquette_flux_grid,
    small_separation_check,
)
from .dynamics import (
    AaReport,
    AdiabaticReport,
    Trajectory,
    aa_consistency,
    adiabatic_diagnostic,
    energy_uncertainty,
    evolve,
    schedule,
)

__all__ = [
    "__version__",
    # errors
    "QgeomError", "InputError", "ParseError", "NumericalError",
    "EvaluationError", "DegeneracyError", "StepError",
    # numerics
    "complex_matrix", "hermitian", "state_vector", "EigenSystem",
    "hermitian_eigensystem", "degeneracy_groups",
    # expressions
    "Dual", "parse_expression", "evaluate", "evaluate_with_derivative", "evaluate_gradient",
    "format_expression",
    # models
    "ModelSpec", "model_spec", "parameter_point", "hamiltonian_blocks", "hamiltonian_at",
    "hamiltonian_derivative_at", "Curve", "curve", "spin_half",
    "two_band_lattice", "load_model_spec",
    # tensors
    "QgtTensor", "NonAbelianQgt", "level_gap", "level_blocks", "level_states",
    "derivative_matrices",
    "qgt_from_eigensystem", "qgt_sum_over_states", "aligned_neighbor_states",
    "derivative_states_from_neighbors", "qgt_projector", "qgt_projector_fd",
    "qgt_overlap_fd", "nonabelian_from_eigensystem", "qgt_nonabelian",
    "berry_connection",
    # geometry
    "fidelity_angle", "PathSpec", "path_spec", "path_quantum_length",
    "small_separation_check", "SurfaceGrid", "FluxResult",
    "plaquette_flux_grid", "berry_flux",
    # dynamics
    "schedule", "Trajectory", "evolve", "energy_uncertainty",
    "AaReport", "aa_consistency", "AdiabaticReport", "adiabatic_diagnostic",
]
