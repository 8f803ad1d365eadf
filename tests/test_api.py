"""The package exports exactly its modules' public names, each once."""

import qgeom as qg
from qgeom import dynamics, errors, expr, geometry, model, numerics, qgt

MODULES = (errors, numerics, expr, model, qgt, geometry, dynamics)
MODULE_ONLY = {"Constant", "Parameter", "UnaryOp", "BinaryOp", "ExprNode", "FUNCTION_NAMES",
               "parameters_used", "level_eigenvectors"}


def test_each_exported_name_is_its_modules_object_and_appears_once():
    assert len(qg.__all__) == len(set(qg.__all__))
    for name in qg.__all__:
        owners = [m for m in MODULES if name in m.__all__]
        if name == "__version__":
            assert owners == [] and isinstance(qg.__version__, str)
            continue
        assert len(owners) == 1, name
        assert getattr(qg, name) is getattr(owners[0], name), name


def test_module_only_names_stay_out_of_the_package():
    assert MODULE_ONLY <= {name for m in MODULES for name in m.__all__}
    assert not MODULE_ONLY & set(qg.__all__)
    assert not MODULE_ONLY & set(dir(qg))


def test_the_finite_difference_plumbing_stays_inside_qgt():
    private = {"DisplacedStates", "fd_offsets", "solve_displaced", "projector_from_solved",
               "overlap_from_solved", "derivative_states_from_neighbors"}
    assert not private & set(qg.__all__)
    assert not private & set(dir(qg))
