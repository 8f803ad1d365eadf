"""Mutation table: each recorded mutation of the source must fail a named test.

    python tests/mutants.py [NAME ...]

A row is (name, file under ``src/qgeom``, the exact text it replaces, the new
text, test node ids).  For each row (or each named one) the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory, applies
the edit there, checks that the run imports that copy, and runs the row's
tests under ``ROW_TIMEOUT`` seconds, with BLAS on one thread.  First the tests
of every row run once on an unedited copy: they must pass there, or no kill
means anything.

A row is reported as killed (a test failed), survived (its tests passed),
stale (its old text is not found exactly once, or a node id no longer names a
test), timeout, or error (anything else, such as a copy that does not import).
The exit code is 1 unless every row is killed.  A change that records a new
mutation adds a row here.  Standard library only; pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW_TIMEOUT = 120  # s; a row that runs longer reads as timeout

# runs in the copy: the qgeom it imports must be the copy's, then pytest on argv
RUN_TESTS = """
import sys
from pathlib import Path
sys.path.insert(0, "src")
try:
    import qgeom
except Exception as exc:  # an edit that breaks the import kills no test
    print(f"qgeom does not import: {exc!r}")
    sys.exit(99)  # not 1, which reads as killed
if Path(qgeom.__file__).resolve().parent != Path("src/qgeom").resolve():
    print(f"imported qgeom from {qgeom.__file__}, not from the copy")
    sys.exit(99)
import pytest
sys.exit(pytest.main(["-q", "-x", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""

DYN, GEO, STA = "tests/test_dynamics.py", "tests/test_geometry.py", "tests/test_states.py"
ASSEMBLY = "tests/test_batch.py::test_assembly_matches_a_term_by_term_loop"
WILSON = GEO + "::TestPlaquetteFluxGrid::test_each_plaquette_matches_a_direct_wilson_loop"
ONE_POINT = DYN + "::test_adiabatic_rates_and_leakage_round_as_at_one_point"
WRITER = "tests/test_cli.py::test_table_writer_axes_match_a_per_value_reference"
PERCENT_TAIL = "tests/test_cli.py::test_an_axes_table_whose_last_chunk_is_formatted_by_percent"
WRITER_MEMORY = "tests/test_cli.py::test_csv_writer_memory_is_bounded_by_its_chunk_not_by_the_table"
EXACT = "tests/test_cli.py::test_csv_numbers_are_written_exactly_as_percent_formats_them"
CHECK = "tests/test_cli.py::TestCheckCommand::"
EIGH2 = "tests/test_numerics.py::test_dim2_eigh_equals_lapack_bit_for_bit"

ROWS = [
    # the tensor and its isolation rule
    ("transposed dH", "qgt.py", "(dh @ vectors[:, None, :, group])",
     "(dh.swapaxes(-1, -2) @ vectors[:, None, :, group])",
     ["tests/test_qgt.py::TestSumOverStates::test_matches_analytic_both_bands"]),
    ("conjugated Q", "qgt.py", "return (q + q.conj().swapaxes(-1, -2)) / 2",
     "return (q.conj() + q.swapaxes(-1, -2)) / 2",
     [GEO + "::test_open_grid_flux_converges_to_the_curvature_integral"]),
    ("< for <= in degeneracy_groups", "numerics.py", "~(np.diff(e) <= tol)", "~(np.diff(e) < tol)",
     ["tests/test_numerics.py::test_one_isolation_rule",
      "tests/test_numerics.py::test_a_gap_equal_to_the_tolerance_joins_one_cluster"]),
    ("np.minimum in level_gap", "qgt.py", "return np.fmin(below, above)",
     "return np.minimum(below, above)", ["tests/test_numerics.py::test_one_isolation_rule"]),
    # states by inverse iteration
    ("state accepted after one solve", "numerics.py",
     "done = nearest & (residual[rows] <= bound[rows])",
     "done = nearest | True", [STA + "::test_states_agree_with_the_eigh_columns"]),
    ("no nearest-level condition", "numerics.py",
     "done = nearest & (residual[rows] <= bound[rows])",
     "done = residual[rows] <= bound[rows]",
     [STA + "::test_a_state_of_another_level_is_not_accepted"]),
    ("every row shifted on a zero pivot", "numerics.py", "hit = np.linalg.slogdet(a)[0] == 0",
     "hit = np.ones(len(rows), dtype=bool)",
     [STA + "::test_an_exact_zero_pivot_moves_only_that_shift"]),
    ("shift of 4 eps range", "numerics.py",
     "offset, bound = 2 * eps * np.maximum(scale, np.abs(e)),",
     "offset, bound = 4 * eps * scale,",
     [STA + "::test_an_exact_zero_pivot_moves_only_that_shift"]),
    # H assembly
    ("tensordot assembly", "model.py", 'out = np.einsum("t...,tj->...j", coefficients, floats, '
     "out=np.empty(shape + floats.shape[1:]))",
     "out = np.tensordot(coefficients, floats, axes=(0, 0))", [ASSEMBLY]),
    ("@ assembly", "model.py", 'out = np.einsum("t...,tj->...j", coefficients, floats, '
     "out=np.empty(shape + floats.shape[1:]))",
     "out = np.moveaxis(coefficients, 0, -1) @ floats", [ASSEMBLY]),
    # flux and closure
    ("conjugated north cap links", "geometry.py", "np.vecdot(north, states[:1])",
     "np.vecdot(states[:1], north)", [WILSON]),
    ("conjugated south cap links", "geometry.py", "np.vecdot(states[-1:], south)",
     "np.vecdot(south, states[-1:])", [WILSON]),
    ("wrong torus wrap row", "geometry.py", "np.vecdot(states[-1:], states[:1])])",
     "np.vecdot(states[-1:], states[1:2])])", [WILSON]),
    ("inverted link guard direction", "geometry.py", "d = int(mags[1].min() < mags[0].min())",
     "d = int(mags[1].min() > mags[0].min())",
     [GEO + "::TestPlaquetteFluxGrid::test_link_guard_names_the_weakest_link"]),
    ("no sphere row offset in the link guard", "geometry.py", 'j -= closure == "sphere"', "j -= 0",
     [GEO + "::TestPlaquetteFluxGrid::test_link_guard_names_a_pole"]),
    ("no pole check", "geometry.py", "for name, lam in self.poles().items():",
     "for name, lam in {}.items():",
     [GEO + "::TestClosureCheck::test_sphere_whose_pole_depends_on_azimuth_is_rejected"]),
    ("no azimuth seam", "geometry.py", 'if self.closure in ("torus", "sphere"):',
     'if self.closure == "torus":',
     [GEO + "::TestClosureCheck::test_sphere_whose_azimuth_is_not_periodic_is_rejected"]),
    ("prime probe decided on one point", "geometry.py", "for edge in (others[:1], others):",
     "for edge in (others[:1],):", [GEO + "::test_torus_period_probe_decides_on_the_full_edge"]),
    ("prime probe on full edges again", "geometry.py", "for edge in (others[:1], others):",
     "for edge in (others,):",
     [GEO + "::test_torus_period_probe_evaluates_one_edge_point_per_prime"]),
    # evolution
    ("misaligned growth marks", "dynamics.py",
     "marks = range(-k0 % check_every, steps, check_every)",
     "marks = range(0, steps, check_every)",
     [DYN + "::test_block_seams_do_not_change_the_trajectory"]),
    ("no in-loop drift check", "dynamics.py",
     "_check_drift(psis[span][1:], times[span][1:], dt, hs[2::2])",
     "pass", [DYN + "::TestEvolve::test_norm_drift_aborts_early_in_a_long_span"]),
    ("a growth warning at every later mark", "dynamics.py",
     "check_every = n + 1  # one warning", "pass  # one warning",
     [DYN + "::test_block_seams_do_not_change_the_trajectory"]),
    # one metric speed along a curve
    ("rate replaced by ones", "geometry.py", "speed_sq = (rate[:, None] @",
     "speed_sq = (np.ones_like(rate)[:, None] @", [GEO + "::TestPathLength::test_meridian"]),
    ("metric rate from strided q.real", "geometry.py", "@ np.concatenate(g) @",
     "@ np.concatenate(g).astype(complex).real @", [ONE_POINT]),
    ("C-contiguous level states", "geometry.py", "np.concatenate(columns, axis=1).T",
     "np.ascontiguousarray(np.concatenate(columns, axis=1).T)", [ONE_POINT + "[8]"]),
    # expressions
    ("chain folded right to left", "expr.py", "for op in reversed(spine):", "for op in spine:",
     ["tests/test_expr.py::test_a_long_chain_evaluates_as_a_left_fold",
      "tests/test_expr.py::test_a_long_unary_chain_is_walked_in_a_loop"]),
    ("parameters of left operands only", "expr.py", "lambda n, left, right: left | right",
     "lambda n, left, right: left", ["tests/test_expr.py::TestParsing::test_valid_product"]),
    ("operands printed swapped", "expr.py", 'f"({left} {n.op} {right})"',
     'f"({right} {n.op} {left})"',
     ["tests/test_expr.py::test_a_long_chain_lists_its_parameters_and_prints_as_a_left_fold"]),
    ("NaN-only derivative check", "expr.py", "_check(~np.isfinite(partials),",
     "_check(np.isnan(partials),", ["tests/test_expr.py::"
     "test_a_finite_value_with_a_non_finite_derivative_names_the_derivative"]),
    ("unsigned exponent", "expr.py", 'BinaryOp("^", node, self.unary())',
     'BinaryOp("^", node, self.atom())', ["tests/test_expr.py::TestParsing::test_signed_exponent"]),
    ("overflowing literal kept as inf", "expr.py", "if not np.isfinite(value := float(text)):",
     "if np.isnan(value := float(text)):",
     ["tests/test_expr.py::test_an_overflowing_literal_is_a_parse_error",
      "tests/test_cli.py::test_an_overflowing_literal_in_a_model_term_exits_1"]),
    ("precedence levels swapped", "expr.py", '(("+", "-"), ("*", "/"))[level]',
     '(("*", "/"), ("+", "-"))[level]',
     ["tests/test_expr.py::TestParsing::test_precedence_and_left_associativity"]),
    # validated inputs
    ("any asymmetry symmetrized away", "numerics.py", "hermitian(h, asymmetry_tol=1e-12)",
     "hermitian(h)", ["tests/test_numerics.py::TestEigensystem::test_rejects_non_hermitian"]),
    ("min_link above 1 accepted", "geometry.py", "real_number(min_link, \"min_link\") <= 1.0",
     "real_number(min_link, \"min_link\") <= 2.0",
     [GEO + "::TestPlaquetteFluxGrid::test_min_link_is_a_number_in_the_unit_interval"]),
    ("evolve times not read as numbers", "dynamics.py",
     'map(real_number, (t0, t1, dt), ("t0", "t1", "dt"))', "(t0, t1, dt)",
     [DYN + "::test_evolve_reads_its_times_as_finite_numbers"]),
    ("term errors without their prefix", "model.py", 'InputError(f"term {k}: {exc}") from None',
     'InputError(f"{exc}") from None',
     ["tests/test_model.py::TestModelSpecValidation::test_a_term_error_is_prefixed_once"]),
    # one solve for every check step
    ("a step's rows taken from another step", "cli.py",
     "range(0, len(solved.states), len(offsets[0]))",
     "range(0, len(solved.states), len(offsets[0]))[::-1]",
     [CHECK + "test_route_tensors_equal_the_standalone_routes_bit_for_bit"]),
    ("no vanishing-step guard", "qgt.py", "if lost.any() or h * h == 0:", "if False:",
     ["tests/test_qgt.py::test_a_vanishing_step_is_a_step_error",
      CHECK + "test_a_vanishing_step_exits_2_and_writes_nothing"]),
    ("no record-size guard", "dynamics.py", "if need > (memory := _physical_memory()):",
     "if need > (memory := _physical_memory()) and False:", [DYN + "::"
     "test_records_past_physical_memory_are_an_input_error_before_any_allocation"]),
    # the check verdict
    ("verdict order threshold below a constant error's order", "cli.py",
     "slope is not None and slope < 1.5 and", "slope is not None and slope < -0.5 and",
     [CHECK + "test_a_route_that_does_not_converge_exits_2_and_writes_nothing"]),
    ("verdict without the rounding floor", "cli.py",
     "errors[name][0] > 1e-9 * max(1.0, np.abs(q).max())", "errors[name][0] > 0.0",
     [CHECK + "test_an_order_fitted_to_a_rounding_floor_error_passes"]),
    # the table writer
    ("integers written as floats", "cli.py", '"%.17g" if c.dtype.kind == "f" else "%d"',
     '"%.17g" if c.dtype.kind != "b" else "%d"', [WRITER]),
    ("overlapping chunks", "cli.py", "range(0, n := len(columns[0]), step)",
     "range(0, n := len(columns[0]), step - 1)", [WRITER]),
    ("Fortran-order axis indices", "cli.py", "np.unravel_index(rows, [a.size for a in axes])",
     'np.unravel_index(rows, [a.size for a in axes], order="F")', [WRITER]),
    ('indexing="xy" in the JSON expansion', "cli.py", 'np.meshgrid(*axes, indexing="ij")',
     'np.meshgrid(*axes, indexing="xy")', [WRITER]),
    ('", " row separator', "cli.py", 'row_fmt = ",".join(', 'row_fmt = ", ".join(', [EXACT]),
    ('";" separator in numpy chunks', "cli.py", 'slots[:, len(axes):, _SEP_AT] = ord(",")',
     'slots[:, len(axes):, _SEP_AT] = ord(";")', [WRITER]),
    ("no newline after a % row", "cli.py", '"".join([row_fmt + "\\n"] * len(rows))',
     '"".join([row_fmt] * len(rows))', [PERCENT_TAIL]),
    ("the whole CSV text written at once", "cli.py",
     "for chunk in chunks:\n                out.write(chunk)", 'out.write("".join(chunks))',
     [WRITER_MEMORY]),
    # the numpy formatting of a float
    ("no tie fallback", "cli.py", "spill = ~up & (r + margin >= 0.5) | ~kept & (x != 0)",
     "spill = ~kept & (x != 0)", [EXACT]),
    (">= for > at the half", "cli.py", "up = r - margin > 0.5", "up = r - margin >= 0.5",
     [EXACT]),
    ("exponent form from E >= 16", "cli.py", "np.where((e >= -4) & (e < 17), e + 4,",
     "np.where((e >= -4) & (e < 16), e + 4,", [EXACT]),
    ("the - of -0 dropped", "cli.py", "np.signbit(x) * (_CLASSES * 17)",
     "(x < 0) * (_CLASSES * 17)", [EXACT]),
    ("integers of 2**53 or more left to numpy", "cli.py", "(c > -2 ** 53) & (c < 2 ** 53)",
     "(c > -2 ** 63) & (c < 2 ** 63)", [EXACT]),
    ("no +-1 exponent correction", "cli.py",
     "e += mag >= ten_floor[e + 1]  # log10 may be one off next to a power of ten\n"
     "    e -= mag < ten_floor[e]", "pass", [EXACT]),
    # LAPACK's n = 2 steps
    ("A(2,2) updated as d2 - 2 Re w", "numerics.py", "np.where(reflect, (d2 - wr) - wr, d2)",
     "np.where(reflect, d2 + (-2 * wr), d2)", [EIGH2 + "[torus]"]),
    ("no split test", "numerics.py", "split = ((np.abs(e) <= np.sqrt(a1) * np.sqrt(a2) * eps)\n"
     "                 | (e * e <= eps * eps * a1 * a2 + LAPACK_SAFMIN))", "split = e == 0",
     [EIGH2 + "[branches]"]),
    ("no sort swap", "numerics.py", "swap = energies[:, 1] < energies[:, 0]",
     "swap = energies[:, 1] < -np.inf", [EIGH2 + "[branches]"]),
    ("beta signed as the imaginary part", "numerics.py", "beta = -np.copysign(norm, ar)",
     "beta = -np.copysign(norm, ai)", [EIGH2 + "[branches]"]),
    ("NaN solved at dim 2", "numerics.py",
     "if not np.all((parts == 0) | (parts >= EIGH2_RANGE[0]) & (parts <= EIGH2_RANGE[1])):",
     "if np.any((parts > 0) & (parts < EIGH2_RANGE[0]) | (parts > EIGH2_RANGE[1])):",
     ["tests/test_numerics.py::test_dim2_eigh_leaves_what_lapack_would_rescale_to_lapack"]),
    ("no overlap rounding floor", "qgt.py",
     "if floor > OVERLAP_FLOOR_SHARE and floor > OVERLAP_FLOOR_SHARE * np.abs(g).max():",
     "if False:",
     ["tests/test_qgt.py::TestOverlapMethod::test_a_step_below_the_rounding_floor_raises",
      CHECK + "test_a_step_below_the_overlap_rounding_floor_exits_2_and_writes_nothing"]),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(copy: Path, tests) -> tuple[str, str]:
    """killed, survived, stale, timeout or error, and the run's last line of output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-B", "-c", RUN_TESTS, *tests], cwd=copy,
                              env=env, capture_output=True, text=True, timeout=ROW_TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", f"no result in {ROW_TIMEOUT} s"
    last = (done.stdout + done.stderr).strip().splitlines()[-1:] or [""]
    # pytest: 0 passed, 1 a test failed, 4 a node id not found, 5 nothing collected
    status = {0: "survived", 1: "killed", 4: "stale", 5: "stale"}.get(done.returncode, "error")
    return status, last[0]


def run_row(row) -> tuple[str, str]:
    _, file, old, new, tests = row
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        target = copy / "src" / "qgeom" / file
        if (count := (text := target.read_text()).count(old)) != 1:
            return "stale", f"the old text occurs {count} times"
        target.write_text(text.replace(old, new))
        return run_tests(copy, tests)


def main(names) -> int:
    if unknown := set(names) - {row[0] for row in ROWS}:
        print(f"no rows named {sorted(unknown)}", file=sys.stderr)
        return 2
    rows = [row for row in ROWS if not names or row[0] in names]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        status, last = run_tests(Path(tmp), sorted({test for row in rows for test in row[4]}))
        if status != "survived":
            print(f"the row tests do not pass on the unedited source ({status}): {last}")
            return 1
    killed = 0
    for row in rows:
        status, last = run_row(row)
        killed += status == "killed"
        print(f"{status:9} {row[0]} ({row[1]})" + ("" if status == "killed" else f": {last}"),
              flush=True)
    print(f"{killed} of {len(rows)} rows killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
