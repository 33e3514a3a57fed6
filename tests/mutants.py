"""Replay the recorded mutants: each must fail the tests said to catch it.

Every entry of ``MUTANTS`` is (id, file under ``src/cocyclelab``, exact old
text, new text, test ids).  For each entry the script copies ``src/`` to a
temporary directory, replaces the old text, which must occur exactly once,
by the new one, and runs pytest on the named tests against the copy.  The
mutant is killed when every named test fails (for a parametrized test, at
least one of its cases).  The named tests first run once on the tree as
it is, where they must all pass, so no test is counted as a kill that
fails anyway.  A named test that fails there, a surviving mutant, an old
text that does not occur exactly once (a stale entry) or a run that
pytest cannot complete is printed, and the script exits 1 (about 50 s).
Run it from anywhere:

    python tests/mutants.py

pytest does not collect this file (its name does not start with
``test_``), so it is not part of the unit tests.  A change that claims a
test catches a mutant adds its entry here.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MUTANTS = [
    ("normalize-on-the-right", "finite.py",
     "group.mul(g0inv, x) for x in t",
     "group.mul(x, g0inv) for x in t",
     ["tests/test_finite.py::test_q8_conf_distinct_retraction_and_extension"]),
    ("snf-no-divisibility-step", "snf.py",
     "        if bad is None:\n            k += 1\n",
     "        if True:\n            k += 1\n",
     ["tests/test_finite.py::test_snf_diagonal_is_the_invariant_factors",
      "tests/test_finite.py::test_snf_against_rational_rank_oracle"]),
    ("solve-truncated-v-columns", "snf.py",
     "for col in v_cols[:self.rank]]",
     "for col in v_cols[:self.rank - 1]]",
     ["tests/test_finite.py::test_sparse_solve_matches_dense_transforms"]),
    ("solve-reads-u-by-rows", "snf.py",
     "for col in zip(*u)]",
     "for col in u]",
     ["tests/test_finite.py::test_snf_solver_roundtrip_and_kernel"]),
    ("solve-no-rank-check", "snf.py",
     "        if any(y[self.rank:]):\n            return None\n",
     "",
     ["tests/test_finite.py::test_sparse_solve_matches_dense_transforms"]),
    ("rank-pivot-row-left-in-the-pool", "snf.py",
     "        pool = [row for row in pool if not row[col]]\n"
     "        top, *rest = hits\n",
     "        top, *rest = hits\n"
     "        pool = [row for row in pool if not row[col] or row is top]\n",
     ["tests/test_finite.py::test_rational_rank_of_larger_dense_matrices",
      "tests/test_finite.py::"
      "test_rational_rank_is_the_smith_rank_of_every_boundary"]),
    ("rank-update-skips-a-row", "snf.py",
     "        for row in rest:\n",
     "        for row in rest[1:]:\n",
     ["tests/test_finite.py::test_rational_rank_of_larger_dense_matrices",
      "tests/test_finite.py::"
      "test_rational_rank_of_rank_deficient_products"]),
    ("rank-update-drops-the-pivot-factor", "snf.py",
     "new = [p * x - f * y for x, y in zip(row, top)]",
     "new = [x - f * y for x, y in zip(row, top)]",
     ["tests/test_finite.py::test_rational_rank_of_larger_dense_matrices",
      "tests/test_finite.py::"
      "test_rational_rank_of_rank_deficient_products"]),
    ("all-faces-signs-by-parity-alone", "simplices.py",
     "(1 - 2 * (i & 1), t[:i] + t[i + 1:])",
     "(1 - (i & 1), t[:i] + t[i + 1:])",
     ["tests/test_simplices.py::test_all_faces_is_the_list_of_faces"]),
    ("hemisphere-sigma-of-the-augmented-matrix", "simplices.py",
     "np.linalg.svd(aug if square else unit,",
     "np.linalg.svd(aug,",
     ["tests/test_simplices.py::"
      "test_hemisphere_decides_well_conditioned_sets_in_one_test"]),
    ("hemisphere-weight-threshold", "simplices.py",
     "return not lam.min() >= -_HULL_TOL",
     "return not lam.min() >= 0.1",
     ["tests/test_simplices.py::"
      "test_hemisphere_test_agrees_with_the_subset_loop"]),
    ("powers-by-repeated-multiplication", "forms.py",
     "                grown[e] = col ** e\n",
     "                grown[e] = col ** e if e < 3 else grown[e - 1] * col\n",
     ["tests/test_hamiltonian.py::"
      "test_table_evaluation_is_bitwise_the_reference_in_any_order"]),
    ("contact-rows-allocated-per-cell", "forms.py",
     "        out = np.empty((len(products), len(cells[0][2])))\n"
     "        for signs, points, density in cells:\n",
     "        for signs, points, density in cells:\n"
     "            out = np.empty((len(products), len(density)))\n",
     ["tests/test_contact.py::"
      "test_contact_pairings_hold_one_cell_of_rows_at_a_time"]),
    ("no-rounding-term-of-the-reduction", "cochains.py",
     "        return value % lattice, "
     "est + np.finfo(float).eps / 2 * lattice\n",
     "        return value % lattice, est\n",
     ["tests/test_cochains.py::"
      "test_cocycle_defect_passes_with_no_padding_floor",
      "tests/test_cochains.py::"
      "test_stacked_coboundary_is_bitwise_the_face_sum",
      "tests/test_cochains.py::"
      "test_reduction_is_bitwise_the_modulo_for_every_value_type"]),
    ("reduction-shortcut-taken-for-a-float", "cochains.py",
     "    if isinstance(value, float):\n",
     "    if isinstance(value, float) and 0 <= value < lattice:\n"
     "        return value, est\n"
     "    if isinstance(value, float):\n",
     ["tests/test_cochains.py::"
      "test_reduction_is_bitwise_the_modulo_for_every_value_type",
      "tests/test_cochains.py::"
      "test_signed_sums_are_bitwise_the_coefficient_products"]),
    ("reduction-shortcut-for-an-int-under-a-fraction-lattice", "cochains.py",
     "type(lattice) in (int, kind)",
     "type(lattice) in (int, Fraction)",
     ["tests/test_cochains.py::"
      "test_reduction_is_bitwise_the_modulo_for_every_value_type"]),
    ("signed-sum-drops-the-unit-sign", "cochains.py",
     "total = total + v if coeff == 1 else total - v",
     "total = total + v",
     ["tests/test_cochains.py::"
      "test_signed_sums_are_bitwise_the_coefficient_products",
      "tests/test_cochains.py::test_double_coboundary_vanishes"]),
    ("signed-sum-drops-the-coefficient-size", "cochains.py",
     "            est += abs(coeff) * e\n",
     "            est += e\n",
     ["tests/test_cochains.py::"
      "test_pairing_checks_every_term_before_evaluating"]),
    ("atlas-cells-drop-their-signs", "forms.py",
     "x = signs * points[lo:lo + block]",
     "x = points[lo:lo + block]",
     ["tests/test_forms.py::"
      "test_factored_sphere_integral_is_bitwise_the_cell_sum"]),
    ("lift-taken-on-cp1", "forms.py",
     '    if lift is not None and sphere != "S3":\n'
     '        raise ValueError("only the S^3 atlas points take a lift")\n',
     "",
     ["tests/test_forms.py::test_only_the_s3_atlas_takes_a_lift"]),
    ("sphere-integral-drops-compose", "forms.py",
     "lambda p, t: outer.evaluate(*compose(p, t)))",
     "lambda p, t: outer.evaluate(p, t))",
     ["tests/test_forms.py::"
      "test_uncached_s3_integral_is_bitwise_the_cell_sum"]),
    ("pullback-rows-all-of-the-first-map", "forms.py",
     "yield _densities(form, f.evaluate_grid_jet(axes))",
     "yield _densities(form, maps[0].evaluate_grid_jet(axes))",
     ["tests/test_forms.py::"
      "test_pullback_of_a_mixed_list_is_bitwise_each_map_alone"]),
    ("extension-check-drops-face-signs", "suites.py",
     "s * value[ft]",
     "value[ft]",
     ["tests/test_acceptance.py::test_criterion_08_retraction_extension"]),
    ("spherical-guard-skips-the-hemisphere-test", "cochains.py",
     "            if in_open_hemisphere([p.vec for p in points]):\n",
     "            if True:\n",
     ["tests/test_cochains.py::"
      "test_batched_coboundary_guards_every_face_before_integrating",
      "tests/test_cochains.py::test_integrated_cochain_domain_guard"]),
    ("chart-guard-admits-a-tuple-whose-simplex-raised", "cochains.py",
     "            except DegenerateConfig:\n                return None\n",
     "            except DegenerateConfig:\n                return t\n",
     ["tests/test_cochains.py::"
      "test_chart_cochain_checks_each_face_for_chart_smallness_once"]),
    ("boundary-build-skips-the-face-check", "finite.py",
     "                if i is None:\n",
     "                if False:\n",
     ["tests/test_finite.py::"
      "test_closure_errors_come_degree_by_degree_faces_first",
      "tests/test_finite.py::test_custom_predicate_face_closure_error"]),
    ("boundary-build-skips-the-translate-check", "finite.py",
     "for x in t) not in index:",
     "for x in t) in ():",
     ["tests/test_finite.py::"
      "test_closure_errors_come_degree_by_degree_faces_first"]),
    ("hemisphere-lets-a-point-that-is-not-finite-through", "simplices.py",
     "    if bad.any():\n",
     "    if False:\n",
     ["tests/test_simplices.py::"
      "test_hemisphere_rejects_a_point_that_is_not_finite"]),
    ("guard-lets-nan-through", "quadrature.py",
     "        if not diff <= 10.0 * spec.tol:\n",
     "        if diff > 10.0 * spec.tol:\n",
     ["tests/test_quadrature.py::"
      "test_divergence_guard_catches_values_that_are_not_finite"]),
]


def failed_ids(output):
    """The node ids of pytest's ``FAILED`` summary lines."""
    prefix = "FAILED "
    return [line[len(prefix):].split(" - ")[0]
            for line in output.splitlines() if line.startswith(prefix)]


def pytest(src, tests):
    """pytest's exit code and output on ``tests`` with the package
    imported from ``src``."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
         "no:cacheprovider", "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    return run.returncode, run.stdout


def replay(file, old, new, tests):
    """"killed", "survived" (with the named tests that passed), "stale" or
    "error" for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "cocyclelab" / file
        text = path.read_text()
        if text.count(old) != 1:
            return f"stale: the old text occurs {text.count(old)} times"
        path.write_text(text.replace(old, new))
        code, output = pytest(copy, tests)
    if code not in (0, 1):
        return f"error: pytest exited {code}\n{output[-2000:]}"
    failed = failed_ids(output)
    alive = [t for t in tests
             if not any(f == t or f.startswith(t + "[") for f in failed)]
    return f"survived: {' '.join(alive)} passed" if alive else "killed"


def main():
    named = sorted({t for *_, tests in MUTANTS for t in tests})
    code, output = pytest(SRC, named)
    if code != 0:
        print(f"the named tests do not pass on the tree itself:\n{output}")
        return 1
    bad = 0
    for mutant, file, old, new, tests in MUTANTS:
        verdict = replay(file, old, new, tests)
        bad += verdict != "killed"
        print(f"{mutant}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - bad} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
