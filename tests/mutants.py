"""Replay the recorded mutants: each must fail the tests said to catch it
and turn red the suite checks recorded with it.

Every entry of ``MUTANTS`` is (id, file under ``src/cocyclelab``, exact old
text, new text, test ids, suite reds).  For each entry the script copies
``src/`` to a temporary directory, replaces the old text, which must occur
exactly once, by the new one, and runs pytest on the named tests against
the copy.  The mutant is killed when every named test fails (for a
parametrized test, at least one of its cases).  The named tests first run
once on the tree as it is, where they must all pass, so no test is counted
as a kill that fails anyway.

The script then runs the nine ``verify`` suites once on the copy, at the
default config.  The suite reds of an entry are the checks, as
``"suite: check"``, that fail on the copy and pass on the tree (a suite
that raises reads ``"suite: raised <error>"``).  An entry that turns no
check red says ``"unit tests only: <reason>"`` instead, with one of
``REASONS``: the mutant passes only input that no suite feeds, leaves
every suite value bitwise the same, moves only an error estimate, moves a
value within its check's tolerance, or changes code that no suite reaches
at its default config.

A named test that fails on the tree, a surviving mutant, suite reds that
differ from the recorded ones, an old text that does not occur exactly
once (a stale entry) or a run that pytest or the suites cannot complete is
printed, and the script exits 1 (about 2 min).  Run it from anywhere:

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

REASONS = ("input guard", "bitwise", "estimate only",
           "value moves within tolerance",
           "not reachable at the default config")
UNIT_TESTS_ONLY = {f"unit tests only: {reason}" for reason in REASONS}

MUTANTS = [
    ("normalize-on-the-right", "finite.py",
     "group.mul(g0inv, x) for x in t",
     "group.mul(x, g0inv) for x in t",
     ["tests/test_finite.py::test_q8_conf_distinct_retraction_and_extension"],
     "unit tests only: not reachable at the default config"),
    ("snf-no-divisibility-step", "snf.py",
     "        if bad is None:\n            k += 1\n",
     "        if True:\n            k += 1\n",
     ["tests/test_finite.py::test_snf_diagonal_is_the_invariant_factors",
      "tests/test_finite.py::test_snf_against_rational_rank_oracle"],
     "unit tests only: not reachable at the default config"),
    ("solve-truncated-v-columns", "snf.py",
     "for col in v_cols[:self.rank]]",
     "for col in v_cols[:self.rank - 1]]",
     ["tests/test_finite.py::test_sparse_solve_matches_dense_transforms"],
     "unit tests only: not reachable at the default config"),
    ("solve-reads-u-by-rows", "snf.py",
     "for col in zip(*u)]",
     "for col in u]",
     ["tests/test_finite.py::test_snf_solver_roundtrip_and_kernel"],
     ["configured-homology: conf-z5-extension-coboundary",
      "configured-homology: conf-z5-retraction-identities"]),
    ("solve-no-rank-check", "snf.py",
     "        if any(y[self.rank:]):\n            return None\n",
     "",
     ["tests/test_finite.py::test_sparse_solve_matches_dense_transforms"],
     "unit tests only: not reachable at the default config"),
    ("rank-pivot-row-left-in-the-pool", "snf.py",
     "        pool = [row for row in pool if not row[col]]\n"
     "        top, *rest = hits\n",
     "        top, *rest = hits\n"
     "        pool = [row for row in pool if not row[col] or row is top]\n",
     ["tests/test_finite.py::test_rational_rank_of_larger_dense_matrices",
      "tests/test_finite.py::"
      "test_rational_rank_is_the_smith_rank_of_every_boundary"],
     ["configured-homology: conf-z5-rational-crosscheck"]),
    ("rank-update-skips-a-row", "snf.py",
     "        for row in rest:\n",
     "        for row in rest[1:]:\n",
     ["tests/test_finite.py::test_rational_rank_of_larger_dense_matrices",
      "tests/test_finite.py::"
      "test_rational_rank_of_rank_deficient_products"],
     "unit tests only: not reachable at the default config"),
    ("rank-update-drops-the-pivot-factor", "snf.py",
     "new = [p * x - f * y for x, y in zip(row, top)]",
     "new = [x - f * y for x, y in zip(row, top)]",
     ["tests/test_finite.py::test_rational_rank_of_larger_dense_matrices",
      "tests/test_finite.py::"
      "test_rational_rank_of_rank_deficient_products"],
     ["configured-homology: conf-z5-rational-crosscheck"]),
    ("all-faces-signs-by-parity-alone", "simplices.py",
     "(1 - 2 * (i & 1), t[:i] + t[i + 1:])",
     "(1 - (i & 1), t[:i] + t[i + 1:])",
     ["tests/test_simplices.py::test_all_faces_is_the_list_of_faces"],
     ["cocycle-defect: chart-defect-ratio-max",
      "cocycle-defect: spherical-defect-ratio-max",
      "configured-homology: all-tuples-z2-acyclic",
      "configured-homology: all-tuples-z3-acyclic",
      "configured-homology: conf-z5-H0-rank",
      "configured-homology: conf-z5-H1-rank",
      "configured-homology: conf-z5-H1-torsion-count",
      "configured-homology: conf-z5-H2-rank",
      "configured-homology: conf-z5-H2-torsion-count",
      "configured-homology: conf-z5-extension-coboundary",
      "configured-homology: conf-z5-retraction-identities"]),
    ("hemisphere-sigma-of-the-augmented-matrix", "simplices.py",
     "np.linalg.svd(aug if square else unit,",
     "np.linalg.svd(aug,",
     ["tests/test_simplices.py::"
      "test_hemisphere_decides_well_conditioned_sets_in_one_test"],
     "unit tests only: bitwise"),
    ("hemisphere-weight-threshold", "simplices.py",
     "return not lam.min() >= -_HULL_TOL",
     "return not lam.min() >= 0.1",
     ["tests/test_simplices.py::"
      "test_hemisphere_test_agrees_with_the_subset_loop"],
     "unit tests only: not reachable at the default config"),
    ("powers-by-repeated-multiplication", "forms.py",
     "                grown[e] = col ** e\n",
     "                grown[e] = col ** e if e < 3 else grown[e - 1] * col\n",
     ["tests/test_hamiltonian.py::"
      "test_table_evaluation_is_bitwise_the_reference_in_any_order"],
     "unit tests only: value moves within tolerance"),
    ("contact-rows-allocated-per-cell", "forms.py",
     "        out = np.empty((len(products), len(cells[0][2])))\n"
     "        for signs, points, density in cells:\n",
     "        for signs, points, density in cells:\n"
     "            out = np.empty((len(products), len(density)))\n",
     ["tests/test_contact.py::"
      "test_contact_pairings_hold_one_cell_of_rows_at_a_time"],
     "unit tests only: bitwise"),
    ("no-rounding-term-of-the-reduction", "cochains.py",
     "        return value % lattice, "
     "est + np.finfo(float).eps / 2 * lattice\n",
     "        return value % lattice, est\n",
     ["tests/test_cochains.py::"
      "test_cocycle_defect_passes_with_no_padding_floor",
      "tests/test_cochains.py::"
      "test_stacked_coboundary_is_bitwise_the_face_sum",
      "tests/test_cochains.py::"
      "test_reduction_is_bitwise_the_modulo_for_every_value_type"],
     "unit tests only: estimate only"),
    ("reduction-shortcut-taken-for-a-float", "cochains.py",
     "    if isinstance(value, float):\n",
     "    if isinstance(value, float) and 0 <= value < lattice:\n"
     "        return value, est\n"
     "    if isinstance(value, float):\n",
     ["tests/test_cochains.py::"
      "test_reduction_is_bitwise_the_modulo_for_every_value_type",
      "tests/test_cochains.py::"
      "test_signed_sums_are_bitwise_the_coefficient_products"],
     "unit tests only: estimate only"),
    ("reduction-shortcut-for-an-int-under-a-fraction-lattice", "cochains.py",
     "type(lattice) in (int, kind)",
     "type(lattice) in (int, Fraction)",
     ["tests/test_cochains.py::"
      "test_reduction_is_bitwise_the_modulo_for_every_value_type"],
     "unit tests only: bitwise"),
    ("signed-sum-drops-the-unit-sign", "cochains.py",
     "total = total + v if coeff == 1 else total - v",
     "total = total + v",
     ["tests/test_cochains.py::"
      "test_signed_sums_are_bitwise_the_coefficient_products",
      "tests/test_cochains.py::test_double_coboundary_vanishes"],
     ["cocycle-defect: chart-defect-ratio-max",
      "cocycle-defect: spherical-defect-ratio-max"]),
    ("signed-sum-drops-the-coefficient-size", "cochains.py",
     "            est += abs(coeff) * e\n",
     "            est += e\n",
     ["tests/test_cochains.py::"
      "test_pairing_checks_every_term_before_evaluating"],
     "unit tests only: estimate only"),
    ("atlas-cells-drop-their-signs", "forms.py",
     "x = signs * points[lo:lo + block]",
     "x = points[lo:lo + block]",
     ["tests/test_forms.py::"
      "test_factored_sphere_integral_is_bitwise_the_cell_sum"],
     ["contact: contact-ad-invariance",
      "contact: hopf-reduction"]),
    ("lift-taken-on-cp1", "forms.py",
     '    if lift is not None and sphere != "S3":\n'
     '        raise ValueError("only the S^3 atlas points take a lift")\n',
     "",
     ["tests/test_forms.py::test_only_the_s3_atlas_takes_a_lift"],
     "unit tests only: input guard"),
    ("sphere-integral-drops-compose", "forms.py",
     "lambda p, t: outer.evaluate(*compose(p, t)))",
     "lambda p, t: outer.evaluate(p, t))",
     ["tests/test_forms.py::"
      "test_uncached_s3_integral_is_bitwise_the_cell_sum"],
     ["lemma44: degree-c1",
      "lemma44: degree-c2"]),
    ("pullback-rows-all-of-the-first-map", "forms.py",
     "yield _densities(form, f.evaluate_grid_jet(axes))",
     "yield _densities(form, maps[0].evaluate_grid_jet(axes))",
     ["tests/test_forms.py::"
      "test_pullback_of_a_mixed_list_is_bitwise_each_map_alone",
      "tests/test_acceptance.py::test_criterion_10_prism_identity"],
     ["prism: stokes-ratio-max"]),
    ("extension-check-drops-face-signs", "suites.py",
     "s * value[ft]",
     "value[ft]",
     ["tests/test_acceptance.py::test_criterion_08_retraction_extension"],
     ["configured-homology: conf-z5-extension-coboundary"]),
    ("spherical-guard-skips-the-hemisphere-test", "cochains.py",
     "            if in_open_hemisphere([p.vec for p in points]):\n",
     "            if True:\n",
     ["tests/test_cochains.py::"
      "test_batched_coboundary_guards_every_face_before_integrating",
      "tests/test_cochains.py::test_integrated_cochain_domain_guard"],
     "unit tests only: input guard"),
    ("chart-guard-admits-a-tuple-whose-simplex-raised", "cochains.py",
     "            except DegenerateConfig:\n                return None\n",
     "            except DegenerateConfig:\n                return t\n",
     ["tests/test_cochains.py::"
      "test_chart_cochain_checks_each_face_for_chart_smallness_once"],
     "unit tests only: input guard"),
    ("boundary-build-skips-the-face-check", "finite.py",
     "                if i is None:\n",
     "                if False:\n",
     ["tests/test_finite.py::"
      "test_closure_errors_come_degree_by_degree_faces_first",
      "tests/test_finite.py::test_custom_predicate_face_closure_error"],
     "unit tests only: input guard"),
    ("boundary-build-skips-the-translate-check", "finite.py",
     "for x in t) not in index:",
     "for x in t) in ():",
     ["tests/test_finite.py::"
      "test_closure_errors_come_degree_by_degree_faces_first"],
     "unit tests only: input guard"),
    ("hemisphere-lets-a-point-that-is-not-finite-through", "simplices.py",
     "    if bad.any():\n",
     "    if False:\n",
     ["tests/test_simplices.py::"
      "test_hemisphere_rejects_a_point_that_is_not_finite"],
     "unit tests only: input guard"),
    ("guard-lets-nan-through", "quadrature.py",
     "        if not diff <= 10.0 * spec.tol:\n",
     "        if diff > 10.0 * spec.tol:\n",
     ["tests/test_quadrature.py::"
      "test_divergence_guard_catches_values_that_are_not_finite"],
     "unit tests only: input guard"),
    ("quat-exp-skips-the-finiteness-check", "groups.py",
     "    if not np.isfinite(v).all():\n"
     "        raise ValueError(f\"su2 coefficients must be finite, "
     "got {v}\")\n",
     "",
     ["tests/test_groups.py::test_quat_exp_validation"],
     "unit tests only: input guard"),
    ("rotation-admits-3x3", "groups.py",
     "if m.shape != (4, 4):",
     "if m.shape not in ((3, 3), (4, 4)):",
     ["tests/test_groups.py::test_rotation_validation"],
     "unit tests only: input guard"),
    ("cp1-cell-density-off-by-1e-9", "forms.py",
     "                chunks.append(base.evaluate(sg * x, sg * tangents))\n",
     "                chunks.append(base.evaluate(sg * x, sg * tangents)\n"
     "                              * (1.0 + 1e-9 * (sphere == \"CP1\""
     " and not cells)))\n",
     ["tests/test_oracles.py::"
      "test_symplectic_pairs_lie_within_their_estimates"],
     "unit tests only: value moves within tolerance"),
    ("transfer-represents-the-subgroup-by-its-least-element", "cochains.py",
     "rep = gamma.identity if x in sub else x",
     "rep = x",
     ["tests/test_cochains.py::"
      "test_transfer_on_a_normal_subgroup_that_the_identity_does_not_lead"],
     "unit tests only: bitwise"),
    ("transfer-skips-the-conjugation-check", "cochains.py",
     "        for x in gamma.elements:\n"
     "            if gamma.mul(gamma.mul(x, g), gamma.inv(x)) not in sub:\n",
     "        for x in ():\n"
     "            if gamma.mul(gamma.mul(x, g), gamma.inv(x)) not in sub:\n",
     ["tests/test_cochains.py::"
      "test_transfer_checks_that_the_subgroup_is_normal"],
     "unit tests only: input guard"),
    ("multilinear-admits-a-non-square-tensor", "lie.py",
     "        if len(set(arr.shape)) > 1:\n",
     "        if False:\n",
     ["tests/test_lie.py::test_multilinear_degree_is_the_number_of_axes"],
     "unit tests only: input guard"),
    ("solve-drops-the-remainder-check", "snf.py",
     "            if rem:\n                return None\n",
     "            if False:\n                return None\n",
     ["tests/test_finite.py::"
      "test_solve_needs_an_integer_quotient_of_each_invariant_factor"],
     "unit tests only: input guard"),
    ("group-table-skips-the-associativity-check", "finite.py",
     "        self._check_associativity()\n",
     "",
     ["tests/test_finite.py::test_group_table_rejects_a_bad_table"],
     "unit tests only: input guard"),
    ("transfer-takes-any-subgroup-entry", "cochains.py",
     '    sub = {gamma.element(x, "subgroup entry") for x in subgroup}\n',
     "    sub = set(subgroup)\n",
     ["tests/test_cochains.py::"
      "test_transfer_refuses_a_subgroup_entry_that_is_no_element"],
     "unit tests only: input guard"),
    ("smith-takes-float-entries", "snf.py",
     "    s = [list(map(operator.index, row)) for row in mat]\n",
     "    s = [list(row) for row in mat]\n",
     ["tests/test_finite.py::test_smith_entries_are_integers"],
     "unit tests only: input guard"),
    ("symplectic-cocycle-leaves-its-estimate-unscaled", "hamiltonian.py",
     "IntegralResult(k * res.value, k * res.error_estimate)",
     "IntegralResult(k * res.value, res.error_estimate)",
     ["tests/test_forms.py::"
      "test_integrals_take_their_rule_and_return_their_estimate"],
     "unit tests only: estimate only"),
    ("contact-cocycle-leaves-its-estimate-unscaled", "contact.py",
     "IntegralResult(k * res.value, k * res.error_estimate)",
     "IntegralResult(k * res.value, res.error_estimate)",
     ["tests/test_forms.py::"
      "test_integrals_take_their_rule_and_return_their_estimate"],
     "unit tests only: estimate only"),
    ("retraction-built-again-for-every-call", "finite.py",
     "    if complex_._retraction is not None:\n"
     "        return complex_._retraction\n",
     "",
     ["tests/test_finite.py::test_a_complex_builds_its_retraction_once"],
     "unit tests only: bitwise"),
    ("extension-keeps-a-raw-value", "finite.py",
     "vals = [exact(v) for v in values]",
     "vals = [v for v in values]",
     ["tests/test_finite.py::"
      "test_extension_values_that_are_not_finite_rationals_raise"],
     "unit tests only: input guard"),
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


# prints "suite: check" for each failing check of the nine suites at the
# default config, or "suite: raised <error>" for a suite that raises
SUITES = """
from cocyclelab.suites import list_suites, run_suite
for name, _ in list_suites():
    try:
        checks = run_suite(name).checks
    except Exception as exc:
        print(f"{name}: raised {type(exc).__name__}")
        continue
    for check in checks:
        if not check.passed:
            print(f"{name}: {check.id}")
"""


def suite_reds(src):
    """The failing checks of the nine suites with the package imported
    from ``src``, or a string that says why the run did not complete."""
    run = subprocess.run(
        [sys.executable, "-c", SUITES], cwd=ROOT, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src),
                        "PYTHONDONTWRITEBYTECODE": "1"})
    if run.returncode:
        return f"error: the suites exited {run.returncode}\n" \
            f"{run.stderr[-2000:]}"
    return set(run.stdout.splitlines())


def replay(file, old, new, tests, recorded, base):
    """"killed", "survived" (with the named tests that passed), "stale",
    "error" or a suite mismatch for one mutant; ``base`` is the tree's
    own failing suite checks."""
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
        reds = suite_reds(copy)
    if code not in (0, 1):
        return f"error: pytest exited {code}\n{output[-2000:]}"
    if isinstance(reds, str):
        return reds
    failed = failed_ids(output)
    alive = [t for t in tests
             if not any(f == t or f.startswith(t + "[") for f in failed)]
    if alive:
        return f"survived: {' '.join(alive)} passed"
    reds = sorted(reds - base)
    if reds != sorted(recorded if isinstance(recorded, list) else []):
        return f"suites: red {reds or 'none'}, recorded {recorded}"
    return "killed"


def main():
    named = sorted({t for *_, tests, _ in MUTANTS for t in tests})
    code, output = pytest(SRC, named)
    if code != 0:
        print(f"the named tests do not pass on the tree itself:\n{output}")
        return 1
    base = suite_reds(SRC)
    if isinstance(base, str):
        print(f"the suites do not run on the tree itself: {base}")
        return 1
    bad = 0
    for mutant, file, old, new, tests, recorded in MUTANTS:
        if not isinstance(recorded, list) and recorded not in UNIT_TESTS_ONLY:
            verdict = f"bad record {recorded!r}"
        else:
            verdict = replay(file, old, new, tests, recorded, base)
        bad += verdict != "killed"
        print(f"{mutant}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - bad} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
