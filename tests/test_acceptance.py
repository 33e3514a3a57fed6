"""Acceptance criteria, one test per criterion, at the pinned tolerances.

Each criterion runs its ``verify`` suite through ``run_suite``, so the CLI
and these tests share one implementation of every checked identity.  A test
pins the expected value and tolerance of each check it asserts, and gates
the time of the suite call (criterion 1: of each pairing, by its ``ms``).
"""
import time
from math import pi

from cocyclelab.suites import run_suite

ZERO = (0.0, 0.0)  # (expected, tol) of an exact check
RATIO = (0.0, 1.0)  # (expected, tol) of an error-to-estimate ratio


def criterion(name, suite, pins, gate, each=False, **config):
    """Run ``suite`` and assert, for each check named in ``pins``, its
    pinned (expected, tol) and its verdict, and then the time gate: of the
    call, or with ``each`` of every check by its ``ms``.  Prints one
    PASS/FAIL line first (see it with ``pytest -s``)."""
    start = time.perf_counter()
    checks = {c.id: c for c in run_suite(suite, config).checks}
    elapsed = time.perf_counter() - start
    for cid, pin in pins.items():
        assert (checks[cid].expected, checks[cid].tol) == pin, cid
    checks = [checks[cid] for cid in pins]
    slowest = max(c.ms / 1000.0 for c in checks) if each else elapsed
    bad = [(c.id, c.computed) for c in checks if not c.passed]
    values = " ".join(f"{c.id}={c.computed:.6g}" for c in checks)
    verdict = "PASS" if not bad and slowest <= gate else "FAIL"
    print(f"criterion {name}: {verdict}  {values} t={elapsed:.1f}s")
    assert not bad, bad
    assert slowest <= gate


def test_criterion_01_cs_torsion_pairing():
    # known red: a pairing passes within 2e-3 of +-4/m on the circle, but
    # the paired rotations fix a plane, so every straight simplex volume
    # vanishes and the pairing is 0 mod 1; see the README
    criterion("1 cs-pairing", "cs-pairing", {
        f"pairing-m{m}": ((4.0 / m) % 1.0, 2e-3) for m in (3, 5, 6, 8)},
        20.0, each=True)


def test_criterion_02_mapping_degrees():
    criterion("2 mapping-degrees", "lemma44", {
        "degree-c1": (0.0, 1e-2), "degree-c2": (2.0, 1e-2)}, 30.0, order=10)


def test_criterion_03_cocycle_defect():
    criterion("3 cocycle-defect", "cocycle-defect", {
        "spherical-defect-ratio-max": RATIO, "chart-defect-ratio-max": RATIO},
        60.0)


def test_criterion_04_derivation_identity():
    criterion("4 derivation", "gf-derivation", {
        "mc3-degree3-residual": (0.0, 5e-2),
        "covector-degree1-residual": (0.0, 1e-4),
        "mc3-is-cartan": (0.0, 1e-14), "cartan-closed-so4": ZERO}, 60.0)


def test_criterion_05_symplectic_cocycle():
    criterion("5 symplectic", "symplectic", {
        "beta-xyz": (1.0 / (2.0 * pi ** 2), 1e-8),
        "poisson-relations": (0.0, 1e-9), "ad-invariance": (0.0, 1e-7)}, 10.0)


def test_criterion_06_contact_suite():
    criterion("6 contact", "contact", {
        "fiber-period": (2.0 * pi, 1e-9), "dalpha-pullback": (0.0, 1e-6),
        "hopf-reduction": (0.0, 1e-4),
        "contact-ad-invariance": (0.0, 1e-6),
        "contact-field": (0.0, 1e-12)}, 60.0)


def test_criterion_07_configured_homology():
    pins = {f"conf-z5-H{n}-{part}": ZERO for n in (0, 1, 2)
            for part in ("rank", "torsion-count")}
    pins.update({"conf-z5-H0-rank": (1.0, 0.0),
                 "conf-z5-rational-crosscheck": ZERO,
                 "all-tuples-z2-acyclic": ZERO, "all-tuples-z3-acyclic": ZERO})
    criterion("7 configured-homology", "configured-homology", pins, 10.0)


def test_criterion_08_retraction_extension():
    criterion("8 retraction-extension", "configured-homology", {
        "conf-z5-retraction-identities": (1.0, 0.0),
        "conf-z5-extension-coboundary": ZERO}, 10.0)


def test_criterion_09_transfer():
    criterion("9 transfer", "transfer", {
        "z3-in-z6-restriction": ZERO, "chain-map": ZERO,
        "z2-in-z4-threecocycle-restriction": ZERO}, 5.0)


def test_criterion_10_prism_identity():
    criterion("10 prism", "prism", {"stokes-ratio-max": RATIO}, 60.0, order=6)
