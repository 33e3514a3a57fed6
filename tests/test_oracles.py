"""Whole-sphere integrals against their exact values (``oracles``).

Each integral must lie within its own error estimate of the closed form:
the seeded pairs of ``symplectic``'s and ``contact``'s ad-invariance
checks, drawn as those suites draw them, at their rule orders, and every
atlas cell.  The estimates come from ``forms.sphere_products`` and
``pullback_integral``, since ``pairing_integrals`` and
``contact_pairings`` return bare values.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from cocyclelab.contact import contact_volume_form
from cocyclelab.forms import (fubini_study_form, pullback_integral,
                              sphere_atlas, sphere_products, vol_form)
from cocyclelab.groups import hopf_arr
from cocyclelab.hamiltonian import SphereFunction, poisson
from cocyclelab.quadrature import QuadratureSpec
from cocyclelab.suites import DEFAULT_CONFIG, _random_polynomial, run_suite
from oracles import (CP1_CELL, S3_CELL, cp1_monomial, cp1_pairing,
                     s3_pairing)

SEEDS = (DEFAULT_CONFIG["seed"], 1, 2, 3, 4)
X, Y, Z = (SphereFunction.coordinate(n) for n in "xyz")


def within_estimates(results, exact):
    """The (index, error, estimate) of every result farther from its
    exact value than its estimate."""
    return [(i, abs(r.value - e), r.error_estimate)
            for i, (r, e) in enumerate(zip(results, exact))
            if not abs(r.value - e) <= r.error_estimate]


def test_cp1_monomials_are_folland_on_the_radius_half_sphere():
    assert cp1_monomial(0, 0, 0) == 2  # the total of omega is 2 pi
    assert cp1_monomial(2, 0, 0) == cp1_monomial(0, 0, 2) == Fraction(1, 6)
    # x^2 + y^2 + z^2 = 1/4 on the sphere
    assert sum(cp1_monomial(*k) for k in ((2, 0, 0), (0, 2, 0),
                                          (0, 0, 2))) == Fraction(1, 2)
    assert cp1_monomial(2, 2, 0) == Fraction(1, 120)
    assert cp1_monomial(1, 0, 0) == cp1_monomial(2, 1, 0) == 0


def test_beta_xyz_expects_the_oracle_value():
    # the integral of x {y, z} = x^2 is pi / 6, and 3 / pi^3 of it is the
    # check's expected 1 / (2 pi^2)
    assert cp1_pairing(X, poisson(Y, Z)) == Fraction(1, 6)
    (check,) = [c for c in run_suite("symplectic").checks
                if c.id == "beta-xyz"]
    assert math.isclose(check.expected, 3.0 / math.pi ** 3 * math.pi / 6,
                        rel_tol=4 * np.finfo(float).eps)


def test_whole_sphere_totals_are_exact():
    quad = QuadratureSpec(order=8, tol=1e-6)
    (cp1,) = sphere_products(fubini_study_form(), "CP1", [()], quad)
    (s3,) = sphere_products(vol_form(), "S3", [()], quad)
    assert not within_estimates([cp1, s3], [2.0 * math.pi, 1.0])


def symplectic_pairs(seed):
    """The pairs of ``ad-invariance`` at ``seed``, drawn as the suite
    draws them, after its ``poisson-relations`` points."""
    rng = np.random.default_rng(seed)
    rng.normal(size=(200, 3))
    pairs = []
    for _ in range(DEFAULT_CONFIG["adinv_triples"]):
        f, g, h = (_random_polynomial(rng) for _ in range(3))
        pairs += [(poisson(f, g), h), (g, poisson(f, h))]
    return pairs


def contact_pairs(seed):
    """The bases of the pairs of ``contact-ad-invariance`` at ``seed``,
    drawn as the suite draws them, after its ``dalpha-pullback`` draws."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        rng.normal(size=(DEFAULT_CONFIG["contact_samples"], 4))
    pairs = []
    for _ in range(5):
        f, g, h = (_random_polynomial(rng, 2) for _ in range(3))
        pairs += [(poisson(f, g), h), (g, poisson(f, h))]
    return pairs


@pytest.mark.parametrize("seed", SEEDS)
def test_symplectic_pairs_lie_within_their_estimates(seed):
    pairs = symplectic_pairs(seed)
    exact = [cp1_pairing(f, g) for f, g in pairs]
    # the check's premise: each ad-invariance sum is exactly 0
    assert not any(a + b for a, b in zip(exact[0::2], exact[1::2]))
    results = sphere_products(fubini_study_form(), "CP1", pairs,
                              QuadratureSpec(order=8, tol=1e-6))
    assert not within_estimates(results, [math.pi * e for e in exact])


@pytest.mark.parametrize("seed", SEEDS)
def test_contact_pairs_lie_within_their_estimates(seed):
    pairs = contact_pairs(seed)
    exact = [s3_pairing(f, g) for f, g in pairs]
    assert not any(a + b for a, b in zip(exact[0::2], exact[1::2]))
    results = sphere_products(contact_volume_form(), "S3", pairs,
                              QuadratureSpec(order=12, tol=1e-4),
                              lift=hopf_arr)
    assert not within_estimates(results,
                                [math.pi ** 2 * e for e in exact])


@pytest.mark.parametrize("order, depth", [(6, 0), (8, 1), (12, 0)])
def test_atlas_cells_carry_their_exact_share(order, depth):
    quad = QuadratureSpec(order=order, depth=depth, tol=1e-4)
    atlas = sphere_atlas("S3")
    results = pullback_integral(vol_form(), [c for _, c in atlas], quad)
    assert not within_estimates(results,
                                [s * float(S3_CELL) for s, _ in atlas])
    atlas = sphere_atlas("CP1")
    results = pullback_integral(fubini_study_form(),
                                [c for _, c in atlas], quad)
    assert not within_estimates(results,
                                [s * math.pi * CP1_CELL for s, _ in atlas])
