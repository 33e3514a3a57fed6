"""Exact values of the whole-sphere integrals that the suites compute.

Every integral that ``symplectic`` and ``contact`` run is the integral of
a polynomial over a sphere, which has a closed form (G. B. Folland, "How
to integrate a polynomial over a sphere", Amer. Math. Monthly 108, 2001,
446-448).  On the unit 2-sphere, for even exponents,

    integral of x^a y^b z^c dA = 4 pi (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!,

and 0 unless a, b and c are all even.  The projective line CP1 is the
radius-1/2 sphere with the form omega = 2 dA, of total 2 pi, so each of its
monomial integrals is pi times a Fraction.  On S^3 the Hopf fibres have
length 2 pi, so a pairing of pulled-back functions against alpha ^
d(alpha) is 2 pi times the CP1 pairing of the functions below (the
identity that ``hopf-reduction`` checks).

The atlas cells are exact too: each of the 16 orthant cells of S^3
carries 1/16 of ``vol_form``, up to its sign, and each of the 20
icosahedral cells of CP1 carries 2 pi / 20 of ``fubini_study_form``.

This module is imported by tests only; ``src/`` does not use it.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod

S3_CELL = Fraction(1, 16)  # vol_form on one orthant cell, times its sign
CP1_CELL = Fraction(1, 10)  # fubini_study_form on one cell, over pi


def _odd_factorial(k):
    """k!! for odd k >= -1, with (-1)!! = 1."""
    return prod(range(k, 0, -2))


def cp1_monomial(a, b, c):
    """The integral of x^a y^b z^c against omega over CP1, over pi."""
    if a % 2 or b % 2 or c % 2:
        return Fraction(0)
    n = a + b + c
    return Fraction(2 * _odd_factorial(a - 1) * _odd_factorial(b - 1)
                    * _odd_factorial(c - 1), 2 ** n * _odd_factorial(n + 1))


def cp1_pairing(f, g):
    """<f, g> = the integral of f g against omega over CP1, over pi, for
    ``SphereFunction``s f and g, from the coefficients of their product."""
    return sum((c * cp1_monomial(*key) for key, c in (f * g).coeffs.items()),
               Fraction(0))


def s3_pairing(f, g):
    """The integral of (f o hopf)(g o hopf) against alpha ^ d(alpha) over
    S^3, over pi^2: 2 pi times the CP1 pairing of the bases f and g."""
    return 2 * cp1_pairing(f, g)
