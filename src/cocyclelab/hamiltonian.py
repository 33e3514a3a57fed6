"""Hamiltonian calculus on the radius-1/2 sphere model of the projective
line.

Functions are ambient polynomials with exact rational coefficients (Python
ints where they are integral, Fractions only where a denominator is not
1); their gradients are analytic, so Hamiltonian fields and Poisson
brackets have closed forms (the bracket of two polynomials is again a
polynomial, via the ambient determinant identity
{f,g} = det[p, grad f, grad g]).
A polynomial is evaluated from a ``forms.PowerTable`` of its points, the
arrays ``p[:, axis] ** e`` per axis and exponent: points get a fresh
table, and polynomials that meet the same points share one (the three
partials of a gradient, or every factor of a pass on one block of an
atlas cell).
Integrals run over the icosahedral atlas: ``pairing_integrals`` hands all
pairs of a check to ``forms.sphere_products`` in one pass, and the 3-cocycle
of one triple is its one-pair call.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .cochains import exact
from .forms import PowerTable, fubini_study_form, sphere_products
from .quadrature import IntegralResult, QuadratureSpec


class SphereFunction:
    """Polynomial in the ambient coordinates (x, y, z), restricted to the
    radius-1/2 sphere.  Coefficients are exact rationals (``exact``: ints,
    or Fractions where a denominator is not 1) keyed by exponent triples; a
    key that is not three non-negative integers raises ValueError, and so
    does a coefficient that is not a finite rational (an infinity, a NaN),
    naming its key and itself."""

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for key, c in (coeffs or {}).items():
            key = _exponent_key(key)
            try:
                c = exact(c)
            except ValueError:
                raise ValueError(f"coefficient {c!r} of {key!r} is not a "
                                 "finite rational") from None
            if c != 0:
                self.coeffs[key] = self.coeffs.get(key, 0) + c
        self.coeffs = {k: v for k, v in self.coeffs.items() if v != 0}

    @classmethod
    def coordinate(cls, name: str) -> "SphereFunction":
        key = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[name]
        return cls({key: 1})

    @classmethod
    def constant(cls, c) -> "SphereFunction":
        return cls({(0, 0, 0): c})

    def degree(self):
        return max((sum(k) for k in self.coeffs), default=0)

    @cached_property
    def _compiled(self):
        """Per axis the exponents (T,) and their top; coefficients (T,)."""
        exps = np.array(list(self.coeffs), dtype=int).reshape(-1, 3)
        return ([(k, int(k.max(initial=0))) for k in exps.T],
                np.array([float(c) for c in self.coeffs.values()]))

    def evaluate(self, points):
        """Sum over terms, in dict order, of c * x^a * y^b * z^c at points
        (N, 3) or on a ``PowerTable`` of them, with each power read from
        the table; points get a fresh table."""
        table = PowerTable.of(points)
        axes, coeffs = self._compiled
        k, top = axes[0]
        terms = table.powers(0, top)[k]
        # ((c * x^a) * y^b) * z^c; x^a * c is bitwise c * x^a
        terms *= coeffs[:, None]
        for axis in (1, 2):
            k, top = axes[axis]
            terms *= table.powers(axis, top)[k]
        return np.add.reduce(terms, axis=0, initial=0.0)

    def gradient(self, points):
        """The three partials at points (N, 3), or on a ``PowerTable``,
        from one table."""
        table = PowerTable.of(points)
        return np.stack([self.partial(axis).evaluate(table)
                         for axis in range(3)], axis=1)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return SphereFunction(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        """``scalar * self``; a scalar that is not a finite rational (an
        infinity, a NaN) raises ValueError naming it."""
        try:
            scalar = exact(scalar)
        except ValueError:
            raise ValueError(f"scalar {scalar!r} is not a finite "
                             "rational") from None
        return SphereFunction({k: scalar * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, SphereFunction):
            return NotImplemented
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0) + v1 * v2
        return SphereFunction(out)

    def partial(self, axis):
        out = {}
        for key, v in self.coeffs.items():
            if key[axis]:
                k = list(key)
                k[axis] -= 1
                out[tuple(k)] = out.get(tuple(k), 0) + v * key[axis]
        return SphereFunction(out)

    def __eq__(self, other):
        return isinstance(other, SphereFunction) and \
            self.coeffs == other.coeffs

    def __repr__(self):
        return f"SphereFunction({self.coeffs})"


def _exponent_key(key):
    """``key`` as a tuple of three non-negative Python ints.  Such a
    tuple, as every product, partial or sum builds, is returned at once;
    any other key is converted, bools and numpy ints to ints."""
    if type(key) is tuple and len(key) == 3:
        a, b, c = key
        if type(a) is type(b) is type(c) is int and \
                a >= 0 and b >= 0 and c >= 0:
            return key
    try:
        key = tuple(key)
        out = tuple(int(k) for k in key)
        ok = len(out) == 3 and min(out) >= 0 and out == key
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"exponent key {key!r} is not three non-negative "
                         "integers")
    return out


def hamiltonian_field(f: SphereFunction):
    """Field with contraction against the symplectic form equal to -df.

    With the 2*pi-normalized form on the radius-1/2 sphere this is simply
    X_f(p) = p x grad f(p); constants give the zero field.  The field
    takes points (N, 3) or a ``PowerTable`` of them.
    """

    def field(points):
        table = PowerTable.of(points)
        return np.cross(table.points, f.gradient(table))

    return field


def poisson(f: SphereFunction, g: SphereFunction) -> SphereFunction:
    """Poisson bracket {f, g} = det[p, grad f, grad g], exact."""
    fx, fy, fz = (f.partial(i) for i in range(3))
    gx, gy, gz = (g.partial(i) for i in range(3))
    x, y, z = (SphereFunction.coordinate(n) for n in "xyz")
    return (x * (fy * gz - fz * gy) + y * (fz * gx - fx * gz)
            + z * (fx * gy - fy * gx))


def pairing_integrals(pairs, quad: QuadratureSpec) -> list:
    """<f, g> = integral of f(x) * g(x) against the symplectic form, for
    each pair (f, g), in one stacked pass: one ``IntegralResult`` per
    pair (``forms.sphere_products``)."""
    return sphere_products(fubini_study_form(), "CP1", pairs, quad)


def symplectic_cocycle(f: SphereFunction, g: SphereFunction,
                       h: SphereFunction,
                       quad: QuadratureSpec) -> IntegralResult:
    """(3/pi^3) * the integral of f {g, h} over the sphere and its estimate.

    On the coordinate functions this evaluates to 1/(2 pi^2), the
    normalization that makes the associated cocycle integral against the
    fundamental class an integer multiple."""
    [res] = pairing_integrals([(f, poisson(g, h))], quad)
    k = 3.0 / np.pi ** 3
    return IntegralResult(k * res.value, k * res.error_estimate)
