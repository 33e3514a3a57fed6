"""Hamiltonian calculus on the radius-1/2 sphere model of the projective
line.

Functions are ambient polynomials with exact rational coefficients; their
gradients are analytic, so Hamiltonian fields and Poisson brackets have
closed forms (the bracket of two polynomials is again a polynomial, via
the ambient determinant identity {f,g} = det[p, grad f, grad g]).
Integrals run over the icosahedral atlas.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .forms import DifferentialForm, sphere_integral, symplectic_form_value
from .quadrature import QuadratureSpec

SPHERE_RADIUS = 0.5


class SphereFunction:
    """Polynomial in the ambient coordinates (x, y, z), restricted to the
    radius-1/2 sphere.  Coefficients are exact Fractions keyed by exponent
    triples."""

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for key, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0:
                self.coeffs[tuple(int(k) for k in key)] = \
                    self.coeffs.get(tuple(key), 0) + c
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

    def evaluate(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(p.shape[0])
        for (a, b, c), coeff in self.coeffs.items():
            out += float(coeff) * p[:, 0] ** a * p[:, 1] ** b * p[:, 2] ** c
        return out

    def gradient(self, points):
        return np.stack([self.partial(axis).evaluate(points)
                         for axis in range(3)], axis=1)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return SphereFunction(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return SphereFunction({k: Fraction(scalar) * v
                               for k, v in self.coeffs.items()})

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


def hamiltonian_field(f: SphereFunction):
    """Field with contraction against the symplectic form equal to -df.

    With the 2*pi-normalized form on the radius-1/2 sphere this is simply
    X_f(p) = p x grad f(p); constants give the zero field.
    """

    def field(points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.cross(p, f.gradient(p))

    return field


def poisson(f: SphereFunction, g: SphereFunction) -> SphereFunction:
    """Poisson bracket {f, g} = det[p, grad f, grad g], exact."""
    fx, fy, fz = (f.partial(i) for i in range(3))
    gx, gy, gz = (g.partial(i) for i in range(3))
    x, y, z = (SphereFunction.coordinate(n) for n in "xyz")
    return (x * (fy * gz - fz * gy) + y * (fz * gx - fx * gz)
            + z * (fx * gy - fy * gx))


def function_integral(f: SphereFunction,
                      quad: QuadratureSpec | None = None):
    """Integral of f against the symplectic area 2-form, with estimate."""
    quad = quad or QuadratureSpec(order=8, tol=1e-6)

    def ev(p, t):
        return f.evaluate(p) * symplectic_form_value(p, t[:, 0], t[:, 1])

    return sphere_integral(DifferentialForm(2, "CP1", ev), "CP1", quad)


def pairing_integral(f: SphereFunction, g: SphereFunction,
                     quad: QuadratureSpec | None = None) -> float:
    """<f, g> = integral of f*g against the symplectic form."""
    return function_integral(f * g, quad).value


def symplectic_cocycle(f: SphereFunction, g: SphereFunction,
                       h: SphereFunction,
                       quad: QuadratureSpec | None = None) -> float:
    """(3/pi^3) * integral of f {g, h} over the sphere.

    On the coordinate functions this evaluates to 1/(2 pi^2), the
    normalization that makes the associated cocycle integral against the
    fundamental class an integer multiple."""
    return 3.0 / np.pi ** 3 * pairing_integral(f, poisson(g, h), quad)
