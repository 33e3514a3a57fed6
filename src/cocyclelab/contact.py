"""Strict contact calculus on the unit 3-sphere.

The contact form is alpha_q(v) = <i q, v>; its Reeb field is q -> i q,
whose orbits are the Hopf fibers (period 2*pi), and d(alpha) is the
pullback of the symplectic form on the quotient sphere.  Functions pulled
back through the Hopf map have contact Hamiltonian fields equal to the
horizontal lift of the downstairs field plus the function times the Reeb
field; both ingredients are analytic here because the Hopf differential
is an explicit coisometry.  Every contact function is such a pullback of a
polynomial, so fields and brackets need no finite differences.  The
``contact`` suite checks the field's defining identities: alpha(X_f) = f,
X_f is tangent to the sphere, and the field of the constant 1 is the Reeb
field.  ``contact_pairings`` integrates all pairs of a check in one pass
of ``forms.sphere_products``, and the 3-cocycle of one triple is its
one-pair call.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .forms import DifferentialForm, PowerTable, sphere_products
from .groups import QUAT_I, _qmul, hopf_arr, hopf_jacobian
from .hamiltonian import SphereFunction, hamiltonian_field, poisson
from .quadrature import IntegralResult, QuadratureSpec, gauss_legendre_circle


def reeb_field():
    """The field q -> i q; alpha(R) = 1 and dalpha(R, .) = 0."""

    def field(points):
        return _qmul(QUAT_I.vec,
                     np.atleast_2d(np.asarray(points, dtype=float)))

    return field


def alpha_value(points, tangents):
    """alpha_q(v) = <i q, v> on batches."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.atleast_2d(np.asarray(tangents, dtype=float))
    return np.einsum("ni,ni->n", _qmul(QUAT_I.vec, p), v)


def dalpha_value(u, v):
    """d(alpha) = 2 (dw^dx + dy^dz) evaluated on two tangent batches."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    return 2.0 * ((u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
                  + (u[:, 2] * v[:, 3] - u[:, 3] * v[:, 2]))


def volume_density(points, t1, t2, t3):
    """mu = alpha ^ d(alpha) on three tangent batches, with i q computed
    once."""
    iq = _qmul(QUAT_I.vec, points)

    def alpha(t):
        return np.einsum("ni,ni->n", iq, t)

    return (alpha(t1) * dalpha_value(t2, t3)
            - alpha(t2) * dalpha_value(t1, t3)
            + alpha(t3) * dalpha_value(t1, t2))


@lru_cache(maxsize=None)
def contact_volume_form() -> DifferentialForm:
    """The 3-form alpha ^ d(alpha) on S^3 (``volume_density``); one object
    per process, the base of ``contact_pairings``' products."""

    def ev(p, t):
        return volume_density(p, t[:, 0], t[:, 1], t[:, 2])

    return DifferentialForm(3, "S3", ev)


class ContactFunction:
    """Reeb-invariant function on S^3, stored as a polynomial
    ``SphereFunction`` on the quotient sphere pulled back through the Hopf
    map; its contact field and brackets are therefore exact."""

    def __init__(self, base: SphereFunction):
        self.base = base

    def evaluate(self, points):
        return self.base.evaluate(hopf_arr(points))

    def __repr__(self):
        return f"ContactFunction({self.base!r})"


def pullback(f: SphereFunction) -> ContactFunction:
    """The invariant function on S^3 induced by one downstairs."""
    return ContactFunction(f)


def contact_field(f: ContactFunction):
    """Unique field X with alpha(X) = f and contraction of d(alpha) equal
    to -df: the horizontal lift of the downstairs Hamiltonian field plus
    f times the Reeb field.  The base and its gradient share one power
    table of the Hopf images."""
    base = f.base
    downstairs = hamiltonian_field(base)

    def field(points):
        q = np.atleast_2d(np.asarray(points, dtype=float))
        p = PowerTable.of(hopf_arr(q))
        lift = np.einsum("nkj,nk->nj", hopf_jacobian(q), downstairs(p))
        return lift + base.evaluate(p)[:, None] * _qmul(QUAT_I.vec, q)

    return field


def contact_bracket(f: ContactFunction, g: ContactFunction
                    ) -> ContactFunction:
    """{f, g} = d(alpha)(X_f, X_g), which for pulled-back functions is the
    pullback of the downstairs Poisson bracket, computed exactly."""
    return ContactFunction(poisson(f.base, g.base))


def fiber_period(seed=5) -> float:
    """Line integral of alpha along one Hopf fiber through a seeded point."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)

    def integrand(thetas):
        u = np.stack([np.cos(thetas), np.sin(thetas),
                      np.zeros_like(thetas), np.zeros_like(thetas)], axis=1)
        pts = _qmul(u, np.broadcast_to(q, u.shape))
        vel = _qmul(QUAT_I.vec, pts)
        return alpha_value(pts, vel)

    return gauss_legendre_circle(integrand)


def contact_cocycle(f: ContactFunction, g: ContactFunction,
                    h: ContactFunction,
                    quad: QuadratureSpec) -> IntegralResult:
    """(3/pi^3) * integral over S^3 of f {g, h} against alpha ^ d(alpha),
    with the pairing's estimate scaled alike."""
    [res] = contact_pairings([(f, contact_bracket(g, h))], quad)
    k = 3.0 / np.pi ** 3
    return IntegralResult(k * res.value, k * res.error_estimate)


def contact_pairings(pairs, quad: QuadratureSpec) -> list:
    """<f, g> = integral of f*g against alpha ^ d(alpha) for each pair of
    ``ContactFunction``, one ``IntegralResult`` per pair:
    ``forms.sphere_products`` of their bases on power tables of the Hopf
    images, one per block of each orthant cell, shared by every factor of
    every pair."""
    return sphere_products(
        contact_volume_form(), "S3", [(f.base, g.base) for f, g in pairs],
        quad, lift=hopf_arr)

