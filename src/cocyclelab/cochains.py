"""Homogeneous cochain calculus on group tuples.

A homogeneous cochain assigns a number mod a lattice to (n+1)-tuples of
group elements, subject to a domain guard.  The geometric cochains
integrate an invariant form over the iterated-join simplex attached to a
tuple; finite-group cochains carry exact values, Python ints where they
are integral and Fractions only where a denominator is not 1 (``exact``).

Coboundaries and pairings evaluate their tuples together through
``HomogeneousCochain.with_errors``: every guard runs first, in order, and
an integrated cochain then integrates all the simplices in one stacked
join pass (``forms.stacked_pullback_integral``).  A coboundary is a
stacked cochain itself: its ``with_errors`` hands the faces of all its
tuples, a whole cocycle-defect batch, to one ``with_errors`` call of the
cochain, and then sums each tuple's faces in order.  Every value and
estimate is bitwise that of integrating each simplex on its own.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import BadOrder, BadReps, DomainGuard, NotNormal
from .forms import DifferentialForm, sphere_integral, \
    stacked_pullback_integral, vol_form
from .groups import (QUAT_ONE, Rotation, UnitQuaternion, _qconj, _qmul,
                     apply_rotation)
from .quadrature import QuadratureSpec
from .simplices import (GeodesicSimplex, all_faces, in_open_hemisphere,
                        is_chart_small)


def exact(value):
    """``value`` as an exact rational: ``Fraction(value)``, returned as
    its numerator, a Python int, when its denominator is 1."""
    if type(value) is int:
        return value
    f = Fraction(value)
    return int(f.numerator) if f.denominator == 1 else f


def reduce_mod(value, lattice):
    """Representative of ``value`` in [0, lattice); lattice 0 means none."""
    if lattice == 0:
        return value
    return value % lattice


def circle_distance(a, b, lattice=1.0):
    """Distance between a and b on the circle R / lattice*Z."""
    if lattice == 0:
        return abs(a - b)
    d = (a - b) % lattice
    return min(d, lattice - d)


class HomogeneousCochain:
    """Function on (n+1)-tuples of group elements, valued in R mod lattice.

    ``evaluator(t)`` may return a number or a (value, error_estimate)
    pair; ``guard(t)`` decides which tuples are admissible.  With
    ``stacked`` true, ``evaluator`` takes a list of admissible tuples at
    once and returns a (value, error_estimate) pair per tuple.
    """

    def __init__(self, degree, lattice, evaluator, guard=None, label="",
                 stacked=False):
        self.degree = degree
        self.lattice = lattice
        self._evaluator = evaluator
        self._guard = guard
        self._stacked = stacked
        self.label = label

    def admissible(self, t):
        return True if self._guard is None else bool(self._guard(tuple(t)))

    def _checked(self, t):
        """``t`` as a tuple; raises unless it has the cochain's length and
        passes its guard."""
        t = tuple(t)
        if len(t) != self.degree + 1:
            raise ValueError(
                f"degree-{self.degree} cochain takes {self.degree + 1}-tuples")
        if not self.admissible(t):
            raise DomainGuard(
                f"tuple outside the domain of cochain {self.label!r}")
        return t

    def _values(self, tuples):
        """Unreduced (value, error_estimate) of each checked tuple.  A
        stacked evaluator takes them all in one call, which an empty list
        does not reach."""
        if self._stacked and tuples:
            return self._evaluator(tuples)
        return [self._value(t) for t in tuples]

    def _value(self, t):
        out = self._evaluator([t])[0] if self._stacked else self._evaluator(t)
        return out if isinstance(out, tuple) else (out, 0.0)

    def with_errors(self, tuples):
        """``with_error`` of each tuple.  Every tuple is checked first, in
        order, so the first inadmissible one raises DomainGuard before any
        is evaluated; a stacked evaluator then takes them all at once."""
        tuples = [self._checked(t) for t in tuples]
        return [(reduce_mod(value, self.lattice), est)
                for value, est in self._values(tuples)]

    def with_error(self, t):
        """Reduced value together with an accumulated error estimate."""
        value, est = self._value(self._checked(t))
        return reduce_mod(value, self.lattice), est

    def __call__(self, t):
        return self.with_error(t)[0]


def coboundary(f: HomogeneousCochain) -> HomogeneousCochain:
    """Alternating face sum: (df)(t) = sum_i (-1)^i f(d_i t), a stacked
    cochain.  The faces of all the tuples it is given go to one
    ``f.with_errors`` call, so each passes f's guard once, in order, and
    the first outside f's domain raises DomainGuard before any is
    evaluated; each tuple's faces are then summed in order."""

    def evaluator(tuples):
        faces = [all_faces(t) for t in tuples]
        values = iter(f.with_errors(
            [face_t for signed in faces for _, face_t in signed]))
        out = []
        for signed in faces:
            total, est = 0, 0.0  # int start keeps int and Fraction exact
            for (sign, _), (v, e) in zip(signed, values):
                total = total + sign * v
                est += e
            out.append((total, est))
        return out

    return HomogeneousCochain(f.degree + 1, f.lattice, evaluator,
                              label=f"d({f.label})", stacked=True)


def generic_rotation(seed=0x5EED) -> Rotation:
    """Fixed pseudorandom element of SO(4), used to move the base point of
    the evaluation map off degenerate configurations."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Rotation(q)


def integrated_cochain(form: DifferentialForm, kind: str, lattice,
                       base_point: UnitQuaternion = QUAT_ONE,
                       quad: QuadratureSpec | None = None
                       ) -> HomogeneousCochain:
    """Cochain t -> integral of the form over the simplex filled on t.

    ``kind`` is "spherical" (tuples of 4x4 rotations, projected to the
    sphere through the base point, guarded by the open-hemisphere test) or
    "chart" (tuples in SU(2), guarded by chart-smallness).
    """
    quad = quad or QuadratureSpec()

    def integrals(simplices):
        return [(res.value, res.error_estimate) for res in
                stacked_pullback_integral(form, simplices, quad)]

    if kind == "spherical":

        def guard(t):
            return in_open_hemisphere(
                [apply_rotation(g, base_point).vec for g in t])

        def evaluator(tuples):
            return integrals([GeodesicSimplex(
                [apply_rotation(g, base_point) for g in t], "spherical")
                for t in tuples])

        label = "spherical"
    elif kind == "chart":
        guard = is_chart_small

        def evaluator(tuples):
            return integrals([GeodesicSimplex(t, "chart") for t in tuples])

        label = "chart"
    else:
        raise ValueError(f"unknown cochain kind {kind!r}")
    return HomogeneousCochain(form.degree, lattice, evaluator, guard=guard,
                              label=f"{label}({form.ambient})", stacked=True)


class HomogeneousChain:
    """Finitely supported integer combination of same-length tuples."""

    def __init__(self, terms=()):
        self.terms = {}
        for coeff, t in terms:
            self.add(coeff, t)

    def add(self, coeff, t):
        t = tuple(t)
        c = self.terms.get(t, 0) + coeff
        if c == 0:
            self.terms.pop(t, None)
        else:
            self.terms[t] = c
        return self

    def items(self):
        return sorted(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def boundary(self):
        out = HomogeneousChain()
        for t, c in self.terms.items():
            for sign, face_t in all_faces(t):
                out.add(sign * c, face_t)
        return out


def cyclic_cycle(m: int) -> HomogeneousChain:
    """The degree-3 chain sum_{i=1..m} (0, 1, i, i+1) with entries mod m.

    Its boundary vanishes after normalizing each face tuple to start at 0
    (the coinvariant reduction for the additive group Z/m).
    """
    if m < 2:
        raise BadOrder(f"cyclic order must be >= 2, got {m}")
    return HomogeneousChain(
        (1, (0, 1, i % m, (i + 1) % m)) for i in range(1, m + 1))


def kronecker_pair(f: HomogeneousCochain, chain, embed=None,
                   with_error=False):
    """Evaluation pairing sum_t coeff(t) * f(embed(t)).

    ``chain`` is a HomogeneousChain; ``embed`` maps a tuple entry to a
    group element in the domain of f.  Every term passes f's guard before
    any is evaluated, and the first that fails raises DomainGuard naming
    it; the terms are then evaluated together, like the faces of a
    coboundary, and summed in order.
    """
    terms = chain.items()
    checked = []
    for t, _ in terms:
        emb = t if embed is None else tuple(embed(a) for a in t)
        try:
            checked.append(f._checked(emb))
        except DomainGuard as exc:
            raise DomainGuard(f"inadmissible tuple {t} in pairing") from exc
    total, est = 0, 0.0
    for (_, coeff), (v, e) in zip(terms, f._values(checked)):
        total = total + coeff * reduce_mod(v, f.lattice)
        est += abs(coeff) * e
    total = reduce_mod(total, f.lattice)
    return (total, est) if with_error else total


def transfer(phi: HomogeneousCochain, gamma, subgroup, reps
             ) -> HomogeneousCochain:
    """Corestriction of a cochain on a finite-index normal subgroup.

    ``gamma`` is a finite group table, ``subgroup`` a list of its element
    indices forming a normal subgroup, ``reps`` right-coset
    representatives containing the identity.  The result restricted to
    subgroup tuples equals index * phi for conjugation-invariant phi.
    """
    sub = set(subgroup)
    if gamma.identity not in sub:
        raise NotNormal("subgroup must contain the identity")
    for g in sub:
        if gamma.inv(g) not in sub:
            raise NotNormal(f"inverse of {g} leaves the subgroup")
        for h in sub:
            if gamma.mul(g, h) not in sub:
                raise NotNormal(f"product {g}*{h} leaves the subgroup")
        for x in gamma.elements:
            if gamma.mul(gamma.mul(x, g), gamma.inv(x)) not in sub:
                raise NotNormal(f"conjugate of {g} by {x} leaves the subgroup")
    if gamma.identity not in reps:
        raise BadReps("representatives must contain the identity")
    rep_of = {}
    for x in gamma.elements:
        hits = [t for t in reps if gamma.mul(x, gamma.inv(t)) in sub]
        if len(hits) != 1:
            raise BadReps(f"element {x} lies in {len(hits)} cosets of reps")
        rep_of[x] = hits[0]

    def evaluator(t):
        total, est = 0, 0.0
        for s in reps:
            arg = []
            for g in t:
                sg = gamma.mul(s, g)
                arg.append(gamma.mul(sg, gamma.inv(rep_of[sg])))
            v, e = phi.with_error(tuple(arg))
            total = total + v
            est += e
        return total, est

    return HomogeneousCochain(phi.degree, phi.lattice, evaluator,
                              label=f"transfer({phi.label})")


def conjugate_point_map(base: UnitQuaternion = QUAT_ONE):
    """Self-map of S^3 sending q to q * base * q^{-1} (null-homotopic),
    as a jet ``(x, dx) -> (y, dy)`` on batches (see ``sphere_integral``)."""
    b = base.vec

    def jet(x, dx):
        conj = _qconj(x)
        y = _qmul(_qmul(x, np.broadcast_to(b, x.shape)), conj)
        # dy = dx b x^{-1} + x b dx^{-1}, the second term written as
        # conj(dx b^{-1} x^{-1}): for a real base the two products agree
        # and dy stays exactly real, as y does
        left = _qmul(dx, _qmul(np.broadcast_to(b, x.shape), conj)[:, None])
        right = _qmul(dx, _qmul(np.broadcast_to(_qconj(b), x.shape),
                                conj)[:, None])
        return y, left + _qconj(right)

    return jet


def twisted_square_map(base: UnitQuaternion = QUAT_ONE):
    """Self-map of S^3 sending q to q * base * q (mapping degree 2), as a
    jet ``(x, dx) -> (y, dy)`` on batches (see ``sphere_integral``)."""
    b = base.vec

    def jet(x, dx):
        xb = _qmul(x, np.broadcast_to(b, x.shape))
        y = _qmul(xb, x)
        # dy = dx (b x) + (x b) dx
        bx = _qmul(np.broadcast_to(b, x.shape), x)
        return y, _qmul(dx, bx[:, None]) + _qmul(xb[:, None], dx)

    return jet


def degree_of_map(map_fn, quad: QuadratureSpec | None = None):
    """Mapping degree of a smooth map SU(2) -> S^3, given as a jet
    ``(x, dx) -> (y, dy)``, as the integral of the pulled-back normalized
    volume form."""
    quad = quad or QuadratureSpec(order=10, tol=1e-4)
    res = sphere_integral(vol_form("S3", 1.0), "S3", quad, compose=map_fn)
    return res.value
