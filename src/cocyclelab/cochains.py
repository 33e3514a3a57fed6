"""Homogeneous cochain calculus on group tuples.

A homogeneous cochain assigns a number mod a lattice to (n+1)-tuples of
group elements, subject to a domain guard.  The geometric cochains
integrate an invariant form over the iterated-join simplex attached to a
tuple; finite-group cochains carry exact values, Python ints where they
are integral and Fractions only where a denominator is not 1 (``exact``).

Every operation that evaluates a cochain on chains goes through
``signed_sums``: a coboundary on its tuples' faces, a Kronecker pairing
on its chain's terms, a transfer on its tuples' coset moves and the
derivation map (``lie.cochain_derivative``) on its corners.  All the
tuples go to one ``HomogeneousCochain.with_errors`` call, where every
guard runs first, in order, and an integrated cochain integrates all the
simplices in one stacked join pass (``forms.pullback_integral``); each
list of signed tuples is then summed in order.  A guard checks a tuple
and builds the evaluator's item for it in one pass: ``guard(t)`` returns
the item, an integrated cochain's the tuple's ``GeodesicSimplex``, or a
false value outside the domain.  Every evaluator takes a list of items
and returns a (value, estimate) pair per item, so one tuple is a list of
one.  Every value and estimate is bitwise that of integrating each
simplex on its own.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import BadOrder, DegenerateConfig, DomainGuard, NotNormal
from .forms import DifferentialForm, pullback_integral, sphere_integral, \
    vol_form
from .groups import (QUAT_ONE, Rotation, UnitQuaternion, _qconj, _qmul,
                     apply_rotation)
from .quadrature import IntegralResult, QuadratureSpec
from .simplices import GeodesicSimplex, all_faces, in_open_hemisphere


def exact(value):
    """``value`` as an exact rational: ``Fraction(value)``, returned as
    its numerator, a Python int, when its denominator is 1.  Anything that
    is not a finite rational (an infinity, a NaN, None) raises ValueError
    naming it."""
    if type(value) is int:
        return value
    try:
        f = Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{value!r} is not a finite rational") from None
    return int(f.numerator) if f.denominator == 1 else f


def _reduced(value, est, lattice):
    """``value`` reduced to its representative in [0, lattice) (lattice 0
    means none), and ``est`` plus the rounding of that reduction: u *
    lattice (u = eps / 2) for a float and a nonzero lattice, whose
    representative is rounded once.  An int or Fraction value already in
    [0, lattice) is returned as it is when ``value % lattice`` would keep
    its type: for an int lattice, or a Fraction value and lattice."""
    if not lattice:
        return value, est
    if isinstance(value, float):
        return value % lattice, est + np.finfo(float).eps / 2 * lattice
    kind = type(value)
    if (kind is int or kind is Fraction) and type(lattice) in (int, kind) \
            and 0 <= value < lattice:
        return value, est
    return value % lattice, est


def circle_distance(a, b):
    """Distance between a and b on the circle R / Z; exact for exact
    arguments."""
    d = (a - b) % 1
    return min(d, 1 - d)


class HomogeneousCochain:
    """Function on (n+1)-tuples of group elements, valued in R mod lattice.

    ``guard(t)`` returns the item the evaluator takes for the tuple ``t``,
    or a false value outside the domain; without a guard the item is ``t``.
    ``evaluator(items)`` takes a nonempty list of items and returns a
    (value, error_estimate) pair per item, in order; an exact cochain
    gives the estimate 0.0.
    """

    def __init__(self, degree, lattice, evaluator, guard=None, label=""):
        self.degree = degree
        self.lattice = lattice
        self._evaluator = evaluator
        self._guard = guard
        self.label = label

    def admissible(self, t):
        return tuple(t) if self._guard is None else self._guard(tuple(t))

    def _checked(self, t):
        """The evaluator's item for ``t``; raises unless ``t`` has the
        cochain's length and passes its guard."""
        t = tuple(t)
        if len(t) != self.degree + 1:
            raise ValueError(
                f"degree-{self.degree} cochain takes {self.degree + 1}-tuples")
        item = self.admissible(t)
        if not item:
            raise DomainGuard(
                f"tuple outside the domain of cochain {self.label!r}")
        return item

    def with_errors(self, tuples):
        """``with_error`` of each tuple.  Every tuple is checked first, in
        order, so the first inadmissible one raises DomainGuard before any
        is evaluated; the evaluator then takes all their items at once,
        which an empty list does not reach."""
        items = [self._checked(t) for t in tuples]
        values = self._evaluator(items) if items else []
        return [_reduced(v, e, self.lattice) for v, e in values]

    def with_error(self, t):
        """Reduced value together with an accumulated error estimate, which
        includes the rounding of the reduction (``_reduced``)."""
        return self.with_errors([t])[0]

    def __call__(self, t):
        return self.with_error(t)[0]


def signed_sums(f: HomogeneousCochain, rows) -> list:
    """The (total, estimate) of each row of ``(coefficient, tuple)`` pairs:
    sum_i c_i f(t_i) over the reduced values of f, with the estimate
    sum_i |c_i| e_i.  The tuples of all the rows go to one
    ``f.with_errors`` call, so each passes f's guard once, in order, and
    the first outside f's domain raises DomainGuard before any is
    evaluated; each row is then summed in order from the int 0, which
    keeps int and Fraction values exact."""
    values = iter(f.with_errors([t for row in rows for _, t in row]))
    out = []
    for row in rows:
        total, est = 0, 0.0
        for (coeff, _), (v, e) in zip(row, values):
            if type(coeff) is int and (coeff == 1 or coeff == -1):
                # bitwise total + coeff * v, without the multiply
                total = total + v if coeff == 1 else total - v
                est += e
            else:
                total = total + coeff * v
                est += abs(coeff) * e
        out.append((total, est))
    return out


def coboundary(f: HomogeneousCochain) -> HomogeneousCochain:
    """Alternating face sum: (df)(t) = sum_i (-1)^i f(d_i t), a cochain
    whose evaluator is the ``signed_sums`` of the faces of all the tuples
    it is given."""

    def evaluator(tuples):
        return signed_sums(f, [all_faces(t) for t in tuples])

    return HomogeneousCochain(f.degree + 1, f.lattice, evaluator,
                              label=f"d({f.label})")


def generic_rotation(seed=0x5EED) -> Rotation:
    """Fixed pseudorandom element of SO(4), used to move the base point of
    the evaluation map off degenerate configurations."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Rotation(q)


def integrated_cochain(form: DifferentialForm, kind: str,
                       quad: QuadratureSpec,
                       base_point: UnitQuaternion = QUAT_ONE
                       ) -> HomogeneousCochain:
    """Cochain t -> integral of the form over the simplex filled on t.

    ``kind`` is "spherical" (tuples of 4x4 rotations, projected to the
    sphere through the base point, guarded by the open-hemisphere test,
    values in R/Z) or "chart" (tuples in SU(2), guarded by
    chart-smallness, values in R: lattice 0).  The guard returns the
    tuple's ``GeodesicSimplex``, so each entry is projected once, and a
    chart simplex checks chart-smallness once, in its constructor, whose
    ``DegenerateConfig`` means "not admissible".
    """
    if kind == "spherical":

        def guard(t):
            points = [apply_rotation(g, base_point) for g in t]
            if in_open_hemisphere([p.vec for p in points]):
                return GeodesicSimplex(points, "spherical")
            return None

        label, lattice = "spherical", 1.0
    elif kind == "chart":

        def guard(t):
            try:
                return GeodesicSimplex(t, "chart")
            except DegenerateConfig:
                return None

        label, lattice = "chart", 0
    else:
        raise ValueError(f"unknown cochain kind {kind!r}")

    def evaluator(simplices):
        return [(res.value, res.error_estimate) for res in
                pullback_integral(form, simplices, quad)]

    return HomogeneousCochain(form.degree, lattice, evaluator, guard=guard,
                              label=f"{label}({form.ambient})")


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


def kronecker_pair(f: HomogeneousCochain, chain, embed=None) -> IntegralResult:
    """Evaluation pairing sum_t coeff(t) * f(embed(t)), as an
    ``IntegralResult``: the sum reduced mod f's lattice, and its estimate.

    ``chain`` is a HomogeneousChain; ``embed`` maps a tuple entry to a
    group element in the domain of f.  The terms are one row of
    ``signed_sums``: every term passes f's guard before any is evaluated,
    and the first that fails raises DomainGuard naming the chain's tuple.
    The estimate adds the rounding of each term's reduction and of the
    total's (``_reduced``).
    """
    terms = chain.items()
    row = [(coeff, t if embed is None else tuple(embed(a) for a in t))
           for t, coeff in terms]
    try:
        [(total, est)] = signed_sums(f, [row])
    except DomainGuard as exc:
        # name the chain's own tuple if a term fails f's guard; a
        # DomainGuard raised while evaluating passes through as it is
        for (t, _), (_, emb) in zip(terms, row):
            if not f.admissible(emb):
                raise DomainGuard(
                    f"inadmissible tuple {t} in pairing") from exc
        raise
    return IntegralResult(*_reduced(total, est, f.lattice))


def transfer(phi: HomogeneousCochain, gamma, subgroup) -> HomogeneousCochain:
    """Corestriction of a cochain on a finite-index normal subgroup.

    ``gamma`` is a finite group table and ``subgroup`` a list of its
    elements (``FiniteGroupTable.element``) forming a normal subgroup.
    The identity represents the subgroup, and the least element of each
    other right coset represents that coset.  The result restricted to
    subgroup tuples equals index * phi for conjugation-invariant phi.
    Its evaluator is the ``signed_sums`` of the moves of all the tuples
    it is given, with coefficient 1.
    """
    sub = {gamma.element(x, "subgroup entry") for x in subgroup}
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
    rep_of = {}
    for x in gamma.elements:
        if x not in rep_of:
            rep = gamma.identity if x in sub else x
            rep_of.update((gamma.mul(h, x), rep) for h in sub)
    reps = sorted(set(rep_of.values()))
    # moves[k][g] = (s_k g) rep(s_k g)^-1 for the k-th representative s_k
    moves = [[gamma.mul(sg, gamma.inv(rep_of[sg]))
              for sg in (gamma.mul(s, g) for g in gamma.elements)]
             for s in reps]

    def evaluator(tuples):
        return signed_sums(phi, [[(1, tuple(move[g] for g in t))
                                  for move in moves] for t in tuples])

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


def degree_of_map(map_fn, quad: QuadratureSpec) -> IntegralResult:
    """Mapping degree of a smooth map SU(2) -> S^3, given as a jet
    ``(x, dx) -> (y, dy)``, as the integral of the pulled-back normalized
    volume form."""
    return sphere_integral(vol_form(), "S3", quad, compose=map_fn)
