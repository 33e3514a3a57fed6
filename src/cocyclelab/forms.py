"""Invariant differential forms and integration of their pullbacks.

Forms are alternating evaluators ``(points, tangents) -> values`` acting on
batches.  Pullback integration hands a map the tensor grids of each rule
level, one per quadrature panel, and takes the points and exact tangents
at their nodes from its ``evaluate_grid_jet``, in blocks of at most
``simplices._BLOCK_ROWS`` nodes, so the map can share work across a
grid: a geodesic simplex runs each join once per distinct prefix of cube
coordinates, and a prism cell evaluates its face, the straightening and
the head of the chart join once per distinct base point.  It integrates in
iterated-cone cube coordinates with a tensor Gauss-Legendre rule,
estimating the error from two rule orders and the rounding of the sum.

Every form reads the jet's tangents as given.  The jets are tangent to
the sphere up to rounding, and every form here annihilates the radial
direction: the S^3 volume form is det(p, ...), the symplectic form
4 <p, a x b>, alpha ^ d(alpha) has alpha(p) = 0 and d(alpha)(p, .) =
2 alpha, and in Tr(w^3) and the covector the real part of p^-1 t cancels
or is not read.

``pullback_integral`` integrates one form over a list of maps of one
degree and sums each map on its own.  Geodesic simplices of one kind, the
faces of a batch of coboundaries or the terms of a pairing, go through
one join pass: ``join_grids`` gets one tensor grid per simplex and
quadrature panel.  Any other list, such as a prism check's map, its
straightening and its prism cells, is evaluated map after map.

The S^3 volume form takes each 4x4 determinant by the Laplace expansion in
the 2x2 minors of its first two rows and of its last two (``_det_rows``).

Whole-sphere integrals use fixed atlases: the 16 orthant tetrahedra for
S^3, and for the projective line CP1 the 20 icosahedral triangles of S^2
scaled by 1/2 to its radius-1/2 sphere model.

``sphere_products`` is the one integrator over an atlas: it integrates
products of polynomials against a form ``base``.  ``_atlas_density``
keeps, per (sphere, base, rule order, depth), one ``(signs, points,
density)`` per cell: the density of ``base`` at every node of the cell,
whose points are ``signs * points``.  The 16 orthant cells are the
positive orthant reflected by their vertex signs, so one join pass on a
rule level's grids gives every cell's jet, and the cells share that
orthant's points with their own signs; each CP1 cell keeps its own points,
with signs 1.0.  Every factor of every product of a call is evaluated on
one ``PowerTable`` per block of each cell's points, the powers
``points[:, axis] ** e`` grown lazily to the highest exponent asked for.
``sphere_integral`` is its empty product against one form, or against the
form's pullback under a self-map of the sphere, a base that lives for that
one call.
"""
from __future__ import annotations

import math
import weakref
from functools import lru_cache, partial
from itertools import combinations, product

import numpy as np

from . import simplices as _simplices
from .groups import _perm_signs, _qconj, _qmul
from .quadrature import (IntegralResult, QuadratureSpec, _rule_level,
                         integrate_on_cube)
from .simplices import GeodesicSimplex, ParametrizedMap, join_grids

# base form -> {(sphere, rule order, depth): cells}, filled by
# ``_atlas_density``; weak keys, so the entries of a base that is no
# longer referenced go with it
_DENSITY_CACHE = weakref.WeakKeyDictionary()

# the vertex signs (16, 4) of the S^3 atlas cells, in atlas order: the
# cell with signs ``sg`` is diag(sg) applied to the positive orthant, the
# last cell
_ORTHANT_SIGNS = np.array(sorted(product((1.0, -1.0), repeat=4)))
_ORTHANT_SIGNS.setflags(write=False)


class PowerTable:
    """The powers ``points[:, axis] ** e`` of a point set (N, d), shared by
    every polynomial evaluated on it (``SphereFunction.evaluate``).

    Each power is computed with a scalar exponent, as ``points[:, axis]
    ** e`` is, and kept: ``powers(axis, top)`` grows an axis's table up to
    the highest exponent asked for."""

    def __init__(self, points):
        self.points = points
        self._powers = [np.empty((0, len(points)))] * points.shape[1]

    @classmethod
    def of(cls, points):
        """``points`` if it is a table, else a fresh table of the points
        (N, d) or of the one point (d,)."""
        if isinstance(points, cls):
            return points
        return cls(np.atleast_2d(np.asarray(points, dtype=float)))

    def powers(self, axis, top):
        """The (E, N) table of ``points[:, axis] ** e`` for e < E, with
        E > ``top``."""
        have = self._powers[axis]
        if len(have) <= top:
            grown = np.empty((top + 1, len(self.points)))
            grown[:len(have)] = have
            col = self.points[:, axis]
            for e in range(len(have), top + 1):
                grown[e] = col ** e
            grown.setflags(write=False)
            self._powers[axis] = have = grown
        return have


class DifferentialForm:
    """Degree-k alternating form field on a sphere or compact group.

    ``evaluator(points, tangents)`` takes points (N, d) and tangents
    (N, k, d) and returns values (N,).
    """

    def __init__(self, degree, ambient, evaluator):
        self.degree = degree
        self.ambient = ambient
        self._evaluator = evaluator

    def evaluate(self, points, tangents):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        tangents = np.asarray(tangents, dtype=float)
        if tangents.shape[1] != self.degree:
            raise ValueError(
                f"form of degree {self.degree} got {tangents.shape[1]} "
                "tangent vectors")
        return self._evaluator(points, tangents)


# the column pairs of the 2x2 minors; pair 5 - q is the complement of
# pair q, and the Laplace expansion of a 4x4 determinant along its first
# two rows gives the product of minors on pairs q and 5 - q this sign
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_SIGNS = (1.0, -1.0, 1.0, 1.0, -1.0, 1.0)


def _det_rows(p, a, b, c):
    """Determinants of the 4x4 matrices with rows p, a, b, c (each (N, 4)):
    the Laplace expansion by the 2x2 minors of rows (p, a) and (b, c)."""
    p, a, b, c = p.T, a.T, b.T, c.T
    upper = [p[i] * a[j] - p[j] * a[i] for i, j in _PAIRS]
    lower = [b[i] * c[j] - b[j] * c[i] for i, j in _PAIRS]
    return sum(sign * upper[q] * lower[5 - q]
               for q, sign in enumerate(_PAIR_SIGNS))


def vol_form() -> DifferentialForm:
    """Rotation-invariant volume form on the unit 3-sphere, normalized to
    total integral 1."""
    factor = 1.0 / (2.0 * np.pi ** 2)

    def ev(p, t):
        return factor * _det_rows(p, t[:, 0], t[:, 1], t[:, 2])

    return DifferentialForm(3, "S3", ev)


def symplectic_form_value(points, a, b):
    """The 2*pi-normalized symplectic form on tangent pairs at radius-1/2
    points: 4 <p, a x b>."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return 4.0 * np.einsum("ni,ni->n", p, np.cross(a, b))


@lru_cache(maxsize=None)
def fubini_study_form() -> DifferentialForm:
    """Symplectic 2-form on the radius-1/2 sphere model of the projective
    line, normalized to total integral 2*pi; one object per process, the
    base of ``pairing_integrals``' products.

    With this scaling the coordinate brackets come out as {x,y} = z etc.,
    and points satisfy x^2 + y^2 + z^2 = 1/4.
    """

    def ev(p, t):
        return symplectic_form_value(p, t[:, 0], t[:, 1])

    return DifferentialForm(2, "CP1", ev)


def mc3_form() -> DifferentialForm:
    """Bi-invariant 3-form (1/24 pi^2) Tr(w^3) on SU(2), where w is the
    Maurer-Cartan form.  Its total integral over SU(2) is -1 with the
    orientation fixed by the orthant atlas."""

    def ev(p, t):
        xi = [_qmul(_qconj(p), t[:, k]) for k in range(3)]
        total = np.zeros(p.shape[0])
        for perm, sgn in _perm_signs(3):
            prod3 = _qmul(_qmul(xi[perm[0]], xi[perm[1]]), xi[perm[2]])
            total += sgn * 2.0 * prod3[:, 0]  # trace of the 2-dim rep
        return total / (24.0 * np.pi ** 2)

    return DifferentialForm(3, "SU2", ev)


def _densities(form, blocks):
    """The form on each block of (points, tangents) of a jet, in one row."""
    return np.concatenate([form.evaluate(x, tangents)
                           for x, tangents in blocks])


def pullback_integral(form: DifferentialForm, maps,
                      quad: QuadratureSpec | None = None) -> list:
    """Integrals of the form over parametrized simplices of one degree:
    one ``IntegralResult`` per entry of ``maps``, in order.

    A map is anything with ``degree`` and ``evaluate_grid_jet(axes)``, as
    ``GeodesicSimplex`` and ``ParametrizedMap`` provide: it takes the
    per-panel axes (P, degree, m) of a rule level and yields the points
    (B, d) and exact tangents (B, degree, d) at its nodes, panel after
    panel, in blocks of rows.  So a map can share work across the tensor
    grid of each panel: a geodesic simplex runs each join once per
    distinct prefix of cube coordinates, and a prism cell evaluates its
    face and straightening once per distinct base point.

    When every map is a ``GeodesicSimplex`` of one kind, all of them go
    through one ``join_grids`` pass: each simplex meets each panel as one
    tensor grid, simplex-major, so row r is simplex r // N at cube node
    r % N of the N nodes of a rule level.  Otherwise each map's row comes
    from its own grid jet, after the previous row is summed.  Either way
    each map's values are summed on their own (``integrate_on_cube``): the
    joins act row by row, so for a form that does too, as every form of
    this module does, each result is bitwise that of the map alone.  The
    estimate is the rule-order difference plus the rounding bound of the
    sum.  Raises QuadratureDiverged for the first map, in list order,
    whose rule orders disagree."""
    quad = quad or QuadratureSpec()
    if not maps:
        return []
    n = maps[0].degree
    if any(f.degree != n for f in maps):
        raise ValueError("pullback_integral takes maps of one degree")
    if form.degree != n:
        raise ValueError(
            f"form degree {form.degree} != simplex degree {n}")
    if all(isinstance(f, GeodesicSimplex) and f.kind == maps[0].kind
           for f in maps):
        kind = maps[0].kind
        varr = np.stack([f.varr for f in maps])

        def integrand(axes):
            return _densities(form, join_grids(kind, varr, axes)).reshape(
                len(varr), -1)
    else:
        def integrand(axes):
            for f in maps:
                yield _densities(form, f.evaluate_grid_jet(axes))

    return integrate_on_cube(integrand, n, quad)


def _icosahedron_faces():
    """Vertices and outward-oriented faces of the unit icosahedron."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a, b in product((-1.0, 1.0), (-phi, phi)):
        verts.append((0.0, a, b))
        verts.append((a, b, 0.0))
        verts.append((b, 0.0, a))
    verts = np.array(sorted(verts))
    verts /= np.linalg.norm(verts[0])
    faces = []
    edge2 = 4.0 / (1.0 + phi ** 2)  # squared edge length after normalizing
    for i, j, k in combinations(range(12), 3):
        d2 = [np.sum((verts[a] - verts[b]) ** 2)
              for a, b in ((i, j), (j, k), (i, k))]
        if all(abs(d - edge2) < 1e-9 for d in d2):
            tri = [i, j, k]
            if np.linalg.det(verts[tri]) < 0:
                tri = [i, k, j]
            faces.append(tuple(tri))
    assert len(faces) == 20
    return verts, tuple(sorted(faces))


def _half_scale(simplex, axes):
    """The grid jet of a simplex on the unit sphere, scaled to the
    radius-1/2 model of the projective line."""
    for x, dx in simplex.evaluate_grid_jet(axes):
        yield 0.5 * x, 0.5 * dx


@lru_cache(maxsize=None)
def sphere_atlas(sphere: str):
    """Fixed list of (sign, cell) covering the sphere once.

    Signs encode the orientation of the cell's own parametrization against
    the global orientation (standard basis order).
    """
    if sphere == "S3":
        return tuple((int(np.prod(sg)), GeodesicSimplex(
            [s * e for s, e in zip(sg, np.eye(4))], "spherical"))
            for sg in _ORTHANT_SIGNS)
    if sphere == "CP1":
        verts, faces = _icosahedron_faces()
        return tuple(
            (1, ParametrizedMap(2, partial(_half_scale, GeodesicSimplex(
                [verts[t] for t in tri], "spherical"))))
            for tri in faces)
    raise ValueError(f"unknown sphere {sphere!r}")


def _atlas_density(sphere, base, order, depth):
    """The atlas cells' ``(signs, points, density)`` at the nodes of one
    rule level, in atlas order: the cell's points are ``signs * points``
    (N, d) and ``density`` (N,) is ``base`` on the cell's jet.

    One loop runs over the grid jets that cells share.  On S^3 the
    positive orthant's grid jet is evaluated once, and the cell with vertex
    signs ``signs``, diag(signs) applied to that orthant, gets ``signs *``
    it, so the 16 cells share one points array.  The joins treat every
    coordinate alike, so these are the cell's own points, bitwise, and its
    own tangents up to the sign of zero entries (a join's 0 - 0 is +0.0
    whatever the signs); the forms of this package give bitwise the
    densities of the cell's own jet.  The CP1 cells have no bitwise
    symmetry: each evaluates its own grid jet and keeps its own points,
    with ``signs`` 1.0.  Built once per (sphere, base, order, depth) and
    kept in ``_DENSITY_CACHE``; the arrays are read-only, because every
    later integral reads them."""
    levels = _DENSITY_CACHE.setdefault(base, {})
    key = (sphere, order, depth)
    if key in levels:
        return levels[key]
    atlas = sphere_atlas(sphere)
    axes = _rule_level(atlas[0][1].degree, order, depth)[0]
    if sphere == "S3":
        jets = [(atlas[-1][1], _ORTHANT_SIGNS)]
    else:
        jets = [(cell, (1.0,)) for _, cell in atlas]
    cells = []
    for cell, signs in jets:
        kept, values = [], [[] for _ in signs]
        for x, tangents in cell.evaluate_grid_jet(axes):
            kept.append(x)
            for chunks, sg in zip(values, signs):
                chunks.append(base.evaluate(sg * x, sg * tangents))
        points = np.concatenate(kept)
        points.setflags(write=False)
        for sg, chunks in zip(signs, values):
            density = np.concatenate(chunks)
            density.setflags(write=False)
            cells.append((sg, points, density))
    levels[key] = tuple(cells)
    return levels[key]


def sphere_products(base: DifferentialForm, sphere: str, products,
                    quad: QuadratureSpec | None = None, lift=None) -> list:
    """Whole-sphere integrals of products of polynomials against ``base``:
    one ``IntegralResult`` per entry of ``products``, a tuple of anything
    whose ``evaluate`` takes a ``PowerTable``, such as a ``SphereFunction``.
    An entry's integrand is its factors evaluated on one table and
    multiplied in order, times the density of ``base`` (``_atlas_density``,
    kept while ``base`` lives, so a base that serves many calls is one
    object per process, such as ``fubini_study_form()``).  The empty
    product ``()`` is the integral of ``base`` itself (``sphere_integral``).

    Each block of ``simplices._BLOCK_ROWS`` nodes of a cell gets one fresh
    table, which serves every factor of every entry, on the cell's points
    ``signs * points`` from ``_atlas_density``, passed through ``lift`` when
    one is given.  All entries and cells of a level are the rows of one
    ``integrate_on_cube``, yielded cell by cell; each entry's cells are
    summed on their own, then with their signs in atlas order.  So for the empty product the value, the
    estimate and ``QuadratureDiverged`` are bitwise those of
    ``pullback_integral`` over the atlas cells, summed in atlas order."""
    quad = quad or QuadratureSpec()
    if lift is not None and sphere != "S3":
        raise ValueError("only the S^3 atlas points take a lift")
    if not products:
        return []
    atlas, block = sphere_atlas(sphere), _simplices._BLOCK_ROWS

    def rows(axes):  # axes (P, n, order)
        cells = _atlas_density(sphere, base, axes.shape[2], quad.depth)
        # a row is summed before the next is asked for: cells share rows
        out = np.empty((len(products), len(cells[0][2])))
        for signs, points, density in cells:
            for lo in range(0, len(points), block):
                x = signs * points[lo:lo + block]
                powers = PowerTable(x if lift is None else lift(x))
                hi = lo + len(x)
                for row, factors in zip(out, products):
                    np.multiply(math.prod(fn.evaluate(powers)
                                          for fn in factors),
                                density[lo:hi], out=row[lo:hi])
            yield from out

    results = integrate_on_cube(rows, atlas[0][1].degree, quad)
    totals = []
    for e in range(len(products)):
        total = est = 0.0
        for (sign, _), res in zip(atlas, results[e::len(products)]):
            total += sign * res.value
            est += res.error_estimate
        totals.append(IntegralResult(value=total, error_estimate=est))
    return totals


def sphere_integral(form: DifferentialForm, sphere: str,
                    quad: QuadratureSpec | None = None,
                    compose=None) -> IntegralResult:
    """Integral over the whole sphere via the fixed simplex atlas: the
    empty product against ``form`` in ``sphere_products``, whose product
    ``math.prod(()) == 1`` leaves each density row bitwise as it is.

    ``compose`` optionally post-composes every atlas cell with a self-map
    of the sphere given as a jet on coordinate batches: ``compose(x, dx)``
    returns the image points (N, d) and the images (N, m, d) of tangents
    ``dx`` (N, m, d).  The integral is then that of the form's pullback
    under the map, which is the base the call passes instead; its
    densities leave ``_DENSITY_CACHE`` when the call returns."""
    if compose is not None:
        outer = form
        form = DifferentialForm(
            outer.degree, outer.ambient,
            lambda p, t: outer.evaluate(*compose(p, t)))
    return sphere_products(form, sphere, [()], quad)[0]
