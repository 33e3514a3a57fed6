"""Invariant differential forms and integration of their pullbacks.

Forms are alternating evaluators ``(points, tangents) -> values`` acting on
batches.  Pullback integration hands a map the tensor grids of each rule
level, one per quadrature panel, and takes the points and exact tangents
at their nodes from its ``evaluate_grid_jet``, in blocks of nodes, so the
map can share work across a grid: a geodesic simplex runs each join once
per distinct prefix of cube coordinates, and a prism cell evaluates its
face, the straightening and the log of the chart join once per distinct
base point.  It projects the tangents onto the sphere and integrates in
iterated-cone cube coordinates with a tensor Gauss-Legendre rule,
estimating the error from two rule orders and the rounding of the sum.

``stacked_pullback_integral`` integrates one form over several geodesic
simplices of one kind in one join pass, the faces of a batch of
coboundaries or the terms of a pairing, and sums each simplex on its own.
It gives ``join_grids`` one tensor grid per simplex and quadrature panel.

Whole-sphere integrals use fixed atlases: the 16 orthant tetrahedra for
S^3, and the 20 icosahedral triangles for S^2 (scaled by 1/2 for the
projective-line model).

The 16 orthant cells are the positive orthant reflected by their vertex
signs, so one join pass on a rule level's grids gives every cell's jet.  A
factored form ``base.times(fn)`` is a function times a fixed form; its
whole-sphere integrals evaluate the atlas jets once per rule level and
process, not once per integral.  ``sphere_integral`` keeps, per (sphere,
base, rule order, depth), the density of ``base`` at every node of every
cell and the nodes' points, and multiplies by ``fn`` at those points.  The
values and estimates are bitwise those of integrating the form cell by
cell with ``pullback_integral``.
"""
from __future__ import annotations

import weakref
from functools import lru_cache, partial
from itertools import combinations, product

import numpy as np

from .groups import _perm_signs, _qconj, _qmul
from .quadrature import (IntegralResult, QuadratureSpec, _panel_axes,
                         _panel_rule, integrate_on_cube,
                         integrate_stack_on_cube)
from .simplices import GeodesicSimplex, ParametrizedMap, join_grids

# quadrature nodes per jet evaluation: the (N, n, d) tangents and the join
# kernels' temporaries scale with it, and one batch of 8000 nodes costs
# several MB of peak memory
_JET_CHUNK = 2048

# rows per block of stacked_pullback_integral: a chunk of grids has at
# most this many rows at its next-to-last join, and the last join and the
# form run in blocks of at most this many.  A face at order 6 has 36 and
# 64 rows per grid at its second join and 216 and 512 at its last, per
# rule level.  In process, cocycle-defect at 24 tuples and then cs-pairing
# peak at 38.9 MB with 512 rows, 39.2 MB with 1024, 40.1 MB with 2048 and
# 76.4 MB with no cap
_STACK_ROWS = 1024

# base form -> {(sphere, rule order, depth): (table, cells)}, filled by
# ``_atlas_density``; weak keys, so the entries of a base that is no
# longer referenced go with it
_DENSITY_CACHE = weakref.WeakKeyDictionary()


class DifferentialForm:
    """Degree-k alternating form field on a sphere or compact group.

    ``evaluator(points, tangents)`` takes points (N, d) and tangents
    (N, k, d) and returns values (N,).
    """

    def __init__(self, degree, ambient, evaluator):
        self.degree = degree
        self.ambient = ambient
        self._evaluator = evaluator
        self.factors = None

    def times(self, fn):
        """The form ``fn(p) * self(p, t)`` for a function ``fn`` of points
        (N, d) -> (N,), evaluated in that order.  It keeps
        ``factors = (fn, self)``, so ``sphere_integral`` can read the
        density of ``self`` from its cache; ``self`` should then be one
        object per process, such as ``fubini_study_form()``."""
        base = self._evaluator
        out = DifferentialForm(self.degree, self.ambient,
                               lambda p, t: fn(p) * base(p, t))
        out.factors = (fn, self)
        return out

    def evaluate(self, points, tangents):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        tangents = np.asarray(tangents, dtype=float)
        if tangents.ndim == 2:
            tangents = tangents[None, :, :]
        if tangents.shape[1] != self.degree:
            raise ValueError(
                f"form of degree {self.degree} got {tangents.shape[1]} "
                "tangent vectors")
        return self._evaluator(points, tangents)


def _det_rows(*rows):
    return np.linalg.det(np.stack(rows, axis=-2))


def vol_form(sphere: str, total: float) -> DifferentialForm:
    """Rotation-invariant top form on the unit sphere with the given total
    integral."""
    if total <= 0:
        raise ValueError("total must be positive")
    if sphere == "S3":
        factor = total / (2.0 * np.pi ** 2)

        def ev3(p, t):
            return factor * _det_rows(p, t[:, 0], t[:, 1], t[:, 2])

        return DifferentialForm(3, "S3", ev3)
    if sphere == "S2":
        factor = total / (4.0 * np.pi)

        def ev2(p, t):
            return factor * np.einsum(
                "ni,ni->n", p, np.cross(t[:, 0], t[:, 1]))

        return DifferentialForm(2, "S2", ev2)
    raise ValueError(f"unknown sphere {sphere!r}")


def symplectic_form_value(points, a, b):
    """The 2*pi-normalized symplectic form on tangent pairs at radius-1/2
    points: 4 <p, a x b>."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return 4.0 * np.einsum("ni,ni->n", p, np.cross(a, b))


@lru_cache(maxsize=None)
def fubini_study_form() -> DifferentialForm:
    """Symplectic 2-form on the radius-1/2 sphere model of the projective
    line, normalized to total integral 2*pi; one object per process, the
    base of ``function_integral``'s factored forms.

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


def _project_tangent(x, t):
    """Tangents t (N, k, d) at points x (N, d), projected to the sphere."""
    xhat = x / np.linalg.norm(x, axis=-1, keepdims=True)
    return t - np.einsum("nki,ni->nk", t, xhat)[..., None] * xhat[:, None]


def _offsets(blocks):
    """(first row, points, tangents) of each block of a jet."""
    lo = 0
    for x, tangents in blocks:
        yield lo, x, tangents
        lo += len(x)


def _densities(form, blocks, size):
    """The form on each block of (points, tangents), the tangents
    projected to the sphere, written in a row of ``size`` values."""
    out = np.empty(size)
    for lo, x, tangents in _offsets(blocks):
        out[lo:lo + len(x)] = form.evaluate(x, _project_tangent(x, tangents))
    return out


def pullback_integral(form: DifferentialForm, simplex,
                      quad: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of the form over a parametrized simplex.

    ``simplex`` is anything with ``degree`` and ``evaluate_grid_jet(axes,
    block)``, as ``GeodesicSimplex`` and ``ParametrizedMap`` provide: it
    takes the per-panel axes (P, degree, m) of a rule level and yields the
    points (B, d) and exact tangents (B, degree, d) at its nodes, in
    ``_panel_rule`` order, in blocks of at most ``_JET_CHUNK`` rows.  So a
    map can share work across the tensor grid of each panel: a geodesic
    simplex runs each join once per distinct prefix of cube coordinates,
    and a prism cell evaluates its face and straightening once per
    distinct base point.  The integral runs in cube coordinates with the
    tangents projected to the sphere.  The error estimate is the
    rule-order difference plus the rounding bound of the quadrature sum
    (``integrate_on_cube``)."""
    quad = quad or QuadratureSpec()
    n = simplex.degree
    if form.degree != n:
        raise ValueError(
            f"form degree {form.degree} != simplex degree {n}")

    def integrand(s, axes):
        return _densities(form, simplex.evaluate_grid_jet(axes, _JET_CHUNK),
                          s.shape[0])

    return integrate_on_cube(integrand, n, quad)


def stacked_pullback_integral(form: DifferentialForm, simplices,
                              quad: QuadratureSpec | None = None) -> list:
    """``pullback_integral`` of one form over each of several
    ``GeodesicSimplex`` of one kind and degree, in one join pass.

    Each simplex meets each panel of a rule level as one tensor grid of
    ``join_grids``, so join k runs once per distinct prefix of k cube
    coordinates.  The grids are simplex-major, so the rows of the pass are
    too: row r is simplex r // N at cube node r % N of the N nodes of a
    rule level.  A chunk of grids has at most ``_STACK_ROWS`` rows at the
    next-to-last join, and the last join and the form run in blocks of at
    most ``_STACK_ROWS`` rows.  Each simplex's values are then summed on
    their own (``integrate_stack_on_cube``).  The joins act row by row, so
    for a form that does too, as every form of this module does, each
    result is bitwise the one ``pullback_integral`` gives for that
    simplex.  Raises QuadratureDiverged for the first simplex whose rule
    orders disagree."""
    quad = quad or QuadratureSpec()
    kind, n = simplices[0].kind, simplices[0].degree
    if any(sx.kind != kind or sx.degree != n for sx in simplices):
        raise ValueError("a stack takes simplices of one kind and degree")
    if form.degree != n:
        raise ValueError(
            f"form degree {form.degree} != simplex degree {n}")
    varr = np.stack([sx.varr for sx in simplices])

    def integrand(s, axes):
        return _densities(form, join_grids(kind, varr, axes, _STACK_ROWS),
                          len(varr) * s.shape[0]).reshape(len(varr), -1)

    return integrate_stack_on_cube(integrand, n, quad)


@lru_cache(maxsize=None)
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


def _half_scale(simplex, axes, block):
    """The grid jet of a simplex on the unit sphere, scaled to the
    radius-1/2 model of the projective line."""
    for x, dx in simplex.evaluate_grid_jet(axes, block):
        yield 0.5 * x, 0.5 * dx


@lru_cache(maxsize=None)
def sphere_atlas(sphere: str):
    """Fixed list of (sign, cell) covering the sphere once.

    Signs encode the orientation of the cell's own parametrization against
    the global orientation (standard basis order).
    """
    if sphere == "S3":
        cells = []
        for signs in sorted(product((1.0, -1.0), repeat=4)):
            verts = [s * e for s, e in zip(signs, np.eye(4))]
            cells.append((int(np.prod(signs)),
                          GeodesicSimplex(verts, "spherical")))
        return tuple(cells)
    if sphere in ("S2", "CP1"):
        verts, faces = _icosahedron_faces()
        cells = []
        for tri in faces:
            cell = GeodesicSimplex([verts[t] for t in tri], "spherical")
            if sphere == "CP1":
                cell = ParametrizedMap(2, partial(_half_scale, cell))
            cells.append((1, cell))
        return tuple(cells)
    raise ValueError(f"unknown sphere {sphere!r}")


@lru_cache(maxsize=None)
def _orthant_signs():
    """The vertex signs (16, 4) of the S^3 atlas cells, in atlas order, and
    the index of the positive orthant: the cell with signs ``sg`` is
    diag(sg) applied to it."""
    signs = np.array([np.sum(cell.vertices, axis=0)
                      for _, cell in sphere_atlas("S3")])
    signs.setflags(write=False)
    return signs, int(np.flatnonzero(np.all(signs > 0, axis=1))[0])


def _atlas_jets(sphere, axes):
    """Each atlas cell's points (B, d) and tangents (B, n, d) at the nodes
    of the rule level with per-panel axes ``axes``, in blocks of at most
    ``_JET_CHUNK`` nodes, as (cell index, first node, points, tangents).

    On S^3 the positive orthant's grid jet is evaluated once, and per block
    the cell with vertex signs ``sg``, diag(sg) applied to that orthant,
    gets ``sg *`` it, cell after cell in atlas order.  The joins treat
    every coordinate alike, so these are the cell's own points, bitwise,
    and its own tangents up to the sign of zero entries (a join's 0 - 0 is
    +0.0 whatever the signs); the forms of this package give bitwise the
    densities of the cell's own jet.  The CP1 and S2 cells have no bitwise
    symmetry, and each evaluates its own grid jet, one cell after the
    other."""
    if sphere != "S3":
        for i, (_, cell) in enumerate(sphere_atlas(sphere)):
            for lo, x, dx in _offsets(cell.evaluate_grid_jet(axes,
                                                             _JET_CHUNK)):
                yield i, lo, x, dx
        return
    signs, positive = _orthant_signs()
    orthant = sphere_atlas("S3")[positive][1]
    for lo, x, dx in _offsets(orthant.evaluate_grid_jet(axes, _JET_CHUNK)):
        for i, sg in enumerate(signs):
            yield i, lo, sg * x, sg * dx


def _atlas_density(sphere, base, order, depth):
    """``(table, cells)`` at the nodes of one rule level of the atlas.

    ``cells`` holds, per atlas cell, ``(signs, points, density)``:
    ``density`` (N,) is ``base`` on the cell's jet from ``_atlas_jets``
    with the tangents projected.  On CP1 ``points`` (N, 3) are the cell's
    and ``table`` is None.  On S^3 ``points`` is None: the points of the
    orthant cell with vertex signs ``signs`` are ``signs * table``,
    bitwise, where ``table`` holds those of the positive orthant, so one
    table serves all 16 cells.  Built once per (sphere, base, order,
    depth) and kept in ``_DENSITY_CACHE``; the arrays are read-only,
    because every later integral reads them."""
    levels = _DENSITY_CACHE.setdefault(base, {})
    key = (sphere, order, depth)
    if key in levels:
        return levels[key]
    atlas = sphere_atlas(sphere)
    n = atlas[0][1].degree
    signs, positive = (None,) * len(atlas), None
    if sphere == "S3":
        signs, positive = _orthant_signs()
    density = np.empty((len(atlas), len(_panel_rule(n, order, depth)[0])))
    kept = [[] for _ in atlas]
    for i, lo, x, tangents in _atlas_jets(sphere,
                                          _panel_axes(n, order, depth)):
        density[i, lo:lo + len(x)] = base.evaluate(
            x, _project_tangent(x, tangents))
        if positive in (None, i):
            kept[i].append(x)
    points = [np.concatenate(chunks) if chunks else None for chunks in kept]
    for a in points + [density]:
        if a is not None:
            a.setflags(write=False)
    table = None
    if positive is not None:
        table, points = points[positive], (None,) * len(atlas)
    levels[key] = (table, tuple(zip(signs, points, density)))
    return levels[key]


def _cached_values(fn, base, sphere, quad):
    """``values(s, axes)``: the integrand of ``base.times(fn)`` at the
    nodes ``s`` of a rule level, as (cell index, first node, values) per
    cell and chunk of ``_JET_CHUNK`` nodes, reading the points and the
    density of ``base`` from ``_atlas_density``."""
    # the two rule levels differ in their node counts
    levels = {}
    for order in quad.orders:
        table, cells = _atlas_density(sphere, base, order, quad.depth)
        levels[cells[0][2].shape[0]] = table, cells

    def values(s, _):
        table, cells = levels[s.shape[0]]
        for lo in range(0, s.shape[0], _JET_CHUNK):
            hi = lo + _JET_CHUNK
            for i, (signs, points, density) in enumerate(cells):
                x = points[lo:hi] if table is None else signs * table[lo:hi]
                yield i, lo, fn(x) * density[lo:hi]

    return values


def sphere_integral(form: DifferentialForm, sphere: str,
                    quad: QuadratureSpec | None = None,
                    compose=None) -> IntegralResult:
    """Integral over the whole sphere via the fixed simplex atlas.

    ``compose`` optionally post-composes every atlas cell with a self-map
    of the sphere given as a jet on coordinate batches: ``compose(x, dx)``
    returns the image points (N, d) and the images (N, m, d) of tangents
    ``dx`` (N, m, d).  The integral is then that of the form's pullback
    under the map.

    The atlas cells are the rows of one ``integrate_stack_on_cube``.  Its
    integrand fills them in blocks of at most ``_JET_CHUNK`` nodes, and
    calls the form (and ``compose``) once per cell and block.  Without
    ``compose``, a factored form (``base.times(fn)``) reads the atlas
    points and the density of its base from a per-process cache (see
    ``_atlas_density``); otherwise the cells' jets come from
    ``_atlas_jets`` on the rule level's grids, which on S^3 reflects one
    join pass into all 16 cells.  Each cell is summed on its own, so the
    value, the estimate and ``QuadratureDiverged`` are bitwise those of
    ``pullback_integral`` cell by cell, summed in atlas order."""
    quad = quad or QuadratureSpec()
    atlas = sphere_atlas(sphere)
    if compose is None and form.factors is not None:
        values = _cached_values(*form.factors, sphere, quad)
    else:
        def values(_, axes):
            for i, lo, x, tangents in _atlas_jets(sphere, axes):
                if compose is not None:
                    x, tangents = compose(x, tangents)
                yield i, lo, form.evaluate(x, _project_tangent(x, tangents))

    def integrand(s, axes):
        out = np.empty((len(atlas), s.shape[0]))
        for i, lo, v in values(s, axes):
            out[i, lo:lo + len(v)] = v
        return out

    total = 0.0
    est = 0.0
    results = integrate_stack_on_cube(integrand, atlas[0][1].degree, quad)
    for (sign, _), res in zip(atlas, results):
        total += sign * res.value
        est += res.error_estimate
    return IntegralResult(value=total, error_estimate=est)
