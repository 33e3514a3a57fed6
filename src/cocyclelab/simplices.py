"""Geodesic and chart-based simplices built by iterated joins.

The degree-n simplex on vertices (g_0, ..., g_n) is defined recursively:
the point with barycentric coordinates ((1-s) u, s) is the join of the
degree-(n-1) simplex at u with g_n at parameter s.  Faces of the result
therefore agree exactly with the simplices of the face tuples, and the
construction commutes with the left group action.

Two join flavours are provided: great-circle arcs on a unit sphere, and
chart arcs ``x * exp(s * log(x^{-1} y))`` in SU(2).  Both join kernels
always push tangents forward, so a simplex yields its exact derivatives
along the cube coordinates together with its points.

A map is its grid jet ``evaluate_grid_jet(axes, block)``, which yields
(points, tangents) blocks; ``evaluate`` and ``evaluate_cube`` take its
points, and its faces are faces of the cube (see ``quadrature``).

``join_rows`` is the one simplex evaluator.  It takes one vertex tuple per
tensor grid of cube coordinates.  Join k reads only the first k
coordinates, so it runs once per distinct prefix of them: the
sum-factorization of tensor-product spectral methods in collapsed
coordinates (Orszag, J. Comput. Phys. 37, 1980; Karniadakis and Sherwin,
Spectral/hp Element Methods for CFD, 2nd ed., OUP 2005, ch. 3-4).
``join_grids`` passes it one grid per simplex and quadrature panel, the
way ``pullback_integral`` evaluates a simplex and a stack of simplices
(the faces of a batch of coboundaries) is evaluated.  A row evaluation is
the case of one node per axis per row.

The prism homotopy is one product cell: the chart join, at the cell's last
coordinate, from a map to its straightening.  The same sum-factorization
applies: on a grid, the map, its straightening and the log half of the
chart join (``groups._chart_log``) run once per distinct base point, and
only the exp half (``groups._chart_exp``) on every node.

``in_open_hemisphere`` decides well-conditioned sets of at most d+1
points by one linear solve, and every other set by an exact subset loop.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DegenerateConfig, IndexOut
from .groups import (CHART_RADIUS, UnitQuaternion, _chart_exp,
                     _chart_join_jet, _chart_log, _qconj, _qmul, _slerp_jet)
from .quadrature import _grid_nodes, bary_to_cube, cube_to_bary_jet

_HULL_TOL = 1e-9  # residual and weight tolerance of in_open_hemisphere
# in_open_hemisphere decides at most d+1 points by one test when the
# smallest singular value of their matrix exceeds this.  It is far above
# _HULL_TOL: no subset of up to d such points comes within _HULL_TOL of
# holding the origin, and for d+1 points the subset loop could only
# disagree where the origin lies within about _HULL_TOL / _RANK_TOL of
# the hull's boundary
_RANK_TOL = 1e-6


def face(i, vertices):
    """Drop entry i of an ordered tuple; degree-0 tuples have no faces."""
    t = tuple(vertices)
    n = len(t) - 1
    if n == 0:
        raise IndexOut("a single-entry tuple has no faces")
    if not 0 <= i <= n:
        raise IndexOut(f"face index {i} out of range for degree {n}")
    return t[:i] + t[i + 1:]


def all_faces(vertices):
    """Signed face list [(+1, d_0 t), (-1, d_1 t), ...]."""
    t = tuple(vertices)
    return [((-1) ** i, face(i, t)) for i in range(len(t))]


def is_chart_small(vertices, radius=CHART_RADIUS):
    """True when all relative differences g_i^{-1} g_j stay within ``radius``
    of the identity in the log chart.  Left-translation invariant."""
    if not 0 < radius < np.pi:
        raise ValueError("radius must lie in (0, pi)")
    qs = [g.vec for g in vertices]
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            d = _qmul(_qconj(qs[i]), qs[j])
            if np.arctan2(np.linalg.norm(d[1:]), d[0]) >= radius:
                return False
    return True


def in_open_hemisphere(points):
    """True when some u has <u, x_i> > 0 for every point, i.e. when the
    origin lies outside the convex hull; a zero vector answers False.

    At most d+1 nonzero points whose matrix has its smallest singular value
    above ``_RANK_TOL`` are decided by one test (Gordan's alternative:
    either some u has <u, x_i> > 0 for all i, or the origin is a convex
    combination of the x_i).  Up to d linearly independent points always
    pass; d+1 points with an invertible system [x_i, 1]^T lam = e_{d+1} pass
    unless its one solution has lam >= -``_HULL_TOL``.  Every other set (a
    zero vector, a rank-deficient set, more than d+1 points) goes through
    ``_origin_in_hull``'s exact subset loop."""
    pts = np.array([np.asarray(p, dtype=float) for p in points])
    if pts.ndim != 2:
        raise ValueError("expected a list of coordinate vectors")
    m, d = pts.shape
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    unit = np.divide(pts, norms, out=np.zeros_like(pts), where=norms > 0)
    aug = np.hstack([unit, np.ones((m, 1))])  # rows [x_i, 1]
    if m <= d + 1 and np.all(norms > 0):
        square = m == d + 1
        if np.linalg.svd(aug if square else unit,
                         compute_uv=False)[-1] > _RANK_TOL:
            if not square:
                return True
            lam = np.linalg.solve(aug.T, np.eye(d + 1)[d])
            return not lam.min() >= -_HULL_TOL
    return not _origin_in_hull(aug)


def _origin_in_hull(aug):
    """The subset loop: by Caratheodory's theorem the origin lies in the
    convex hull of the normalized points x_i, given as rows [x_i, 1] of
    ``aug``, exactly when for some subset S of at most d+1 of them
    [S^T; 1] lam = e_{d+1} is solved by lam >= 0 within ``_HULL_TOL``.
    Independent S have unique weights, and a dependent S is covered by its
    independent subsets."""
    m, d = aug.shape[0], aug.shape[1] - 1
    rhs = np.eye(d + 1)[d]
    for k in range(1, min(m, d + 1) + 1):
        a = aug[np.array(list(combinations(range(m), k)))].transpose(0, 2, 1)
        lam = np.linalg.pinv(a) @ rhs
        resid = np.linalg.norm((a @ lam[..., None])[..., 0] - rhs, axis=1)
        if np.any((resid <= _HULL_TOL) & (lam.min(axis=1) >= -_HULL_TOL)):
            return True
    return False


def _repeat(a, m):
    """Each row of ``a`` m times in a row (bitwise copies)."""
    return a if m == 1 else np.repeat(a, m, axis=0)


def _fan_out(vertices, axes, k, lo, out, dout):
    """The arguments of join k on the m rows each that the rows lo,
    lo + 1, ... of join k-1, points ``out`` and tangents ``dout``, fan out
    to.  Join k-1 has m^(k-1) rows per grid, and the i-th copy of a row
    takes node i of its grid's axis k.  With one node per axis every
    argument is a view."""
    m = axes.shape[2]
    per_grid = m ** (k - 1)
    # the grids first..end-1 hold the rows, the first of them at ``skip``
    first, end = lo // per_grid, -(-(lo + len(out)) // per_grid)
    skip = lo - first * per_grid
    tips = _repeat(vertices[first:end, k], per_grid)[skip:skip + len(out)]
    s = _repeat(axes[first:end, k - 1], per_grid)[skip:skip + len(out)]
    return _repeat(out, m), _repeat(dout, m), _repeat(tips, m), s.reshape(-1)


def join_rows(kind, vertices, axes, block):
    """The iterated joins of one vertex tuple per tensor grid of cube
    coordinates, in blocks of rows.

    ``vertices`` (R, n+1, d) holds the tuple of each of R grids and
    ``axes`` (R, n, m) the m nodes of each of its n cube axes; grid r's
    nodes are the product of ``axes[r]``, lexicographic with the last axis
    fastest, and its rows follow grid r - 1's.  Join k reads only the
    first k coordinates, so it runs once per distinct prefix, on R m^k
    rows, and ``np.repeat`` copies each of its rows m times for join k+1.
    The last join runs in blocks of at most ``block`` rows (at least m):
    the generator yields each block's points (B, d) and tangents
    (B, n, d).

    This is the one simplex evaluator.  ``evaluate_cube`` passes a
    simplex's own vertices with one node per axis per row (m = 1); a
    stack of simplices passes a grid per simplex and quadrature panel (see
    ``forms.stacked_pullback_integral``).  Every join acts row by row, so
    a row's values do not depend on the other rows, and a node's values
    are bitwise the same on a grid as on a row of its own."""
    n, m = axes.shape[1:]
    join = _slerp_jet if kind == "spherical" else _chart_join_jet
    out = vertices[:, 0]
    dout = np.zeros((len(vertices), 0, vertices.shape[2]))
    for k in range(1, n):
        out, dout = join(*_fan_out(vertices, axes, k, 0, out, dout))
    step = max(block // m, 1)
    for lo in range(0, len(out) or 1, step):
        yield join(*_fan_out(vertices, axes, n, lo, out[lo:lo + step],
                             dout[lo:lo + step]))


def join_grids(kind, varr, axes, block):
    """The jets of S simplices, vertex tuples ``varr`` (S, n+1, d), on each
    of P tensor grids ``axes`` (P, n, m): ``join_rows`` on the S P grids,
    simplex-major, in chunks of grids that keep the next-to-last join
    within ``block`` rows.  Yields points (B, d) and tangents (B, n, d) in
    blocks of at most ``block`` rows (at least m), in that order."""
    panels, n, m = axes.shape
    grids = len(varr) * panels
    chunk = max(block // m ** (n - 1), 1)
    for first in range(0, grids, chunk):
        g = np.arange(first, min(first + chunk, grids))
        yield from join_rows(kind, varr[g // panels], axes[g % panels], block)


def _evaluate(self, bary):
    """Points at barycentric coordinates (N, degree+1): ``evaluate_cube``
    after ``bary_to_cube``."""
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    if bary.shape[1] != self.degree + 1:
        raise ValueError(f"expected {self.degree + 1} barycentric coordinates")
    return self.evaluate_cube(bary_to_cube(bary))


def _evaluate_cube(self, s):
    """Points at iterated-cone cube coordinates (N, degree), where the map
    is smooth up to the boundary: the grid jet's, one node per row."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    if s.shape[1] != self.degree:
        raise ValueError(f"expected {self.degree} cube coordinates")
    return next(self.evaluate_grid_jet(s[:, :, None], len(s)))[0]


def _node_blocks(axes, n, block):
    """The nodes (B, n) of the tensor grids ``axes`` (P, n, m), grid after
    grid, in blocks of at most ``block`` rows."""
    size = len(axes) * axes.shape[2] ** n
    for lo in range(0, size, block):
        yield _grid_nodes(axes, np.arange(lo, min(lo + block, size)))


class ParametrizedMap:
    """A smooth map from the standard n-simplex, given by its grid jet.

    ``evaluate_grid_jet(axes, block)`` is ``grid_jet`` itself: it yields
    points (B, d) and tangents (B, n, d) along the cube coordinates at the
    nodes of the tensor grids ``axes`` (P, n, m), grid after grid, each
    lexicographic with the last axis fastest, in blocks of at most
    ``block`` rows, so the map can share work across a grid.
    """

    # bench/tracing.py wraps these through each class's own __dict__
    evaluate = _evaluate
    evaluate_cube = _evaluate_cube

    def __init__(self, degree, grid_jet):
        self.degree = degree
        self.evaluate_grid_jet = grid_jet

    @classmethod
    def from_barycentric(cls, degree, jet):
        """The map of ``jet(bary, dbary)``, which takes barycentric
        coordinates (N, n+1) that move with tangents ``dbary`` (N, m, n+1)
        and returns the points with their tangents (N, m, d).  Its grid jet
        runs ``jet`` on the grids' nodes, row by row, through
        ``cube_to_bary_jet``."""

        def grid_jet(axes, block):
            for s in _node_blocks(axes, degree, block):
                eye = np.broadcast_to(np.eye(degree),
                                      (len(s), degree, degree))
                yield jet(*cube_to_bary_jet(s, eye))

        return cls(degree, grid_jet)

    def corner_vertices(self):
        """Images of the barycentric corners, as quaternions."""
        pts = self.evaluate(np.eye(self.degree + 1))
        return tuple(UnitQuaternion(p) for p in pts)

    def face(self, i):
        """Face i as a map of degree n-1: the cube face s_i = 0 for i >= 1,
        s_1 = 1 for i = 0, with the other coordinates in order (see
        ``quadrature``).  It evaluates this map on its own nodes with that
        coordinate inserted, row by row, and drops that tangent column."""
        if self.degree == 0:
            raise IndexOut("a degree-0 map has no faces")
        if not 0 <= i <= self.degree:
            raise IndexOut(f"face index {i} out of range")
        col, value = max(i - 1, 0), float(i == 0)

        def grid_jet(axes, block):
            for s in _node_blocks(axes, self.degree - 1, block):
                s = np.insert(s, col, value, axis=1)
                x, dx = next(self.evaluate_grid_jet(s[:, :, None], len(s)))
                yield x, np.delete(dx, col, axis=1)

        return ParametrizedMap(self.degree - 1, grid_jet)


class GeodesicSimplex:
    """Iterated-join simplex on an ordered vertex tuple.

    ``kind`` is "spherical" (vertices are points of a unit sphere, joins
    are great-circle arcs) or "chart" (vertices are SU(2) elements, joins
    run through the log chart).  Degeneracy is detected lazily at
    evaluation points.  ``varr`` (n+1, d) holds the vertex coordinates the
    joins start from: normalized for a spherical simplex.
    """

    evaluate = _evaluate
    evaluate_cube = _evaluate_cube

    def __init__(self, vertices, kind):
        if kind not in ("spherical", "chart"):
            raise ValueError(f"unknown simplex kind {kind!r}")
        self.kind = kind
        self.vertices = tuple(vertices)
        self.degree = len(self.vertices) - 1
        if kind == "chart":
            if not all(isinstance(v, UnitQuaternion) for v in self.vertices):
                raise TypeError("chart simplices take UnitQuaternion vertices")
            if not is_chart_small(self.vertices):
                raise DegenerateConfig(
                    f"vertex tuple exceeds the chart radius {CHART_RADIUS}")
            self.varr = np.array([v.vec for v in self.vertices])
        else:
            arr = []
            for v in self.vertices:
                vec = v.vec if isinstance(v, UnitQuaternion) else \
                    np.asarray(v, dtype=float)
                arr.append(vec / np.linalg.norm(vec))
            self.varr = np.array(arr)

    def evaluate_grid_jet(self, axes, block):
        """Points and exact tangents at the nodes of the tensor grids
        ``axes`` (P, degree, m), in blocks of at most ``block`` rows;
        ``tangents[:, k]`` is d/ds_{k+1}.  This is ``join_grids`` on this
        simplex alone, so join k runs once per distinct prefix of k cube
        coordinates; each join pushes the tangents of the face point
        forward and adds its own derivative along its parameter
        (forward-mode differentiation)."""
        return join_grids(self.kind, self.varr[None], axes, block)

    def face(self, i):
        return GeodesicSimplex(face(i, self.vertices), self.kind)

    def corner_vertices(self):
        return self.vertices


def straighten(f) -> GeodesicSimplex:
    """Replace a parametrized simplex by the chart simplex on its vertices."""
    verts = f.corner_vertices()
    if not is_chart_small(verts):
        raise DegenerateConfig("vertex tuple of f is not chart-small")
    return GeodesicSimplex(verts, "chart")


def _whole(blocks):
    """The points and tangents of a block generator, each concatenated."""
    points, tangents = zip(*blocks)
    return np.concatenate(points), np.concatenate(tangents)


def prism_cell(f) -> ParametrizedMap:
    """The join homotopy from f to straighten(f) as one (n+1)-map on the
    product cell Delta^n x [0, 1], for a degree-n input.

    At cube coordinates (u, t), with u the first n, the point is the chart
    join at t from f(u) to straighten(f)(u); the join appends the tangent
    along t as the last column.  On a tensor grid the nodes of each u come
    in a row, one per node of the t axis, so f, straighten(f) and the
    parameter-free half of the join (``_chart_log``) run once per distinct
    u, on the grids of the first n axes, and only ``_chart_exp`` runs on
    the (u, t) rows.  The cell carries the orientation of the triangulated
    prism sum_j (-1)^j [(v_0,0)...(v_j,0),(v_j,1)...(v_n,1)], whose n+1
    simplices it integrates as one.
    """
    strf = straighten(f)
    n = f.degree

    def grid_jet(axes, block):
        a, da = _whole(f.evaluate_grid_jet(axes[:, :n], block))
        b, db = _whole(strf.evaluate_grid_jet(axes[:, :n], block))
        z, dz = _chart_log(a, da, b, db)
        m = axes.shape[2]
        # u-row r is a node of grid r // m^n, and its m (u, t) rows follow
        # each other, one per node of that grid's t axis
        t = axes[np.arange(len(a)) // m ** n, n]
        step = max(block // m, 1)
        for lo in range(0, len(a), step):
            rows = slice(lo, lo + step)
            yield _chart_exp(*(np.repeat(v[rows], m, axis=0)
                               for v in (a, da, z, dz)),
                             t[rows].reshape(-1))

    return ParametrizedMap(n + 1, grid_jet)
