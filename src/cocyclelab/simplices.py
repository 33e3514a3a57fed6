"""Geodesic and chart-based simplices built by iterated joins.

The degree-n simplex on vertices (g_0, ..., g_n) is defined recursively:
the point with barycentric coordinates ((1-s) u, s) is the join of the
degree-(n-1) simplex at u with g_n at parameter s.  Faces of the result
therefore agree exactly with the simplices of the face tuples, and the
construction commutes with the left group action.

Two join flavours are provided: great-circle arcs on a unit sphere, and
chart arcs ``x * exp(s * log(x^{-1} y))`` in SU(2).  Each join kernel is
a head, all that does not depend on the join parameter s, and a tail,
which takes s (``groups._slerp_head`` and ``_slerp_tail``,
``groups._chart_head`` and ``_chart_tail``).  Both always push tangents
forward, so a simplex yields its exact derivatives along the cube
coordinates together with its points.

A map is its grid jet ``evaluate_grid_jet(axes)``, which yields one or
more (points, tangents) blocks of at most ``_BLOCK_ROWS`` rows; ``evaluate``
and ``evaluate_cube`` take its points, and its faces are faces of the cube
(see ``quadrature``).

``join_rows`` is the one simplex evaluator.  It takes one vertex tuple per
tensor grid of cube coordinates.  Join k reads only the first k
coordinates, so it runs once per distinct prefix of them: the
sum-factorization of tensor-product spectral methods in collapsed
coordinates (Orszag, J. Comput. Phys. 37, 1980; Karniadakis and Sherwin,
Spectral/hp Element Methods for CFD, 2nd ed., OUP 2005, ch. 3-4).  Within
join k the head runs once per prefix of k-1 coordinates, and only the
tail on each of its m nodes.
``join_grids`` passes it one grid per simplex and quadrature panel, the
way ``pullback_integral`` evaluates a list of simplices of one kind (the
faces of a batch of coboundaries, or one simplex alone).  A row
evaluation is the case of one node per axis per row.

The prism homotopy is one product cell: the chart join, at the cell's last
coordinate, from a map to its straightening.  The same sum-factorization
applies: on a grid, the map, its straightening and the chart head run
once per distinct base point, and only the chart tail on every node.

``in_open_hemisphere`` decides well-conditioned sets of at most d+1
points by one linear solve, and every other set by an exact subset loop.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DegenerateConfig, IndexOut
from .groups import (CHART_RADIUS, UnitQuaternion, _chart_head, _chart_tail,
                     _qconj, _qmul, _slerp_head, _slerp_tail)
from .quadrature import _grid_nodes, bary_to_cube, cube_to_bary_jet

_HULL_TOL = 1e-9  # residual and weight tolerance of in_open_hemisphere
# in_open_hemisphere decides at most d+1 points by one test when the
# smallest singular value of their matrix exceeds this.  It is far above
# _HULL_TOL: no subset of up to d such points comes within _HULL_TOL of
# holding the origin, and for d+1 points the subset loop could only
# disagree where the origin lies within about _HULL_TOL / _RANK_TOL of
# the hull's boundary
_RANK_TOL = 1e-6

# rows per block of every grid jet, read at call time: the (B, n, d)
# tangents and the join kernels' temporaries scale with it
_BLOCK_ROWS = 2048


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
    """Signed face list [(+1, d_0 t), (-1, d_1 t), ...], [] for the empty
    tuple.  d_0 t goes through ``face``, so a single-entry tuple raises
    its error; the later faces are slices of the same tuple."""
    t = tuple(vertices)
    if not t:
        return []
    return [(1, face(0, t))] + [(1 - 2 * (i & 1), t[:i] + t[i + 1:])
                                for i in range(1, len(t))]


def is_chart_small(vertices):
    """True when all relative differences g_i^{-1} g_j stay within
    ``CHART_RADIUS`` of the identity in the log chart; left-invariant."""
    qs = np.array([g.vec for g in vertices]).reshape(-1, 4)
    i, j = np.triu_indices(len(qs), 1)
    d = _qmul(_qconj(qs[i]), qs[j])
    return bool(np.all(np.arctan2(np.linalg.norm(d[:, 1:], axis=-1),
                                  d[:, 0]) < CHART_RADIUS))


def in_open_hemisphere(points):
    """True when some u has <u, x_i> > 0 for every point, i.e. when the
    origin lies outside the convex hull; a zero vector answers False, and
    a point that is not finite raises ValueError.

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
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"point {i} must be finite, got {pts[i]!r}")
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


# each join kind as (head, tail): the head runs on the rows a join starts
# from, the tail on those rows' copies, one per value of the parameter
_JOINS = {"spherical": (_slerp_head, _slerp_tail),
          "chart": (_chart_head, _chart_tail)}


def _tail_blocks(tail, rows, s, m):
    """``tail`` on m copies of each row of the head's arrays ``rows``, at
    the parameters ``s`` of the copies, in one or more blocks of at most
    ``_BLOCK_ROWS`` rows (at least m)."""
    step = max(_BLOCK_ROWS // m, 1)
    for lo in range(0, len(rows[0]) or 1, step):
        yield tail(*(np.repeat(a[lo:lo + step], m, axis=0) for a in rows),
                   s[lo * m:(lo + step) * m])


def join_rows(kind, vertices, axes):
    """The iterated joins of one vertex tuple per tensor grid of cube
    coordinates, in blocks of rows.

    ``vertices`` (R, n+1, d) holds the tuple of each of R grids and
    ``axes`` (R, n, m) the m nodes of each of its n cube axes; grid r's
    nodes are the product of ``axes[r]``, lexicographic with the last axis
    fastest, and its rows follow grid r - 1's.  Join k reads only the
    first k coordinates, so it runs once per distinct prefix: its head,
    everything that does not depend on its parameter, on the R m^(k-1)
    rows of join k-1 and that grid's vertex k, and its tail, on each head
    row's m copies, one per node of axis k.  The last tail runs in one or
    more blocks of at most ``_BLOCK_ROWS`` rows (at least m): the
    generator yields each block's points (B, d) and tangents (B, n, d).  A
    degree-0 tuple is its point, one block.

    This is the one simplex evaluator.  ``evaluate_cube`` passes a
    simplex's own vertices with one node per axis per row (m = 1); a
    stack of simplices passes a grid per simplex and quadrature panel (see
    ``forms.pullback_integral``).  Every join acts row by row, so
    a row's values do not depend on the other rows, and a node's values
    are bitwise the same on a grid as on a row of its own."""
    n, m = axes.shape[1:]
    head, tail = _JOINS[kind]
    out = vertices[:, 0]
    dout = np.zeros((len(vertices), 0, vertices.shape[2]))
    if n == 0:
        yield out, dout
        return
    for k in range(1, n + 1):
        # head row p is a node of grid p // m^(k-1); its tail rows take
        # the nodes of that grid's axis k in turn
        per_grid = m ** (k - 1)
        rows = head(out, dout, np.repeat(vertices[:, k], per_grid, axis=0))
        s = np.repeat(axes[:, k - 1], per_grid, axis=0).reshape(-1)
        if k < n:
            out, dout = tail(*(np.repeat(a, m, axis=0) for a in rows), s)
    yield from _tail_blocks(tail, rows, s, m)


def join_grids(kind, varr, axes):
    """The jets of S simplices, vertex tuples ``varr`` (S, n+1, d), on each
    of P tensor grids ``axes`` (P, n, m): ``join_rows`` on the S P grids,
    simplex-major, in chunks of grids that keep the next-to-last join
    within ``_BLOCK_ROWS`` rows.  Yields points (B, d) and tangents
    (B, n, d) in one or more blocks of at most ``_BLOCK_ROWS`` rows (at
    least m), in that order."""
    panels, n, m = axes.shape
    grids = len(varr) * panels
    chunk = max(_BLOCK_ROWS // m ** max(n - 1, 0), 1)
    for first in range(0, grids or 1, chunk):
        g = np.arange(first, min(first + chunk, grids))
        yield from join_rows(kind, varr[g // panels], axes[g % panels])


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
    return _whole(self.evaluate_grid_jet(s[:, :, None]))[0]


def _whole(blocks):
    """The points and tangents of a block generator, each concatenated."""
    points, tangents = zip(*blocks)
    return np.concatenate(points), np.concatenate(tangents)


def _node_blocks(axes):
    """The nodes (B, n) of the tensor grids ``axes`` (P, n, m), grid after
    grid, in one or more blocks of at most ``_BLOCK_ROWS`` rows."""
    size = len(axes) * axes.shape[2] ** axes.shape[1]
    for lo in range(0, size or 1, _BLOCK_ROWS):
        yield _grid_nodes(axes, np.arange(lo, min(lo + _BLOCK_ROWS, size)))


class ParametrizedMap:
    """A smooth map from the standard n-simplex, given by its grid jet.

    ``evaluate_grid_jet(axes)`` is ``grid_jet`` itself: it yields points
    (B, d) and tangents (B, n, d) along the cube coordinates at the nodes
    of the tensor grids ``axes`` (P, n, m), grid after grid, each
    lexicographic with the last axis fastest, in one or more blocks of at
    most ``_BLOCK_ROWS`` rows, so the map can share work across a grid.
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

        def grid_jet(axes):
            for s in _node_blocks(axes):
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

        def grid_jet(axes):
            for s in _node_blocks(axes):
                s = np.insert(s, col, value, axis=1)
                x, dx = _whole(self.evaluate_grid_jet(s[:, :, None]))
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
            for i, v in enumerate(self.vertices):
                vec = v.vec if isinstance(v, UnitQuaternion) else \
                    np.asarray(v, dtype=float)
                norm = np.linalg.norm(vec)
                # a NaN norm fails this test too
                if not 0 < norm < np.inf:
                    raise ValueError(f"spherical vertex {i} must be finite "
                                     f"and nonzero, got {v!r}")
                arr.append(vec / norm)
            self.varr = np.array(arr)

    def evaluate_grid_jet(self, axes):
        """Points and exact tangents at the nodes of the tensor grids
        ``axes`` (P, degree, m), in blocks of at most ``_BLOCK_ROWS`` rows;
        ``tangents[:, k]`` is d/ds_{k+1}.  This is ``join_grids`` on this
        simplex alone, so join k runs once per distinct prefix of k cube
        coordinates; each join pushes the tangents of the face point
        forward and adds its own derivative along its parameter
        (forward-mode differentiation)."""
        return join_grids(self.kind, self.varr[None], axes)

    def face(self, i):
        return GeodesicSimplex(face(i, self.vertices), self.kind)

    def corner_vertices(self):
        return self.vertices


def straighten(f) -> GeodesicSimplex:
    """Replace a parametrized simplex by the chart simplex on its vertices."""
    return GeodesicSimplex(f.corner_vertices(), "chart")


def prism_cell(f) -> ParametrizedMap:
    """The join homotopy from f to straighten(f) as one (n+1)-map on the
    product cell Delta^n x [0, 1], for a degree-n input.

    At cube coordinates (u, t), with u the first n, the point is the chart
    join at t from f(u) to straighten(f)(u); the join appends the tangent
    along t as the last column.  On a tensor grid the nodes of each u come
    in a row, one per node of the t axis, so f, straighten(f) and the
    head of the join (``_chart_head``) run once per distinct u, on the
    grids of the first n axes, and only ``_chart_tail`` runs on the
    (u, t) rows.  The cell carries the orientation of the triangulated
    prism sum_j (-1)^j [(v_0,0)...(v_j,0),(v_j,1)...(v_n,1)], whose n+1
    simplices it integrates as one.
    """
    strf = straighten(f)
    n = f.degree

    def grid_jet(axes):
        a, da = _whole(f.evaluate_grid_jet(axes[:, :n]))
        b, db = _whole(strf.evaluate_grid_jet(axes[:, :n]))
        m = axes.shape[2]
        # u-row r is a node of grid r // m^n, and its m (u, t) rows follow
        # each other, one per node of that grid's t axis
        t = axes[np.arange(len(a)) // m ** n, n]
        yield from _tail_blocks(_chart_tail, _chart_head(a, da, b, db),
                                t.reshape(-1), m)

    return ParametrizedMap(n + 1, grid_jet)
