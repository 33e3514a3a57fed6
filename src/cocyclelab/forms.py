"""Invariant differential forms and integration of their pullbacks.

Forms are alternating evaluators ``(points, tangents) -> values`` acting on
batches.  Pullback integration takes a simplex's points and exact
tangents from its ``evaluate_cube_jet``, in chunks of nodes.  It projects
the tangents onto the sphere and integrates in iterated-cone cube
coordinates with a tensor Gauss-Legendre rule, estimating the error from
two rule orders and the rounding of the sum.

Whole-sphere integrals use fixed atlases: the 16 orthant tetrahedra for
S^3, and the 20 icosahedral triangles for S^2 (scaled by 1/2 for the
projective-line model).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .groups import _perm_signs, _qconj, _qmul
from .quadrature import IntegralResult, QuadratureSpec, integrate_on_cube
from .simplices import GeodesicSimplex, ParametrizedMap

# quadrature nodes per jet evaluation: the (N, n, d) tangents and the join
# kernels' temporaries scale with it, and one batch of 8000 nodes costs
# several MB of peak memory
_JET_CHUNK = 2048


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
        if tangents.ndim == 2:
            tangents = tangents[None, :, :]
        if tangents.shape[1] != self.degree:
            raise ValueError(
                f"form of degree {self.degree} got {tangents.shape[1]} "
                "tangent vectors")
        return self._evaluator(points, tangents)

    def __rmul__(self, scalar):
        s = float(scalar)
        return DifferentialForm(
            self.degree, self.ambient,
            lambda p, t: s * self._evaluator(p, t))


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


def fubini_study_form() -> DifferentialForm:
    """Symplectic 2-form on the radius-1/2 sphere model of the projective
    line, normalized to total integral 2*pi.

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


def contact_form_alpha() -> DifferentialForm:
    """Standard contact 1-form on S^3: alpha_q(v) = <i q, v>.

    The Reeb field i*q has alpha = 1, fibers of the Hopf map have period
    2*pi, and d(alpha) equals the pullback of the Fubini-Study form.
    """

    def ev(p, t):
        iq = _qmul(np.broadcast_to([0.0, 1.0, 0.0, 0.0], p.shape), p)
        return np.einsum("ni,ni->n", iq, t[:, 0])

    return DifferentialForm(1, "S3", ev)


def _project_tangent(x, t):
    """Tangents t (N, k, d) at points x (N, d), projected to the sphere."""
    xhat = x / np.linalg.norm(x, axis=-1, keepdims=True)
    return t - np.einsum("nki,ni->nk", t, xhat)[..., None] * xhat[:, None]


def pullback_integral(form: DifferentialForm, simplex,
                      quad: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of the form over a parametrized simplex.

    ``simplex`` is anything with ``degree`` and a batch
    ``evaluate_cube_jet`` taking iterated-cone cube coordinates
    (N, degree) to points (N, d) with their exact tangents (N, degree, d),
    as ``GeodesicSimplex`` and ``ParametrizedMap`` provide.  The jet is
    evaluated in chunks of ``_JET_CHUNK`` nodes, and the integral runs in
    cube coordinates with the tangents projected to the sphere.  The error
    estimate is the rule-order difference plus the rounding bound of the
    quadrature sum (``integrate_on_cube``)."""
    quad = quad or QuadratureSpec()
    n = simplex.degree
    if form.degree != n:
        raise ValueError(
            f"form degree {form.degree} != simplex degree {n}")
    jet = simplex.evaluate_cube_jet

    def integrand(s):
        out = np.empty(s.shape[0])
        for lo in range(0, s.shape[0], _JET_CHUNK):
            x, tangents = jet(s[lo:lo + _JET_CHUNK])
            out[lo:lo + _JET_CHUNK] = form.evaluate(
                x, _project_tangent(x, tangents))
        return out

    return integrate_on_cube(integrand, n, quad)


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
            simplex = GeodesicSimplex([verts[t] for t in tri], "spherical")
            if sphere == "CP1":
                cell = ParametrizedMap(2, cube_jet=lambda s, _s=simplex: tuple(
                    0.5 * a for a in _s.evaluate_cube_jet(s)))
            else:
                cell = simplex
            cells.append((1, cell))
        return tuple(cells)
    raise ValueError(f"unknown sphere {sphere!r}")


def sphere_integral(form: DifferentialForm, sphere: str,
                    quad: QuadratureSpec | None = None,
                    compose=None) -> IntegralResult:
    """Integral over the whole sphere via the fixed simplex atlas.

    ``compose`` optionally post-composes every atlas cell with a self-map
    of the sphere given as a jet on coordinate batches: ``compose(x, dx)``
    returns the image points (N, d) and the images (N, m, d) of tangents
    ``dx`` (N, m, d); ``compose(x, None)`` returns the points and None.  The
    integral is then that of the form's pullback under the map."""
    quad = quad or QuadratureSpec()
    total = 0.0
    est = 0.0
    for sign, cell in sphere_atlas(sphere):
        target = cell if compose is None else ParametrizedMap(
            cell.degree,
            cube_jet=lambda s, _c=cell: compose(*_c.evaluate_cube_jet(s)))
        res = pullback_integral(form, target, quad)
        total += sign * res.value
        est += res.error_estimate
    return IntegralResult(value=total, error_estimate=est)
