"""Unit quaternions, rotation matrices, and the maps between them.

Conventions fixed here and relied on everywhere else:

* quaternions are stored as ``(w, x, y, z)`` with Hamilton product;
* ``so4_of(q1, q2)`` is the matrix of ``x -> q1 * x * q2^{-1}`` on R^4;
* the Hopf map uses the complex pair ``z1 = w + ix``, ``z2 = y + iz`` and
  lands on the radius-1/2 sphere, so it is constant on the left circle
  fibers ``exp(i*theta) * q``;
* every jet kernel takes tangents (..., m, .) with its points, and a
  caller with none to carry passes m = 0;
* each join kernel, the great-circle arc and the chart arc
  ``x exp(s log(x^{-1} y))``, is a head and a tail: the head computes
  all that does not depend on the join parameter s, once per row a join
  starts from, and the tail takes its rows, repeated once per value of
  s, to the arc points and their tangents.  The chart tail is closed
  form, scalar coefficients in s times x, dx, w = x (0, z) and dw.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import BadOrder, DegenerateConfig

CHART_RADIUS = 0.5  # convexity radius (radians) of the chart-based joins
_ANTIPODE_TOL = 1e-12


@lru_cache(maxsize=None)
def _perm_signs(n):
    """(permutation, sign) pairs of range(n) for any n >= 0; itertools
    order fixes the summation order of every alternating sum built from
    it."""
    return tuple((p, (-1) ** sum(1 for i in range(n) for j in range(i + 1, n)
                                 if p[i] > p[j]))
                 for p in permutations(range(n)))


def _qmul(a, b):
    """Hamilton product on trailing axes of shape (..., 4)."""
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def _qconj(a):
    return a * _CONJ_SIGNS


def _qlog_jet(q, dq):
    """Principal log of quaternions (..., 4) -> (..., 3), with the images
    (..., m, 3) of tangents ``dq`` (..., m, 4)."""
    w = np.clip(q[..., 0], -1.0, 1.0)
    v = q[..., 1:]
    sv = np.linalg.norm(v, axis=-1)
    th = np.arctan2(sv, w)
    if np.any(th >= np.pi - 1e-8):
        raise DegenerateConfig("chart join hit the antipodal locus")
    scale = np.where(sv < 1e-300, 0.0, th / np.where(sv == 0.0, 1.0, sv))
    z = scale[..., None] * v
    # z = (th / sv) v with th = atan2(sv, w); the difference dth - scale dsv
    # is O(sv^2) dsv, so dividing it by sv loses no accuracy at small sv
    tiny = sv < 1e-300
    safe = np.where(tiny, 1.0, sv)[..., None]
    dw, dv = dq[..., 0], dq[..., 1:]
    dsv = np.einsum("...i,...ki->...k", v, dv) / safe
    dth = (w[..., None] * dsv - sv[..., None] * dw) \
        / (w * w + sv * sv)[..., None]
    # at v = 0 the scale's limit th / sv -> 1 / w takes over
    scale = np.where(tiny, 1.0 / np.where(w == 0.0, 1.0, w), scale)
    dscale = np.where(tiny[..., None], 0.0,
                      (dth - scale[..., None] * dsv) / safe)
    return z, (scale[..., None, None] * dv
               + dscale[..., None] * v[..., None, :])


def _qexp_jet(v, dv):
    """Exponential (..., 3) -> unit quaternions (..., 4), with the images
    (..., m, 4) of tangents ``dv`` (..., m, 3)."""
    th = np.linalg.norm(v, axis=-1)
    sinc = np.where(th < 1e-300, 1.0, np.sin(th) / np.where(th == 0, 1.0, th))
    e = np.concatenate([np.cos(th)[..., None], sinc[..., None] * v],
                       axis=-1)
    vdv = np.einsum("...i,...ki->...k", v, dv)
    # dsinc = c <v, dv> with c = (cos th - sinc) / th^2 = -1/3 + th^2/30 ...
    th2 = th * th
    c = np.where(th < 1e-4, -1.0 / 3.0 + th2 / 30.0,
                 (np.cos(th) - sinc) / np.where(th < 1e-4, 1.0, th2))
    de0 = -sinc[..., None] * vdv
    dvec = sinc[..., None, None] * dv \
        + (c[..., None] * vdv)[..., None] * v[..., None, :]
    return e, np.concatenate([de0[..., None], dvec], axis=-1)


def _slerp_head(x, dx, y):
    """The parameter-free half of the great-circle arc from rows x to y
    (N, d), with the tangents ``dx`` (N, m, d) of x along m parameters: the
    rows and what ``_slerp_tail`` reads of them at every s.

    th = arccos <x, y> (N, 1) with sin th (1 where th < 1e-9, the small-angle
    rows of the mask ``small``) and cos th, and dth = -<dx, y> / sin th
    (N, m)."""
    dot = np.clip(np.sum(x * y, axis=-1, keepdims=True), -1.0, 1.0)
    if np.any(dot <= -1.0 + _ANTIPODE_TOL):
        raise DegenerateConfig("join hit an antipodal pair of points")
    th = np.arccos(dot)
    small = th[..., 0] < 1e-9
    sinth = np.sin(th)
    sinth[small] = 1.0
    dth = -np.einsum("nki,ni->nk", dx, y) / sinth
    return x, dx, y, th, sinth, np.cos(th), dth, small


def _slerp_tail(x, dx, y, th, sinth, costh, dth, small, s):
    """Slerp at s (N,) from the rows of ``_slerp_head``, with tangents.

    The second result (N, m+1, d) holds the derivatives of the arc point
    along the m parameters of ``dx`` and then along s."""
    s = s[:, None]
    sin_a = np.sin((1.0 - s) * th)
    sin_b = np.sin(s * th)
    out = (sin_a * x + sin_b * y) / sinth
    if np.any(small):
        lin = (1.0 - s) * x + s * y
        nrm = np.linalg.norm(lin, axis=-1, keepdims=True)
        lin = lin / np.where(nrm == 0.0, 1.0, nrm)
        out[small] = lin[small]
    # out = A x + B y with A = sin((1-s) th) / sin th, B = sin(s th) / sin th
    a, b = sin_a / sinth, sin_b / sinth
    cos_a, cos_b = np.cos((1.0 - s) * th), np.cos(s * th)
    da = ((1.0 - s) * cos_a - a * costh) / sinth
    db = (s * cos_b - b * costh) / sinth
    d_along = a[:, None] * dx \
        + dth[..., None] * (da * x + db * y)[:, None]
    d_s = th * (cos_b * y - cos_a * x) / sinth
    if np.any(small):
        # the normalized chord: d(l / |l|) = (dl - <l/|l|, dl> l/|l|) / |l|
        def unchord(dl):
            return (dl - np.einsum("n...i,ni->n...", dl, lin)[..., None]
                    * lin[:, None]) / nrm[:, None]
        d_along[small] = unchord((1.0 - s)[:, None] * dx)[small]
        d_s[small] = unchord((y - x)[:, None])[small, 0]
    return out, np.concatenate([d_along, d_s[:, None]], axis=1)


def _chart_log(x, dx, y, dy=None):
    """z = log(x^{-1} y) (N, 3) of rows x, y (N, 4), and its tangents
    (N, m, 3) along the m parameters of ``dx`` (N, m, 4), which move the
    tip too when ``dy`` (N, m, 4) is given."""
    # d(x^{-1} y) = dx^{-1} y + x^{-1} dy
    dd = _qmul(_qconj(dx), y[:, None])
    if dy is not None:
        dd += _qmul(_qconj(x)[:, None], dy)
    return _qlog_jet(_qmul(_qconj(x), y), dd)


def _pure(v):
    """The pure quaternions (..., 4) of vectors (..., 3)."""
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def _chart_head(x, dx, y, dy=None):
    """The parameter-free half of the chart arc x exp(s z), z =
    log(x^{-1} y), from rows x to y (N, 4), with tangents as in
    ``_chart_log``: the rows and what ``_chart_tail`` reads of them at
    every s.

    w = x (0, z) (N, 4) and dw = dx (0, z) + x (0, dz) (N, m, 4), th = |z|
    and |z|^2 (N,), and <z, dz> (N, m)."""
    z, dz = _chart_log(x, dx, y, dy)
    zq = _pure(z)
    w = _qmul(x, zq)
    dw = _qmul(dx, zq[:, None]) + _qmul(x[:, None], _pure(dz))
    zz = np.einsum("ni,ni->n", z, z)
    return x, dx, w, dw, np.sqrt(zz), zz, np.einsum("ni,nki->nk", z, dz)


def _chart_tail(x, dx, w, dw, th, zz, zdz, s):
    """The chart arc x exp(s z) at s (N,) from the rows of ``_chart_head``,
    in closed form, with tangents laid out as in ``_slerp_tail``.

    x exp(s z) = C x + K w with C = cos(s th) and K = s sinc(s th).  Along
    the parameters dC = -s^2 sinc(s th) <z, dz> and dK = s^3 c(s th)
    <z, dz>, where c(phi) = (cos phi - sinc phi) / phi^2, the series
    -1/3 + phi^2/30 below 1e-4 as in ``_qexp_jet``; along s the column is
    -s sinc(s th) |z|^2 x + cos(s th) w.  cos, sinc and c are even, so
    they are taken at |s| th."""
    phi = np.abs(s) * th
    cos = np.cos(phi)
    sinc = np.where(phi < 1e-300, 1.0,
                    np.sin(phi) / np.where(phi == 0.0, 1.0, phi))
    phi2 = phi * phi
    c = np.where(phi < 1e-4, -1.0 / 3.0 + phi2 / 30.0,
                 (cos - sinc) / np.where(phi < 1e-4, 1.0, phi2))
    k = s * sinc
    # dC x + dK w = <z, dz> (s^3 c w - s^2 sinc x)
    s2 = s * s
    v = (s2 * s * c)[:, None] * w - (s2 * sinc)[:, None] * x
    d_along = cos[:, None, None] * dx + k[:, None, None] * dw \
        + zdz[..., None] * v[:, None]
    d_s = cos[:, None] * w - (k * zz)[:, None] * x
    return cos[:, None] * x + k[:, None] * w, \
        np.concatenate([d_along, d_s[:, None]], axis=1)


class UnitQuaternion:
    """Point of the unit 3-sphere, doubling as an element of SU(2).

    Immutable; the coefficient vector is renormalized on construction so
    that repeated products do not drift off the sphere.
    """

    __slots__ = ("vec",)

    def __init__(self, w, x=None, y=None, z=None):
        if x is None:
            vec = np.asarray(w, dtype=float)
        else:
            vec = np.array([w, x, y, z], dtype=float)
        if vec.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {vec.shape}")
        n = np.linalg.norm(vec)
        if not 0.5 < n < 2.0:
            raise ValueError(f"not close to a unit quaternion: |q| = {n}")
        object.__setattr__(self, "vec", vec / n)
        self.vec.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("UnitQuaternion is immutable")

    def __mul__(self, other):
        return UnitQuaternion(_qmul(self.vec, other.vec))

    def inverse(self):
        return UnitQuaternion(_qconj(self.vec))

    def __neg__(self):
        return UnitQuaternion(-self.vec)

    def isclose(self, other, tol=1e-10):
        return bool(np.linalg.norm(self.vec - other.vec) <= tol)

    def __repr__(self):
        return "UnitQuaternion({:+.6f}, {:+.6f}, {:+.6f}, {:+.6f})".format(
            *self.vec)


QUAT_ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
QUAT_I = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
QUAT_J = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
QUAT_K = UnitQuaternion(0.0, 0.0, 0.0, 1.0)


class Rotation:
    """Element of SO(4), re-orthonormalized on build."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        # not (... <= tol): a NaN or infinite entry can make the residual
        # NaN, which compares False with every bound
        if not np.abs(m.T @ m - np.eye(m.shape[0])).max() <= 1e-6:
            raise ValueError("matrix is far from orthogonal")
        m = _gram_schmidt(m)
        if np.linalg.det(m) < 0:
            raise ValueError("matrix has determinant -1, not a rotation")
        object.__setattr__(self, "matrix", m)
        self.matrix.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Rotation is immutable")

    def __matmul__(self, other):
        if isinstance(other, Rotation):
            return Rotation(self.matrix @ other.matrix)
        return self.matrix @ np.asarray(other)

    def inverse(self):
        return Rotation(self.matrix.T)

    def isclose(self, other, tol=1e-10):
        return bool(np.abs(self.matrix - other.matrix).max() <= tol)

    def __repr__(self):
        return "Rotation()"

    @staticmethod
    def identity():
        return Rotation(np.eye(4))


def _gram_schmidt(m):
    """Column-wise modified Gram-Schmidt; keeps well-conditioned input intact."""
    q = m.astype(float).copy()
    k = m.shape[0]
    for i in range(k):
        for j in range(i):
            q[:, i] -= np.dot(q[:, j], q[:, i]) * q[:, j]
        q[:, i] /= np.linalg.norm(q[:, i])
    return q


def quat_exp(coeffs) -> UnitQuaternion:
    """Exponential su(2) -> SU(2) of the coefficients (3,) of i, j and k:
    exp(v) = cos|v| + sin|v| * v/|v|."""
    v = np.asarray(coeffs, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"su2 expects 3 coefficients, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"su2 coefficients must be finite, got {v}")
    th = np.linalg.norm(v)
    if th < 1e-300:
        return QUAT_ONE
    u = v / th
    return UnitQuaternion(np.concatenate([[np.cos(th)], np.sin(th) * u]))


def hopf_arr(q):
    """Hopf projection of quaternions (..., 4) onto the radius-1/2 sphere
    model of CP^1.

    Constant on left circle fibers exp(i*t)*q; with this normalization the
    differential of the standard contact form equals the pullback of the
    symplectic area form (see the contact module).
    """
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        w * y + x * z,
        w * z - x * y,
        (w * w + x * x - y * y - z * z) / 2.0,
    ], axis=-1)


def hopf_jacobian(q):
    """3x4 Jacobian of hopf_arr; rows are orthonormal, kernel = span(i*q)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        np.stack([y, z, w, x], axis=-1),
        np.stack([z, -y, -x, w], axis=-1),
        np.stack([w, x, -y, -z], axis=-1),
    ], axis=-2)


def so4_of(q1: UnitQuaternion, q2: UnitQuaternion) -> Rotation:
    """Double covering SU(2) x SU(2) -> SO(4): matrix of x -> q1 x q2^{-1}."""
    # row i of the product is the image of the basis vector e_i
    return Rotation(_qmul(_qmul(q1.vec, np.eye(4)), _qconj(q2.vec)).T)


def cyclic_embed(m: int, a: int) -> UnitQuaternion:
    """Order-m cyclic subgroup of SU(2): a -> exp(2*pi*i*a/m)."""
    if m < 2:
        raise BadOrder(f"cyclic order must be >= 2, got {m}")
    th = 2.0 * np.pi * a / m
    return UnitQuaternion(np.cos(th), np.sin(th), 0.0, 0.0)


def apply_rotation(rot: Rotation, point: UnitQuaternion) -> UnitQuaternion:
    """SO(4) acting on S^3; the result is renormalized."""
    return UnitQuaternion(rot.matrix @ point.vec)
