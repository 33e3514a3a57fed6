"""Unit quaternions, rotation matrices, and the maps between them.

Conventions fixed here and relied on everywhere else:

* quaternions are stored as ``(w, x, y, z)`` with Hamilton product;
* ``so4_of(q1, q2)`` is the matrix of ``x -> q1 * x * q2^{-1}`` on R^4;
* the Hopf map uses the complex pair ``z1 = w + ix``, ``z2 = y + iz`` and
  lands on the radius-1/2 sphere, so it is constant on the left circle
  fibers ``exp(i*theta) * q``;
* every jet kernel takes tangents (..., m, .) with its points, and a
  caller with none to carry passes m = 0.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import BadOrder, DegenerateConfig

CHART_RADIUS = 0.5  # default convexity radius (radians) for chart-based joins
_ANTIPODE_TOL = 1e-12


@lru_cache(maxsize=None)
def _perm_signs(n):
    """(permutation, sign) pairs of range(n) for any n >= 0; itertools
    order fixes the summation order of every alternating sum built from
    it."""
    return tuple((p, (-1) ** sum(1 for i in range(n) for j in range(i + 1, n)
                                 if p[i] > p[j]))
                 for p in permutations(range(n)))


_SU2_BASIS = ("i", "j", "k")


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


def _slerp_jet(x, dx, y, s):
    """Slerp of rows x (N, d) towards y (N, d) at s (N,), with tangents.

    ``dx`` (N, m, d) holds the derivatives of x along m parameters; the
    second result (N, m+1, d) holds the derivatives of the arc point along
    those parameters and then along s."""
    dot = np.clip(np.sum(x * y, axis=-1, keepdims=True), -1.0, 1.0)
    if np.any(dot <= -1.0 + _ANTIPODE_TOL):
        raise DegenerateConfig("join hit an antipodal pair of points")
    th = np.arccos(dot)
    small = th[..., 0] < 1e-9
    sinth = np.sin(th)
    sinth[small] = 1.0
    s = np.asarray(s, dtype=float)[..., None]
    sin_a = np.sin((1.0 - s) * th)
    sin_b = np.sin(s * th)
    out = (sin_a * x + sin_b * y) / sinth
    if np.any(small):
        lin = (1.0 - s) * x + s * y
        nrm = np.linalg.norm(lin, axis=-1, keepdims=True)
        lin = lin / np.where(nrm == 0.0, 1.0, nrm)
        out[small] = lin[small]
    # out = A x + B y with A = sin((1-s) th) / sin th, B = sin(s th) / sin th
    # and th = arccos <x, y>, so dth = -<dx, y> / sin th
    a, b = sin_a / sinth, sin_b / sinth
    cos_a, cos_b, costh = np.cos((1.0 - s) * th), np.cos(s * th), np.cos(th)
    da = ((1.0 - s) * cos_a - a * costh) / sinth
    db = (s * cos_b - b * costh) / sinth
    dth = -np.einsum("nki,ni->nk", dx, y) / sinth
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
    """The parameter-free half of the chart arc from rows x to y (N, 4):
    z = log(x^{-1} y) (N, 3) and its tangents (N, m, 3) along the m
    parameters of ``dx`` (N, m, 4), which move the tip too when ``dy``
    (N, m, 4) is given."""
    # d(x^{-1} y) = dx^{-1} y + x^{-1} dy
    dd = _qmul(_qconj(dx), y[:, None])
    if dy is not None:
        dd += _qmul(_qconj(x)[:, None], dy)
    return _qlog_jet(_qmul(_qconj(x), y), dd)


def _chart_exp(x, dx, z, dz, s):
    """The chart arc x * exp(s z) at s (N,), with z and ``dz`` from
    ``_chart_log`` and tangents laid out as in ``_slerp_jet``."""
    # d(s z) = s dz, then the column along s is z
    dv = np.concatenate([s[:, None, None] * dz, z[:, None]], axis=1)
    e, de = _qexp_jet(s[..., None] * z, dv)
    dout = _qmul(x[:, None], de)
    dout[:, :dx.shape[1]] += _qmul(dx, e[:, None])
    return _qmul(x, e), dout


def _chart_join_jet(x, dx, y, s):
    """Chart arc x * exp(s * log(x^{-1} y)) of rows x, y (N, 4) at s (N,),
    with tangents laid out as in ``_slerp_jet``: ``_chart_exp`` of
    ``_chart_log``."""
    return _chart_exp(x, dx, *_chart_log(x, dx, y), s)


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

    @property
    def w(self):
        return self.vec[0]

    @property
    def x(self):
        return self.vec[1]

    @property
    def y(self):
        return self.vec[2]

    @property
    def z(self):
        return self.vec[3]

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

    IDENTITY: "UnitQuaternion"


UnitQuaternion.IDENTITY = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
QUAT_ONE = UnitQuaternion.IDENTITY
QUAT_I = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
QUAT_J = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
QUAT_K = UnitQuaternion(0.0, 0.0, 0.0, 1.0)


class Rotation:
    """Special orthogonal matrix of size 3 or 4, re-orthonormalized on build."""

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape not in ((3, 3), (4, 4)):
            raise ValueError(f"expected a 3x3 or 4x4 matrix, got {m.shape}")
        if np.abs(m.T @ m - np.eye(m.shape[0])).max() > 1e-6:
            raise ValueError("matrix is far from orthogonal")
        m = _gram_schmidt(m)
        if np.linalg.det(m) < 0:
            raise ValueError("matrix has determinant -1, not a rotation")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])
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
        return f"Rotation(dim={self.dim})"

    @staticmethod
    def identity(dim):
        return Rotation(np.eye(dim))


def _gram_schmidt(m):
    """Column-wise modified Gram-Schmidt; keeps well-conditioned input intact."""
    q = m.astype(float).copy()
    k = m.shape[0]
    for i in range(k):
        for j in range(i):
            q[:, i] -= np.dot(q[:, j], q[:, i]) * q[:, j]
        q[:, i] /= np.linalg.norm(q[:, i])
    return q


class LieVector:
    """Element of su(2) or so(4) in a fixed ordered basis."""

    __slots__ = ("algebra", "coeffs")

    _DIMS = {"su2": 3, "so4": 6}

    def __init__(self, algebra, coeffs):
        if algebra not in self._DIMS:
            raise ValueError(f"unknown algebra tag {algebra!r}")
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self._DIMS[algebra],):
            raise ValueError(
                f"{algebra} expects {self._DIMS[algebra]} coefficients, "
                f"got shape {c.shape}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", c)
        self.coeffs.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("LieVector is immutable")

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self):
        return f"LieVector({self.algebra}, {self.coeffs})"


def quat_exp(X: LieVector) -> UnitQuaternion:
    """Exponential su(2) -> SU(2): exp(v) = cos|v| + sin|v| * v/|v|."""
    if X.algebra != "su2":
        raise ValueError("quat_exp expects an su2 vector")
    v = X.coeffs
    th = np.linalg.norm(v)
    if th < 1e-300:
        return UnitQuaternion.IDENTITY
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
    if rot.dim != 4:
        raise ValueError("apply_rotation expects a 4x4 rotation")
    return UnitQuaternion(rot.matrix @ point.vec)
