"""Deterministic quadrature for pulled-back forms on simplices.

Integrals are computed in iterated-cone coordinates: the standard
n-simplex is the image of the unit n-cube under

    bary(s_1, ..., s_n) = ((1 - s_n) * bary(s_1, ..., s_{n-1}), s_n),

and the iterated-join simplices of this package are smooth functions of
the cube coordinates (the barycentric cone division cancels).  Tensor
Gauss-Legendre panels on the cube therefore converge at high order, where
simplex rules in barycentric coordinates stall at O(h^2) because of the
apex singularity of the cone parametrization.  Face i of the simplex is
the cube face s_i = 0 for i >= 1 and s_1 = 1 for i = 0, with the other
coordinates in order (Karniadakis and Sherwin, Spectral/hp Element
Methods for CFD, 2nd ed., OUP 2005, sec. 3.2).

``integrate_on_cube`` integrates a stack of rows over the cube, one
value per row, each row summed on its own as it comes.  A rule level is
its per-panel axes and its weights (``_rule_level``): the integrand gets
the axes alone, and no node array is built for a level.  The error
estimate compares two rule orders on the same panel grid and adds a
bound on the rounding of the quadrature sum; cells are traversed in a
fixed lexicographic order so results are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from numbers import Integral

import numpy as np

from .errors import QuadratureDiverged

_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Rule order / panel depth / tolerance bundle for one integral.

    ``order`` is the number of Gauss-Legendre points per axis, ``depth``
    splits every axis into 2**depth equal panels, and ``integrate_on_cube``
    raises when its two rule orders differ by more than 10 * ``tol``.
    """

    order: int
    tol: float
    depth: int = 0

    def __post_init__(self):
        for field, least in (("order", 2), ("depth", 0)):
            value = getattr(self, field)
            # a bool is an Integral, but True is no size
            if isinstance(value, bool) or not isinstance(value, Integral) \
                    or value < least:
                raise ValueError(
                    f"{field} must be an integer >= {least}, got {value!r}")
        # a NaN or an infinite tolerance would pass every divergence test;
        # every comparison with a NaN is False, so it fails this one
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")

    @property
    def orders(self):
        """The two rule orders of ``integrate_on_cube``: the coarse one,
        then the fine one whose sum is the value."""
        return self.order, self.order + 2


@dataclass(frozen=True)
class IntegralResult:
    """Value plus its error estimate: the difference between two rule
    orders and the rounding bound of the sum."""

    value: float
    error_estimate: float

    def __post_init__(self):
        # a NaN estimate passes ``< 0``; it fails ``>= 0``
        if not self.error_estimate >= 0:
            raise ValueError("error estimate must be >= 0")


def cube_to_bary_jet(s, ds):
    """Iterated-cone map [0,1]^n -> standard n-simplex, batched, with
    tangents: cube coordinates ``s`` (N, n) go to barycentric coordinates
    (N, n+1), and tangents ``ds`` (N, m, n) to their images (N, m, n+1).
    The map is polynomial, so it is smooth and its tangents are exact; it
    is a bijection away from a measure-zero set."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    n = s.shape[1]
    bary = np.ones((s.shape[0], 1))
    dbary = np.zeros((s.shape[0], ds.shape[1], 1))
    for k in range(n):
        sk = s[:, k:k + 1]
        dsk = ds[:, :, k:k + 1]
        # d(b (1 - s_k)) = db (1 - s_k) - b ds_k
        dbary = np.concatenate(
            [dbary * (1.0 - sk)[:, None] - bary[:, None] * dsk, dsk], axis=2)
        bary = np.concatenate([bary * (1.0 - sk), sk], axis=1)
    return bary, dbary


def bary_to_cube(bary):
    """Inverse of the points of ``cube_to_bary_jet``, batched:
    (N, n+1) -> (N, n).

    Peels the cone off from the top: s_n = b_n and the lower coordinates
    are divided by 1 - s_n.  Where |1 - s_k| < 1e-14 (at the apex e_k) the
    lower coordinates are taken to be e_0, so every corner e_k maps to
    s_k = 1 with all lower coordinates 0.
    """
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    n = bary.shape[1] - 1
    s = np.empty((bary.shape[0], n))
    for k in range(n, 0, -1):
        s[:, k - 1] = bary[:, k]
        denom = 1.0 - bary[:, k]
        at_top = np.abs(denom) < 1e-14
        bary = bary[:, :k] / np.where(at_top, 1.0, denom)[:, None]
        bary[at_top] = np.eye(k)[0]
    return s


@lru_cache(maxsize=None)
def _rule_level(n: int, order: int, depth: int):
    """Tensor Gauss-Legendre level on the unit n-cube with 2**depth panels
    per axis, as (axes, weights): the P = 2**(depth n) panels come in
    lexicographic order, panel p's nodes are the product of its n axes
    ``axes[p]`` (P, n, order), lexicographic with the last axis fastest,
    and ``weights`` (P order^n,) are the nodes' weights in that order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = (x + 1.0) / 2.0, w / 2.0
    width = 1.0 / 2 ** depth
    # an explicit shape, so n = 0 gives (1, 0, order): one panel, no axis
    axes = np.array([[(x + off) * width for off in offsets]
                     for offsets in product(range(2 ** depth), repeat=n)]
                    ).reshape(2 ** (depth * n), n, order)
    cell = reduce(np.outer, [w] * n, np.ones(1)).ravel()
    weights = np.tile(cell * width ** n, len(axes))
    axes.setflags(write=False)
    weights.setflags(write=False)
    return axes, weights


def _grid_nodes(axes, rows):
    """The nodes (len(rows), n) at row indices ``rows`` of the tensor grids
    ``axes`` (P, n, m), whose m^n nodes each come grid after grid,
    lexicographic with the last axis fastest."""
    n, m = axes.shape[1:]
    if n == 0:
        return np.empty((len(rows), 0))
    grid, node = np.divmod(rows, m ** n)
    index = np.stack(np.unravel_index(node, (m,) * n), axis=-1)
    return axes[grid[:, None], np.arange(n), index]


def _level_values(integrand, n, order, depth):
    """Per row of ``integrand``'s values, an array (F, N) or rows (N,)
    yielded one at a time, the rule's sum ``np.dot(weights, row)`` with
    the bound gamma_N * sum |w_i f_i| on its rounding error for N nodes
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    SIAM 2002, ch. 3 and 4).  Each row is reduced on its own, as it
    comes: a matrix-vector product would sum in another order."""
    axes, weights = _rule_level(n, order, depth)
    nu = len(weights) * _UNIT_ROUNDOFF
    return [(float(np.dot(weights, values)),
             nu / (1.0 - nu) * float(np.dot(weights, np.abs(values))))
            for values in integrand(axes)]


def integrate_on_cube(integrand, n, spec: QuadratureSpec) -> list:
    """Two-order integrals over the unit n-cube of the F rows (N,) that
    ``integrand(axes)`` returns as an array or yields one at a time, each
    summed before the next is asked for, as a list of F results: a rule
    level passes its axes (P, n, m) from ``_rule_level``, and a row holds
    the values at the level's N nodes, in its order.

    Each value is taken at ``spec.order + 2`` points per axis.  Its
    estimate is its difference from the ``spec.order`` run plus the
    rounding bound of its own sum.  Raises QuadratureDiverged for the
    first row whose two orders disagree by more than 10x tolerance, or
    whose values are not finite.
    """
    coarse_order, fine_order = spec.orders
    coarse = _level_values(integrand, n, coarse_order, spec.depth)
    fine = _level_values(integrand, n, fine_order, spec.depth)
    out = []
    for (low, _), (value, rounding) in zip(coarse, fine):
        diff = abs(value - low)
        # a NaN difference fails every comparison, so it fails this one
        if not diff <= 10.0 * spec.tol:
            raise QuadratureDiverged(
                f"rule orders disagree by {diff:.3e} > 10 * tol = "
                f"{10 * spec.tol:.3e}")
        out.append(IntegralResult(value=value, error_estimate=diff + rounding))
    return out


def gauss_legendre_circle(f):
    """Deterministic line integral of f over [0, 2*pi], at 64 nodes."""
    x, w = np.polynomial.legendre.leggauss(64)
    t = np.pi * (x + 1.0)
    return float(np.pi * np.dot(w, f(t)))
