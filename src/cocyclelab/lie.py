"""Alternating Lie-algebra cochains and the derivation map from group
cochains.

Structure constants are exact rationals (Python ints where they are
integral, Fractions only where a denominator is not 1), and so are the
Chevalley-Eilenberg differential and the invariant trilinear (Cartan)
cocycle <x, [y, z]>; only the derivation map (mixed central differences
of a locally smooth group cochain along exponential coordinates) is
floating point.  The ``gf-derivation`` suite runs the whole chain: the
derivative of the integrated cochain of a form is the form at the
identity, and for the Maurer-Cartan 3-form that is a multiple of the
Cartan cocycle of su(2), which the differential sends to zero.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

import numpy as np

from .cochains import (HomogeneousCochain, exact, integrated_cochain,
                       signed_sums)
from .errors import DomainGuard, StepTooLarge
from .forms import DifferentialForm
from .groups import QUAT_ONE, _perm_signs, quat_exp
from .quadrature import QuadratureSpec


class LieAlgebraTable:
    """Basis, structure constants and invariant pairing of a Lie algebra.

    ``structure[i, j, k]`` is the coefficient of basis vector k in
    [X_i, X_j]; both are stored as object arrays of exact values (``exact``:
    ints, or Fractions where a denominator is not 1), and the Jacobi
    identity is verified exactly at construction.
    """

    def __init__(self, structure, pairing):
        self.dim = len(structure)
        to_exact = np.frompyfunc(exact, 1, 1)
        self.structure = to_exact(np.asarray(structure, dtype=object))
        self.pairing = to_exact(np.asarray(pairing, dtype=object))
        c = self.structure
        if (c != -c.transpose(1, 0, 2)).any():
            raise ValueError("structure constants not antisymmetric")
        # cc[i, j, k, l] = sum_m c[i, j, m] c[m, k, l]; Jacobi is its sum
        # over the cyclic shifts of (i, j, k)
        cc = np.tensordot(c, c, ([2], [0]))
        if (cc + cc.transpose(1, 2, 0, 3) + cc.transpose(2, 0, 1, 3)
                != 0).any():
            raise ValueError("Jacobi identity fails")

    @classmethod
    def su2(cls):
        """Quaternion basis (i, j, k): [e_i, e_j] = 2 e_k cyclic; pairing
        is the dot product (-Tr(AB)/2 in the defining representation)."""
        return cls(2 * _epsilon3(), np.eye(3, dtype=int))

    @classmethod
    def so4(cls):
        """Elementary antisymmetric matrices E_ab = e_a e_b^T - e_b e_a^T
        (a < b); pairing Tr(A^T B)/2."""
        rows, cols = zip(*combinations(range(4), 2))
        basis = np.zeros((6, 4, 4), dtype=int)
        basis[range(6), rows, cols] = 1
        basis[range(6), cols, rows] = -1
        prod = basis[:, None] @ basis[None]
        # E_ab has coordinate m[a, b] in a combination m of the basis
        structure = (prod - prod.transpose(1, 0, 2, 3))[:, :, rows, cols]
        return cls(structure, np.eye(6, dtype=int))


def _epsilon3():
    eps = np.zeros((3, 3, 3), dtype=int)
    for perm, sign in _perm_signs(3):
        eps[perm] = sign
    return eps


class MultilinearCochain:
    """Fully antisymmetric coefficient tensor over the algebra basis; its
    degree is the number of axes, which must all have the same length."""

    def __init__(self, tensor):
        arr = np.asarray(tensor)
        self.degree = arr.ndim
        if len(set(arr.shape)) > 1:
            raise ValueError(f"tensor shape {arr.shape} is not square")
        self.tensor = arr
        # adjacent transpositions generate S_n; object entries compare
        # exactly, float entries must be finite and agree to 1e-9 (1 + |a|)
        a = arr if arr.dtype == object else arr.astype(float)
        ok = a.dtype == object or np.isfinite(a).all()
        for k in range(arr.ndim - 1):
            s = np.swapaxes(a, k, k + 1)
            ok = ok and (s == -a if a.dtype == object else
                         np.abs(a + s) <= 1e-9 * (1.0 + np.abs(a))).all()
        if not ok:
            raise ValueError("tensor is not alternating")

    def norm_max(self):
        return float(np.abs(self.tensor.astype(float)).max(initial=0.0))


def alternation(tensor):
    """Antisymmetrize a tensor exactly (object arrays, whose factor 1/n! is
    a Fraction, never an int division) or in floats."""
    arr = np.asarray(tensor)
    degree = arr.ndim
    fac = Fraction(1, factorial(degree)) if arr.dtype == object \
        else 1.0 / factorial(degree)
    # entry idx of the permutation's term is arr[idx[perm[0]], ...], so the
    # axes are those of the inverse permutation
    total = 0
    for perm, sign in _perm_signs(degree):
        total = total + sign * np.transpose(arr, np.argsort(perm))
    return np.asarray(total * fac)


def ce_differential(omega: MultilinearCochain,
                    algebra: LieAlgebraTable) -> MultilinearCochain:
    """Chevalley-Eilenberg differential via the bracket-insertion sum
    (d w)(x_0..x_n) = sum_{a<b} (-1)^(a+b) w([x_a, x_b], x_0..^a..^b..x_n).
    """
    n, dim = omega.degree, algebra.dim
    is_exact = omega.tensor.dtype == object
    c = algebra.structure if is_exact else algebra.structure.astype(float)
    if n == 0:  # constants: the insertion sum is empty
        out = np.full(dim, 0 if is_exact else 0.0, dtype=c.dtype)
    else:
        # t[p, q, rest] = w([X_p, X_q], rest), moved to slots a and b
        t = np.tensordot(c, omega.tensor, ([2], [0]))
        out = sum((-1) ** (a + b) * np.moveaxis(t, (0, 1), (a, b))
                  for a, b in combinations(range(n + 1), 2))
    return MultilinearCochain(out)


def cartan_cocycle(algebra: LieAlgebraTable) -> MultilinearCochain:
    """Invariant trilinear cocycle <x, [y, z]> of a quadratic algebra."""
    c, b = algebra.structure, algebra.pairing
    # ad-invariance of the pairing is required for the cocycle property:
    # <[X_i, X_j], X_k> + <X_j, [X_i, X_k]> = 0
    if (np.tensordot(c, b, ([2], [0]))
            + np.tensordot(c, b, ([2], [1])).transpose(0, 2, 1) != 0).any():
        raise ValueError("pairing is not ad-invariant")
    return MultilinearCochain(np.tensordot(b, c, ([1], [2])))


def _group_tuple(steps):
    """(e, exp(Y_1), exp(Y_1)exp(Y_2), ...) for su(2) elements Y_i."""
    out = [QUAT_ONE]
    for y in steps:
        out.append(out[-1] * quat_exp(y))
    return tuple(out)


def cochain_derivative(f: HomogeneousCochain,
                       step: float = 5e-2) -> MultilinearCochain:
    """Alternated mixed partial derivatives of a group cochain on SU(2) at
    the identity along exponential coordinates of su(2).

    The derivative of a degree-n cochain f evaluates f, for n distinct
    basis vectors X_1..X_n, on tuples (e, exp(t_1 X_1), exp(t_1 X_1)
    exp(t_2 X_2), ...) over the corner signs t_i = +-step and divides by
    (2 step)^n, then antisymmetrizes; entries with a repeated basis vector
    are 0.  Each entry's corners are one row of ``signed_sums``, with the
    product of their signs as coefficients, so all the tuples go to
    ``f.with_errors`` in one call and an integrated cochain integrates them
    in one stacked pass.
    """
    n, dim = f.degree, 3
    # an entry with a repeated basis vector cancels in the alternation
    entries = [idx for idx in product(range(dim), repeat=n)
               if len(set(idx)) == n]
    corners = list(product((-1.0, 1.0), repeat=n))
    rows = []
    for idx in entries:
        row = []
        for signs in corners:
            steps = []
            for s, i in zip(signs, idx):
                coeffs = [0.0] * dim
                coeffs[i] = s * step
                steps.append(coeffs)
            row.append((prod(signs), _group_tuple(steps)))
        rows.append(row)
    try:
        sums = signed_sums(f, rows)
    except DomainGuard as exc:
        raise StepTooLarge(f"step {step} leaves the cochain domain") from exc
    raw = np.zeros((dim,) * n)
    for idx, (total, _) in zip(entries, sums):
        raw[idx] = total / (2.0 * step) ** n
    return MultilinearCochain(alternation(raw))


def form_at_identity(form: DifferentialForm) -> np.ndarray:
    """Coefficient tensor of a form on SU(2) at the identity, in the
    quaternion basis (i, j, k)."""
    degree = form.degree
    basis = np.eye(4)[1:]
    idx = np.indices((3,) * degree).reshape(degree, 3 ** degree).T
    points = np.repeat([[1.0, 0.0, 0.0, 0.0]], len(idx), axis=0)
    return form.evaluate(points, basis[idx]).reshape((3,) * degree)


def derivation_residual(form: DifferentialForm, step: float = 5e-2,
                        quad: QuadratureSpec | None = None) -> float:
    """Relative defect of ``degree! * derivative(integrated cochain)``
    against the form itself at the identity of SU(2).

    Exact calculus gives equality; the numerical residual combines the
    O(step^2) differencing error with the quadrature error.
    """
    quad = quad or QuadratureSpec(order=6, tol=1e-2)
    degree = form.degree
    cochain = integrated_cochain(form, "chart", quad=quad)
    deriv = cochain_derivative(cochain, step)
    target = form_at_identity(form)
    scale = np.abs(target).max()
    if scale == 0.0:
        return factorial(degree) * deriv.norm_max()
    return np.abs(factorial(degree) * deriv.tensor - target).max() / scale
