"""Alternating Lie-algebra cochains and the derivation map from group
cochains.

Structure constants are exact rationals; only the derivation map (mixed
central differences of a locally smooth group cochain along exponential
coordinates) is floating point.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np

from .cochains import HomogeneousCochain, integrated_cochain
from .errors import DomainGuard, StepTooLarge
from .forms import DifferentialForm
from .groups import LieVector, UnitQuaternion, _perm_signs, quat_exp
from .quadrature import QuadratureSpec


class LieAlgebraTable:
    """Basis, structure constants and invariant pairing of a Lie algebra.

    ``structure[i][j][k]`` is the coefficient of basis vector k in
    [X_i, X_j]; everything is stored as Fractions and the Jacobi identity
    is verified exactly at construction.
    """

    def __init__(self, tag, structure, pairing):
        self.tag = tag
        self.dim = len(structure)
        self.structure = [[[Fraction(c) for c in row] for row in plane]
                          for plane in structure]
        self.pairing = [[Fraction(c) for c in row] for row in pairing]
        self._validate()

    def _validate(self):
        d = self.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if self.structure[i][j][k] != -self.structure[j][i][k]:
                        raise ValueError("structure constants not "
                                         "antisymmetric")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        total = Fraction(0)
                        for m in range(d):
                            total += (
                                self.structure[i][j][m] * self.structure[m][k][l]
                                + self.structure[j][k][m] * self.structure[m][i][l]
                                + self.structure[k][i][m] * self.structure[m][j][l])
                        if total != 0:
                            raise ValueError("Jacobi identity fails")

    def bracket_coeffs(self, i, j):
        return self.structure[i][j]

    def pair(self, i, j):
        return self.pairing[i][j]

    @classmethod
    def su2(cls):
        """Quaternion basis (i, j, k): [e_i, e_j] = 2 e_k cyclic; pairing
        is the dot product (-Tr(AB)/2 in the defining representation)."""
        eps = _epsilon3()
        structure = [[[2 * eps[i][j][k] for k in range(3)]
                      for j in range(3)] for i in range(3)]
        return cls("su2", structure, _id_matrix(3))

    @classmethod
    def so3(cls):
        """Standard rotation generators: [e_1, e_2] = e_3 cyclic; pairing
        Tr(A^T B)/2."""
        eps = _epsilon3()
        return cls("so3", eps, _id_matrix(3))

    @classmethod
    def so4(cls):
        """Elementary antisymmetric matrices E_ab (a < b); pairing
        Tr(A^T B)/2."""
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        index = {p: i for i, p in enumerate(pairs)}

        def e_coeff(a, b):
            # E_ab with a > b is -E_ba
            if a == b:
                return None, 0
            if a < b:
                return index[(a, b)], 1
            return index[(b, a)], -1

        structure = [[[0] * 6 for _ in range(6)] for _ in range(6)]
        for i, (a, b) in enumerate(pairs):
            for j, (c, d) in enumerate(pairs):
                # [E_ab, E_cd] = d_bc E_ad - d_ac E_bd - d_bd E_ac + d_ad E_bc
                for delta, (x, y) in [(int(b == c), (a, d)),
                                      (-int(a == c), (b, d)),
                                      (-int(b == d), (a, c)),
                                      (int(a == d), (b, c))]:
                    if delta:
                        k, sign = e_coeff(x, y)
                        if k is not None:
                            structure[i][j][k] += delta * sign
        return cls("so4", structure, _id_matrix(6))

    def exp(self, coeffs):
        """Group element exp(sum_i coeffs_i X_i) of SU(2); the so(3) and
        so(4) tables carry no exponential and raise ValueError."""
        if self.tag != "su2":
            raise ValueError(f"no exponential for {self.tag}; only su2 "
                             "tables exponentiate")
        return quat_exp(LieVector("su2", coeffs))


def _epsilon3():
    eps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
        eps[i][j][k] = s
    return eps


def _id_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


class MultilinearCochain:
    """Fully antisymmetric coefficient tensor over the algebra basis."""

    def __init__(self, degree, dim, tensor, tag=""):
        self.degree = degree
        self.dim = dim
        self.tag = tag
        arr = np.asarray(tensor)
        if arr.shape != (dim,) * degree:
            raise ValueError(f"tensor shape {arr.shape} does not match "
                             f"degree {degree} over dimension {dim}")
        self.tensor = arr
        for idx in product(range(dim), repeat=degree):
            for perm, sign in _perm_signs(degree):
                pidx = tuple(idx[p] for p in perm)
                if not _entries_equal(arr[idx] * sign, arr[pidx]):
                    raise ValueError("tensor is not alternating")

    def __call__(self, *indices):
        return self.tensor[tuple(indices)]

    def norm_max(self):
        return max(abs(float(v)) for v in self.tensor.flat) \
            if self.tensor.size else 0.0


def _entries_equal(a, b):
    if isinstance(a, (Fraction, int)) and isinstance(b, (Fraction, int)):
        return a == b
    return abs(float(a) - float(b)) <= 1e-9 * (1.0 + abs(float(a)))


def alternation(tensor, degree):
    """Antisymmetrize a tensor exactly (Fractions) or in floats."""
    arr = np.asarray(tensor)
    dim = arr.shape[0]
    out = np.empty_like(arr)
    fac = Fraction(1, factorial(degree)) if arr.dtype == object \
        else 1.0 / factorial(degree)
    for idx in product(range(dim), repeat=degree):
        total = 0
        for perm, sign in _perm_signs(degree):
            total = total + sign * arr[tuple(idx[p] for p in perm)]
        out[idx] = total * fac
    return out


def ce_differential(omega: MultilinearCochain,
                    algebra: LieAlgebraTable) -> MultilinearCochain:
    """Chevalley-Eilenberg differential via the bracket-insertion sum."""
    n = omega.degree
    dim = algebra.dim
    use_fractions = omega.tensor.dtype == object
    out = np.empty((dim,) * (n + 1), dtype=omega.tensor.dtype)
    for idx in product(range(dim), repeat=n + 1):
        total = Fraction(0) if use_fractions else 0.0
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                rest = tuple(idx[c] for c in range(n + 1)
                             if c != a and c != b)
                coeffs = algebra.bracket_coeffs(idx[a], idx[b])
                for m, cm in enumerate(coeffs):
                    if cm:
                        term = omega.tensor[(m,) + rest] * cm
                        total = total + ((-1) ** (a + b)) * term
        out[idx] = total
    return MultilinearCochain(n + 1, dim, out, tag=algebra.tag)


def cartan_cocycle(algebra: LieAlgebraTable) -> MultilinearCochain:
    """Invariant trilinear cocycle <x, [y, z]> of a quadratic algebra."""
    dim = algebra.dim
    # ad-invariance of the pairing is required for the cocycle property
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = sum(algebra.structure[i][j][m] * algebra.pair(m, k)
                          for m in range(dim))
                rhs = sum(algebra.structure[i][k][m] * algebra.pair(j, m)
                          for m in range(dim))
                if lhs + rhs != 0:
                    raise ValueError("pairing is not ad-invariant")
    out = np.empty((dim,) * 3, dtype=object)
    for i, j, k in product(range(dim), repeat=3):
        out[i, j, k] = sum(
            algebra.structure[j][k][m] * algebra.pair(i, m)
            for m in range(dim))
    return MultilinearCochain(3, dim, out, tag=algebra.tag)


def _group_tuple(algebra: LieAlgebraTable, steps):
    """(e, exp(Y_1), exp(Y_1)exp(Y_2), ...) for algebra elements Y_i."""
    out = [UnitQuaternion.IDENTITY]
    for y in steps:
        out.append(out[-1] * algebra.exp(y))
    return tuple(out)


def cochain_derivative(f: HomogeneousCochain, algebra: LieAlgebraTable,
                       n: int, step: float = 5e-2) -> MultilinearCochain:
    """Alternated mixed partial derivatives of a group cochain at the
    identity along exponential coordinates.

    The degree-n derivative evaluates f, for n distinct basis vectors
    X_1..X_n, on tuples (e, exp(t_1 X_1), exp(t_1 X_1) exp(t_2 X_2), ...)
    over the corner signs t_i = +-step and divides by (2 step)^n, then
    antisymmetrizes; entries with a repeated basis vector are 0.
    """
    if f.degree != n:
        raise ValueError("cochain degree must match the derivative order")
    dim = algebra.dim
    raw = np.zeros((dim,) * n)
    for idx in product(range(dim), repeat=n):
        if len(set(idx)) < n:
            continue  # cancels in the alternation
        acc = 0.0
        for signs in product((-1.0, 1.0), repeat=n):
            steps = []
            for s, i in zip(signs, idx):
                coeffs = [0.0] * dim
                coeffs[i] = s * step
                steps.append(coeffs)
            try:
                val = float(f(_group_tuple(algebra, steps)))
            except DomainGuard as exc:
                raise StepTooLarge(
                    f"step {step} leaves the cochain domain") from exc
            acc += np.prod(signs) * val
        raw[idx] = acc / (2.0 * step) ** n
    return MultilinearCochain(n, dim, alternation(raw, n), tag=algebra.tag)


def form_at_identity(form: DifferentialForm, degree: int) -> np.ndarray:
    """Coefficient tensor of a form on SU(2) at the identity, in the
    quaternion basis (i, j, k)."""
    basis = np.eye(4)[1:]
    point = np.array([[1.0, 0.0, 0.0, 0.0]])
    out = np.zeros((3,) * degree)
    for idx in product(range(3), repeat=degree):
        tangents = np.stack([basis[i] for i in idx])[None]
        out[idx] = form.evaluate(point, tangents)[0]
    return out


def derivation_residual(form: DifferentialForm, degree: int,
                        step: float = 5e-2,
                        quad: QuadratureSpec | None = None) -> float:
    """Relative defect of ``degree! * derivative(integrated cochain)``
    against the form itself at the identity of SU(2).

    Exact calculus gives equality; the numerical residual combines the
    O(step^2) differencing error with the quadrature error.
    """
    quad = quad or QuadratureSpec(order=6, tol=1e-2)
    algebra = LieAlgebraTable.su2()
    cochain = integrated_cochain(form, "chart", 0, quad=quad)
    deriv = cochain_derivative(cochain, algebra, degree, step)
    target = form_at_identity(form, degree)
    scale = np.abs(target).max()
    if scale == 0.0:
        return factorial(degree) * deriv.norm_max()
    worst = 0.0
    for idx in product(range(3), repeat=degree):
        got = factorial(degree) * float(deriv.tensor[idx])
        worst = max(worst, abs(got - target[idx]))
    return worst / scale
