"""Exact integer matrix utilities: Smith normal form with unimodular
transforms, integer linear solves, kernels, and a rational-rank oracle.

Everything runs over Python integers (arbitrary precision), so ranks and
torsion are exact.  Matrices are small here (hundreds of rows), so the
classical pivoting algorithm is plenty.
"""
from __future__ import annotations

from fractions import Fraction


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (U, S, V) with U @ mat @ V = S diagonal, U and V unimodular,
    and the diagonal entries nonnegative with each dividing the next."""
    s = [row[:] for row in mat]
    m = len(s)
    n = len(s[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        s[dst] = [a + f * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + f * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in s:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def negate_row(i):
        s[i] = [-a for a in s[i]]
        u[i] = [-a for a in u[i]]

    k = 0
    while k < min(m, n):
        # find a nonzero pivot of least magnitude
        best = None
        for i in range(k, m):
            for j in range(k, n):
                a = s[i][j]
                if a and (best is None or abs(a) < abs(best[0])):
                    best = (a, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            swap_rows(pi, k)
        if pj != k:
            swap_cols(pj, k)
        if s[k][k] < 0:
            negate_row(k)
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, m):
                if s[i][k]:
                    q = s[i][k] // s[k][k]
                    add_row(k, i, -q)
                    if s[i][k]:
                        swap_rows(i, k)
                        if s[k][k] < 0:
                            negate_row(k)
                        dirty = True
            for j in range(k + 1, n):
                if s[k][j]:
                    q = s[k][j] // s[k][k]
                    add_col(k, j, -q)
                    if s[k][j]:
                        swap_cols(j, k)
                        dirty = True
        k += 1

    # enforce the divisibility chain d_i | d_{i+1}
    r = k
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = s[i][i], s[i + 1][i + 1]
            if b % a != 0:
                add_col(i + 1, i, 1)
                # re-clear the 2x2 block
                while s[i + 1][i]:
                    q = s[i + 1][i] // s[i][i] if abs(s[i][i]) <= abs(
                        s[i + 1][i]) else 0
                    if abs(s[i][i]) > abs(s[i + 1][i]) and s[i + 1][i]:
                        swap_rows(i, i + 1)
                    else:
                        add_row(i, i + 1, -q)
                if s[i][i] < 0:
                    negate_row(i)
                if s[i][i + 1]:
                    q = s[i][i + 1] // s[i][i]
                    add_col(i, i + 1, -q)
                if s[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return u, s, v


class SmithSolver:
    """Reusable exact solver for A x = b over the integers."""

    def __init__(self, mat):
        self.m = len(mat)
        self.n = len(mat[0]) if self.m else 0
        self.u, self.s, self.v = smith_normal_form(mat)
        self.diag = [self.s[i][i] for i in range(min(self.m, self.n))]
        self.rank = sum(1 for d in self.diag if d)

    def solve(self, b):
        """An integer solution of A x = b, or None when none exists."""
        if self.m == 0:
            return [0] * self.n
        y = [sum(self.u[i][j] * b[j] for j in range(self.m))
             for i in range(self.m)]
        x = [0] * self.n
        for i in range(self.m):
            d = self.diag[i] if i < len(self.diag) else 0
            if d == 0:
                if y[i] != 0:
                    return None
            else:
                if y[i] % d != 0:
                    return None
                if i < self.n:
                    x[i] = y[i] // d
        return [sum(self.v[i][j] * x[j] for j in range(self.n))
                for i in range(self.n)]

    def kernel_basis(self):
        """Integer basis of the kernel: trailing columns of V."""
        return [[self.v[i][j] for i in range(self.n)]
                for j in range(self.rank, self.n)]


def rational_rank(mat):
    """Rank over Q by fraction-exact Gaussian elimination (an independent
    cross-check for the Smith-normal-form pipeline)."""
    a = [[Fraction(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r
