"""Exact integer matrix utilities: Smith normal form with unimodular
transforms, integer linear solves, kernels, and a rational-rank oracle.

Everything runs over Python integers (arbitrary precision), so ranks and
torsion are exact.  The Smith normal form is the classical dense pivoting
algorithm.  Its transforms U and V are sparse for boundary matrices
(every entry of a tuple boundary is +-1), so a solver keeps each row of U
and V as the list of its nonzeros and a solve sums over those only.  The
rank oracle is Bareiss's fraction-free elimination, whose every division
is exact, and shares no code with the Smith normal form.
"""
from __future__ import annotations

import operator


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
        # the nonzeros (j, c) of each row of U, and of each row of V in
        # its first rank columns, the only entries of x = S^-1 U b that
        # can be nonzero
        self._u_rows = [[(j, c) for j, c in enumerate(row) if c]
                        for row in self.u]
        self._v_rows = [[(j, c) for j, c in enumerate(row[:self.rank]) if c]
                        for row in self.v]

    def solve(self, b):
        """An integer solution of A x = b, or None when none exists: V x
        with x_i = (U b)_i / d_i, where U b vanishes past the rank."""
        y = [sum(c * b[j] for j, c in row) for row in self._u_rows]
        if any(y[self.rank:]):
            return None
        x = []
        for yi, d in zip(y, self.diag[:self.rank]):
            xi, rem = divmod(yi, d)
            if rem:
                return None
            x.append(xi)
        return [sum(c * x[j] for j, c in row) for row in self._v_rows]

    def kernel_basis(self):
        """Integer basis of the kernel: trailing columns of V."""
        return [[self.v[i][j] for i in range(self.n)]
                for j in range(self.rank, self.n)]


def rational_rank(mat):
    """Rank over Q by fraction-free (Bareiss) elimination over the
    integers, an independent cross-check for the Smith-normal-form
    pipeline.  By Sylvester's identity every entry below the pivots is a
    minor of ``mat``, so each division by the previous pivot is exact.
    Entries must be integers."""
    a = [list(map(operator.index, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        for i in range(r + 1, m):
            f = a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        r += 1
        if r == m:
            break
    return r
