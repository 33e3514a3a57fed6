"""Exact integer matrix utilities: Smith normal form with unimodular
transforms, integer linear solves, kernels, and a rational-rank oracle.

Everything runs over Python integers (arbitrary precision), so ranks and
torsion are exact.  The Smith normal form is one pivot loop (Cohen, A
Course in Computational Algebraic Number Theory, GTM 138, section 2.4) on
the block matrix [[A, I_m], [I_n, 0]]: a row operation on its first m
rows carries U along with S, and a column operation on its first n
columns carries V; a column operation adds only into the rows where its
source column is nonzero.  Each step pivots on the first nonzero entry
of least magnitude, clears its column and then its row by quotient
operations, and runs again while a remainder is left or while a later
row is not divisible by the pivot.  U and V are sparse for boundary
matrices (every entry of a tuple boundary is +-1), so a solver keeps each
of their rows as the list of its nonzeros and a solve sums over those
only.  The rank oracle is Bareiss's fraction-free elimination, whose
every division is exact, and shares no code with the Smith normal form.
"""
from __future__ import annotations

import operator


def _pivot(b, k, m, n):
    """Row-major position of the first nonzero entry of least magnitude
    in rows k..m-1 and columns k..n-1 of b, or None when all are zero.  A
    unit ends the search: no later entry is smaller."""
    best, least = None, 0
    for i in range(k, m):
        row = b[i]
        for j in range(k, n):
            a = abs(row[j])
            if a and (best is None or a < least):
                best, least = (i, j), a
                if a == 1:
                    return best
    return best


def smith_normal_form(mat):
    """Return (U, S, V) with U @ mat @ V = S diagonal, U and V unimodular,
    and the diagonal entries nonnegative with each dividing the next."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    # b = [[S, U], [V, 0]], from S = A, U = I_m and V = I_n
    b = [list(row) + [int(i == r) for i in range(m)]
         for r, row in enumerate(mat)]
    b += [[int(i == r) for i in range(n)] + [0] * m for r in range(n)]

    def add_row(src, dst, f):
        b[dst] = [x + f * y for x, y in zip(b[dst], b[src])]

    def add_col(src, dst, f):
        for row in b:
            if row[src]:
                row[dst] += f * row[src]

    k = 0
    while k < min(m, n):
        pivot = _pivot(b, k, m, n)
        if pivot is None:
            break
        pi, pj = pivot
        b[pi], b[k] = b[k], b[pi]
        if pj != k:
            for row in b:
                row[pj], row[k] = row[k], row[pj]
        if b[k][k] < 0:
            b[k] = [-x for x in b[k]]
        p = b[k][k]
        below = range(k + 1, m)
        for i in below:
            if b[i][k]:
                add_row(k, i, -(b[i][k] // p))
        for j in range(k + 1, n):
            if b[k][j]:
                add_col(k, j, -(b[k][j] // p))
        if any(b[i][k] for i in below) or any(b[k][k + 1:n]):
            continue  # a remainder below p is left: the step runs again
        # p must divide every later entry; a row where it does not is
        # added to row k, whose next pass leaves a remainder
        bad = next((i for i in below
                    if p > 1 and any(x % p for x in b[i][k + 1:n])), None)
        if bad is None:
            k += 1
        else:
            add_row(bad, k, 1)
    return ([row[n:] for row in b[:m]], [row[:n] for row in b[:m]],
            [row[:n] for row in b[m:]])


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
