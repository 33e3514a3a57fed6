"""Exact integer matrix utilities: Smith normal form with unimodular
transforms, integer linear solves, kernels, and a rational-rank oracle.

Everything runs over Python integers (arbitrary precision), so ranks and
torsion are exact.  The Smith normal form is one pivot loop (Cohen, A
Course in Computational Algebraic Number Theory, GTM 138, section 2.4)
on S as dense rows, U as dense rows that take the row operations only,
and V as columns, dicts of their nonzeros, that take the column
operations only; each operation adds over the nonzeros of its source row
or column.  Each step pivots on the first nonzero entry of least
magnitude, clears its column and then its row by quotient operations, and
runs again while a remainder is left or while a later row is not
divisible by the pivot.  U and V are sparse for tuple boundaries (every
entry is +-1), so a solve reads only the columns of U where the
right-hand side is nonzero and the columns of V where the solution of the
diagonal system is.  The rank oracle is integer row elimination over Q,
which rewrites only the rows that are nonzero in the pivot column and
shares no code with the Smith normal form.
"""
from __future__ import annotations

import operator
from math import gcd


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


def _nonzeros(seq):
    """The pairs (i, x) of the nonzero entries x = seq[i]."""
    return [(i, x) for i, x in enumerate(seq) if x]


def smith_normal_form(mat):
    """Return (U, S, V) with U @ mat @ V = S diagonal, U and V unimodular,
    and the diagonal entries nonnegative with each dividing the next."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    s = [list(row) for row in mat]
    u = [[int(i == r) for i in range(m)] for r in range(m)]
    v = [{j: 1} for j in range(n)]  # the columns of V

    def add_row(src, dst, f):  # src: the nonzeros of a row of S and of U
        for target, nonzeros in zip((s, u), src):
            row = target[dst]
            for j, x in nonzeros:
                row[j] += f * x

    k = 0
    while k < min(m, n):
        pivot = _pivot(s, k, m, n)
        if pivot is None:
            break
        pi, pj = pivot
        s[pi], s[k], u[pi], u[k] = s[k], s[pi], u[k], u[pi]
        if pj != k:
            for row in s[k:]:  # rows before k are 0 past column k - 1
                row[pj], row[k] = row[k], row[pj]
            v[pj], v[k] = v[k], v[pj]
        if s[k][k] < 0:
            s[k], u[k] = [-x for x in s[k]], [-x for x in u[k]]
        p = s[k][k]
        # row k and column k stay fixed while they clear the later ones
        top = (_nonzeros(s[k]), _nonzeros(u[k]))
        below = range(k + 1, m)
        for i in below:
            if s[i][k]:
                add_row(top, i, -(s[i][k] // p))
        rows = [row for row in s[k:] if row[k]]
        for j, x in top[0]:
            if j > k:
                f = -(x // p)
                for row in rows:
                    row[j] += f * row[k]
                col = v[j]
                for i, c in v[k].items():
                    col[i] = col.get(i, 0) + f * c
                    if not col[i]:
                        del col[i]
        if any(s[i][k] for i in below) or any(s[k][k + 1:n]):
            continue  # a remainder below p is left: the step runs again
        # p must divide every later entry; a row where it does not is
        # added to row k, whose next pass leaves a remainder
        bad = next((i for i in below
                    if p > 1 and any(x % p for x in s[i][k + 1:n])), None)
        if bad is None:
            k += 1
        else:
            add_row((_nonzeros(s[bad]), _nonzeros(u[bad])), k, 1)
    dense = [[0] * n for _ in range(n)]
    for j, col in enumerate(v):
        for i, c in col.items():
            dense[i][j] = c
    return u, s, dense


class SmithSolver:
    """Reusable exact solver for A x = b over the integers."""

    def __init__(self, mat):
        self.m = len(mat)
        self.n = len(mat[0]) if self.m else 0
        u, s, v = smith_normal_form(mat)
        self.diag = [s[i][i] for i in range(min(self.m, self.n))]
        self.rank = sum(1 for d in self.diag if d)
        # the nonzeros (i, c) of each column of U, and of V's first rank
        # columns, the only ones that x = S^-1 U b can weight
        self._u_cols = [_nonzeros(col) for col in zip(*u)]
        v_cols = list(zip(*v))
        self._v_cols = [_nonzeros(col) for col in v_cols[:self.rank]]
        self._kernel = v_cols[self.rank:]

    def solve(self, b):
        """An integer solution of A x = b, or None when none exists: V x
        with x_i = (U b)_i / d_i, where U b vanishes past the rank."""
        if len(b) != self.m:
            raise ValueError(f"b has {len(b)} entries, not {self.m}")
        y = [0] * self.m
        for j, bj in enumerate(b):
            if bj:
                for i, c in self._u_cols[j]:
                    y[i] += c * bj
        if any(y[self.rank:]):
            return None
        out = [0] * self.n
        for yi, d, col in zip(y, self.diag, self._v_cols):
            xi, rem = divmod(yi, d)
            if rem:
                return None
            if xi:
                for i, c in col:
                    out[i] += c * xi
        return out

    def kernel_basis(self):
        """Integer basis of the kernel: trailing columns of V."""
        return [list(col) for col in self._kernel]


def rational_rank(mat):
    """Rank over Q by integer row elimination, an independent cross-check
    for the Smith-normal-form pipeline.  The rows left to eliminate form a
    pool, each zero before the current column.  A column with a nonzero
    entry in the pool takes its first such row as pivot row ``top`` (out
    of the pool) and rewrites only the other rows nonzero there, as
    ``p * row - f * top`` with p the pivot and f the row's entry: a
    nonzero multiple of the row plus a multiple of ``top``, so the rank
    over Q is kept.  Each rewritten row is divided by its content, the
    gcd of its entries, and a row that becomes zero leaves the pool.  The
    rank is the number of pivots.  Entries are integers."""
    pool = [row for row in (list(map(operator.index, r)) for r in mat)
            if any(row)]
    rank = 0
    for col in range(len(pool[0]) if pool else 0):
        hits = [row for row in pool if row[col]]
        if not hits:
            continue
        pool = [row for row in pool if not row[col]]
        top, *rest = hits
        p = top[col]
        for row in rest:
            f = row[col]
            new = [p * x - f * y for x, y in zip(row, top)]
            g = gcd(*new)
            if g:
                pool.append(new if g == 1 else [x // g for x in new])
        rank += 1
    return rank
