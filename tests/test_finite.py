from fractions import Fraction
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest

from cocyclelab import finite, suites
from cocyclelab.cochains import HomogeneousChain
from cocyclelab.errors import (NotAChainMap, NotWellConfigured,
                               KernelObstruction, PredicateNotFaceClosed)
from cocyclelab.finite import (FiniteGroupTable, HomologySummary,
                               brute_force_free_rank, build_complex,
                               build_retraction, extend_cocycle, homology)
from cocyclelab.simplices import all_faces
from cocyclelab.snf import (SmithSolver, _pivot, rational_rank,
                            smith_normal_form)
from cocyclelab.suites import run_suite

rng = np.random.default_rng(31)


def test_snf_against_rational_rank_oracle():
    for _ in range(60):
        m, n = rng.integers(1, 8, size=2)
        a = rng.integers(-6, 7, size=(m, n)).tolist()
        u, s, v = smith_normal_form(a)
        ua = [[sum(u[i][k] * a[k][j] for k in range(m)) for j in range(n)]
              for i in range(m)]
        uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)]
               for i in range(m)]
        assert uav == s
        d = [s[i][i] for i in range(min(m, n)) if s[i][i]]
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
        assert SmithSolver(a).rank == len(d) == rational_rank(a)


def test_snf_solver_roundtrip_and_kernel():
    for _ in range(40):
        m, n = rng.integers(1, 7, size=2)
        a = rng.integers(-5, 6, size=(m, n)).tolist()
        solver = SmithSolver(a)
        x = rng.integers(-4, 5, size=n).tolist()
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)]
        x2 = solver.solve(b)
        assert x2 is not None
        assert [sum(a[i][j] * x2[j] for j in range(n))
                for i in range(m)] == b
        for k in solver.kernel_basis():
            assert all(sum(a[i][j] * k[j] for j in range(n)) == 0
                       for i in range(m))


def det(a):
    """Reference determinant: Laplace expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * x * det([row[:j] + row[j + 1:] for row in a[1:]])
               for j, x in enumerate(a[0]) if x)


def invariant_factors(a):
    """Reference: d_k = D_k / D_(k-1), where the determinantal divisor D_k
    is the gcd of the k by k minors of a."""
    out, prev = [], 1
    for k in range(1, min(len(a), len(a[0])) + 1):
        dk = 0
        for rows in combinations(range(len(a)), k):
            for cols in combinations(range(len(a[0])), k):
                dk = gcd(dk, det([[a[i][j] for j in cols] for i in rows]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def unimodular(n):
    """A random product of elementary integer row operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        f = int(rng.integers(-2, 3))
        p[i] = [x + f * y for x, y in zip(p[i], p[j])]
    return p


def test_snf_diagonal_is_the_invariant_factors():
    # no base matrix has a unit entry, and the diagonal ones need the
    # divisibility step: diag(2, 3) has invariant factors (1, 6).  Their
    # unimodular conjugates, also padded by a zero row or column, have
    # the same invariant factors
    cases = {((2, 0), (0, 3)): [1, 6], ((4, 0), (0, 6)): [2, 12],
             ((6, 0, 0), (0, 4, 0), (0, 0, 10)): [2, 2, 60],
             ((2, 4), (6, 8)): [2, 4]}
    for mat, factors in cases.items():
        k = len(mat)
        wide = [list(row) + [0] for row in mat]
        tall = [list(row) for row in mat] + [[0] * k]
        conjugates = [matmul(matmul(unimodular(k), mat), unimodular(k))
                      for _ in range(4)]
        conjugates += [matmul(matmul(unimodular(k), wide), unimodular(k + 1)),
                       matmul(matmul(unimodular(k + 1), tall), unimodular(k))]
        for a in [[list(row) for row in mat]] + conjugates:
            assert invariant_factors(a) == factors
            u, s, v = smith_normal_form(a)
            assert matmul(matmul(u, a), v) == s
            assert abs(det(u)) == abs(det(v)) == 1
            assert all(s[i][j] == 0 for i in range(len(s))
                       for j in range(len(s[0])) if i != j)
            assert [s[i][i] for i in range(len(factors))] == factors
            assert all(s[i][i] == 0 for i in range(len(factors),
                                                   min(len(s), len(s[0]))))


def reference_smith_normal_form(mat):
    """Reference copy of the pivot loop whose column add walks every row
    of the block matrix, zero entries of the source column included."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    b = [list(row) + [int(i == r) for i in range(m)]
         for r, row in enumerate(mat)]
    b += [[int(i == r) for i in range(n)] + [0] * m for r in range(n)]

    def add_row(src, dst, f):
        b[dst] = [x + f * y for x, y in zip(b[dst], b[src])]

    def add_col(src, dst, f):
        for row in b:
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
            continue
        bad = next((i for i in below
                    if p > 1 and any(x % p for x in b[i][k + 1:n])), None)
        if bad is None:
            k += 1
        else:
            add_row(bad, k, 1)
    return ([row[n:] for row in b[:m]], [row[:n] for row in b[:m]],
            [row[:n] for row in b[m:]])


def test_column_add_over_nonzero_rows_is_the_full_loop():
    # adding over the nonzeros of the source row or column adds only
    # zeros elsewhere, so (U, S, V) is the reference's on tuple boundaries
    # (conf-distinct and all-tuples, cyclic and Q8) and random matrices
    complexes = [build_complex(FiniteGroupTable.cyclic(m), "conf-distinct", 3)
                 for m in (5, 6, 7)]
    complexes += [build_complex(FiniteGroupTable.cyclic(m), "all-tuples", 3)
                  for m in (2, 3)]
    complexes.append(build_complex(FiniteGroupTable.quaternion8(),
                                   "conf-distinct", 2))
    for c in complexes:
        for n in range(1, c.q + 1):
            a = c.boundaries[n]
            assert smith_normal_form(a) == reference_smith_normal_form(a)
    local = np.random.default_rng(37)
    for _ in range(100):
        m, n = local.integers(1, 8, size=2)
        a = local.integers(-6, 7, size=(m, n))
        a[:, local.random(n) < 0.3] = 0
        a = a.tolist()
        assert smith_normal_form(a) == reference_smith_normal_form(a)


def fraction_rank(mat):
    """Reference rank: Gauss-Jordan elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in mat]
    r = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_rational_rank_of_rank_deficient_products():
    for _ in range(200):
        m, n = rng.integers(2, 9, size=2)
        k = int(rng.integers(0, min(m, n)))
        a = rng.integers(-3, 4, size=(m, k)) @ rng.integers(-3, 4,
                                                            size=(k, n))
        # zero rows and columns in random places
        a[rng.random(m) < 0.2, :] = 0
        a[:, rng.random(n) < 0.2] = 0
        mat = a.tolist()
        assert rational_rank(mat) == fraction_rank(mat) <= k
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([]) == 0


def test_rational_rank_leaves_a_row_that_is_zero_under_the_pivot():
    # the last row's entry under the second pivot is 0 while the pivots
    # differ (3, then 6): the elimination leaves that row as it is
    a = [[0, 3, 0, 4, -3], [-9, 9, 6, 12, -9], [0, -3, -2, -4, 3],
         [3, -3, -2, 0, 3]]
    assert rational_rank(a) == fraction_rank(a) == 4


def test_rational_rank_of_larger_dense_matrices():
    local = np.random.default_rng(34)
    for _ in range(40):
        m, n = (int(x) for x in local.integers(1, [21, 31]))
        if local.random() < 0.5:
            a = local.integers(-9, 10, size=(m, n))
        else:  # a product of rank at most k
            k = int(local.integers(0, min(m, n) + 1))
            a = local.integers(-4, 5, size=(m, k)) @ local.integers(
                -4, 5, size=(k, n))
        a[local.random(m) < 0.15, :] = 0
        mat = a.tolist()
        assert rational_rank(mat) == fraction_rank(mat)
    # an entry of any integer type, a numpy array; a float entry is refused
    assert rational_rank([[np.int64(2), True], [4, 2]]) == 1
    assert rational_rank(np.array([[1, 2, 0], [2, 4, 0]])) == 1
    assert rational_rank(np.zeros((0, 3), dtype=int)) == 0
    with pytest.raises(TypeError):
        rational_rank([[1.0, 2]])


@pytest.mark.parametrize("group", [FiniteGroupTable.cyclic(5),
                                   FiniteGroupTable.cyclic(6),
                                   FiniteGroupTable.quaternion8()],
                         ids=["z5", "z6", "q8"])
def test_rational_rank_is_the_smith_rank_of_every_boundary(group):
    c = build_complex(group, "conf-distinct", 3)
    for n in (1, 2, 3):
        assert rational_rank(c.boundaries[n]) == c.solver(n).rank


def test_rational_crosscheck_ranks_each_boundary_once(monkeypatch):
    # conf-z5-rational-crosscheck ranks d_1, d_2 and d_3 over Q once each,
    # not d_1 and d_2 again for H_1 and H_2
    ranked = []

    def counted(mat):
        ranked.append(mat)
        return rational_rank(mat)

    for module in (finite, suites):
        if hasattr(module, "rational_rank"):
            monkeypatch.setattr(module, "rational_rank", counted)
    conf = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    monkeypatch.setattr(suites, "build_complex",
                        lambda *args: conf if args[1] == "conf-distinct"
                        else build_complex(*args))
    checks = {check.id: check
              for check in run_suite("configured-homology").checks}
    assert checks["conf-z5-rational-crosscheck"].passed
    assert len(ranked) == 3
    assert sorted(map(id, ranked)) == sorted(map(id, conf.boundaries[1:]))


def test_rational_rank_of_boundary_matrices():
    conf = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    full = build_complex(FiniteGroupTable.cyclic(3), "all-tuples", 3)
    for c in (conf, full):
        for n in (1, 2, 3):
            assert rational_rank(c.boundaries[n]) == \
                fraction_rank(c.boundaries[n]) == c.solver(n).rank


def dense_solve(a, b):
    """Reference solve: x = V y / diag with y = U b, in dense loops over
    the transforms of ``smith_normal_form(a)``."""
    u, s, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    y = [sum(u[i][j] * b[j] for j in range(m)) for i in range(m)]
    x = [0] * n
    for i in range(m):
        d = s[i][i] if i < n else 0
        if d == 0:
            if y[i] != 0:
                return None
        elif y[i] % d != 0:
            return None
        else:
            x[i] = y[i] // d
    return [sum(v[i][j] * x[j] for j in range(n)) for i in range(n)]


def test_sparse_solve_matches_dense_transforms():
    # Z/5 at q = 3, and Q8, the nonabelian group, at q = 2
    for c in (build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3),
              build_complex(FiniteGroupTable.quaternion8(), "conf-distinct",
                            2)):
        for n in range(1, c.q + 1):
            a = c.boundaries[n]
            solver = c.solver(n)
            for _ in range(4):
                x = rng.integers(-3, 4, size=solver.n).tolist()
                b = [sum(aij * xj for aij, xj in zip(row, x)) for row in a]
                sol = solver.solve(b)
                assert sol == dense_solve(a, b)
                assert [sum(aij * xj for aij, xj in zip(row, sol))
                        for row in a] == b
                # a random right-hand side: both agree, None included
                b = rng.integers(-2, 3, size=solver.m).tolist()
                assert solver.solve(b) == dense_solve(a, b)
        # a 0-chain of nonzero augmentation is no boundary of 1-chains
        b = [1] + [0] * (len(c.generators[0]) - 1)
        assert c.solver(1).solve(b) is None
        assert dense_solve(c.boundaries[1], b) is None


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    solver = SmithSolver([[1, 0], [0, 1]])
    assert solver.solve([1, 2]) == [1, 2]
    for b in ([1, 2, 99], [1]):
        with pytest.raises(ValueError, match=f"b has {len(b)} entries, not 2"):
            solver.solve(b)


def test_solve_needs_an_integer_quotient_of_each_invariant_factor():
    # 2 x = 1 has a rational solution and no integer one
    assert SmithSolver([[2]]).solve([1]) is None
    assert SmithSolver([[2]]).solve([4]) == [2]


def test_group_table_validation():
    z6 = FiniteGroupTable.cyclic(6)
    assert z6.identity == 0 and z6.inv(2) == 4
    q8 = FiniteGroupTable.quaternion8()
    assert q8.order == 8
    with pytest.raises(ValueError):
        FiniteGroupTable([[0, 1], [1, 1]])  # no inverse row


@pytest.mark.parametrize("table, message", [
    ([[0, 1]], "not square: a row of 2 in 1 rows"),
    ([[0, 1], [1, 0], [0, 1]], "not square: a row of 2 in 3 rows"),
    ([[0, 1], [1]], "not square: a row of 1 in 2 rows"),
    ([[0.5]], "table entry 0.5 is not in 0..0"),
    ([[0, 1], [1, 2]], "table entry 2 is not in 0..1"),
    ([[0, 1], [1, -1]], "table entry -1 is not in 0..1"),
    ([[True]], "table entry True is not in 0..0"),
    ([[1, 0], [1, 0]], "has no identity"),
    # an identity and unique inverses, but (2 * 2) * 1 = 0 and 2 * (2 * 1)
    # = 2
    ([[0, 1, 2], [1, 2, 0], [2, 0, 2]], "not associative")])
def test_group_table_rejects_a_bad_table(table, message):
    with pytest.raises(ValueError, match=message):
        FiniteGroupTable(table)


def test_group_table_takes_integer_entries_of_any_integer_type():
    table = FiniteGroupTable(np.array([[0, 1], [1, 0]]))
    assert table.table == [[0, 1], [1, 0]]
    assert all(type(x) is int for row in table.table for x in row)


def generator_counts(c):
    return [len(g) for g in c.generators]


def test_generator_counts():
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    # falling factorials 5, 5*4, 5*4*3, 5*4*3*2
    assert generator_counts(c) == [5, 20, 60, 120]
    a = build_complex(FiniteGroupTable.cyclic(2), "all-tuples", 2)
    assert generator_counts(a) == [2, 4, 8]
    tiny = build_complex(FiniteGroupTable.cyclic(2), "conf-distinct", 2)
    assert generator_counts(tiny)[2] == 0


def test_boundary_squares_to_zero():
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    for n in (2, 3):
        a = c.boundaries[n - 1]
        b = c.boundaries[n]
        for j in range(len(b[0])):
            col = [b[i][j] for i in range(len(b))]
            out = [sum(a[i][k] * col[k] for k in range(len(col)))
                   for i in range(len(a))]
            assert all(x == 0 for x in out)


def test_conf_z5_homology():
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    h0, h1, h2 = (homology(c, n) for n in (0, 1, 2))
    assert (h0.free_rank, h0.torsion) == (1, ())
    assert h1.is_trivial() and h2.is_trivial()
    for n in (0, 1, 2):
        assert homology(c, n).free_rank == brute_force_free_rank(c, n)


@pytest.mark.parametrize("torsion", [
    (0, 2), (-2, 4), (1,), (1, 3), (2.0,), (True,), (Fraction(3),)])
def test_homology_summary_takes_torsion_coefficients_of_at_least_2(torsion):
    # a coefficient 0 or 1 is no torsion, and a negative one divides its
    # successor as well as its absolute value does
    with pytest.raises(ValueError, match="torsion coefficients must be"):
        HomologySummary(degree=1, free_rank=0, torsion=torsion)
    assert HomologySummary(1, 0, (2, 4, np.int64(8))).torsion[-1] == 8


def test_homology_summary_torsion_divides_in_turn():
    with pytest.raises(ValueError, match="must divide in turn"):
        HomologySummary(1, 0, (2, 3))


def test_all_tuples_acyclic():
    for m in (2, 3):
        c = build_complex(FiniteGroupTable.cyclic(m), "all-tuples", 3)
        assert homology(c, 0).free_rank == 1
        assert homology(c, 1).is_trivial()
        assert homology(c, 2).is_trivial()


@pytest.mark.parametrize("predicate, q, error, message", [
    ("distinct", 2, ValueError, "unknown predicate 'distinct'"),
    ("conf-distinct", 0, ValueError, "maximal degree must be >= 1"),
    (lambda t: t != (1,), 2, PredicateNotFaceClosed,
     "every single-element tuple must be admissible")])
def test_build_complex_rejects_a_bad_request(predicate, q, error, message):
    with pytest.raises(error, match=message):
        build_complex(FiniteGroupTable.cyclic(3), predicate, q)


def test_homology_takes_the_degrees_below_q():
    c = build_complex(FiniteGroupTable.cyclic(3), "all-tuples", 2)
    for n in (-1, 2):
        with pytest.raises(ValueError, match="need 0 <= n <= 1"):
            homology(c, n)


def test_extension_takes_one_value_per_top_generator():
    c = build_complex(FiniteGroupTable.cyclic(3), "conf-distinct", 2)
    with pytest.raises(ValueError, match="expected 6 values"):
        extend_cocycle(c, [0] * 5)


def test_complex_with_a_one_cycle_is_not_well_configured():
    # the distinct pairs of Z/2 are (0, 1) and (1, 0), whose sum is a
    # cycle, and there are no distinct triples to bound it: H_1 = Z
    c = build_complex(FiniteGroupTable.cyclic(2), "conf-distinct", 2)
    with pytest.raises(NotWellConfigured, match="H_1 = "):
        build_retraction(c)


def test_complex_without_pairs_is_not_well_configured():
    # singletons only: no admissible pairs, so H_0 is Z^4 and not Z
    c = build_complex(FiniteGroupTable.cyclic(4), lambda t: len(t) == 1, 2)
    assert generator_counts(c)[1] == 0
    with pytest.raises(NotWellConfigured):
        build_retraction(c)


def test_custom_predicate_face_closure_error():
    def not_closed(t):
        return len(t) != 2  # pairs are banned, triples admitted

    with pytest.raises(PredicateNotFaceClosed):
        build_complex(FiniteGroupTable.cyclic(3), not_closed, 2)


@pytest.mark.parametrize("order, predicate, q, message", [
    # face-closed on Z/4, but the translate (1, 1) of (0, 0) is odd
    (4, lambda t: len(t) == 1 or all(x % 2 == 0 for x in t), 2,
     "diagonal translate of (0, 0) is not admissible"),
    # (0, 0, 0) fails on its faces and on its translates: faces first
    (3, lambda t: len(t) == 1 or len(t) == 3 and t[0] == 0, 2,
     "face (0, 0) of admissible (0, 0, 0) is not admissible"),
    # (0, 0) fails on a translate before (0, 0, 1) fails on a face:
    # degree by degree
    (4, lambda t: len(t) != 2 or all(x % 2 == 0 for x in t), 2,
     "diagonal translate of (0, 0) is not admissible"),
])
def test_closure_errors_come_degree_by_degree_faces_first(order, predicate,
                                                          q, message):
    with pytest.raises(PredicateNotFaceClosed) as err:
        build_complex(FiniteGroupTable.cyclic(order), predicate, q)
    assert str(err.value) == message


def test_build_complex_takes_each_generators_faces_once(monkeypatch):
    seen = []

    def counted(t):
        seen.append(t)
        return all_faces(t)

    monkeypatch.setattr(finite, "all_faces", counted)
    conf = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    # the faces that build the boundaries are the ones checked for closure
    assert seen == [t for n in (1, 2, 3) for t in conf.generators[n]]


def test_retraction_identities():
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    mats = build_retraction(c)  # verification happens inside
    assert len(mats) == 4
    # every tuple of the full complex has an image
    assert [len(r) for r in mats] == [5, 25, 125, 625]
    # r_0 is the identity
    assert all(mats[0][(g,)].terms == {(g,): 1} for g in range(5))
    # spot check: r_3 is the identity on admissible tuples
    for t in c.generators[3][:10]:
        assert mats[3][t].terms == {t: 1}


@pytest.mark.parametrize("t, image, message", [
    ((0, 1), [(2, (0, 1))], "is not the identity on admissible tuples"),
    ((0, 0), [(1, (0, 0))], "leaves the configured complex"),
    ((0, 0), [(1, (0, 1))], "is not a chain map")])
def test_a_corrupted_retraction_fails_its_check(monkeypatch, t, image,
                                                message):
    # one image of r_1 is replaced before the checks: build_retraction
    # raises NotAChainMap, and the suite reports the failed check and
    # goes on to the extension
    checked = finite._verify_retraction

    def corrupted(complex_, r, q):
        r[1][t] = HomogeneousChain(image)
        checked(complex_, r, q)

    monkeypatch.setattr(finite, "_verify_retraction", corrupted)
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    with pytest.raises(NotAChainMap, match=message):
        build_retraction(c)
    checks = {check.id: check
              for check in run_suite("configured-homology").checks}
    failed = checks["conf-z5-retraction-identities"]
    assert not failed.passed
    assert failed.error == f"NotAChainMap: retraction {message}"
    assert "conf-z5-extension-coboundary" in checks


def test_extension_check_reads_each_4_tuple_once(monkeypatch):
    # conf-z5-extension-coboundary evaluates the extended cocycle on each
    # 4-tuple once, in one table, and reads the faces of the 3125
    # 5-tuples from there
    received = []

    def counted(*args, **kwargs):
        cocycle = extend_cocycle(*args, **kwargs)
        evaluate = cocycle._evaluator

        def evaluator(tuples):
            received.extend(tuples)
            return evaluate(tuples)

        cocycle._evaluator = evaluator
        return cocycle

    monkeypatch.setattr(suites, "extend_cocycle", counted)
    checks = {check.id: check
              for check in run_suite("configured-homology").checks}
    assert checks["conf-z5-extension-coboundary"].passed
    assert received == list(product(range(5), repeat=4))


def test_extension_has_vanishing_coboundary():
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    mats = build_retraction(c)
    g_vals = [int(rng.integers(-3, 4)) for _ in c.generators[2]]
    bd3 = c.boundaries[3]
    f_vals = [sum(g_vals[i] * bd3[i][j] for i in range(len(g_vals)))
              for j in range(len(c.generators[3]))]
    assert any(f_vals)
    cocycle = extend_cocycle(c, f_vals, retraction=mats)
    # extension agrees with the input on admissible tuples
    for j, t in enumerate(c.generators[3][:20]):
        assert cocycle(t) == f_vals[j]
    for t in product(range(5), repeat=5):
        assert sum(s * cocycle(ft) for s, ft in all_faces(t)) == 0


def test_extension_table_matches_image_sums():
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    mats = build_retraction(c)
    g_vals = [int(rng.integers(-3, 4)) for _ in c.generators[2]]
    bd3 = c.boundaries[3]
    f_vals = [sum(g_vals[i] * bd3[i][j] for i in range(len(g_vals)))
              for j in range(len(c.generators[3]))]
    # Python ints stay ints, Fractions stay Fractions, floats stay floats
    for vals in (list(f_vals), [Fraction(v, 7) for v in f_vals],
                 [v / 8 for v in f_vals]):
        cocycle = extend_cocycle(c, vals, retraction=mats)
        for t in product(range(5), repeat=4):
            expected = sum(k * vals[c.index[3][s]]
                           for s, k in mats[3][t].terms.items())
            value = cocycle(t)
            assert type(value) is type(expected) and value == expected
        with pytest.raises(ValueError):
            cocycle((0, 1, 2))


def test_z7_conf_distinct_retraction():
    # the top boundary has 7 * 6 * 5 * 4 = 840 columns, so V is 840 by 840
    c = build_complex(FiniteGroupTable.cyclic(7), "conf-distinct", 3)
    assert [(homology(c, n).free_rank, homology(c, n).torsion)
            for n in (0, 1, 2)] == [(1, ()), (0, ()), (0, ())]
    mats = build_retraction(c)  # raises unless both identities hold
    assert [len(r) for r in mats] == [7, 49, 343, 2401]


def test_q8_conf_distinct_retraction_and_extension():
    # Q8 is the one nonabelian group here: normalizing a tuple on one side
    # and translating its image back on the other breaks the retraction
    # on Q8 and on no cyclic group
    c = build_complex(FiniteGroupTable.quaternion8(), "conf-distinct", 2)
    assert [(homology(c, n).free_rank, homology(c, n).torsion)
            for n in (0, 1)] == [(1, ()), (0, ())]
    mats = build_retraction(c)  # raises unless both identities hold
    assert [len(r) for r in mats] == [8, 64, 512]
    g_vals = [int(rng.integers(-3, 4)) for _ in c.generators[1]]
    bd2 = c.boundaries[2]
    f_vals = [sum(g_vals[i] * bd2[i][j] for i in range(len(g_vals)))
              for j in range(len(c.generators[2]))]
    assert any(f_vals)
    cocycle = extend_cocycle(c, f_vals, retraction=mats)
    for t in product(range(8), repeat=4):
        assert sum(s * cocycle(ft) for s, ft in all_faces(t)) == 0


def test_extension_zero_cochain():
    c = build_complex(FiniteGroupTable.cyclic(3), "all-tuples", 2)
    mats = build_retraction(c)
    cocycle = extend_cocycle(c, [0] * len(c.generators[2]), retraction=mats)
    assert cocycle((0, 1, 2)) == 0


def test_extension_of_a_pulled_back_coboundary():
    # when the input values are g composed with the top boundary, the
    # extension equals the coboundary of g composed with the chain map
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    mats = build_retraction(c)
    g_vals = [int(rng.integers(-2, 3)) for _ in c.generators[2]]
    bd3 = c.boundaries[3]
    f_vals = [sum(g_vals[i] * bd3[i][j] for i in range(len(g_vals)))
              for j in range(len(c.generators[3]))]
    cocycle = extend_cocycle(c, f_vals, retraction=mats)

    def g_through_r(t):
        return sum(k * g_vals[c.index[2][s]]
                   for s, k in mats[2][t].terms.items())

    for t in list(product(range(5), repeat=4))[::7]:
        expected = sum(s * g_through_r(ft) for s, ft in all_faces(t))
        assert cocycle(t) == expected


def test_extension_is_invariant_under_the_diagonal_action():
    # an invariant input extends to a homogeneous cocycle: translating
    # every entry of a tuple by the same group element keeps its value
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    orbit_vals = {}
    g_vals = [orbit_vals.setdefault(tuple((x - t[0]) % 5 for x in t),
                                    int(rng.integers(-3, 4)))
              for t in c.generators[2]]
    bd3 = c.boundaries[3]
    f_vals = [sum(g_vals[i] * bd3[i][j] for i in range(len(g_vals)))
              for j in range(len(c.generators[3]))]
    cocycle = extend_cocycle(c, f_vals)
    tuples = rng.integers(0, 5, size=(40, 4)).tolist()
    assert any(cocycle(t) != 0 for t in tuples)
    for t in tuples:
        for g in range(5):
            assert cocycle([(g + x) % 5 for x in t]) == cocycle(t)


def test_extension_kernel_obstruction():
    c = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    solver = c.solver(3)
    kvec = solver.kernel_basis()[0]
    # a functional that sees the kernel vector
    values = [int(v) for v in kvec]
    with pytest.raises(KernelObstruction):
        extend_cocycle(c, values, retraction=None)
