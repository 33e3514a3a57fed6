from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import numpy as np
import pytest

from cocyclelab.cochains import HomogeneousCochain, integrated_cochain
from cocyclelab.errors import DomainGuard, StepTooLarge
from cocyclelab.forms import DifferentialForm, mc3_form
from cocyclelab.groups import _qconj, _qlog_jet, _qmul
from cocyclelab.lie import (LieAlgebraTable, MultilinearCochain,
                            _group_tuple, alternation, cartan_cocycle,
                            ce_differential, cochain_derivative,
                            derivation_residual, form_at_identity)
from cocyclelab.quadrature import QuadratureSpec

rng = np.random.default_rng(17)


def log_of(q):
    # principal log of a UnitQuaternion, as su(2) coefficients
    return _qlog_jet(q.vec, np.zeros((0, 4)))[0]


def random_alternating(dim, degree):
    raw = np.empty((dim,) * degree, dtype=object)
    for idx in product(range(dim), repeat=degree):
        raw[idx] = Fraction(int(rng.integers(-5, 6)))
    return MultilinearCochain(degree, dim, alternation(raw, degree))


def per_entry_alternation(tensor, degree):
    # the definition: entry idx is (1/n!) sum_perm sign * tensor[idx o perm]
    arr = np.asarray(tensor)
    out = np.empty_like(arr)
    fac = Fraction(1, factorial(degree)) if arr.dtype == object \
        else 1.0 / factorial(degree)
    for idx in product(range(arr.shape[0] if degree else 0),
                       repeat=degree):
        total = 0
        for perm in permutations(range(degree)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(degree)
                               for j in range(i + 1, degree))
            total = total + sign * arr[tuple(idx[p] for p in perm)]
        out[idx] = total * fac
    return out


def brute_force_ce(omega, algebra):
    # independent evaluation of the bracket-insertion sum
    n = omega.degree
    dim = algebra.dim
    out = np.empty((dim,) * (n + 1), dtype=object)
    for idx in product(range(dim), repeat=n + 1):
        total = Fraction(0)
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                rest = [idx[c] for c in range(n + 1) if c not in (a, b)]
                bracket = algebra.structure[idx[a], idx[b]]
                val = sum(bracket[m] * omega.tensor[tuple([m] + rest)]
                          for m in range(dim))
                total += (-1) ** (a + b) * val
        out[idx] = total
    return out


def test_tables_have_exact_jacobi():
    for maker in (LieAlgebraTable.su2, LieAlgebraTable.so4):
        maker()  # construction validates antisymmetry and Jacobi
    with pytest.raises(ValueError):
        bad = [[[0, 0, 1], [0, 0, 0], [0, 0, 0]],
               [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
               [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
        LieAlgebraTable("bad", bad, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_so4_brackets_match_the_delta_formula():
    # [E_ab, E_cd] = d_bc E_ad - d_ac E_bd - d_bd E_ac + d_ad E_bc, with
    # E_ba = -E_ab and E_aa = 0
    pairs = list(combinations(range(4), 2))

    def e(a, b):
        out = [0] * 6
        if a != b:
            out[pairs.index((min(a, b), max(a, b)))] = 1 if a < b else -1
        return out

    so4 = LieAlgebraTable.so4()
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            terms = [((b == c), e(a, d)), (-(a == c), e(b, d)),
                     (-(b == d), e(a, c)), ((a == d), e(b, c))]
            expected = [sum(int(k) * v[m] for k, v in terms)
                        for m in range(6)]
            assert so4.structure[i, j].tolist() == expected


def test_alternation_matches_the_per_entry_sum():
    local = np.random.default_rng(23)
    for degree in range(5):
        floats = local.normal(size=(3,) * degree)
        got = alternation(floats, degree)
        expected = per_entry_alternation(floats, degree)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        exact = np.empty((3,) * degree, dtype=object)
        for idx in product(range(3), repeat=degree):
            exact[idx] = Fraction(int(local.integers(-9, 10)),
                                  int(local.integers(1, 5)))
        got = alternation(exact, degree)
        assert got.shape == exact.shape
        assert got.tolist() == per_entry_alternation(exact, degree).tolist()


def test_su2_brackets_match_quaternions():
    su2 = LieAlgebraTable.su2()
    # [i, j] = 2k in the quaternion algebra
    assert su2.structure[0, 1].tolist() == [0, 0, 2]
    assert su2.structure[1, 2].tolist() == [2, 0, 0]


def test_ce_differential_matches_brute_force():
    su2 = LieAlgebraTable.su2()
    for degree in (1, 2):
        omega = random_alternating(3, degree)
        expected = brute_force_ce(omega, su2)
        got = ce_differential(omega, su2)
        assert all(got.tensor[idx] == expected[idx]
                   for idx in product(range(3), repeat=degree + 1))


def test_ce_squares_to_zero():
    su2 = LieAlgebraTable.su2()
    omega = random_alternating(3, 1)
    dd = ce_differential(ce_differential(omega, su2), su2)
    assert all(v == 0 for v in dd.tensor.flat)
    # so(4) from degree 3 through 4 to 5
    so4 = LieAlgebraTable.so4()
    d = ce_differential(random_alternating(6, 3), so4)
    assert d.norm_max() > 0
    dd = ce_differential(d, so4)
    assert dd.tensor.shape == (6,) * 5
    assert all(v == 0 for v in dd.tensor.flat)


def test_degree_zero_differential():
    su2 = LieAlgebraTable.su2()
    omega = MultilinearCochain(0, 3, np.array(Fraction(3), dtype=object))
    # degree-0 cochains are constants; the insertion sum is empty
    d = ce_differential(omega, su2)
    assert all(v == 0 for v in d.tensor.flat)


def test_cartan_cocycle_values_and_closedness():
    # su(2) has structure constants 2 epsilon: <e_0, [e_1, e_2]> = 2
    su2 = LieAlgebraTable.su2()
    phi = cartan_cocycle(su2)
    assert phi.tensor[0, 1, 2] == 2
    assert phi.tensor[1, 0, 2] == -2
    d = ce_differential(phi, su2)
    assert all(v == 0 for v in d.tensor.flat)
    # scaling the pairing scales the cocycle
    scaled = LieAlgebraTable("su2", su2.structure, 3 * su2.pairing)
    assert cartan_cocycle(scaled).tensor[0, 1, 2] == 6


def is_exact(values):
    # exact means never a float: a Python int or a Fraction
    return all(type(v) in (int, Fraction) for v in values)


def test_exact_results_stay_exact():
    for algebra in (LieAlgebraTable.su2(), LieAlgebraTable.so4()):
        assert is_exact(algebra.structure.flat)
        assert is_exact(algebra.pairing.flat)
        cartan = cartan_cocycle(algebra)
        assert is_exact(cartan.tensor.flat)
        assert is_exact(ce_differential(cartan, algebra).tensor.flat)
    # integral values are ints, so the integer tables give int cochains
    so4 = LieAlgebraTable.so4()
    for values in (so4.structure.flat, so4.pairing.flat,
                   cartan_cocycle(so4).tensor.flat):
        assert all(type(v) is int for v in values)
    # a table given Fractions of denominator 1 stores ints
    su2 = LieAlgebraTable("su2", [[[Fraction(x) for x in row] for row in m]
                                  for m in LieAlgebraTable.su2().structure],
                          np.eye(3, dtype=int))
    assert all(type(v) is int for v in su2.structure.flat)
    zero = ce_differential(
        MultilinearCochain(0, 3, np.array(Fraction(3), dtype=object)), su2)
    assert is_exact(zero.tensor.flat)


def random_so4_cochain(local, degree):
    # an alternating so(4) tensor whose entries are ints and Fractions of
    # denominators 2 and 3, antisymmetrized by hand
    out = np.zeros((6,) * degree, dtype=object)
    for idx in combinations(range(6), degree):
        v = Fraction(int(local.integers(-6, 7)), int(local.choice([1, 2, 3])))
        v = v.numerator if v.denominator == 1 else v
        for perm in permutations(range(degree)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(degree)
                               for j in range(i + 1, degree))
            out[tuple(idx[p] for p in perm)] = sign * v
    return MultilinearCochain(degree, 6, out)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_so4_differential_with_denominators_matches_brute_force(degree):
    so4 = LieAlgebraTable.so4()
    omega = random_so4_cochain(np.random.default_rng(degree), degree)
    dens = {v.denominator for v in omega.tensor.flat
            if type(v) is Fraction}
    assert dens == {2, 3}
    got = ce_differential(omega, so4).tensor
    expected = brute_force_ce(omega, so4)
    assert got.shape == expected.shape
    assert all(g == e for g, e in zip(got.flat, expected.flat))
    assert is_exact(got.flat)


def test_cartan_requires_ad_invariance():
    su2 = LieAlgebraTable.su2()
    lopsided = [[1, 0, 0], [0, 2, 0], [0, 0, 5]]
    with pytest.raises(ValueError):
        cartan_cocycle(LieAlgebraTable("su2", su2.structure, lopsided))


def test_derivative_of_zero_and_linearity():
    su2 = LieAlgebraTable.su2()
    zero = HomogeneousCochain(1, 0, lambda t: 0.0)
    assert cochain_derivative(zero, su2, 1).norm_max() == 0.0

    def smooth_a(t):
        return float(np.sin(log_of(t[0].inverse() * t[1])[0]))

    def smooth_b(t):
        v = log_of(t[0].inverse() * t[1])
        return float(v[1] + 0.5 * v[2] ** 2)

    fa = HomogeneousCochain(1, 0, smooth_a)
    fb = HomogeneousCochain(1, 0, smooth_b)
    combo = HomogeneousCochain(
        1, 0, lambda t: 2.0 * smooth_a(t) - 3.0 * smooth_b(t))
    da = cochain_derivative(fa, su2, 1, step=1e-3).tensor
    db = cochain_derivative(fb, su2, 1, step=1e-3).tensor
    dc = cochain_derivative(combo, su2, 1, step=1e-3).tensor
    assert np.abs(dc - (2.0 * da - 3.0 * db)).max() < 1e-8


def test_derivative_needs_the_su2_exponential():
    # the so(4) table carries structure constants but no exponential
    f = HomogeneousCochain(1, 0, lambda t: 0.0)
    so4 = LieAlgebraTable.so4()
    with pytest.raises(ValueError):
        so4.exp([0.0] * so4.dim)
    with pytest.raises(ValueError):
        cochain_derivative(f, so4, 1)


def test_derivative_of_coordinate_cochain():
    su2 = LieAlgebraTable.su2()
    f = HomogeneousCochain(
        1, 0, lambda t: log_of(t[0].inverse() * t[1])[0])
    d = cochain_derivative(f, su2, 1, step=1e-3)
    assert np.abs(d.tensor - np.array([1.0, 0.0, 0.0])).max() < 1e-7


def test_step_too_large():
    su2 = LieAlgebraTable.su2()
    cochain = integrated_cochain(mc3_form(), "chart", 0,
                                 quad=QuadratureSpec(order=3, tol=1e-2))
    with pytest.raises(StepTooLarge):
        cochain_derivative(cochain, su2, 3, step=0.5)


def test_derivative_evaluates_distinct_indices_only():
    # entries with a repeated basis index cancel in the alternation, so a
    # degree-3 derivative over su2 needs 3! index tuples x 8 sign corners
    su2 = LieAlgebraTable.su2()
    calls = []

    def smooth(t):
        calls.append(t)
        v = [log_of(t[0].inverse() * g) for g in t[1:]]
        return float(v[0][0] * v[1][1] * v[2][2] + v[0][1] ** 2 * v[2][0])

    d = cochain_derivative(HomogeneousCochain(3, 0, smooth), su2, 3,
                           step=1e-2)
    assert len(calls) == 48
    assert d.norm_max() > 0.0
    for idx in product(range(3), repeat=3):
        if len(set(idx)) < 3:
            assert d.tensor[idx] == 0.0


def test_differential_beyond_degree_four():
    su2 = LieAlgebraTable.su2()
    d = ce_differential(MultilinearCochain(4, 3, np.zeros((3,) * 4)), su2)
    assert d.degree == 5 and d.tensor.shape == (3,) * 5
    assert d.norm_max() == 0.0
    so4 = LieAlgebraTable.so4()
    d = ce_differential(MultilinearCochain(4, 6, np.zeros((6,) * 4)), so4)
    assert d.degree == 5 and d.norm_max() == 0.0
    assert MultilinearCochain(5, 6, np.zeros((6,) * 5)).degree == 5
    bad = np.zeros((3,) * 5)
    bad[0, 1, 2, 0, 1] = 1.0
    with pytest.raises(ValueError):
        MultilinearCochain(5, 3, bad)


def test_basis_permutation_symmetry():
    # permuting the input basis indices permutes the tensor with sign
    su2 = LieAlgebraTable.su2()
    cochain = integrated_cochain(mc3_form(), "chart", 0,
                                 quad=QuadratureSpec(order=3, tol=1e-2))
    d = cochain_derivative(cochain, su2, 3, step=5e-2)
    assert abs(d.tensor[0, 1, 2] + d.tensor[1, 0, 2]) < 1e-9
    assert abs(d.tensor[0, 1, 2] - d.tensor[1, 2, 0]) < 1e-9


def covector(p, t):
    # the left-invariant 1-form dual to i
    return _qmul(_qconj(p), t[:, 0])[:, 1]


def test_derivation_recovers_invariant_covector():
    cov = DifferentialForm(1, "SU2", covector)
    res = derivation_residual(cov, 1, step=1e-3,
                              quad=QuadratureSpec(order=8, tol=1e-2))
    assert res <= 1e-4


def test_derivation_recovers_mc3():
    res = derivation_residual(mc3_form(), 3, step=5e-2,
                              quad=QuadratureSpec(order=4, tol=1e-2))
    assert res <= 5e-2


def test_zero_form_residual():
    zero = DifferentialForm(3, "SU2", lambda p, t: np.zeros(p.shape[0]))
    res = derivation_residual(zero, 3, step=5e-2,
                              quad=QuadratureSpec(order=3, tol=1e-2))
    assert res < 1e-9


def test_form_at_identity_mc3():
    tensor = form_at_identity(mc3_form(), 3)
    assert abs(tensor[0, 1, 2] + 1.0 / (2.0 * np.pi ** 2)) < 1e-12
    assert abs(tensor[1, 0, 2] - 1.0 / (2.0 * np.pi ** 2)) < 1e-12


def per_tuple_derivative(f, algebra, n, step):
    # reference: the raw derivative with every tuple evaluated on its own,
    # in the order of cochain_derivative, then alternated
    dim = algebra.dim
    raw = np.zeros((dim,) * n)
    for idx in product(range(dim), repeat=n):
        if len(set(idx)) < n:
            continue
        acc = 0.0
        for signs in product((-1.0, 1.0), repeat=n):
            steps = []
            for s, i in zip(signs, idx):
                coeffs = [0.0] * dim
                coeffs[i] = s * step
                steps.append(coeffs)
            acc += np.prod(signs) * float(f(_group_tuple(algebra, steps)))
        raw[idx] = acc / (2.0 * step) ** n
    return alternation(raw, n)


@pytest.mark.parametrize("which", ["mc3", "covector"])
def test_one_call_derivative_is_bitwise_the_per_tuple_loop(which):
    # the cochains, orders and steps of the gf-derivation suite
    su2 = LieAlgebraTable.su2()
    form, n, step, order = {
        "mc3": (mc3_form(), 3, 5e-2, 4),
        "covector": (DifferentialForm(1, "SU2", covector), 1, 1e-3, 8),
    }[which]
    cochain = integrated_cochain(form, "chart", 0,
                                 quad=QuadratureSpec(order=order, tol=1e-2))
    got = cochain_derivative(cochain, su2, n, step).tensor
    assert got.tobytes() == \
        per_tuple_derivative(cochain, su2, n, step).tobytes()


def test_derivative_checks_every_guard_before_evaluating():
    # the guard admits steps along the first basis vector only, so the
    # two tuples along it pass and the third tuple fails
    su2 = LieAlgebraTable.su2()
    calls = []

    def value(t):
        calls.append(t)
        return 0.0

    def guard(t):
        return not log_of(t[1])[1:].any()

    f = HomogeneousCochain(1, 0, value, guard=guard)
    with pytest.raises(StepTooLarge) as info:
        cochain_derivative(f, su2, 1, step=1e-2)
    assert isinstance(info.value.__cause__, DomainGuard)
    assert calls == []
