from fractions import Fraction
from math import pi

import numpy as np
import pytest

from cocyclelab.forms import (PowerTable, fubini_study_form,
                              sphere_products, symplectic_form_value)
from cocyclelab.hamiltonian import (SphereFunction, _exponent_key,
                                    hamiltonian_field, pairing_integrals,
                                    poisson, symplectic_cocycle)
from cocyclelab.quadrature import QuadratureSpec

rng = np.random.default_rng(13)
X, Y, Z = (SphereFunction.coordinate(n) for n in "xyz")
QUAD = QuadratureSpec(order=10, tol=1e-6)


def area_integral(f, quad=None):
    """The integral of f against the symplectic form: the one-factor
    product of ``sphere_products``."""
    return sphere_products(fubini_study_form(), "CP1", [(f,)], quad)[0]


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def monomial_form_integral(a, b, c, radius=0.5):
    """Oracle: integral of x^a y^b z^c against the 2*pi-normalized form,
    which weighs the round area element by a factor of two (Folland, "How
    to integrate a polynomial over a sphere", Amer. Math. Monthly 108,
    2001)."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    area = 4.0 * pi * radius ** 2
    frac = (double_factorial(a - 1) * double_factorial(b - 1)
            * double_factorial(c - 1)) / double_factorial(a + b + c + 1)
    return 2.0 * area * radius ** (a + b + c) * frac


def degree_at_most_4():
    """The 35 exponent triples of the monomials of degree <= 4."""
    return [(a, b, c) for a in range(5) for b in range(5) for c in range(5)
            if a + b + c <= 4]


def random_points(n=200):
    p = rng.normal(size=(n, 3))
    return 0.5 * p / np.linalg.norm(p, axis=1, keepdims=True)


def random_polynomial(max_degree=3):
    coeffs = {}
    for key in [(i, j, k) for i in range(4) for j in range(4)
                for k in range(4)]:
        if 0 < sum(key) <= max_degree and rng.random() < 0.4:
            coeffs[key] = Fraction(int(rng.integers(-3, 4)))
    coeffs.setdefault((1, 0, 0), Fraction(1))
    return SphereFunction(coeffs)


def test_monomial_integral_oracle_matches_quadrature():
    for a, b, c in [(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 0), (2, 2, 0),
                    (0, 0, 4), (1, 1, 2)]:
        f = SphereFunction({(a, b, c): 1})
        got = area_integral(f, QUAD).value
        assert abs(got - monomial_form_integral(a, b, c)) < 1e-10


def test_every_low_degree_monomial_matches_the_exact_integral():
    # Folland's closed form, at sphere_products' default order 8
    keys = degree_at_most_4()
    assert len(keys) == 35
    for key in keys:
        got = area_integral(SphereFunction({key: 1})).value
        assert abs(got - monomial_form_integral(*key)) < 1e-12


def test_total_form_mass_is_two_pi():
    got = area_integral(SphereFunction.constant(1), QUAD).value
    assert abs(got - 2.0 * pi) < 1e-10


def test_coordinate_brackets_are_exact():
    assert poisson(X, Y) == Z
    assert poisson(Y, Z) == X
    assert poisson(Z, X) == Y
    assert poisson(Y, X) == (-1) * Z


def test_bracket_antisymmetry_and_jacobi():
    f, g, h = (random_polynomial() for _ in range(3))
    assert poisson(f, g) == (-1) * poisson(g, f)
    jac = poisson(f, poisson(g, h)) + poisson(g, poisson(h, f)) \
        + poisson(h, poisson(f, g))
    # the ambient-determinant bracket satisfies Jacobi only on the sphere:
    # the defect is a multiple of (x^2+y^2+z^2 - 1/4)
    pts = random_points()
    assert np.abs(jac.evaluate(pts)).max() < 1e-12


def test_field_of_constant_and_height():
    assert np.abs(hamiltonian_field(
        SphereFunction.constant(3))(random_points())).max() == 0.0
    p = random_points()
    expected = np.stack([p[:, 1], -p[:, 0], np.zeros(len(p))], axis=1)
    assert np.abs(hamiltonian_field(Z)(p) - expected).max() < 1e-14


def test_defining_identity_of_the_field():
    f = random_polynomial()
    p = random_points(100)
    xf = hamiltonian_field(f)(p)
    v = rng.normal(size=(100, 3))
    v -= np.einsum("ni,ni->n", v, p)[:, None] * p / 0.25
    resid = symplectic_form_value(p, xf, v) \
        + np.einsum("ni,ni->n", f.gradient(p), v)
    assert np.abs(resid).max() < 1e-9


def test_bracket_equals_field_derivative():
    f, g = random_polynomial(), random_polynomial()
    p = random_points(100)
    lhs = poisson(f, g).evaluate(p)
    rhs = np.einsum("ni,ni->n", g.gradient(p), hamiltonian_field(f)(p))
    assert np.abs(lhs - rhs).max() < 1e-9
    omega = symplectic_form_value(p, hamiltonian_field(f)(p),
                                  hamiltonian_field(g)(p))
    assert np.abs(lhs - omega).max() < 1e-9


def test_cocycle_normalization():
    value = symplectic_cocycle(X, Y, Z, QUAD)
    assert abs(value - 1.0 / (2.0 * pi ** 2)) < 1e-8


def test_cocycle_total_antisymmetry():
    f, g, h = (random_polynomial(2) for _ in range(3))
    base = symplectic_cocycle(f, g, h, QUAD)
    assert abs(symplectic_cocycle(g, f, h, QUAD) + base) < 1e-8
    assert abs(symplectic_cocycle(f, h, g, QUAD) + base) < 1e-8
    assert abs(symplectic_cocycle(g, h, f, QUAD) - base) < 1e-8


def test_ad_invariance_of_the_pairing():
    for _ in range(5):
        f, g, h = (random_polynomial() for _ in range(3))
        [a] = pairing_integrals([(poisson(f, g), h)], QUAD)
        [b] = pairing_integrals([(g, poisson(f, h))], QUAD)
        assert abs(a + b) < 1e-7


def test_pairing_integrals_are_bitwise_their_pairs_one_at_a_time():
    pairs = [(random_polynomial(), random_polynomial()) for _ in range(4)]
    assert pairing_integrals(pairs, QUAD) == \
        [pairing_integrals([(f, g)], QUAD)[0] for f, g in pairs]
    assert pairing_integrals([], QUAD) == []


def exact_terms(coeffs, x):
    """The terms c x^a y^b z^c of a polynomial at the float point x (3,),
    each an exact Fraction."""
    p = [Fraction(float(v)) for v in x]
    return [Fraction(c) * p[0] ** a * p[1] ** b * p[2] ** e
            for (a, b, e), c in coeffs.items()]


def test_the_pointwise_product_is_within_its_rounding_bound_of_the_exact():
    # f(x) * g(x) from one power table, as the pairings integrate it,
    # against the exact product polynomial f*g at the same float points.
    # A term c * x^a * y^b * z^c takes at most 10 roundings of unit
    # roundoff u (float(c), 2 per power for pow's 1 ulp, 3 products), a sum
    # of T terms T - 1 more and the product of the two values one, so the
    # error is at most gamma_K * A_f * A_g with K = T_f + T_g + 19,
    # gamma_K = K u / (1 - K u) and A the sum of |terms| (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., ch. 3)
    u = np.finfo(np.float64).eps / 2
    local = np.random.default_rng(29)
    points = random_points(30)
    for _ in range(6):
        f, g = (SphereFunction({key: Fraction(int(local.integers(-9, 10)), 3)
                                for key in degree_at_most_4()
                                if sum(key) <= 3 and local.random() < 0.4})
                for _ in range(2))
        table = PowerTable.of(points)
        got = f.evaluate(table) * g.evaluate(table)
        k = len(f.coeffs) + len(g.coeffs) + 19
        gamma = k * u / (1 - k * u)
        for x, value in zip(points, got):
            exact = sum(exact_terms((f * g).coeffs, x), Fraction(0))
            bound = gamma * float(sum(map(abs, exact_terms(f.coeffs, x)))
                                  * sum(map(abs, exact_terms(g.coeffs, x))))
            assert abs(float(Fraction(float(value)) - exact)) <= bound


@pytest.mark.parametrize("c", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_coefficient_raises_value_error_naming_it(c):
    with pytest.raises(ValueError) as err:
        SphereFunction({(1, 0, 0): 1, (0, 2, 1): c})
    assert str(err.value) == \
        f"coefficient {c!r} of (0, 2, 1) is not a finite rational"


@pytest.mark.parametrize("c", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_scalar_raises_value_error_naming_it(c):
    f = SphereFunction({(1, 0, 0): 1, (0, 2, 1): Fraction(1, 3)})
    with pytest.raises(ValueError) as err:
        c * f
    assert str(err.value) == f"scalar {c!r} is not a finite rational"
    # a finite float is read exactly, as a coefficient is
    assert 0.5 * f == SphereFunction({(1, 0, 0): Fraction(1, 2),
                                      (0, 2, 1): Fraction(1, 6)})


def test_liouville_integrals_vanish():
    for _ in range(5):
        f, phi = random_polynomial(), random_polynomial()
        assert abs(area_integral(poisson(f, phi), QUAD).value) < 1e-8


def test_gradient_consistency_spot_check():
    f = random_polynomial()
    p = random_points(20)
    h = 1e-6
    for axis in range(3):
        dp = np.zeros(3)
        dp[axis] = h
        fd = (f.evaluate(p + dp) - f.evaluate(p - dp)) / (2 * h)
        assert np.abs(fd - f.gradient(p)[:, axis]).max() < 1e-8


def test_polynomial_algebra():
    f = X * Y + 2 * Z
    assert f.degree() == 2
    assert (f - f).coeffs == {}
    assert (X * X).partial(0) == 2 * X


def test_evaluate_matches_the_per_term_sum():
    local = np.random.default_rng(29)
    for _ in range(4):
        f, g, h = (random_polynomial() for _ in range(3))
        fgh = f * poisson(g, h)
        for p in (random_points(150), local.normal(size=(40, 3)),
                  np.zeros((0, 3))):
            expected = np.zeros(p.shape[0])
            for (a, b, c), coeff in fgh.coeffs.items():
                expected += float(coeff) * p[:, 0] ** a * p[:, 1] ** b \
                    * p[:, 2] ** c
            assert fgh.evaluate(p).tobytes() == expected.tobytes()
    assert SphereFunction().evaluate(random_points(3)).tolist() == [0.0] * 3


def reference_evaluate(f, points):
    """A copy of ``SphereFunction.evaluate`` before power tables: per call
    and axis a fresh stack of ``p[:, axis] ** e``, the coefficients
    repeated over the rows, the terms multiplied in and summed in dict
    order."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    exps = np.array(list(f.coeffs), dtype=int).reshape(-1, 3)
    coeffs = np.array([float(c) for c in f.coeffs.values()])
    terms = np.repeat(coeffs[:, None], len(p), axis=1)
    for axis in range(3):
        k = exps[:, axis]
        powers = np.stack([p[:, axis] ** e
                           for e in range(k.max(initial=0) + 1)])
        terms *= powers[k]
    return np.add.reduce(terms, axis=0, initial=0.0)


def polynomial_of_degree(local, degree):
    """Random terms of degree <= ``degree``, one of them of that degree,
    with coefficients in thirds."""
    keys = [(a, b, c) for a in range(degree + 1)
            for b in range(degree + 1 - a) for c in range(degree + 1 - a - b)]
    coeffs = {key: Fraction(int(local.integers(-9, 10)), 3)
              for key in keys if local.random() < 0.3}
    top = keys[int(local.integers(len(keys)))]
    while sum(top) != degree:
        top = keys[int(local.integers(len(keys)))]
    coeffs[top] = Fraction(1, 3)
    return SphereFunction(coeffs)


def test_table_evaluation_is_bitwise_the_reference_in_any_order():
    # polynomials of degree 0 to 8 that share one table, evaluated in a
    # random order, so each axis's table grows in steps of every size
    local = np.random.default_rng(61)
    for points in (random_points(130), local.normal(size=(40, 3)),
                   np.array([0.1, -0.2, 0.3]), np.zeros((0, 3))):
        for _ in range(4):
            polys = [polynomial_of_degree(local, d) for d in range(9)]
            table = PowerTable.of(points)
            for i in local.permutation(len(polys)):
                expected = reference_evaluate(polys[i], points)
                assert polys[i].evaluate(table).tobytes() == \
                    expected.tobytes()
                assert polys[i].evaluate(points).tobytes() == \
                    expected.tobytes()
            # the table holds each power up to the highest exponent asked
            # for, computed with a scalar exponent
            p = np.atleast_2d(points)
            for axis in range(3):
                powers = table.powers(axis, 0)
                assert len(powers) == 1 + max(key[axis] for f in polys
                                              for key in f.coeffs)
                for e, row in enumerate(powers):
                    assert row.tobytes() == (p[:, axis] ** e).tobytes()


def test_gradient_and_field_share_one_table_bitwise():
    local = np.random.default_rng(67)
    p = random_points(90)
    for degree in range(5):
        f = polynomial_of_degree(local, degree)
        expected = np.stack([reference_evaluate(f.partial(axis), p)
                             for axis in range(3)], axis=1)
        table = PowerTable.of(p)
        assert f.gradient(table).tobytes() == expected.tobytes()
        assert f.gradient(p).tobytes() == expected.tobytes()
        field = np.cross(p, expected).tobytes()
        assert hamiltonian_field(f)(table).tobytes() == field
        assert hamiltonian_field(f)(p).tobytes() == field


def test_exponent_keys_must_be_three_nonnegative_integers():
    for coeffs in ({(1.5, 0, 0): 1}, {(1, 0, 0): 1, (1.5, 0, 0): 2},
                   {(-1, 0, 0): 1}, {(1, 0): 1}, {(1, 0, 0, 0): 1},
                   {"abc": 1}, {(float("nan"), 0, 0): 1}):
        with pytest.raises(ValueError):
            SphereFunction(coeffs)
    # integral values of any numeric type are accepted
    assert SphereFunction({(1.0, 0, 0): 2}) == 2 * X
    assert SphereFunction({(np.int64(1), 0, Fraction(2)): 1}) == X * Z * Z


def test_exponent_key_returns_int_tuples_at_once_and_converts_the_rest():
    # a tuple of three non-negative Python ints is the key itself
    for key in ((2, 0, 1), (0, 0, 0), (2 ** 70, 0, 3)):
        assert _exponent_key(key) is key
    # bools, numpy ints, lists and integral floats and Fractions become a
    # tuple of Python ints
    for key, expected in (((True, False, True), (1, 0, 1)),
                          ((np.uint8(3), np.True_, 0), (3, 1, 0)),
                          ((np.int64(2), 0, 1), (2, 0, 1)),
                          ([2, 0, 1], (2, 0, 1)),
                          ((2.0, 0, Fraction(1)), (2, 0, 1))):
        out = _exponent_key(key)
        assert type(out) is tuple and out == expected
        assert [type(k) for k in out] == [int] * 3
    # every bad key raises with the key it saw, as a tuple when it is one
    for key, shown in (((-1, 0, 0), "(-1, 0, 0)"), ((1, 0), "(1, 0)"),
                       ((1, 0, 0, 0), "(1, 0, 0, 0)"),
                       ((1.5, 0, 0), "(1.5, 0, 0)"),
                       ((True, -1, 0), "(True, -1, 0)"),
                       ((np.int64(-1), 0, 0), repr((np.int64(-1), 0, 0))),
                       ([1, -2, 0], "(1, -2, 0)"),
                       ("abc", "('a', 'b', 'c')"), (5, "5")):
        with pytest.raises(ValueError) as err:
            _exponent_key(key)
        assert str(err.value) == \
            f"exponent key {shown} is not three non-negative integers"


def fraction_mul(a, b):
    # reference product of coefficient dicts, every value a Fraction
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            out[key] = out.get(key, Fraction(0)) + Fraction(v1) * Fraction(v2)
    return {k: v for k, v in out.items() if v != 0}


def fraction_add(a, b, sign=1):
    out = {k: Fraction(v) for k, v in a.items()}
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * Fraction(v)
    return {k: v for k, v in out.items() if v != 0}


def fraction_partial(a, axis):
    out = {}
    for key, v in a.items():
        if key[axis]:
            k = tuple(e - (i == axis) for i, e in enumerate(key))
            out[k] = out.get(k, Fraction(0)) + Fraction(v) * key[axis]
    return out


def fraction_poisson(f, g):
    # det[p, grad f, grad g] expanded along p, in Fractions
    df = [fraction_partial(f, i) for i in range(3)]
    dg = [fraction_partial(g, i) for i in range(3)]
    out = {}
    for i, key in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        j, k = (i + 1) % 3, (i + 2) % 3
        minor = fraction_add(fraction_mul(df[j], dg[k]),
                             fraction_mul(df[k], dg[j]), sign=-1)
        out = fraction_add(out, fraction_mul({key: 1}, minor))
    return out


def half_integer_polynomial(local, max_degree=3):
    coeffs = {}
    for key in [(i, j, k) for i in range(4) for j in range(4)
                for k in range(4)]:
        if sum(key) <= max_degree and local.random() < 0.5:
            coeffs[key] = Fraction(int(local.integers(-7, 8)), 2)
    return coeffs


def test_half_integer_products_and_brackets_match_fractions():
    # exact results stay exact: every coefficient is an int, or a Fraction
    # whose denominator is not 1, and equals the all-Fraction reference
    local = np.random.default_rng(43)
    for _ in range(10):
        a, b = (half_integer_polynomial(local) for _ in range(2))
        f, g = SphereFunction(a), SphereFunction(b)
        half = {(0, 0, 0): Fraction(1, 2)}
        for got, expected in ((f * g, fraction_mul(a, b)),
                              (poisson(f, g), fraction_poisson(a, b)),
                              (Fraction(1, 2) * f, fraction_mul(half, a))):
            assert got.coeffs == expected
            assert all(type(v) is int if v.denominator == 1
                       else type(v) is Fraction for v in got.coeffs.values())
    assert any(type(v) is Fraction for v in (f * g).coeffs.values())
