import tracemalloc
from math import pi

import numpy as np
import pytest

from cocyclelab.contact import (alpha_value, contact_bracket, contact_cocycle,
                                contact_field, contact_pairings,
                                dalpha_value, fiber_period,
                                contact_volume_form, pullback, reeb_field,
                                volume_density)
from cocyclelab.forms import sphere_atlas
from cocyclelab.groups import _qmul, hopf_arr, hopf_jacobian
from cocyclelab.hamiltonian import (SphereFunction, hamiltonian_field,
                                    poisson, symplectic_cocycle)
from cocyclelab.quadrature import QuadratureSpec
from cocyclelab.suites import _random_polynomial
from test_forms import cell_by_cell, product_form
from test_hamiltonian import (area_integral, degree_at_most_4,
                              monomial_form_integral)

rng = np.random.default_rng(23)
X, Y, Z = (SphereFunction.coordinate(n) for n in "xyz")
QUAD = QuadratureSpec(order=8, tol=1e-4)


def random_sphere_points(n=100):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def tangents_at(q):
    v = rng.normal(size=q.shape)
    return v - np.einsum("ni,ni->n", v, q)[:, None] * q


def test_reeb_field_identities():
    q = random_sphere_points()
    r = reeb_field()(q)
    assert np.abs(alpha_value(q, r) - 1.0).max() < 1e-12
    v = tangents_at(q)
    assert np.abs(dalpha_value(r, v)).max() < 1e-12


def test_fiber_period():
    assert abs(fiber_period() - 2.0 * pi) < 1e-9


def reeb_derivative(fn, points, h=1e-5):
    # central differences along the fiber flow, which stays on the sphere
    up = np.broadcast_to([np.cos(h), np.sin(h), 0.0, 0.0], points.shape)
    dn = np.broadcast_to([np.cos(h), -np.sin(h), 0.0, 0.0], points.shape)
    return (fn(_qmul(up, points)) - fn(_qmul(dn, points))) / (2.0 * h)


def test_pullbacks_are_reeb_invariant():
    q = random_sphere_points()
    F = pullback(X * Y + 2 * Z)
    assert np.abs(reeb_derivative(F.evaluate, q)).max() < 1e-8


def test_contact_field_defining_identities():
    q = random_sphere_points()
    for f in (X, Y, X * Z):
        F = pullback(f)
        xf = contact_field(F)(q)
        assert np.abs(np.einsum("ni,ni->n", xf, q)).max() < 1e-12
        assert np.abs(alpha_value(q, xf) - F.evaluate(q)).max() < 1e-12
        v = tangents_at(q)
        jac = hopf_jacobian(q)
        df = np.einsum("ni,ni->n", f.gradient(hopf_arr(q)),
                       np.einsum("nkj,nj->nk", jac, v))
        assert np.abs(dalpha_value(xf, v) + df).max() < 1e-8


def test_constant_gives_reeb():
    q = random_sphere_points()
    one = pullback(SphereFunction.constant(1))
    assert np.abs(contact_field(one)(q) - reeb_field()(q)).max() < 1e-12


def test_pushforward_is_hamiltonian_field():
    q = random_sphere_points()
    for f in (X, Y, Z, X * Y):
        xf = contact_field(pullback(f))(q)
        push = np.einsum("nkj,nj->nk", hopf_jacobian(q), xf)
        assert np.abs(push - hamiltonian_field(f)(hopf_arr(q))).max() < 1e-7


def test_contact_bracket_matches_poisson():
    q = random_sphere_points()
    bc = contact_bracket(pullback(X), pullback(Y))
    assert bc.base == Z
    assert np.abs(bc.evaluate(q) - pullback(Z).evaluate(q)).max() < 1e-7
    # antisymmetry, and brackets with constants vanish
    assert contact_bracket(pullback(Y), pullback(X)).base == (-1) * Z
    const = pullback(SphereFunction.constant(2))
    assert contact_bracket(pullback(X), const).base.coeffs == {}


def test_bracket_agrees_with_dalpha_on_fields():
    q = random_sphere_points()
    F, G = pullback(X * Y), pullback(Z)
    lhs = contact_bracket(F, G).evaluate(q)
    rhs = dalpha_value(contact_field(F)(q), contact_field(G)(q))
    assert np.abs(lhs - rhs).max() < 1e-8


def test_volume_density_positive_on_oriented_frames():
    q = random_sphere_points(50)
    r = reeb_field()(q)
    # complete r to an oriented tangent frame by projecting coordinates
    good = 0
    for _ in range(20):
        v1, v2 = tangents_at(q), tangents_at(q)
        mu = volume_density(q, r, v1, v2)
        frame_det = np.linalg.det(np.stack([q, r, v1, v2], axis=1))
        same = np.sign(mu) == np.sign(frame_det)
        good += int(np.all(same))
    assert good == 20


def test_cocycle_hopf_reduction():
    b3 = contact_cocycle(pullback(X), pullback(Y), pullback(Z), QUAD)
    b2 = symplectic_cocycle(X, Y, Z, QuadratureSpec(order=10, tol=1e-6))
    assert abs(b3.value - 2.0 * pi * b2.value) < 1e-4


def test_cocycle_antisymmetry():
    F, G, H = pullback(X), pullback(Y), pullback(Z)
    base = contact_cocycle(F, G, H, QUAD).value
    assert abs(contact_cocycle(G, F, H, QUAD).value + base) < 1e-6


def test_fiber_integration_identity():
    # integrating a pulled-back function against alpha ^ d(alpha) equals
    # 2*pi times the downstairs integral against the symplectic form
    for f in (X * X, Z, X * Y + Z * Z):
        [upstairs] = contact_pairings(
            [(pullback(f), pullback(SphereFunction.constant(1)))], QUAD)
        downstairs = area_integral(f, QuadratureSpec(order=10,
                                                     tol=1e-6)).value
        assert abs(upstairs.value - 2.0 * pi * downstairs) < 1e-5


def test_pairings_of_monomials_match_the_exact_integrals():
    # fibre integration: the pairing of a pulled-back monomial with 1 is
    # 2*pi times its integral against the symplectic form downstairs
    one = pullback(SphereFunction.constant(1))
    quad = QuadratureSpec(order=12, tol=1e-4)
    for key in degree_at_most_4():
        [got] = contact_pairings([(pullback(SphereFunction({key: 1})), one)],
                                 quad)
        assert abs(got.value - 2.0 * pi * monomial_form_integral(*key)) \
            < 1e-12


def test_dalpha_is_pullback_of_symplectic_form():
    q = random_sphere_points(50)
    u, v = tangents_at(q), tangents_at(q)
    jac = hopf_jacobian(q)
    du = np.einsum("nkj,nj->nk", jac, u)
    dv = np.einsum("nkj,nj->nk", jac, v)
    pulled = 4.0 * np.einsum("ni,ni->n", hopf_arr(q), np.cross(du, dv))
    assert np.abs(dalpha_value(u, v) - pulled).max() < 1e-12


I_UNIT = np.array([0.0, 1.0, 0.0, 0.0])


def test_reeb_field_and_alpha_are_bitwise_the_product_with_i():
    q = random_sphere_points(60)
    q[:20, :2] = 0.0
    q[20:40, 2:] = -0.0
    product_with_i = _qmul(np.broadcast_to(I_UNIT, q.shape), q)
    # the Hamilton product itself, signs of zero included
    assert reeb_field()(q).tobytes() == product_with_i.tobytes()
    # same layout, so alpha sums its products in the same order
    v = tangents_at(q)
    assert alpha_value(q, v).tobytes() == \
        np.einsum("ni,ni->n", product_with_i, v).tobytes()
    t1, t2, t3 = (tangents_at(q) for _ in range(3))
    assert volume_density(q, t1, t2, t3).tobytes() == (
        alpha_value(q, t1) * dalpha_value(t2, t3)
        - alpha_value(q, t2) * dalpha_value(t1, t3)
        + alpha_value(q, t3) * dalpha_value(t1, t2)).tobytes()


def test_contact_field_is_bitwise_the_formula_with_fresh_tables():
    # the base and its gradient share one power table of the Hopf images
    local = np.random.default_rng(71)
    q = random_sphere_points(80)
    p = hopf_arr(q)
    for _ in range(3):
        base = SphereFunction({(a, b, c): int(local.integers(-4, 5))
                               for a in range(4) for b in range(4)
                               for c in range(4) if local.random() < 0.3})
        grad = np.stack([base.partial(axis).evaluate(p) for axis in range(3)],
                        axis=1)
        lift = np.einsum("nkj,nk->nj", hopf_jacobian(q), np.cross(p, grad))
        expected = lift + base.evaluate(p)[:, None] * \
            _qmul(np.broadcast_to(I_UNIT, q.shape), q)
        assert contact_field(pullback(base))(q).tobytes() == \
            expected.tobytes()


def test_contact_pairing_is_bitwise_the_product_on_fresh_points():
    # both factors on one table per block and cell: bitwise the two
    # functions evaluated on the Hopf images on their own
    f = pullback(SphereFunction({(3, 0, 1): 2, (0, 2, 0): -1, (0, 0, 3): 5}))
    g = pullback(SphereFunction({(1, 1, 1): 3, (0, 0, 2): 1, (2, 0, 0): -4}))
    quad = QuadratureSpec(order=8, tol=1)
    expected = cell_by_cell(product_form(
        contact_volume_form(), (f.base, g.base), hopf_arr),
        sphere_atlas("S3"), quad)
    assert contact_pairings([(f, g)], quad)[0].value.hex() == \
        expected.value.hex()


def ad_invariance_pairs(count, seed=3):
    """Pairs as the ``contact-ad-invariance`` check draws them, two for
    each of ``count`` random triples."""
    local = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        F, G, H = (pullback(_random_polynomial(local, 2)) for _ in range(3))
        pairs += [(contact_bracket(F, G), H), (G, contact_bracket(F, H))]
    return pairs


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_contact_pairings_hold_one_cell_of_rows_at_a_time():
    # the 10 pairs of the check at order 12, against the largest peak of
    # each pair on its own (set by the power tables and term arrays of its
    # polynomials): the stack may add one cell's rows, 10 rows of the fine
    # level's 2744 nodes (220 KB), and 64 KB of slack, far below every
    # cell's rows at once (3.5 MB)
    quad = QuadratureSpec(order=12, tol=1e-4)
    pairs = ad_invariance_pairs(5)
    contact_pairings(pairs, quad)  # fill the density cache first
    one = max(traced_peak(lambda: contact_pairings([pair], quad))
              for pair in pairs)
    batch = traced_peak(lambda: contact_pairings(pairs, quad))
    assert batch - one <= len(pairs) * 14 ** 3 * 8 + 64 * 1024


def test_empty_pairings_are_empty():
    assert contact_pairings([], QUAD) == []
