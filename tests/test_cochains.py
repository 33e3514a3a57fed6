import re
import sys
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from cocyclelab import cochains
from cocyclelab.cochains import (HomogeneousChain, HomogeneousCochain,
                                 circle_distance, coboundary,
                                 conjugate_point_map, cyclic_cycle,
                                 degree_of_map, exact, generic_rotation,
                                 integrated_cochain, kronecker_pair,
                                 transfer, twisted_square_map)
from cocyclelab.errors import (BadOrder, DomainGuard, NotNormal,
                               QuadratureDiverged)
from cocyclelab.finite import FiniteGroupTable, build_complex, extend_cocycle
from cocyclelab.forms import mc3_form, pullback_integral, vol_form
from cocyclelab.groups import (QUAT_I, QUAT_J, QUAT_K, QUAT_ONE, Rotation,
                               UnitQuaternion, apply_rotation, cyclic_embed,
                               quat_exp, so4_of)
from cocyclelab.quadrature import IntegralResult, QuadratureSpec
from cocyclelab.simplices import (GeodesicSimplex, all_faces,
                                  in_open_hemisphere, is_chart_small)
from cocyclelab.suites import _random_hemispherical_tuple, run_suite

rng = np.random.default_rng(99)
QUAD = QuadratureSpec(order=6, tol=1e-4)


def random_quat():
    v = rng.normal(size=4)
    return UnitQuaternion(v / np.linalg.norm(v))


def small_so4(scale=0.25):
    return so4_of(quat_exp(rng.normal(size=3) * scale),
                  quat_exp(rng.normal(size=3) * scale))


def listwise(value):
    """A list evaluator: ``value(t)`` with the estimate 0.0 for each
    tuple t."""
    return lambda tuples: [(value(t), 0.0) for t in tuples]


def hemispherical_tuple(size):
    while True:
        t = tuple(small_so4() for _ in range(size))
        pts = [apply_rotation(g, QUAT_ONE).vec for g in t]
        if in_open_hemisphere(pts):
            return t


def test_exact_is_an_int_unless_a_denominator_is_not_1():
    for value, expected in ((3, 3), (Fraction(6, 2), 3), (np.int64(-4), -4),
                            (2.0, 2), (True, 1)):
        got = exact(value)
        assert type(got) is int and got == expected
    for value, expected in ((Fraction(3, 6), Fraction(1, 2)),
                            (0.75, Fraction(3, 4)),
                            (np.float64(-0.5), Fraction(-1, 2))):
        got = exact(value)
        assert type(got) is Fraction and got == expected
    # anything that is not a finite rational raises one ValueError that
    # names it
    for value in (float("inf"), float("-inf"), float("nan"), None):
        with pytest.raises(ValueError) as err:
            exact(value)
        assert str(err.value) == f"{value!r} is not a finite rational"


def reference_reduced(value, est, lattice):
    """The reduction as one formula for every value: ``value % lattice``,
    plus the rounding term u * lattice for a float."""
    if lattice and isinstance(value, float):
        est += np.finfo(float).eps / 2 * lattice
    return (value % lattice if lattice else value), est


def bitwise(a, b):
    """Same type and same bits: repr tells -0.0 from 0.0."""
    return type(a) is type(b) and repr(a) == repr(b)


VALUES = [0, 3, -2, 7, Fraction(1, 3), Fraction(-1, 3), Fraction(7, 2),
          Fraction(-9, 4), 0.25, 0.0, -0.0, 1.5, -0.75, 1e-17, -1e-17,
          np.float64(0.5), np.float64(-0.0)]
LATTICES = [0, 1, 2, Fraction(1, 2), Fraction(3, 2), 1.0, 0.5]


def test_reduction_is_bitwise_the_modulo_for_every_value_type():
    for value in VALUES:
        for lattice in LATTICES:
            for est in (0.0, 1e-3):
                got = cochains._reduced(value, est, lattice)
                want = reference_reduced(value, est, lattice)
                assert bitwise(got[0], want[0]), (value, lattice)
                assert bitwise(got[1], want[1]), (value, lattice)
    # a float lattice turns an exact value in range into a float, and a
    # Fraction lattice turns an int into a Fraction
    assert bitwise(cochains._reduced(0, 0.0, 1.0)[0], 0.0)
    assert bitwise(cochains._reduced(1, 0.0, Fraction(3, 2))[0],
                   Fraction(1))
    assert bitwise(cochains._reduced(-0.0, 0.0, 1)[0], 0.0)


@pytest.mark.parametrize("lattice", [0, 1, Fraction(1, 2), 1.0])
def test_signed_sums_are_bitwise_the_coefficient_products(lattice):
    local = np.random.default_rng(5)
    table = {(i,): (v, float(local.uniform(0, 1e-3)))
             for i, v in enumerate(VALUES)}
    f = HomogeneousCochain(0, lattice, lambda ts: [table[t] for t in ts])
    coefficients = [1, -1, 2, -3, 0, Fraction(1, 2), Fraction(-1),
                    np.float64(1.0), np.float64(-2.5), np.int64(-1)]
    rows = [[(coefficients[int(local.integers(len(coefficients)))],
              (int(local.integers(len(VALUES))),))
             for _ in range(int(local.integers(1, 5)))]
            for _ in range(300)]
    rows += [[(c, (i,))] for c in coefficients for i in range(len(VALUES))]
    for row, (total, est) in zip(rows, cochains.signed_sums(f, rows)):
        want, want_est = 0, 0.0
        for coeff, t in row:
            v, e = reference_reduced(*table[t], lattice)
            want = want + coeff * v
            want_est += abs(coeff) * e
        assert bitwise(total, want), row
        assert bitwise(est, want_est), row


def test_circle_valued_slope_is_a_cocycle():
    # phi(g, h) = h - g on the circle group, values mod 1
    phi = HomogeneousCochain(1, 1.0, listwise(lambda t: t[1] - t[0]))
    for _ in range(50):
        g = rng.uniform(0, 1, size=3)
        val = coboundary(phi)((g[0], g[1], g[2]))
        assert circle_distance(val, 0.0) < 1e-12


def test_constant_cochain_coboundary_parity():
    for degree, expect_zero in ((2, True), (1, False)):
        c = HomogeneousCochain(degree, 0, listwise(lambda t: 1.25))
        val = coboundary(c)(tuple(range(degree + 2)))
        assert (abs(val) < 1e-15) == expect_zero


def test_double_coboundary_vanishes():
    values = {}

    def ev(t):
        return values.setdefault(t, rng.normal())

    f = HomogeneousCochain(1, 0, listwise(ev))
    ddf = coboundary(coboundary(f))
    for _ in range(10):
        t = tuple(rng.integers(0, 5, size=4))
        assert abs(ddf(t)) < 1e-12


def test_integrated_cochain_orthant_value():
    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    # rotations sending the base point 1 to 1, i, j, k
    t = (Rotation.identity(), so4_of(QUAT_I, QUAT_ONE),
         so4_of(QUAT_J, QUAT_ONE), so4_of(QUAT_K, QUAT_ONE))
    value = cochain(t)
    assert circle_distance(value, 1.0 / 16.0) < 1e-6


def test_integrated_cochain_degenerate_and_invariance():
    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    g = small_so4()
    assert circle_distance(cochain((g, g, g, g)), 0.0) < 1e-12
    for _ in range(5):
        t = hemispherical_tuple(4)
        h = small_so4()
        shifted = tuple(h @ g for g in t)
        if not cochain.admissible(shifted):
            continue
        assert circle_distance(cochain(t), cochain(shifted)) < 1e-8


def test_integrated_cochain_domain_guard():
    with pytest.raises(ValueError, match="unknown cochain kind 'flat'"):
        integrated_cochain(vol_form(), "flat", quad=QUAD)
    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    flip = so4_of(QUAT_I, QUAT_I.inverse())  # sends 1 to i*1*i = -1
    with pytest.raises(DomainGuard):
        cochain((Rotation.identity(), flip,
                 so4_of(QUAT_J, QUAT_ONE), so4_of(QUAT_K, QUAT_ONE)))


def test_cocycle_defect_spherical():
    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    tuples = [hemispherical_tuple(5) for _ in range(5)]
    for value, est in coboundary(cochain).with_errors(tuples):
        assert circle_distance(value, 0.0) <= 5 * est
    # repeated element: two faces cancel, the rest are degenerate
    a, b, c, d = (small_so4() for _ in range(4))
    [(value, _)] = coboundary(cochain).with_errors([(a, a, b, c, d)])
    assert circle_distance(value, 0.0) < 1e-9


def test_cocycle_defect_chart():
    cochain = integrated_cochain(mc3_form(), "chart", quad=QUAD)
    tuples = [tuple(quat_exp(rng.normal(size=3) * 0.05)
                    for _ in range(5)) for _ in range(3)]
    for value, est in coboundary(cochain).with_errors(tuples):
        assert abs(value) <= 5 * est


def test_double_coboundary_of_integrated_cochain():
    cochain = integrated_cochain(mc3_form(), "chart", quad=QUAD)
    ddf = coboundary(coboundary(cochain))
    t = tuple(quat_exp(rng.normal(size=3) * 0.04)
              for _ in range(6))
    value, est = ddf.with_error(t)
    # the alternating sum telescopes: exact cancellation up to roundoff
    assert abs(value) <= max(est, 1e-12)


def test_cyclic_cycle_shape():
    with pytest.raises(BadOrder):
        cyclic_cycle(1)
    for m in range(2, 9):
        tau = cyclic_cycle(m)
        assert sum(abs(c) for _, c in tau.items()) <= m
        for t, _ in tau.items():
            assert all(0 <= a < m for a in t)
        # the boundary vanishes once each face is translated to start at 0
        coinvariant = HomogeneousChain()
        for t, c in tau.boundary().terms.items():
            coinvariant.add(c, tuple((g - t[0]) % m for g in t))
        assert len(coinvariant) == 0
    assert len(cyclic_cycle(2)) == 2


def test_kronecker_pairing_linearity_and_zero():
    zero = HomogeneousCochain(1, 0, listwise(lambda t: 0.0))
    chain = HomogeneousChain([(2, (0, 1)), (-1, (1, 3))])
    assert kronecker_pair(zero, chain).value == 0.0

    f = HomogeneousCochain(1, 0, listwise(lambda t: float(t[1] - t[0])))
    other = HomogeneousChain([(1, (0, 2))])
    combined = HomogeneousChain([(2, (0, 1)), (-1, (1, 3)), (1, (0, 2))])
    assert kronecker_pair(f, combined).value == pytest.approx(
        kronecker_pair(f, chain).value + kronecker_pair(f, other).value,
        abs=1e-14)


def test_pairing_invariant_under_translation_of_the_cycle():
    base = apply_rotation(generic_rotation(), QUAT_ONE)
    cochain = integrated_cochain(vol_form(), "spherical",
                                 base_point=base, quad=QUAD)
    m = 5
    g = [so4_of(cyclic_embed(m, a), cyclic_embed(m, -a)) for a in range(m)]
    val = kronecker_pair(cochain, cyclic_cycle(m),
                         embed=lambda a: g[a % m]).value
    shift = g[2]
    val2 = kronecker_pair(cochain, cyclic_cycle(m),
                          embed=lambda a: shift @ g[a % m]).value
    assert circle_distance(val, val2) < 1e-8


def test_cyclic_orbit_simplices_are_geodesically_flat():
    # every orbit of the paired cyclic action lies on a planar circle, so
    # the straight 3-simplices carry no volume: the pairing vanishes mod 1
    base = apply_rotation(generic_rotation(), QUAT_ONE)
    for m in (3, 5, 6, 8):
        pts = np.array([apply_rotation(
            so4_of(cyclic_embed(m, a), cyclic_embed(m, -a)), base).vec
            for a in range(m)])
        assert np.linalg.matrix_rank(pts, tol=1e-10) <= 3
    cochain = integrated_cochain(vol_form(), "spherical",
                                 base_point=base, quad=QUAD)
    for m in (3, 5):
        val = kronecker_pair(
            cochain, cyclic_cycle(m),
            embed=lambda a, _m=m: so4_of(cyclic_embed(_m, a),
                                         cyclic_embed(_m, -a))).value
        assert circle_distance(val, 0.0) < 1e-8


def test_degree_of_maps():
    quad = QuadratureSpec(order=8, tol=1e-4)
    assert degree_of_map(conjugate_point_map(QUAT_ONE), quad).value == 0.0
    assert abs(degree_of_map(twisted_square_map(QUAT_ONE), quad).value
               - 2.0) < 1e-2
    # conjugation with a generic base point: image is 2-dimensional
    assert abs(degree_of_map(conjugate_point_map(random_quat()),
                             quad).value) < 1e-2


def test_transfer_restriction_and_errors():
    z6 = FiniteGroupTable.cyclic(6)
    phi = HomogeneousCochain(
        1, 1, listwise(lambda t: Fraction((t[1] - t[0]) % 6, 6)))
    tr = transfer(phi, z6, [0, 2, 4])
    for a in (0, 2, 4):
        for b in (0, 2, 4):
            assert (tr((a, b)) - 2 * phi((a, b))) % 1 == 0

    # index 1: the transfer is the cochain itself
    tr1 = transfer(phi, z6, list(range(6)))
    for _ in range(10):
        t = tuple(int(x) for x in rng.integers(0, 6, size=2))
        assert tr1(t) == phi(t)

    zero = HomogeneousCochain(1, 1, listwise(lambda t: Fraction(0)))
    trz = transfer(zero, z6, [0, 2, 4])
    assert trz((1, 5)) == 0

    for sub, message in (([0, 2], "inverse of 2"),
                         ([2, 4], "must contain the identity"),
                         ([0, 1, 5], "product 1\\*1")):
        with pytest.raises(NotNormal, match=message):
            transfer(phi, z6, sub)


@pytest.mark.parametrize("entry", [7, -6, 2.0])
def test_transfer_refuses_a_subgroup_entry_that_is_no_element(entry):
    # -6 would alias 0 through negative indexing, and 2.0 equals 2
    z6 = FiniteGroupTable.cyclic(6)
    phi = HomogeneousCochain(
        1, 1, listwise(lambda t: Fraction((t[1] - t[0]) % 6, 6)))
    with pytest.raises(ValueError, match=re.escape(
            f"subgroup entry {entry!r} is not in 0..5")):
        transfer(phi, z6, [0, 2, 4, entry])


def s3_table(perms):
    """S3 on the labels of ``perms``: label a times label b is the label
    of the composite perms[a] o perms[b]."""
    perms = list(perms)
    return FiniteGroupTable([[perms.index(tuple(p[i] for i in q))
                              for q in perms] for p in perms])


def test_transfer_on_a_normal_subgroup_that_the_identity_does_not_lead():
    # in this labelling the identity is 5 and A3 is {1, 2, 5}; the
    # identity represents A3 and 0, the least of {0, 3, 4}, the other
    # coset, which is the formula with the representatives [5, 0]
    s3 = s3_table(sorted(permutations(range(3)), reverse=True))
    assert s3.identity == 5
    sub, reps = [1, 2, 5], [5, 0]
    local = np.random.default_rng(5)
    values = {t: Fraction(int(local.integers(-6, 7)), 12)
              for t in product(range(6), repeat=2)}
    phi = HomogeneousCochain(1, 1, listwise(values.__getitem__))

    def by_reps(t):
        # sum over s in reps of phi on the tuple of (s g) r(s g)^-1, where
        # r(x) is the representative whose coset holds x
        def rep(x):
            return next(r for r in reps if s3.mul(x, s3.inv(r)) in sub)

        def move(x):
            return s3.mul(x, s3.inv(rep(x)))

        return sum(phi(tuple(move(s3.mul(s, g)) for g in t)) for s in reps)

    tr = transfer(phi, s3, sub)
    # phi is not a class function, so another choice of representatives
    # moves these values
    assert all((tr(t) - by_reps(t)) % 1 == 0 for t in values)


def test_transfer_checks_that_the_subgroup_is_normal():
    # {e, (0 1)} is a subgroup of S3 that conjugation by (1 2) moves
    s3 = s3_table(permutations(range(3)))
    phi = HomogeneousCochain(1, 1, listwise(lambda t: Fraction(0)))
    with pytest.raises(NotNormal, match="conjugate of 2 by 1 "):
        transfer(phi, s3, [0, 2])


def test_transfer_is_a_chain_map():
    z6 = FiniteGroupTable.cyclic(6)
    sub = [0, 2, 4]
    values = {}

    def ev(t):
        return values.setdefault(t, Fraction(int(rng.integers(-6, 7)), 12))

    phi = HomogeneousCochain(1, 1, listwise(ev))
    lhs = coboundary(transfer(phi, z6, sub))
    rhs = transfer(coboundary(phi), z6, sub)
    for t in product(range(6), repeat=3):
        assert (lhs(t) - rhs(t)) % 1 == 0


def test_transfer_of_a_stacked_cochain_is_one_call_per_batch():
    z6 = FiniteGroupTable.cyclic(6)
    sub = [0, 2, 4]
    calls = []

    def slope(t):
        return Fraction((t[1] - t[0]) % 6, 6)

    def stacked(tuples):
        calls.append(len(tuples))
        return [(slope(t), 0.0) for t in tuples]

    tr = transfer(HomogeneousCochain(1, 1, stacked), z6, sub)
    plain = transfer(HomogeneousCochain(1, 1, listwise(slope)), z6, sub)
    pairs = list(product(range(6), repeat=2))
    # the moves of every tuple go to the cochain in one call; the index is
    # 2, so each tuple has two moves
    assert tr.with_errors(pairs) == plain.with_errors(pairs)
    assert calls == [2 * len(pairs)]
    calls.clear()
    triples = list(product(range(6), repeat=3))
    assert coboundary(tr).with_errors(triples) == \
        coboundary(plain).with_errors(triples)
    assert calls == [3 * 2 * len(triples)]
    calls.clear()
    assert tr.with_errors([]) == []
    assert calls == []


def test_coboundary_checks_each_face_once(monkeypatch):
    calls = []

    def counted(points):
        calls.append(len(points))
        return in_open_hemisphere(points)

    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    t = hemispherical_tuple(5)
    monkeypatch.setattr(cochains, "in_open_hemisphere", counted)
    coboundary(cochain).with_errors([t])
    assert calls == [4] * 5


def test_coboundary_inadmissible_face_raises():
    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    flip = so4_of(QUAT_I, QUAT_I.inverse())  # sends 1 to i*1*i = -1
    with pytest.raises(DomainGuard):
        coboundary(cochain).with_errors([(Rotation.identity(), flip,
                                          so4_of(QUAT_J, QUAT_ONE),
                                          so4_of(QUAT_K, QUAT_ONE),
                                          so4_of(QUAT_ONE, QUAT_J))])


def face_simplices(kind, t):
    """The GeodesicSimplex of every face of t, as integrated_cochain builds
    them with the base point 1."""
    return [GeodesicSimplex([apply_rotation(g, QUAT_ONE) for g in face_t]
                            if kind == "spherical" else face_t, kind)
            for _, face_t in all_faces(t)]


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("order", [6, 8])
@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_stacked_coboundary_is_bitwise_the_face_sum(kind, order, depth):
    # the faces of a coboundary go through one stacked join pass; each
    # face is still reduced on its own, so the value and the estimate are
    # bitwise those of one pullback_integral per face, the estimate plus
    # the rounding u * lattice of each reduction: the five faces' and the
    # sum's
    quad = QuadratureSpec(order=order, depth=depth, tol=1e-3)
    if kind == "spherical":
        form, lattice = vol_form(), 1.0
        a, b, c, d, e = hemispherical_tuple(5)
    else:
        form, lattice = mc3_form(), 0
        a, b, c, d, e = (quat_exp(rng.normal(size=3) * 0.05)
                         for _ in range(5))
    cochain = integrated_cochain(form, kind, quad=quad)
    assert cochain.lattice == lattice
    rounding = np.finfo(float).eps / 2 * lattice
    for t in ((a, b, c, d, e), (a, a, b, c, d)):
        simplices = face_simplices(kind, t)
        per_face = [pullback_integral(form, [sx], quad)[0]
                    for sx in simplices]
        assert pullback_integral(form, simplices, quad) == per_face
        total, est = 0, 0.0
        for (sign, _), res in zip(all_faces(t), per_face):
            value = res.value % lattice if lattice else res.value
            total = total + sign * value
            est += res.error_estimate + rounding
        assert coboundary(cochain).with_errors([t]) == \
            [(total % lattice if lattice else total, est + rounding)]


def test_stacked_faces_raise_for_the_first_diverging_face():
    form = vol_form()
    simplices = face_simplices("spherical", hemispherical_tuple(5))
    loose = QuadratureSpec(order=2, tol=1.0)
    est = [r.error_estimate
           for r in pullback_integral(form, simplices, loose)]
    worst = int(np.argmax(est))
    # ten times this tolerance lies between the worst face's rule-order
    # difference and every other face's
    quad = QuadratureSpec(order=2, tol=(max(est) + sorted(est)[-2]) / 20)
    pullback_integral(form, simplices[:worst] + simplices[worst + 1:], quad)
    with pytest.raises(QuadratureDiverged) as alone:
        pullback_integral(form, [simplices[worst]], quad)
    with pytest.raises(QuadratureDiverged) as stacked:
        pullback_integral(form, simplices, quad)
    assert str(stacked.value) == str(alone.value)


def test_coboundary_stacks_its_faces_and_projects_their_vertices(
        monkeypatch):
    projected, stacks = [], []

    def counted_rotation(g, point):
        projected.append(g)
        return apply_rotation(g, point)

    def counted_stack(form, simplices, quad):
        stacks.append(len(simplices))
        return pullback_integral(form, simplices, quad)

    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    t = hemispherical_tuple(5)
    monkeypatch.setattr(cochains, "apply_rotation", counted_rotation)
    monkeypatch.setattr(cochains, "pullback_integral", counted_stack)
    coboundary(cochain).with_errors([t])
    # the five guards project their four vertices each, face by face, and
    # the one stacked evaluation of the five faces integrates the guards'
    # simplices without projecting again
    assert stacks == [5]
    assert len(projected) == 5 * 4
    assert [id(g) for g in projected] == \
        [id(g) for _, face_t in all_faces(t) for g in face_t]


def defect_batches(seed):
    """24 spherical and 10 chart 5-tuples drawn as cocycle-defect draws
    them, with the suite's cochains."""
    local = np.random.default_rng(seed)
    quad = QuadratureSpec(order=6, tol=1e-3)
    spherical = [_random_hemispherical_tuple(local, QUAT_ONE)
                 for _ in range(24)]
    chart = [tuple(quat_exp(local.normal(size=3) * 0.05)
                   for _ in range(5)) for _ in range(10)]
    return [(integrated_cochain(vol_form(), "spherical",
                                quad=quad), spherical),
            (integrated_cochain(mc3_form(), "chart", quad=quad), chart)]


def hex_pairs(pairs):
    return [(float(v).hex(), float(e).hex()) for v, e in pairs]


def exact_batches():
    """A transfer on Z/6 with its 36 pairs, and a cocycle extended from
    the conf-distinct complex of Z/5 with its 625 4-tuples."""
    slope = HomogeneousCochain(
        1, 1, listwise(lambda t: Fraction((t[1] - t[0]) % 6, 6)))
    tr = transfer(slope, FiniteGroupTable.cyclic(6), [0, 2, 4])
    conf = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    g_vals = [int(v) for v in rng.integers(-3, 4, len(conf.generators[2]))]
    f_vals = [Fraction(sum(g * row[j] for g, row in
                           zip(g_vals, conf.boundaries[3])), 7)
              for j in range(len(conf.generators[3]))]
    return [(tr, list(product(range(6), repeat=2))),
            (extend_cocycle(conf, f_vals),
             list(product(range(5), repeat=4)))]


def test_batched_coboundary_is_bitwise_each_tuple_alone(monkeypatch):
    stacks = []

    def counted_stack(form, simplices, quad):
        stacks.append(len(simplices))
        return pullback_integral(form, simplices, quad)

    monkeypatch.setattr(cochains, "pullback_integral", counted_stack)
    batches = [(coboundary(cochain), tuples, [5 * len(tuples)])
               for cochain, tuples in defect_batches(3)]
    batches += [(f, tuples, []) for f, tuples in exact_batches()]
    for f, tuples, stacked in batches:
        stacks.clear()
        batch = f.with_errors(tuples)
        # a coboundary's faces of every tuple in one stack; the exact
        # cochains integrate nothing
        assert stacks == stacked
        # one evaluation path: a tuple alone, in a list of one or in the
        # batch gives bitwise the same pair
        assert hex_pairs(batch) == hex_pairs(map(f.with_error, tuples)) == \
            hex_pairs(f.with_errors([t])[0] for t in tuples)


def test_batched_coboundary_guards_every_face_before_integrating(
        monkeypatch):
    stacks = []

    def counted_stack(form, simplices, quad):
        stacks.append(len(simplices))
        return pullback_integral(form, simplices, quad)

    monkeypatch.setattr(cochains, "pullback_integral", counted_stack)
    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    # the last four points hold the origin in their convex hull and any
    # four of the five span R^4, so face 0 alone leaves the domain
    e = np.eye(4)
    points = [e[3], e[0], e[1], e[2], -(e[0] + e[1] + e[2])]
    bad = tuple(so4_of(UnitQuaternion(p / np.linalg.norm(p)), QUAT_ONE)
                for p in points)
    items = [cochain.admissible(face_t) for _, face_t in all_faces(bad)]
    assert items[0] is None
    assert [(type(sx), sx.kind) for sx in items[1:]] == \
        [(GeodesicSimplex, "spherical")] * 4
    good = [hemispherical_tuple(5) for _ in range(3)]
    for k in range(3):
        with pytest.raises(DomainGuard):
            coboundary(cochain).with_errors(good[:k] + [bad] + good[k:])
    assert stacks == []


def test_batched_coboundary_diverges_as_the_diverging_tuple_alone():
    cochain, tuples = defect_batches(4)[0]
    tuples = tuples[:4]
    form = vol_form()
    loose = QuadratureSpec(order=2, tol=1.0)
    est = [r.error_estimate for r in pullback_integral(
        form, [sx for t in tuples for sx in face_simplices("spherical", t)],
        loose)]
    worst = int(np.argmax(est))
    # ten times this tolerance lies between the worst face's rule-order
    # difference and every other face's
    quad = QuadratureSpec(order=2, tol=(max(est) + sorted(est)[-2]) / 20)
    df = coboundary(integrated_cochain(form, "spherical", quad=quad))
    for k, t in enumerate(tuples):
        if k != worst // 5:
            df.with_error(t)
    with pytest.raises(QuadratureDiverged) as alone:
        df.with_error(tuples[worst // 5])
    with pytest.raises(QuadratureDiverged) as batched:
        df.with_errors(tuples)
    assert str(batched.value) == str(alone.value)


def test_batched_coboundary_of_an_exact_cochain_stays_exact():
    z6 = FiniteGroupTable.cyclic(6)

    def ev(t):
        # an int on every tuple of the subgroup but (2, 4), a third there
        return Fraction(1, 3) if t == (2, 4) else t[0] * t[1] % 5

    df = coboundary(transfer(HomogeneousCochain(1, 0, listwise(ev)), z6,
                             [0, 2, 4]))
    tuples = list(product(range(6), repeat=3))
    batch = [(type(v), v, e) for v, e in df.with_errors(tuples)]
    assert batch == [(type(v), v, e) for v, e in map(df.with_error, tuples)]
    # the sums start from the int 0, so no value turns into a float
    assert {kind for kind, _, _ in batch} == {int, Fraction}
    assert {e for _, _, e in batch} == {0.0}


def test_pairing_checks_every_term_before_evaluating(monkeypatch):
    stacks = []

    def counted_stack(form, simplices, quad):
        stacks.append(len(simplices))
        return pullback_integral(form, simplices, quad)

    monkeypatch.setattr(cochains, "pullback_integral", counted_stack)
    cochain = integrated_cochain(vol_form(), "spherical", quad=QUAD)
    flip = so4_of(QUAT_I, QUAT_I.inverse())  # sends 1 to -1
    group = [Rotation.identity(), so4_of(QUAT_J, QUAT_ONE), flip,
             so4_of(QUAT_K, QUAT_ONE), so4_of(QUAT_ONE, QUAT_I)]
    # the terms of the 4-cycle in order: (0, 1, 0, 1) is admissible and
    # (0, 1, 1, 2) is the first to meet the antipode of 1
    with pytest.raises(DomainGuard,
                       match=r"inadmissible tuple \(0, 1, 1, 2\) in pairing"):
        kronecker_pair(cochain, cyclic_cycle(4), embed=lambda a: group[a])
    assert stacks == []
    # an admissible chain is evaluated in one stack, and its pairing is the
    # term-by-term sum of the reduced values, bitwise; the estimate adds
    # the rounding u of the total's reduction to the terms' estimates
    chain = HomogeneousChain([(1, (0, 1, 3, 4)), (-2, (1, 0, 4, 3)),
                              (3, (0, 0, 1, 3))])
    res = kronecker_pair(cochain, chain, embed=lambda a: group[a])
    assert stacks == [3]
    total, total_est = 0, 0.0
    for t, coeff in chain.items():
        v, e = cochain.with_error(tuple(group[a] for a in t))
        total = total + coeff * v
        total_est += abs(coeff) * e
    assert res == IntegralResult(total % 1.0,
                                 total_est + np.finfo(float).eps / 2)
    # an empty chain pairs to 0 without evaluating anything
    stacks.clear()
    assert kronecker_pair(cochain, HomogeneousChain()) == \
        IntegralResult(0, 0.0)
    assert stacks == []


def test_pairing_runs_each_guard_once_and_passes_face_guards_through():
    guarded = []

    def guard(t):
        guarded.append(t)
        return t if t != (2, 3) else None

    g = HomogeneousCochain(1, 1, listwise(lambda t: Fraction(t[1] - t[0], 7)),
                           guard=guard, label="g")
    chain = HomogeneousChain([(1, (0, 1)), (2, (1, 2)), (-1, (0, 2))])
    assert kronecker_pair(g, chain).value == Fraction(1, 7)
    assert guarded == [(0, 1), (0, 2), (1, 2)]
    # (1, 2, 3) lies in the domain of d(g), which has no guard, but its
    # face (2, 3) does not lie in g's: that DomainGuard is g's own
    with pytest.raises(DomainGuard) as err:
        kronecker_pair(coboundary(g), HomogeneousChain([(1, (0, 1, 2)),
                                                        (1, (1, 2, 3))]))
    assert str(err.value) == "tuple outside the domain of cochain 'g'"
    assert err.value.__cause__ is None


def test_chart_cochain_checks_each_face_for_chart_smallness_once(
        monkeypatch):
    checks, stacks = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is is_chart_small.__code__:
            checks.append(len(frame.f_locals["vertices"]))

    def counted_stack(form, simplices, quad):
        stacks.append(len(simplices))
        return pullback_integral(form, simplices, quad)

    monkeypatch.setattr(cochains, "pullback_integral", counted_stack)
    cochain = integrated_cochain(mc3_form(), "chart", quad=QUAD)
    t = tuple(quat_exp(rng.normal(size=3) * 0.05)
              for _ in range(5))
    sys.setprofile(profile)
    try:
        coboundary(cochain).with_errors([t])
    finally:
        sys.setprofile(None)
    # one check per face, in the constructor of the simplex that the
    # guard hands the evaluator
    assert checks == [4] * 5
    assert stacks == [5]
    # past the chart radius the simplex raises, so the guard's item is
    # None and the tuple raises DomainGuard before anything is integrated
    far = (QUAT_ONE, quat_exp([1.0, 0.0, 0.0]),
           QUAT_ONE, QUAT_ONE)
    stacks.clear()
    assert cochain.admissible(far) is None
    with pytest.raises(DomainGuard):
        cochain.with_errors([t[:4], far])
    assert stacks == []


@pytest.mark.parametrize("seed", [1, 8, 10])
def test_cocycle_defect_passes_with_no_padding_floor(seed):
    # at these seeds the worst spherical defect is one or two ulps of 1, a
    # rounding of the reductions mod 1 (ratio 1.07 to 3.26 against the
    # quadrature estimate alone); the estimate counts u for each reduction,
    # so each ratio stays far below 1 with no floor under the bound
    report = run_suite("cocycle-defect", {"seed": seed})
    ratios = {check.id: check.computed for check in report.checks}
    assert report.passed, ratios
    assert ratios["spherical-defect-ratio-max"] < 0.1
    assert ratios["chart-defect-ratio-max"] < 0.01
