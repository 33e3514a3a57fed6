import weakref
from itertools import product

import numpy as np
import pytest

from cocyclelab import forms, simplices
from cocyclelab.cochains import (conjugate_point_map, degree_of_map,
                                 twisted_square_map)
from cocyclelab.contact import contact_volume_form
from cocyclelab.errors import QuadratureDiverged
from cocyclelab.forms import (DifferentialForm, fubini_study_form, mc3_form,
                              pullback_integral, sphere_atlas,
                              sphere_integral, sphere_products, vol_form)
from cocyclelab.groups import QUAT_ONE, _qconj, _qmul, hopf_arr
from cocyclelab.hamiltonian import SphereFunction
from cocyclelab.quadrature import IntegralResult, QuadratureSpec, _rule_level
from cocyclelab.simplices import GeodesicSimplex, ParametrizedMap, join_rows
from cocyclelab.suites import run_suite
from test_quadrature import barycentric_jet, level_nodes, row_jet

rng = np.random.default_rng(11)
QUAD = QuadratureSpec(order=8, tol=1e-5)


def random_unit(d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_tangents(x, k):
    t = rng.normal(size=(k, x.shape[0]))
    t -= np.outer(t @ x, x)
    return t


def test_s3_volume_normalization():
    res = sphere_integral(vol_form(), "S3", QUAD)
    assert abs(res.value - 1.0) < 1e-6


def test_hemisphere_is_half():
    # the 8 atlas cells with positive first coordinate tile a hemisphere
    total = 0.0
    form = vol_form()
    for sign, cell in sphere_atlas("S3"):
        if cell.vertices[0][0] > 0:
            total += sign * pullback_integral(form, [cell], QUAD)[0].value
    assert abs(total - 0.5) < 1e-6


def test_orthant_tetrahedron_is_sixteenth():
    # oracle: 16 congruent orthant cells tile the 3-sphere
    sx = GeodesicSimplex(list(np.eye(4)), "spherical")
    [res] = pullback_integral(vol_form(), [sx], QUAD)
    assert abs(res.value - 1.0 / 16.0) < 1e-6


def test_orthant_against_monte_carlo_oracle():
    # seeded Monte Carlo cross-check of the tiling fraction
    pts = rng.normal(size=(200_000, 4))
    frac = float(np.mean(np.all(pts > 0, axis=1)))
    sx = GeodesicSimplex(list(np.eye(4)), "spherical")
    val = pullback_integral(vol_form(), [sx], QUAD)[0].value
    assert abs(frac - val) < 5e-3


def test_error_estimates_honest_on_orthant():
    sx = GeodesicSimplex(list(np.eye(4)), "spherical")
    for depth in (0, 1, 2):
        [res] = pullback_integral(vol_form(), [sx],
                                  QuadratureSpec(order=6, depth=depth,
                                                 tol=1e-5))
        assert abs(res.value - 1.0 / 16.0) <= res.error_estimate


def test_fubini_study_normalizations():
    res = sphere_integral(fubini_study_form(), "CP1", QUAD)
    assert abs(res.value - 2.0 * np.pi) < 1e-8
    # model points sit at squared radius 1/4
    for _, cell in sphere_atlas("CP1")[:3]:
        pts = cell.evaluate(rng.dirichlet(np.ones(3), size=10))
        assert np.allclose((pts ** 2).sum(axis=1), 0.25, atol=1e-12)


def half_scale(sx):
    """The radius-1/2 image of a spherical 2-simplex, with its jet."""

    sx_jet = barycentric_jet(sx)

    def jet(b, db):
        x, dx = sx_jet(b, db)
        return 0.5 * x, 0.5 * dx

    return ParametrizedMap.from_barycentric(2, jet)


def test_fubini_study_rotation_invariance_on_caps():
    # integrals over a small cell agree after rotating the cell
    form = fubini_study_form()
    verts = [random_unit(3) for _ in range(3)]
    while not np.linalg.det(verts) > 0.1:
        verts = [random_unit(3) for _ in range(3)]
    base = GeodesicSimplex(verts, "spherical")
    cell = half_scale(base)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rot = GeodesicSimplex([q @ v for v in verts], "spherical")
    cell_rot = half_scale(rot)
    a, b = (r.value for r in pullback_integral(form, [cell, cell_rot], QUAD))
    assert abs(a - b) < 1e-8


def test_mc3_alternation_and_invariance():
    form = mc3_form()
    q = random_unit(4)
    t = random_tangents(q, 3)
    v123 = form.evaluate(q[None], t[None])[0]
    swapped = t[[1, 0, 2]]
    assert abs(form.evaluate(q[None], swapped[None])[0] + v123) < 1e-12
    # left invariance
    g = random_unit(4)
    gq = _qmul(g, q)
    gt = np.stack([_qmul(g, tk) for tk in t])
    assert abs(form.evaluate(gq[None], gt[None])[0] - v123) < 1e-10


def test_mc3_total_integral_is_unit():
    res = sphere_integral(mc3_form(), "S3", QUAD)
    assert abs(abs(res.value) - 1.0) < 1e-4


def test_form_multilinearity():
    form = vol_form()
    q = random_unit(4)
    t = random_tangents(q, 3)
    a, b = rng.normal(size=2)
    w = random_tangents(q, 1)[0]
    mixed = t.copy()
    mixed[1] = a * t[1] + b * w
    lhs = form.evaluate(q[None], mixed[None])[0]
    t2 = t.copy()
    t2[1] = w
    rhs = a * form.evaluate(q[None], t[None])[0] \
        + b * form.evaluate(q[None], t2[None])[0]
    assert abs(lhs - rhs) < 1e-9


def gf_covector():
    """A copy of the covector that the gf-derivation suite integrates: the
    i-component of p^-1 t."""
    return DifferentialForm(1, "SU2",
                            lambda p, t: _qmul(_qconj(p), t[:, 0])[:, 1])


@pytest.mark.parametrize("form, radius", [
    (vol_form(), 1.0), (mc3_form(), 1.0), (contact_volume_form(), 1.0),
    (fubini_study_form(), 0.5), (gf_covector(), 1.0)])
def test_a_radial_part_in_any_tangent_changes_no_form(form, radius):
    # every form integrates the jets' tangents as given, which are tangent
    # only up to rounding: adding a multiple of the point to any one tangent
    # moves each value by rounding alone (about 1e-14 at most, against
    # values up to about 30)
    local = np.random.default_rng(17)
    d = 3 if form.ambient == "CP1" else 4
    p = local.normal(size=(2000, d))
    p *= radius / np.linalg.norm(p, axis=1, keepdims=True)
    t = local.normal(size=(2000, form.degree, d))
    t -= np.einsum("nki,ni->nk", t, p)[..., None] * p[:, None] / radius ** 2
    values = form.evaluate(p, t)
    bound = 64 * np.finfo(float).eps * (1.0 + np.abs(values))
    for k in range(form.degree):
        moved = t.copy()
        moved[:, k] += local.normal(size=(2000, 1)) * p
        assert np.all(np.abs(form.evaluate(p, moved) - values) <= bound)


def test_det_rows_is_the_determinant():
    # the Laplace expansion by 2x2 minors against a reference copy of the
    # batched np.linalg.det it replaced, within 1e-13 of the product of the
    # row norms, Hadamard's bound on the determinant; a frame with two
    # equal rows in one minor pair gives exactly 0.0
    local = np.random.default_rng(31)
    rows = list(local.normal(size=(4, 5000, 4)))
    expected = np.linalg.det(np.stack(rows, axis=-2))
    scale = np.prod([np.linalg.norm(r, axis=1) for r in rows], axis=0)
    assert np.all(np.abs(forms._det_rows(*rows) - expected) <= 1e-13 * scale)
    for i, j in ((0, 1), (2, 3)):
        frame = list(rows)
        frame[j] = frame[i]
        assert np.all(forms._det_rows(*frame) == 0.0)


def test_orientation_sensitivity():
    verts = list(np.eye(4))
    swapped = [verts[1], verts[0], verts[2], verts[3]]
    sx, sy = pullback_integral(vol_form(),
                               [GeodesicSimplex(verts, "spherical"),
                                GeodesicSimplex(swapped, "spherical")], QUAD)
    assert abs(sx.value + sy.value) <= 2 * (sx.error_estimate
                                            + sy.error_estimate) + 1e-12


def test_additivity_under_domain_subdivision():
    # red split of the barycentric 3-simplex; summed sub-integrals must
    # reproduce the whole
    verts = [random_unit(4) for _ in range(4)]
    while not abs(np.linalg.det(verts)) > 0.3:
        verts = [random_unit(4) for _ in range(4)]
    sx = GeodesicSimplex(verts, "spherical")
    sx_jet = barycentric_jet(sx)
    form = vol_form()
    [whole] = pullback_integral(form, [sx], QUAD)

    e = np.eye(4)
    mid = {(i, j): (e[i] + e[j]) / 2 for i in range(4)
           for j in range(i + 1, 4)}

    def m(i, j):
        return mid[(min(i, j), max(i, j))]

    cells = [
        [e[0], m(0, 1), m(0, 2), m(0, 3)],
        [m(0, 1), e[1], m(1, 2), m(1, 3)],
        [m(0, 2), m(1, 2), e[2], m(2, 3)],
        [m(0, 3), m(1, 3), m(2, 3), e[3]],
        [m(0, 1), m(1, 2), m(0, 2), m(0, 3)],
        [m(0, 1), m(1, 3), m(1, 2), m(0, 3)],
        [m(1, 2), m(2, 3), m(0, 2), m(0, 3)],
        [m(1, 3), m(2, 3), m(1, 2), m(0, 3)],
    ]
    total, est = 0.0, whole.error_estimate
    for cell in cells:
        cmat = np.stack(cell)
        sub = ParametrizedMap.from_barycentric(
            3, lambda b, db, _c=cmat: sx_jet(b @ _c, db @ _c))
        [res] = pullback_integral(form, [sub], QUAD)
        total += res.value
        est += res.error_estimate
    assert abs(total - whole.value) <= 2 * est + 1e-10


def test_constant_map_integrates_to_zero():
    def point(b):
        return np.broadcast_to(np.eye(4)[0], (b.shape[0], 4)).copy()

    const = ParametrizedMap.from_barycentric(3, lambda b, db: (
        point(b), np.zeros(db.shape[:2] + (4,))))
    [res] = pullback_integral(vol_form(), [const], QUAD)
    assert res.value == 0.0


def test_prism_of_a_straight_simplex_carries_no_volume():
    # when the input is already straight the homotopy is constant in time
    # and the prism cell is rank-deficient
    from cocyclelab.groups import quat_exp
    from cocyclelab.simplices import prism_cell
    verts = []
    for _ in range(3):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 0.12) / np.linalg.norm(v)
        verts.append(quat_exp(v))
    cell = prism_cell(GeodesicSimplex(verts, "chart"))
    [res] = pullback_integral(vol_form(), [cell],
                              QuadratureSpec(order=6, tol=1e-3))
    assert abs(res.value) < 1e-12


@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_barycentric_map_integrates_like_its_simplex(kind):
    # a ParametrizedMap from a barycentric jet goes through cube_to_bary_jet
    # and the barycentric jet, here the simplex's cube jet through the
    # reference bary_to_cube_jet; it must agree with the simplex's own cube
    # path
    from cocyclelab.groups import quat_exp
    if kind == "spherical":
        verts = [v / np.linalg.norm(v) for v in
                 np.eye(4) + 0.3 * rng.normal(size=(4, 4))]
    else:
        verts = []
        for _ in range(4):
            v = rng.normal(size=3)
            v *= rng.uniform(0.05, 0.12) / np.linalg.norm(v)
            verts.append(quat_exp(v))
    sx = GeodesicSimplex(verts, kind)
    form = vol_form()
    direct = pullback_integral(form, [sx], QUAD)[0].value
    bary = pullback_integral(
        form, [ParametrizedMap.from_barycentric(3, barycentric_jet(sx))],
        QUAD)[0].value
    assert direct != 0.0
    assert abs(bary - direct) < 1e-12


def test_cp1_cells_carry_half_their_simplex_jet():
    for _, cell in sphere_atlas("CP1")[:5]:
        s = rng.uniform(0.01, 0.99, size=(40, 2))
        x, t = row_jet(cell, s)
        assert np.array_equal(x, cell.evaluate_cube(s))
        h = 1e-4
        for k in range(2):
            step = h * np.eye(2)[k]
            fd = (-cell.evaluate_cube(s + 2 * step)
                  + 8.0 * cell.evaluate_cube(s + step)
                  - 8.0 * cell.evaluate_cube(s - step)
                  + cell.evaluate_cube(s - 2 * step)) / (12.0 * h)
            assert np.abs(t[:, k] - fd).max() < 1e-8


def test_jet_error_estimate_is_the_order_difference():
    # the estimate is |fine - coarse| plus gamma_N sum |w_i f_i|, the
    # rounding bound of the fine sum over its N nodes: the value at spec
    # order k is the order-(k+2) rule, so spec order 6 gives the coarse
    # value of spec order 8
    orthant = GeodesicSimplex(list(np.eye(4)), "spherical")
    cases = [(vol_form(), orthant),
             (fubini_study_form(), sphere_atlas("CP1")[0][1]),
             (mc3_form(), sphere_atlas("S3")[3][1])]
    u = np.finfo(float).eps / 2
    for form, cell in cases:
        [fine] = pullback_integral(form, [cell],
                                   QuadratureSpec(order=8, tol=1))
        [coarse] = pullback_integral(form, [cell],
                                     QuadratureSpec(order=6, tol=1))
        axes, wts = _rule_level(cell.degree, 10, 0)
        pts = level_nodes(axes)
        x, t = row_jet(cell, pts)
        f = form.evaluate(x, t)
        nu = len(wts) * u
        rounding = nu / (1 - nu) * np.dot(wts, np.abs(f))
        assert rounding > 0.0
        assert abs(fine.error_estimate - abs(fine.value - coarse.value)
                   - rounding) <= 1e-3 * rounding
    # the orthant cell converges below the old finite-difference floor
    form = vol_form()
    quad = QuadratureSpec(order=8, tol=1)
    assert pullback_integral(form, [orthant], quad)[0].error_estimate \
        < 3 * 2e-12


def random_simplex(kind, local):
    """A degree-3 simplex of one kind with vertices near each other."""
    from cocyclelab.groups import quat_exp
    if kind == "spherical":
        return GeodesicSimplex(
            [v / np.linalg.norm(v) for v in
             np.eye(4) + 0.3 * local.normal(size=(4, 4))], kind)
    verts = []
    for _ in range(4):
        v = local.normal(size=3)
        v *= local.uniform(0.05, 0.12) / np.linalg.norm(v)
        verts.append(quat_exp(v))
    return GeodesicSimplex(verts, kind)


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("order", [6, 7, 8, 9, 10])
@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_simplex_pullback_on_grids_is_bitwise_the_row_path(kind, order,
                                                           depth):
    # a geodesic simplex on the level's grids, against the row join loop
    # at every node in blocks of rows: the same value and estimate, and
    # the same divergence
    from test_simplices import row_joins
    sx = random_simplex(kind, np.random.default_rng(order + 10 * depth))
    rows = row_map(3, lambda s: row_joins(
        kind, np.broadcast_to(sx.varr, (len(s),) + sx.varr.shape), s))
    form = vol_form()
    quad = QuadratureSpec(order=order, depth=depth, tol=1)
    [got] = pullback_integral(form, [sx], quad)
    assert got.value != 0.0
    assert bits(got) == bits(pullback_integral(form, [rows], quad)[0])
    # the divergence case is the coarsest rule, orders 2 and 4, whose two
    # sums differ by 1.8e-6 of the value or more for every simplex here,
    # far above their rounding, so both paths raise, with the same
    # message.  (At finer orders the two rules of a chart simplex can
    # agree to the last bits, and then no path raises)
    [coarse] = pullback_integral(form, [sx], QuadratureSpec(
        order=2, depth=depth, tol=1))
    assert coarse.error_estimate > 1e-9 * abs(coarse.value)
    tight = QuadratureSpec(order=2, depth=depth, tol=1e-30)
    messages = []
    for f in (sx, rows):
        with pytest.raises(QuadratureDiverged) as err:
            pullback_integral(form, [f], tight)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def mixed_maps():
    """Degree-3 maps of every kind the prism suite integrates, and a
    spherical simplex: a chart simplex, a barycentric map, its
    straightening and two of its prism cells."""
    from cocyclelab.simplices import prism_cell, straighten
    from cocyclelab.suites import _wiggled_simplex
    f = _wiggled_simplex(np.random.default_rng(12))
    local = np.random.default_rng(13)
    return [random_simplex("chart", local), f, straighten(f),
            random_simplex("spherical", local), prism_cell(f.face(0)),
            prism_cell(f.face(2))]


def test_pullback_of_a_mixed_list_is_bitwise_each_map_alone():
    form = vol_form()
    quad = QuadratureSpec(order=6, depth=1, tol=1)
    maps = mixed_maps()
    got = pullback_integral(form, maps, quad)
    assert len(got) == len(maps)
    alone = [pullback_integral(form, [f], quad)[0] for f in maps]
    assert [bits(r) for r in got] == [bits(r) for r in alone]
    assert len({r.value for r in got}) == len(maps)


def test_pullback_of_a_list_raises_for_its_first_diverging_map():
    # at tol 1e-30 every map diverges, each by its own rule-order
    # difference, so the message tells which map raised
    form = vol_form()
    tight = QuadratureSpec(order=2, tol=1e-30)
    maps = mixed_maps()
    messages = []
    for f in maps:
        with pytest.raises(QuadratureDiverged) as err:
            pullback_integral(form, [f], tight)
        messages.append(str(err.value))
    assert len(set(messages)) == len(maps)
    for first in range(len(maps)):
        with pytest.raises(QuadratureDiverged) as err:
            pullback_integral(form, maps[first:] + maps[:first], tight)
        assert str(err.value) == messages[first]


def test_pullback_of_no_maps_and_of_mixed_degrees():
    form = vol_form()
    assert pullback_integral(form, []) == []
    f = mixed_maps()[1]
    with pytest.raises(ValueError, match="one degree"):
        pullback_integral(form, [f, f.face(0)])


@pytest.mark.parametrize("depth", [0, 1])
def test_a_degree_0_form_over_a_point_is_its_value_there(depth):
    # a degree-0 rule level is one panel with no axis and the weight 1, so
    # the integral over a one-vertex simplex or a degree-0 barycentric map
    # is the form's value at its point
    form = DifferentialForm(0, "S3", lambda p, t: 3.0 * p[:, 0] - p[:, 1] ** 2
                            + 7.0)
    point = np.full(4, 0.5)

    def jet(bary, dbary):
        return np.tile(point, (len(bary), 1)), np.zeros((len(bary), 0, 4))

    maps = [GeodesicSimplex([point], "spherical"),
            ParametrizedMap.from_barycentric(0, jet)]
    quad = QuadratureSpec(order=4, depth=depth)
    for res in pullback_integral(form, maps, quad):
        assert res.value == 8.25
        assert res.error_estimate < 1e-14


def test_degree_mismatch_rejected():
    sx = GeodesicSimplex(list(np.eye(4)), "spherical")
    with pytest.raises(ValueError):
        pullback_integral(fubini_study_form(), [sx], QUAD)
    with pytest.raises(ValueError, match="form of degree 3 got 2 tangent"):
        mc3_form().evaluate(np.eye(4)[:1], np.eye(4)[None, 1:3])


def test_sphere_atlas_takes_s3_or_cp1():
    with pytest.raises(ValueError, match="unknown sphere 'S2'"):
        sphere_atlas("S2")


def orthant_atlas():
    """The 16 orthant cells of S^3 with their orientation signs, built here
    from the vertex signs rather than read from ``sphere_atlas``."""
    return [(int(np.prod(signs)),
             GeodesicSimplex([s * e for s, e in zip(signs, np.eye(4))],
                             "spherical"))
            for signs in sorted(product((1.0, -1.0), repeat=4))]


def row_map(degree, cube_jet):
    """Reference copy of the row path of ``pullback_integral``: a map whose
    grid jet evaluates ``cube_jet`` on the grid's nodes, in blocks of
    ``simplices._BLOCK_ROWS`` rows, one node per row."""

    def grid_jet(axes):
        s = level_nodes(axes)
        block = simplices._BLOCK_ROWS
        return (cube_jet(s[lo:lo + block]) for lo in range(0, len(s), block))

    return ParametrizedMap(degree, grid_jet=grid_jet)


def cell_by_cell(form, atlas, quad, compose=None):
    """The whole-sphere integral as ``pullback_integral`` of the form over
    every cell of ``atlas``, post-composed with the jet ``compose`` if one
    is given, summed in atlas order."""
    total, est = 0.0, 0.0
    for sign, cell in atlas:
        if compose is not None:
            cell = row_map(cell.degree, lambda s, _c=cell:
                           compose(*row_jet(_c, s)))
        [res] = pullback_integral(form, [cell], quad)
        total += sign * res.value
        est += res.error_estimate
    return IntegralResult(value=total, error_estimate=est)


def bits(res):
    return res.value.hex(), res.error_estimate.hex()


def product_form(base, factors, lift=None):
    """Reference copy of the integrand of ``sphere_products``: the form
    ``f_1(p) * ... * f_k(p) * base(p, t)``, each factor evaluated on the
    points (or on their ``lift``) on its own, multiplied in order."""

    def ev(p, t):
        x = p if lift is None else lift(p)
        value = factors[0].evaluate(x)
        for fn in factors[1:]:
            value = value * fn.evaluate(x)
        return value * base.evaluate(p, t)

    return DifferentialForm(base.degree, base.ambient, ev)


FACTOR = SphereFunction({(2, 1, 0): 3, (0, 0, 3): -2, (1, 0, 0): 1,
                         (0, 0, 0): 0.25, (4, 0, 2): 5})
# the base form and the lift of each sphere's products
PRODUCT_BASES = {"CP1": (fubini_study_form(), None),
                 "S3": (contact_volume_form(), hopf_arr)}


def fresh_caches(monkeypatch):
    monkeypatch.setattr(forms, "_DENSITY_CACHE", weakref.WeakKeyDictionary())


def no_jet(*args):
    raise AssertionError("atlas jet evaluated on a cache hit")


@pytest.mark.parametrize("sphere, order, depth", [
    ("CP1", 8, 0), ("CP1", 8, 1), ("S3", 8, 0), ("S3", 8, 1),
    ("S3", 12, 0), ("S3", 12, 1)])
def test_factored_sphere_integral_is_bitwise_the_cell_sum(
        monkeypatch, sphere, order, depth):
    # a product of two polynomials against a cached density, against its
    # form integrated cell by cell
    fresh_caches(monkeypatch)
    base, lift = PRODUCT_BASES[sphere]
    other = SphereFunction({(1, 1, 0): -2, (0, 0, 2): 1, (0, 0, 0): 0.5})
    quad = QuadratureSpec(order=order, depth=depth, tol=1)
    expected = cell_by_cell(product_form(base, (FACTOR, other), lift),
                            sphere_atlas(sphere), quad)
    first = sphere_products(base, sphere, [(FACTOR, other)], quad, lift)
    assert bits(first[0]) == bits(expected)
    # the second call reads every cell from the cache: no jet is evaluated
    monkeypatch.setattr(GeodesicSimplex, "evaluate_grid_jet", no_jet)
    second = sphere_products(base, sphere, [(FACTOR, other)], quad, lift)
    assert bits(second[0]) == bits(first[0])


@pytest.mark.parametrize("order, depth", [(8, 0), (8, 1), (11, 0)])
def test_factored_sphere_integral_of_a_polynomial_is_bitwise_the_cell_sum(
        monkeypatch, order, depth):
    # sphere_products evaluates its one factor on a power table of each
    # CP1 cell's cached points; the reference form evaluates it on the
    # points of each block of each cell's own grid jet
    fresh_caches(monkeypatch)
    base = fubini_study_form()
    quad = QuadratureSpec(order=order, depth=depth, tol=1)
    expected = cell_by_cell(product_form(base, (FACTOR,)),
                            sphere_atlas("CP1"), quad)
    [first] = sphere_products(base, "CP1", [(FACTOR,)], quad)
    assert bits(first) == bits(expected)
    monkeypatch.setattr(GeodesicSimplex, "evaluate_grid_jet", no_jet)
    assert bits(sphere_products(base, "CP1", [(FACTOR,)], quad)[0]) == \
        bits(first)


def random_entries(local, count):
    """``count`` products of one to three random polynomials."""
    def poly():
        return SphereFunction({
            (a, b, c): int(local.integers(-3, 4))
            for a in range(4) for b in range(4) for c in range(4)
            if a + b + c <= 3 and local.random() < 0.3})

    return [tuple(poly() for _ in range(1 + k % 3)) for k in range(count)]


@pytest.mark.parametrize("sphere, order", [
    ("CP1", 8), ("S3", 8), ("S3", 12)])
def test_a_batch_is_bitwise_its_entries_one_at_a_time(
        monkeypatch, sphere, order):
    # at order 12 the fine level's 14^3 = 2744 nodes span two blocks of
    # rows, so each S^3 cell meets two tables
    fresh_caches(monkeypatch)
    if order == 12:
        assert len(_rule_level(3, 14, 0)[1]) > simplices._BLOCK_ROWS
    base, lift = PRODUCT_BASES[sphere]
    entries = random_entries(np.random.default_rng(order), 7)
    quad = QuadratureSpec(order=order, tol=1)
    batch = sphere_products(base, sphere, entries, quad, lift)
    assert len(batch) == len(entries)
    for entry, got in zip(entries, batch):
        alone = sphere_products(base, sphere, [entry], quad, lift)
        assert bits(got) == bits(alone[0])


def test_an_empty_batch_integrates_nothing(monkeypatch):
    fresh_caches(monkeypatch)
    for sphere, (base, lift) in PRODUCT_BASES.items():
        assert sphere_products(base, sphere, [], QUAD, lift) == []
    assert forms._DENSITY_CACHE.get(fubini_study_form()) is None


def test_a_diverging_entry_raises_for_the_batch():
    # the zero polynomial's rows agree at both orders; FACTOR's do not at
    # orders 2 and 4
    base, zero = fubini_study_form(), SphereFunction()
    tight = QuadratureSpec(order=2, tol=1e-12)
    assert sphere_products(base, "CP1", [(zero,)], tight)[0].value == 0.0
    with pytest.raises(QuadratureDiverged):
        sphere_products(base, "CP1", [(zero,), (FACTOR, zero), (FACTOR,)],
                        tight)


def test_only_the_s3_atlas_takes_a_lift():
    with pytest.raises(ValueError, match="only the S\\^3 atlas"):
        sphere_products(fubini_study_form(), "CP1", [(FACTOR,)], QUAD,
                        hopf_arr)


@pytest.mark.parametrize("compose", [
    None, conjugate_point_map(QUAT_ONE), twisted_square_map(QUAT_ONE)])
@pytest.mark.parametrize("order, depth", [(8, 0), (10, 0), (8, 1)])
def test_uncached_s3_integral_is_bitwise_the_cell_sum(
        monkeypatch, compose, order, depth):
    # the composed maps of lemma44 and an unfactored form, against the 16
    # orthant cells integrated one by one
    form = vol_form()
    quad = QuadratureSpec(order=order, depth=depth, tol=1e-4)
    expected = cell_by_cell(form, orthant_atlas(), quad, compose)
    grids = []

    def spy(kind, vertices, axes):
        grids.append(axes.shape)
        return join_rows(kind, vertices, axes)

    monkeypatch.setattr(simplices, "join_rows", spy)
    if compose is not None and depth == 0:
        assert degree_of_map(compose, quad) == expected.value
        grids.clear()
    assert bits(sphere_integral(form, "S3", quad, compose)) == \
        bits(expected)
    # the joins run on each panel's grid once per rule level, not once per
    # cell and not once per node
    panels = {}
    for count, _, m in grids:
        panels[m] = panels.get(m, 0) + count
    assert panels == {o: 2 ** (3 * depth) for o in quad.orders}


@pytest.mark.parametrize("compose", [None, twisted_square_map(QUAT_ONE)])
def test_uncached_s3_integral_diverges_as_the_cell_sum(compose):
    quad = QuadratureSpec(order=8, tol=1e-18)
    with pytest.raises(QuadratureDiverged) as expected:
        cell_by_cell(vol_form(), orthant_atlas(), quad, compose)
    with pytest.raises(QuadratureDiverged) as got:
        sphere_integral(vol_form(), "S3", quad, compose)
    assert str(got.value) == str(expected.value)


def test_a_composed_integral_leaves_the_density_cache_as_it_found_it(
        monkeypatch):
    # the pulled-back form of a composed call is a base of its own, which
    # goes with its densities when the call returns; the form's own
    # densities, kept by a call without a map, stay as they were
    fresh_caches(monkeypatch)
    form, quad = vol_form(), QuadratureSpec(order=8, tol=1e-4)
    sphere_integral(form, "S3", quad)
    levels = forms._DENSITY_CACHE[form]
    kept = dict(levels)
    for compose in (twisted_square_map(QUAT_ONE),
                    conjugate_point_map(QUAT_ONE)):
        sphere_integral(form, "S3", quad, compose)
        degree_of_map(compose, quad)
        assert list(forms._DENSITY_CACHE.keys()) == [form]
        assert forms._DENSITY_CACHE[form] is levels
        assert levels.keys() == kept.keys()
        assert all(levels[key] is kept[key] for key in kept)


def unsigned_zeros(a):
    """The bytes of ``a`` with every -0.0 read as +0.0 (x + 0.0 changes no
    other value)."""
    return (a + 0.0).tobytes()


# the bases whose densities each sphere's atlas keeps
DENSITY_BASES = {"S3": (contact_volume_form(), vol_form(), mc3_form()),
                 "CP1": (fubini_study_form(),)}


@pytest.mark.parametrize("sphere", ["S3", "CP1"])
def test_cached_cells_are_bitwise_their_own_grid_jets(monkeypatch, sphere):
    # every cached cell's points, signs * points, and its density are
    # bitwise its own grid jet's points, one node per row, and base on its
    # jet.  Every S^3 cell's jet is its vertex signs times the positive
    # orthant's, the tangents but for the sign of zero entries (0 - 0 is
    # +0.0 whatever the signs), and the 16 cells share the orthant's
    # points; each CP1 cell keeps its own points, with signs 1.0
    monkeypatch.setattr(forms, "_DENSITY_CACHE", weakref.WeakKeyDictionary())
    atlas = [cell for _, cell in sphere_atlas(sphere)]
    if sphere == "S3":
        signs = [np.sum(cell.vertices, axis=0) for cell in atlas]
        # the atlas is built from its signs, the positive orthant last
        assert np.array_equal(forms._ORTHANT_SIGNS, signs)
        assert np.all(signs[-1] > 0)
    for order in range(8, 15):
        for depth in (0, 1):
            s = level_nodes(_rule_level(atlas[0].degree, order, depth)[0])
            jets = [row_jet(cell, s) for cell in atlas]
            if sphere == "S3":
                x, dx = jets[-1]
                for sg, (own_x, own_dx) in zip(signs, jets):
                    assert own_x.tobytes() == (sg * x).tobytes()
                    assert unsigned_zeros(own_dx) == unsigned_zeros(sg * dx)
            # densities at the levels the suites integrate at (even orders
            # at depth 0) and at one level of depth 1
            if order % 2 or (depth and order != 8):
                continue
            for base in DENSITY_BASES[sphere]:
                cells = forms._atlas_density(sphere, base, order, depth)
                assert len(cells) == len(atlas)
                for (sg, points, density), (own_x, own_dx) in zip(cells,
                                                                   jets):
                    assert (sg * points).tobytes() == own_x.tobytes()
                    assert density.tobytes() == \
                        base.evaluate(own_x, own_dx).tobytes()
                if sphere == "S3":
                    assert all(points is cells[0][1]
                               for _, points, _ in cells)
                else:
                    assert all(sg == 1.0 for sg, _, _ in cells)


def test_density_cache_stays_small_after_the_sphere_suites(monkeypatch):
    # 1.06 MB: per level the S^3 density of every cell and the points its
    # 16 cells share, and the CP1 density and points of every cell;
    # per-cell S^3 points or cached tangents would go over the bound
    monkeypatch.setattr(forms, "_DENSITY_CACHE", weakref.WeakKeyDictionary())
    for suite in ("symplectic", "contact"):
        assert run_suite(suite).passed
    arrays = {}
    for levels in forms._DENSITY_CACHE.values():
        for cells in levels.values():
            for a in (a for cell in cells for a in cell):
                if isinstance(a, np.ndarray):
                    arrays[id(a)] = a
    assert 0 < sum(a.nbytes for a in arrays.values()) <= 1.2e6
