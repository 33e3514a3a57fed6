import weakref
from itertools import product

import numpy as np
import pytest

from cocyclelab import forms, simplices
from cocyclelab.cochains import (conjugate_point_map, degree_of_map,
                                 twisted_square_map)
from cocyclelab.contact import contact_volume_form
from cocyclelab.errors import QuadratureDiverged
from cocyclelab.forms import (_project_tangent, fubini_study_form, mc3_form,
                              pullback_integral, sphere_atlas,
                              sphere_integral, stacked_pullback_integral,
                              vol_form)
from cocyclelab.groups import QUAT_ONE, _qmul
from cocyclelab.hamiltonian import SphereFunction
from cocyclelab.quadrature import (IntegralResult, QuadratureSpec, _grid_nodes,
                                   _panel_rule)
from cocyclelab.simplices import GeodesicSimplex, ParametrizedMap, join_rows
from cocyclelab.suites import run_suite
from test_quadrature import barycentric_jet, row_jet

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
    res = sphere_integral(vol_form("S3", 1.0), "S3", QUAD)
    assert abs(res.value - 1.0) < 1e-6


def test_hemisphere_is_half():
    # the 8 atlas cells with positive first coordinate tile a hemisphere
    total = 0.0
    form = vol_form("S3", 1.0)
    for sign, cell in sphere_atlas("S3"):
        if cell.vertices[0][0] > 0:
            total += sign * pullback_integral(form, cell, QUAD).value
    assert abs(total - 0.5) < 1e-6


def test_orthant_tetrahedron_is_sixteenth():
    # oracle: 16 congruent orthant cells tile the 3-sphere
    sx = GeodesicSimplex(list(np.eye(4)), "spherical")
    res = pullback_integral(vol_form("S3", 1.0), sx, QUAD)
    assert abs(res.value - 1.0 / 16.0) < 1e-6


def test_orthant_against_monte_carlo_oracle():
    # seeded Monte Carlo cross-check of the tiling fraction
    pts = rng.normal(size=(200_000, 4))
    frac = float(np.mean(np.all(pts > 0, axis=1)))
    sx = GeodesicSimplex(list(np.eye(4)), "spherical")
    val = pullback_integral(vol_form("S3", 1.0), sx, QUAD).value
    assert abs(frac - val) < 5e-3


def test_error_estimates_honest_on_orthant():
    sx = GeodesicSimplex(list(np.eye(4)), "spherical")
    for depth in (0, 1, 2):
        res = pullback_integral(vol_form("S3", 1.0), sx,
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
    a = pullback_integral(form, cell, QUAD).value
    b = pullback_integral(form, cell_rot, QUAD).value
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
    form = vol_form("S3", 1.0)
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


def test_orientation_sensitivity():
    verts = list(np.eye(4))
    sx = pullback_integral(vol_form("S3", 1.0),
                           GeodesicSimplex(verts, "spherical"), QUAD)
    swapped = [verts[1], verts[0], verts[2], verts[3]]
    sy = pullback_integral(vol_form("S3", 1.0),
                           GeodesicSimplex(swapped, "spherical"), QUAD)
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
    form = vol_form("S3", 1.0)
    whole = pullback_integral(form, sx, QUAD)

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
        res = pullback_integral(form, sub, QUAD)
        total += res.value
        est += res.error_estimate
    assert abs(total - whole.value) <= 2 * est + 1e-10


def test_constant_map_integrates_to_zero():
    def point(b):
        return np.broadcast_to(np.eye(4)[0], (b.shape[0], 4)).copy()

    const = ParametrizedMap.from_barycentric(3, lambda b, db: (
        point(b), np.zeros(db.shape[:2] + (4,))))
    res = pullback_integral(vol_form("S3", 1.0), const, QUAD)
    assert res.value == 0.0


def test_prism_of_a_straight_simplex_carries_no_volume():
    # when the input is already straight the homotopy is constant in time
    # and the prism cell is rank-deficient
    from cocyclelab.groups import LieVector, quat_exp
    from cocyclelab.simplices import prism_cell
    verts = []
    for _ in range(3):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 0.12) / np.linalg.norm(v)
        verts.append(quat_exp(LieVector("su2", v)))
    cell = prism_cell(GeodesicSimplex(verts, "chart"))
    res = pullback_integral(vol_form("S3", 1.0), cell,
                            QuadratureSpec(order=6, tol=1e-3))
    assert abs(res.value) < 1e-12


@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_barycentric_map_integrates_like_its_simplex(kind):
    # a ParametrizedMap from a barycentric jet goes through cube_to_bary_jet
    # and the barycentric jet, here the simplex's cube jet through the
    # reference bary_to_cube_jet; it must agree with the simplex's own cube
    # path
    from cocyclelab.groups import LieVector, quat_exp
    if kind == "spherical":
        verts = [v / np.linalg.norm(v) for v in
                 np.eye(4) + 0.3 * rng.normal(size=(4, 4))]
    else:
        verts = []
        for _ in range(4):
            v = rng.normal(size=3)
            v *= rng.uniform(0.05, 0.12) / np.linalg.norm(v)
            verts.append(quat_exp(LieVector("su2", v)))
    sx = GeodesicSimplex(verts, kind)
    form = vol_form("S3", 1.0)
    direct = pullback_integral(form, sx, QUAD).value
    bary = pullback_integral(
        form, ParametrizedMap.from_barycentric(3, barycentric_jet(sx)),
        QUAD).value
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
    cases = [(vol_form("S3", 1.0), orthant),
             (fubini_study_form(), sphere_atlas("CP1")[0][1]),
             (mc3_form(), sphere_atlas("S3")[3][1])]
    u = np.finfo(float).eps / 2
    for form, cell in cases:
        fine = pullback_integral(form, cell, QuadratureSpec(order=8, tol=1))
        coarse = pullback_integral(form, cell, QuadratureSpec(order=6, tol=1))
        pts, wts = _panel_rule(cell.degree, 10, 0)
        x, t = row_jet(cell, pts)
        f = form.evaluate(x, _project_tangent(x, t))
        nu = len(wts) * u
        rounding = nu / (1 - nu) * np.dot(wts, np.abs(f))
        assert rounding > 0.0
        assert abs(fine.error_estimate - abs(fine.value - coarse.value)
                   - rounding) <= 1e-3 * rounding
    # the orthant cell converges below the old finite-difference floor
    form = vol_form("S3", 1.0)
    quad = QuadratureSpec(order=8, tol=1)
    assert pullback_integral(form, orthant, quad).error_estimate < 3 * 2e-12


def test_chunked_integrand_equals_one_batch(monkeypatch):
    # a degree-3 integral at fine order 10 and depth 1 has 8000 nodes, more
    # than one chunk; one batch of all of them gives the same integral
    sx = GeodesicSimplex(
        [v / np.linalg.norm(v) for v in
         np.eye(4) + 0.3 * rng.normal(size=(4, 4))], "spherical")
    form = vol_form("S3", 1.0)
    quad = QuadratureSpec(order=8, depth=1, tol=1)
    assert 8000 > forms._JET_CHUNK
    chunked = pullback_integral(form, sx, quad)
    monkeypatch.setattr(forms, "_JET_CHUNK", 10 ** 6)
    batch = pullback_integral(form, sx, quad)
    assert chunked.value != 0.0
    assert abs(chunked.value - batch.value) <= 1e-15 * abs(batch.value)
    assert abs(chunked.error_estimate - batch.error_estimate) \
        <= 1e-15 * batch.error_estimate


def random_simplex(kind, local):
    """A degree-3 simplex of one kind with vertices near each other."""
    from cocyclelab.groups import LieVector, quat_exp
    if kind == "spherical":
        return GeodesicSimplex(
            [v / np.linalg.norm(v) for v in
             np.eye(4) + 0.3 * local.normal(size=(4, 4))], kind)
    verts = []
    for _ in range(4):
        v = local.normal(size=3)
        v *= local.uniform(0.05, 0.12) / np.linalg.norm(v)
        verts.append(quat_exp(LieVector("su2", v)))
    return GeodesicSimplex(verts, kind)


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("order", [6, 7, 8, 9, 10])
@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_simplex_pullback_on_grids_is_bitwise_the_row_path(kind, order,
                                                           depth):
    # a geodesic simplex on the level's grids, against the row join loop
    # at every node in chunks of _JET_CHUNK and against a one-simplex
    # stack: the same value and estimate, and the same divergence
    from test_simplices import row_joins
    sx = random_simplex(kind, np.random.default_rng(order + 10 * depth))
    rows = row_map(3, lambda s: row_joins(
        kind, np.broadcast_to(sx.varr, (len(s),) + sx.varr.shape), s))
    form = vol_form("S3", 1.0)
    quad = QuadratureSpec(order=order, depth=depth, tol=1)
    got = pullback_integral(form, sx, quad)
    assert got.value != 0.0
    assert bits(got) == bits(pullback_integral(form, rows, quad))
    assert bits(got) == bits(stacked_pullback_integral(form, [sx], quad)[0])
    # at a coarser level the rule orders differ by more than 10 * tol, so
    # every path raises, with the same message (at the orders above, the
    # two rules can agree to the last bit)
    tight = QuadratureSpec(order=order - 4, depth=depth, tol=1e-30)
    messages = []
    for integral in (lambda: pullback_integral(form, sx, tight),
                     lambda: pullback_integral(form, rows, tight),
                     lambda: stacked_pullback_integral(form, [sx], tight)):
        with pytest.raises(QuadratureDiverged) as err:
            integral()
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]


def test_degree_mismatch_rejected():
    sx = GeodesicSimplex(list(np.eye(4)), "spherical")
    with pytest.raises(ValueError):
        pullback_integral(vol_form("S2", 1.0), sx, QUAD)


def test_vol_form_validation():
    with pytest.raises(ValueError):
        vol_form("S3", -1.0)
    with pytest.raises(ValueError):
        vol_form("S7", 1.0)


def orthant_atlas():
    """The 16 orthant cells of S^3 with their orientation signs, built here
    from the vertex signs rather than read from ``sphere_atlas``."""
    return [(int(np.prod(signs)),
             GeodesicSimplex([s * e for s, e in zip(signs, np.eye(4))],
                             "spherical"))
            for signs in sorted(product((1.0, -1.0), repeat=4))]


def row_map(degree, cube_jet):
    """Reference copy of the row path of ``pullback_integral``: a map whose
    grid jet evaluates ``cube_jet`` on the grid's nodes, in chunks of
    ``block`` rows, one node per row."""

    def grid_jet(axes, block):
        s = _grid_nodes(axes, np.arange(len(axes) * axes.shape[2] ** degree))
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
        res = pullback_integral(form, cell, quad)
        total += sign * res.value
        est += res.error_estimate
    return IntegralResult(value=total, error_estimate=est)


def bits(res):
    return res.value.hex(), res.error_estimate.hex()


@pytest.mark.parametrize("sphere, order, depth", [
    ("CP1", 8, 0), ("CP1", 8, 1), ("S3", 8, 0), ("S3", 8, 1),
    ("S3", 12, 0), ("S3", 12, 1)])
def test_factored_sphere_integral_is_bitwise_the_cell_sum(
        monkeypatch, sphere, order, depth):
    monkeypatch.setattr(forms, "_DENSITY_CACHE", weakref.WeakKeyDictionary())
    if sphere == "CP1":
        poly = SphereFunction({(2, 1, 0): 3, (0, 0, 3): -2, (1, 0, 0): 1,
                               (0, 0, 0): 0.25})
        form = fubini_study_form().times(poly.evaluate)
    else:
        form = contact_volume_form().times(
            lambda p: 1.0 + p[:, 0] * p[:, 1] ** 2 - 3.0 * p[:, 3] ** 3)
    quad = QuadratureSpec(order=order, depth=depth, tol=1)
    expected = cell_by_cell(form, sphere_atlas(sphere), quad)
    first = sphere_integral(form, sphere, quad)
    assert bits(first) == bits(expected)
    # the second call reads every cell from the cache: no jet is evaluated
    def no_jet(*args):
        raise AssertionError("atlas jet evaluated on a cache hit")

    monkeypatch.setattr(GeodesicSimplex, "evaluate_grid_jet", no_jet)
    second = sphere_integral(form, sphere, quad)
    assert bits(second) == bits(first)


@pytest.mark.parametrize("compose", [
    None, conjugate_point_map(QUAT_ONE), twisted_square_map(QUAT_ONE)])
@pytest.mark.parametrize("order, depth", [(8, 0), (10, 0), (8, 1)])
def test_uncached_s3_integral_is_bitwise_the_cell_sum(
        monkeypatch, compose, order, depth):
    # the composed maps of lemma44 and an unfactored form, against the 16
    # orthant cells integrated one by one
    form = vol_form("S3", 1.0)
    quad = QuadratureSpec(order=order, depth=depth, tol=1e-4)
    expected = cell_by_cell(form, orthant_atlas(), quad, compose)
    grids = []

    def spy(kind, vertices, axes, block):
        grids.append(axes.shape)
        return join_rows(kind, vertices, axes, block)

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
        cell_by_cell(vol_form("S3", 1.0), orthant_atlas(), quad, compose)
    with pytest.raises(QuadratureDiverged) as got:
        sphere_integral(vol_form("S3", 1.0), "S3", quad, compose)
    assert str(got.value) == str(expected.value)


def unsigned_zeros(a):
    """The bytes of ``a`` with every -0.0 read as +0.0 (x + 0.0 changes no
    other value)."""
    return (a + 0.0).tobytes()


def test_s3_orthant_points_are_signed_copies_of_the_positive_cell(
        monkeypatch):
    # every S^3 cell's points are its vertex signs times the positive
    # orthant's, bitwise, and so are its tangents and projected tangents
    # but for the sign of zero entries (0 - 0 is +0.0 whatever the signs).
    # The cached densities, computed from the reflected jets, are bitwise
    # those of each cell's own jet, and one point table serves all 16 cells
    monkeypatch.setattr(forms, "_DENSITY_CACHE", weakref.WeakKeyDictionary())
    atlas = [cell for _, cell in sphere_atlas("S3")]
    signs = [np.sum(cell.vertices, axis=0) for cell in atlas]
    positive = next(c for c, sg in zip(atlas, signs) if np.all(sg > 0))
    bases = (contact_volume_form(), vol_form("S3", 1.0), mc3_form())
    for order in range(8, 15):
        for depth in (0, 1):
            s = _panel_rule(3, order, depth)[0]
            x, dx = row_jet(positive, s)
            projected = _project_tangent(x, dx)
            # densities at the levels the suites integrate at (even orders
            # at depth 0) and at one level of depth 1
            dense = order % 2 == 0 and (depth == 0 or order == 8)
            cached = [forms._atlas_density("S3", base, order, depth)
                      for base in bases] if dense else []
            for i, (cell, sg) in enumerate(zip(atlas, signs)):
                own_x, own_dx = row_jet(cell, s)
                assert own_x.tobytes() == (sg * x).tobytes()
                assert unsigned_zeros(own_dx) == unsigned_zeros(sg * dx)
                own = _project_tangent(own_x, own_dx)
                assert unsigned_zeros(own) == unsigned_zeros(sg * projected)
                for base, (table, cells) in zip(bases, cached):
                    assert table.tobytes() == x.tobytes()
                    assert cells[i][1] is None
                    assert cells[i][2].tobytes() == \
                        base.evaluate(own_x, own).tobytes()


def test_density_cache_stays_small_after_the_sphere_suites(monkeypatch):
    # 1.06 MB: per level the S^3 density of every cell and one point
    # table, and the CP1 density and points of every cell; per-cell S^3
    # points or cached tangents would go over the bound
    monkeypatch.setattr(forms, "_DENSITY_CACHE", weakref.WeakKeyDictionary())
    for suite in ("symplectic", "contact"):
        assert run_suite(suite).passed
    arrays = {}
    for levels in forms._DENSITY_CACHE.values():
        for table, cells in levels.values():
            for a in (table, *(a for cell in cells for a in cell)):
                if a is not None:
                    arrays[id(a)] = a
    assert 0 < sum(a.nbytes for a in arrays.values()) <= 1.2e6
