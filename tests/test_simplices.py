from functools import partial
from itertools import combinations

import numpy as np
import pytest

from cocyclelab import cochains, simplices, suites
from cocyclelab.errors import DegenerateConfig, IndexOut
from cocyclelab.groups import (QUAT_I, QUAT_ONE, UnitQuaternion,
                               _ANTIPODE_TOL, _chart_head, _chart_tail,
                               _qconj, _qexp_jet, _qlog_jet, _qmul,
                               _slerp_head, _slerp_tail, cyclic_embed,
                               quat_exp)
from cocyclelab.quadrature import IntegralResult, _rule_level, bary_to_cube
from cocyclelab.simplices import (GeodesicSimplex, ParametrizedMap, _whole,
                                  all_faces, face, in_open_hemisphere,
                                  is_chart_small, prism_cell, straighten)
from test_quadrature import (barycentric_jet, cube_to_bary, level_nodes,
                             row_jet)

rng = np.random.default_rng(7)


def random_quat():
    v = rng.normal(size=4)
    return UnitQuaternion(v / np.linalg.norm(v))


def small_quat(radius=0.12):
    v = rng.normal(size=3)
    v *= rng.uniform(0, radius) / np.linalg.norm(v)
    return quat_exp(v)


def test_face_drops_entry():
    assert face(1, ("a", "b", "c")) == ("a", "c")
    with pytest.raises(IndexOut):
        face(0, ("a",))
    with pytest.raises(IndexOut):
        face(3, ("a", "b", "c"))


@pytest.mark.parametrize("length", range(7))
def test_all_faces_is_the_list_of_faces(length):
    t = tuple(range(10, 10 + length))
    if length == 1:
        with pytest.raises(IndexOut,
                           match="a single-entry tuple has no faces"):
            face(0, t)
        with pytest.raises(IndexOut,
                           match="a single-entry tuple has no faces"):
            all_faces(list(t))
        return
    expected = [((-1) ** i, face(i, t)) for i in range(length)]
    for got in (all_faces(t), all_faces(list(t)), all_faces(iter(t))):
        assert got == expected
        assert all(type(s) is int and type(f) is tuple for s, f in got)


def test_simplicial_identity():
    t = tuple(rng.integers(0, 100, size=5))
    for j in range(1, 5):
        for i in range(j):
            lhs = face(i, face(j, t))
            rhs = face(j - 1, face(i, t))
            assert lhs == rhs


def test_chart_small_predicate():
    g = random_quat()
    assert is_chart_small((g, g, g))
    far = quat_exp([0.9 * np.pi, 0, 0])
    assert not is_chart_small((QUAT_ONE, far))
    # left-translation invariance
    for _ in range(10):
        t = tuple(small_quat() for _ in range(3))
        h = random_quat()
        shifted = tuple(h * g for g in t)
        assert is_chart_small(t) == is_chart_small(shifted)


def test_open_hemisphere():
    assert in_open_hemisphere(list(np.eye(4)))
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    assert not in_open_hemisphere([x, -x])
    assert in_open_hemisphere([x])
    # invariance under a common rotation
    pts = [v / np.linalg.norm(v) for v in rng.normal(size=(4, 4))]
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    assert in_open_hemisphere(pts) == in_open_hemisphere([q @ p for p in pts])
    # hull cases, drawn from their own generator so that the draws of the
    # tests below stay as they were
    local = np.random.default_rng(8)
    e = np.eye(4)
    x, y = (v / np.linalg.norm(v) for v in local.normal(size=(2, 4)))
    # a zero vector puts the origin in the hull
    assert not in_open_hemisphere([np.zeros(4)])
    assert not in_open_hemisphere([np.zeros(4), e[0]])
    # a duplicated point changes nothing
    for pts in (list(e), [x, -x, y], [e[0], e[1], -e[0] - e[1]]):
        assert in_open_hemisphere(pts + [pts[1]]) == in_open_hemisphere(pts)
    # the origin on an edge, and strictly inside
    assert not in_open_hemisphere([x, -x, y])
    assert not in_open_hemisphere(list(e) + [-e.sum(axis=0) / 2])
    # only directions matter
    for pts in (list(e), [x, y, -x - y], list(local.normal(size=(5, 4)))):
        scaled = [p * s for p, s in zip(pts, local.uniform(1e-3, 1e3, 5))]
        assert in_open_hemisphere(scaled) == in_open_hemisphere(pts)
    # seven points in a small cap around their mean direction, then the
    # negated cap centre
    centre = local.normal(size=4)
    centre /= np.linalg.norm(centre)
    offsets = local.normal(size=(7, 4))
    cap = [centre + 0.2 * v for v in offsets - offsets.mean(axis=0)]
    assert in_open_hemisphere(cap)
    assert not in_open_hemisphere(cap + [-centre])
    # three points at 120 degrees in the plane; any two of them
    tri = [np.array([np.cos(a), np.sin(a)])
           for a in 2 * np.pi / 3 * np.arange(3)]
    assert not in_open_hemisphere(tri)
    for i in range(3):
        assert in_open_hemisphere(tri[:i] + tri[i + 1:])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_hemisphere_rejects_a_point_that_is_not_finite(bad):
    # an infinite entry used to stop the SVD, and a NaN answered False
    for points, k in (([[bad, 0, 0, 0], [1, 0, 0, 0]], 0),
                      ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, bad, 0]], 2),
                      ([[0, 1, 0, 0], [0, bad, 0, 0]], 1)):
        with pytest.raises(ValueError, match=rf"^point {k} must be finite"):
            in_open_hemisphere(points)
    # a zero vector is finite and still answers False
    assert in_open_hemisphere([np.zeros(4), np.eye(4)[0]]) is False
    # a list of numbers is no list of points
    with pytest.raises(ValueError, match="list of coordinate vectors"):
        in_open_hemisphere([1.0, 2.0])


def join_jet(kind, x, dx, y, s):
    """One join on every row: its head and its tail on the same rows."""
    head, tail = ((_slerp_head, _slerp_tail) if kind == "spherical"
                  else (_chart_head, _chart_tail))
    return tail(*head(x, dx, y), s)


def slerp_join(x, y, s):
    # one row of the great-circle join kernel, with no tangents to carry
    return join_jet("spherical", x[None], np.zeros((1, 0, len(x))), y[None],
                    np.array([float(s)]))[0][0]


def chart_join(x, y, s):
    # one row of the chart join kernel, with no tangents to carry
    out = join_jet("chart", x.vec[None], np.zeros((1, 0, 4)), y.vec[None],
                   np.array([float(s)]))[0]
    return UnitQuaternion(out[0])


def test_slerp_join_endpoints_and_midpoint():
    x = np.eye(4)[0]
    y = np.eye(4)[1]
    assert np.allclose(slerp_join(x, y, 0.0), x)
    assert np.allclose(slerp_join(x, y, 1.0), y)
    assert np.allclose(slerp_join(x, y, 0.5), (x + y) / np.sqrt(2))
    with pytest.raises(DegenerateConfig):
        slerp_join(x, -x, 0.3)
    # stays on the sphere for many parameters
    a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 4)))
    for s in np.linspace(0, 1, 11):
        assert abs(np.linalg.norm(slerp_join(a, b, s)) - 1.0) < 1e-12


def test_chart_join_properties():
    x, y = small_quat(), small_quat()
    assert chart_join(x, x, 0.7).isclose(x, tol=1e-12)
    assert chart_join(x, y, 1.0).isclose(y, tol=1e-12)
    assert chart_join(x, y, 0.0).isclose(x, tol=1e-12)
    with pytest.raises(DegenerateConfig):
        chart_join(QUAT_ONE, -QUAT_ONE, 0.5)
    # left equivariance
    for _ in range(20):
        g, x, y = random_quat(), small_quat(), small_quat()
        s = rng.uniform(0, 1)
        assert chart_join(g * x, g * y, s).isclose(
            g * chart_join(x, y, s), tol=1e-12)


def corner(n, i):
    e = np.zeros(n + 1)
    e[i] = 1.0
    return e


@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_simplex_corners_and_constant(kind):
    if kind == "spherical":
        verts = [v / np.linalg.norm(v) for v in
                 np.eye(4) + 0.1 * rng.normal(size=(4, 4))]
        sx = GeodesicSimplex(verts, kind)
        for i, v in enumerate(verts):
            assert np.allclose(sx.evaluate(corner(3, i))[0], v, atol=1e-12)
    else:
        verts = [small_quat() for _ in range(4)]
        sx = GeodesicSimplex(verts, kind)
        for i, v in enumerate(verts):
            assert np.allclose(sx.evaluate(corner(3, i))[0], v.vec,
                               atol=1e-12)
    g = verts[0]
    const = GeodesicSimplex([g, g, g], kind)
    pts = rng.dirichlet(np.ones(3), size=20)
    out = const.evaluate(pts)
    ref = g.vec if kind == "chart" else g
    assert np.abs(out - ref).max() < 1e-12


def test_face_restriction_matches_face_simplex():
    verts = [v / np.linalg.norm(v) for v in np.eye(4)]
    sx = GeodesicSimplex(verts, "spherical")
    for i in range(4):
        face_sx = sx.face(i)
        pts2 = rng.dirichlet(np.ones(3), size=100)
        bary3 = np.insert(pts2, i, 0.0, axis=1)
        assert np.abs(sx.evaluate(bary3)
                      - face_sx.evaluate(pts2)).max() < 1e-10


def test_face_restriction_random_chart_tuples():
    for _ in range(5):
        verts = [small_quat() for _ in range(4)]
        sx = GeodesicSimplex(verts, "chart")
        for i in range(4):
            pts2 = rng.dirichlet(np.ones(3), size=20)
            bary3 = np.insert(pts2, i, 0.0, axis=1)
            assert np.abs(sx.evaluate(bary3)
                          - sx.face(i).evaluate(pts2)).max() < 1e-10


def test_left_equivariance_of_chart_simplex():
    verts = [small_quat() for _ in range(4)]
    g = random_quat()
    sx = GeodesicSimplex(verts, "chart")
    gx = GeodesicSimplex([g * v for v in verts], "chart")
    pts = rng.dirichlet(np.ones(4), size=40)
    lhs = gx.evaluate(pts)
    rhs = sx.evaluate(pts)
    from cocyclelab.groups import _qmul
    rhs = _qmul(np.broadcast_to(g.vec, rhs.shape), rhs)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_cube_and_barycentric_evaluations_agree():
    verts = [v / np.linalg.norm(v) for v in
             np.eye(4) + 0.2 * rng.normal(size=(4, 4))]
    sx = GeodesicSimplex(verts, "spherical")
    s = rng.uniform(0.05, 0.95, size=(30, 3))
    assert np.abs(sx.evaluate_cube(s)
                  - sx.evaluate(cube_to_bary(s))).max() < 1e-12


@pytest.mark.parametrize("kind", ["spherical", "chart"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluate_is_evaluate_cube_after_bary_to_cube(kind, n):
    if kind == "spherical":
        verts = [v / np.linalg.norm(v) for v in
                 np.eye(n + 1, 4) + 0.2 * rng.normal(size=(n + 1, 4))]
    else:
        verts = [small_quat() for _ in range(n + 1)]
    sx = GeodesicSimplex(verts, kind)
    pts = rng.dirichlet(np.ones(n + 1), size=20)
    faces = [np.insert(rng.dirichlet(np.ones(n), size=5), i, 0.0, axis=1)
             for i in range(n + 1)]
    bary = np.concatenate([pts, np.eye(n + 1)] + faces)
    assert np.array_equal(sx.evaluate(bary),
                          sx.evaluate_cube(bary_to_cube(bary)))


def five_point_tangents(evaluate_cube, s, h=1e-4):
    """The oracle for every jet: five-point central differences of the
    points, (N, n, d), with O(h^4) truncation."""
    n = s.shape[1]
    out = []
    for k in range(n):
        step = h * np.eye(n)[k]
        out.append((-evaluate_cube(s + 2 * step) + 8.0 * evaluate_cube(s + step)
                    - 8.0 * evaluate_cube(s - step)
                    + evaluate_cube(s - 2 * step)) / (12.0 * h))
    return np.stack(out, axis=1)


def projected(x, t):
    xhat = x / np.linalg.norm(x, axis=-1, keepdims=True)
    return t - np.einsum("nki,ni->nk", t, xhat)[..., None] * xhat[:, None]


@pytest.mark.parametrize("kind", ["spherical", "chart"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jet_matches_five_point_tangents(kind, n):
    jet_rng = np.random.default_rng(100 + n)
    for _ in range(5):
        if kind == "spherical":
            v = jet_rng.normal(size=(n + 1, 4))
            verts = list(v / np.linalg.norm(v, axis=1, keepdims=True))
        else:
            verts = []
            for _ in range(n + 1):
                v = jet_rng.normal(size=3)
                v *= jet_rng.uniform(0.02, 0.12) / np.linalg.norm(v)
                verts.append(quat_exp(v))
        sx = GeodesicSimplex(verts, kind)
        s = jet_rng.uniform(0.01, 0.99, size=(50, n))
        x, t = row_jet(sx, s)
        assert t.shape == (50, n, x.shape[1])
        assert np.array_equal(x, sx.evaluate_cube(s))
        fd = five_point_tangents(sx.evaluate_cube, s)
        assert np.abs(projected(x, t) - projected(x, fd)).max() < 1e-8


def row_joins(kind, vertices, s):
    """Reference copy of the row-wise join loop that the grid evaluator
    replaced: every join runs on every row, one cube node per row."""
    n, d = vertices.shape[1] - 1, vertices.shape[2]
    out = vertices[:, 0].copy()
    dout = np.zeros((s.shape[0], 0, d))
    for k in range(1, n + 1):
        out, dout = join_jet(kind, out, dout, vertices[:, k], s[:, k - 1])
    return out, dout


def random_faces(kind, count):
    """``count`` degree-3 simplices of one kind; the second repeats a
    vertex, so its first join takes the small-angle branch."""
    if kind == "spherical":
        centre = rng.normal(size=4)
        verts = [[centre + 0.4 * rng.normal(size=4) for _ in range(4)]
                 for _ in range(count)]
    else:
        verts = [[small_quat() for _ in range(4)] for _ in range(count)]
    if count > 1:
        verts[1][1] = verts[1][0]
    return [GeodesicSimplex(v, kind) for v in verts]


def joined_blocks(kind, vertices, axes):
    blocks = list(simplices.join_rows(kind, vertices, axes))
    assert all(len(x) <= max(simplices._BLOCK_ROWS, axes.shape[2])
               for x, _ in blocks)
    return tuple(np.concatenate(part) for part in zip(*blocks))


def same_bytes(got, expected):
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


@pytest.mark.parametrize("kind", ["spherical", "chart"])
@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("order", range(2, 11))
def test_grid_joins_are_bitwise_the_row_loop(kind, order, depth):
    # one grid per face and panel, in blocks of rows at the last join
    axes = _rule_level(3, order, depth)[0]
    nodes = level_nodes(axes)
    panels, size = len(axes), len(nodes)
    for count in (1, 5, 120):
        if count > 1 and count * size > 40000:
            continue
        varr = np.stack([sx.varr for sx in random_faces(kind, count)])
        rows = np.arange(count * size)
        grids = np.arange(count * panels)
        expected = row_joins(kind, varr[rows // size], nodes[rows % size])
        got = joined_blocks(kind, varr[grids // panels],
                            axes[grids % panels])
        assert same_bytes(got, expected)


@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_row_wise_joins_are_bitwise_the_row_loop(kind):
    # one node per axis per row, as a simplex evaluates itself, with its
    # own vertices on every row or with a vertex tuple per row
    for count in (1, 5, 120):
        faces = random_faces(kind, count)
        varr = np.stack([sx.varr for sx in faces])
        s = rng.uniform(size=(count, 3))
        expected = row_joins(kind, varr, s)
        got = joined_blocks(kind, varr, s[:, :, None])
        assert same_bytes(got, expected)
        rows = np.broadcast_to(faces[0].varr, varr.shape)
        own = row_jet(faces[0], s)
        assert same_bytes(own, row_joins(kind, rows, s))
        assert own[0].tobytes() == faces[0].evaluate_cube(s).tobytes()


@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_jet_of_repeated_vertices(kind):
    # a repeated vertex joins a point to itself: the small-angle branch of
    # slerp and the log at the identity carry their own jets
    far = quat_exp([0.03, -0.05, 0.08])
    first = QUAT_ONE if kind == "chart" else np.eye(4)[0]
    s = np.random.default_rng(5).uniform(0.01, 0.99, size=(30, 2))
    sx = GeodesicSimplex([first, first, far], kind)
    x, t = row_jet(sx, s)
    assert np.array_equal(x, sx.evaluate_cube(s))
    assert np.abs(t[:, 0]).max() == 0.0
    fd = five_point_tangents(sx.evaluate_cube, s)
    assert np.abs(projected(x, t) - projected(x, fd)).max() < 1e-8
    const = GeodesicSimplex([first] * 3, kind)
    x, t = row_jet(const, s)
    assert np.abs(t).max() == 0.0


def assert_jet_matches_five_point(cube_jet, evaluate_cube, s):
    x, t = cube_jet(s)
    assert t.shape == (s.shape[0], s.shape[1], x.shape[1])
    assert np.array_equal(x, evaluate_cube(s))
    fd = five_point_tangents(evaluate_cube, s)
    assert np.abs(projected(x, t) - projected(x, fd)).max() < 1e-8


def test_barycentric_jet_matches_five_point_tangents():
    # a simplex's cube jet through the reference bary_to_cube_jet, seen
    # through a barycentric ParametrizedMap on a sub-simplex
    for kind in ("spherical", "chart"):
        verts = [small_quat() for _ in range(4)]
        jet = barycentric_jet(GeodesicSimplex(verts, kind))
        cmat = rng.dirichlet(np.ones(4), size=4)
        sub = ParametrizedMap.from_barycentric(
            3, lambda b, db: jet(b @ cmat, db @ cmat))
        assert_jet_matches_five_point(partial(row_jet, sub), sub.evaluate_cube,
                                      rng.uniform(0.01, 0.99, size=(50, 3)))


def test_wiggled_simplex_and_its_prism_terms_carry_exact_jets():
    # the prism term of each face is its one product cell
    from cocyclelab.suites import _wiggled_simplex
    jet_rng = np.random.default_rng(0x5EED)
    for _ in range(2):
        f = _wiggled_simplex(jet_rng)
        assert_jet_matches_five_point(
            partial(row_jet, f), f.evaluate_cube,
            jet_rng.uniform(0.01, 0.99, size=(50, 3)))
        for i in range(4):
            cell = prism_cell(f.face(i))
            assert_jet_matches_five_point(
                partial(row_jet, cell), cell.evaluate_cube,
                jet_rng.uniform(0.01, 0.99, size=(50, 3)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prism_terms_of_chart_simplices_carry_exact_jets(n):
    jet_rng = np.random.default_rng(200 + n)
    for _ in range(3):
        verts = []
        for _ in range(n + 1):
            v = jet_rng.normal(size=3)
            v *= jet_rng.uniform(0.02, 0.12) / np.linalg.norm(v)
            verts.append(quat_exp(v))
        cell = prism_cell(GeodesicSimplex(verts, "chart"))
        assert cell.degree == n + 1
        assert_jet_matches_five_point(
            partial(row_jet, cell), cell.evaluate_cube,
            jet_rng.uniform(0.01, 0.99, size=(40, n + 1)))


@pytest.mark.parametrize("bad", [
    np.zeros(4), np.array([np.nan, 0.0, 0.0, 1.0]),
    np.array([0.0, np.inf, 0.0, 0.0])])
def test_spherical_simplex_rejects_a_zero_or_non_finite_vertex(bad):
    # dividing by the norm of such a vertex gave NaN coordinates, and a
    # pullback integral over the simplex a NaN value with a NaN estimate
    good = [np.eye(4)[k] for k in range(3)]
    for i in range(3):
        verts = good[:i] + [bad] + good[i + 1:]
        with pytest.raises(ValueError, match=f"spherical vertex {i} "):
            GeodesicSimplex(verts, "spherical")
    assert GeodesicSimplex(good, "spherical").varr.tobytes() == \
        np.eye(4)[:3].tobytes()


def test_simplex_takes_a_known_kind_and_chart_vertices_that_are_quaternions():
    with pytest.raises(ValueError, match="unknown simplex kind 'flat'"):
        GeodesicSimplex(list(np.eye(4)), "flat")
    with pytest.raises(TypeError, match="take UnitQuaternion vertices"):
        GeodesicSimplex([QUAT_ONE, np.eye(4)[1]], "chart")


def test_parametrized_map_takes_exactly_one_jet():
    # the grid jet; a barycentric jet goes through from_barycentric
    sx = GeodesicSimplex([np.eye(4)[k] for k in range(3)], "spherical")
    with pytest.raises(TypeError):
        ParametrizedMap(2)
    with pytest.raises(TypeError):
        ParametrizedMap(2, barycentric_jet(sx), sx.evaluate_grid_jet)
    with pytest.raises(TypeError):
        ParametrizedMap(2, jet=barycentric_jet(sx))
    b = np.random.default_rng(5).dirichlet(np.ones(3), size=20)
    grid = ParametrizedMap(2, sx.evaluate_grid_jet)
    assert np.array_equal(grid.evaluate(b), sx.evaluate(b))
    # cube -> barycentric -> cube again on the way to the simplex
    bary = ParametrizedMap.from_barycentric(2, barycentric_jet(sx))
    assert np.abs(bary.evaluate(b) - sx.evaluate(b)).max() < 1e-14


def assert_points_are_the_grid_jets(m, jet_rng):
    # evaluate_cube gives the points of the grid jet at one node per axis
    # per row, and evaluate is evaluate_cube after bary_to_cube, bitwise
    s = jet_rng.uniform(size=(30, m.degree))
    assert np.array_equal(m.evaluate_cube(s), row_jet(m, s)[0])
    b = jet_rng.dirichlet(np.ones(m.degree + 1), size=30)
    assert np.array_equal(m.evaluate(b), m.evaluate_cube(bary_to_cube(b)))


def test_jet_without_tangents_gives_the_points_alone():
    # evaluate and evaluate_cube, the calls without tangents, are written
    # once for every map: the points of its grid jet
    from cocyclelab.forms import sphere_atlas
    from cocyclelab.suites import _wiggled_simplex
    jet_rng = np.random.default_rng(0xBEEF)
    for kind in ("spherical", "chart"):
        verts = [quat_exp(0.1 * jet_rng.normal(size=3))
                 for _ in range(4)]
        sx = GeodesicSimplex(verts, kind)
        m = ParametrizedMap.from_barycentric(3, barycentric_jet(sx))
        for f in (sx, sx.face(2), m):
            assert_points_are_the_grid_jets(f, jet_rng)
        b = jet_rng.dirichlet(np.ones(4), size=30)
        assert np.abs(m.evaluate(b) - sx.evaluate(b)).max() < 1e-14
    f = _wiggled_simplex(jet_rng)
    for m in [f, f.face(1).face(0), prism_cell(f.face(0))] + \
            [f.face(i) for i in range(4)] + \
            [cell for _, cell in sphere_atlas("CP1")[:2]]:
        assert_points_are_the_grid_jets(m, jet_rng)


@pytest.mark.parametrize("kind", ["spherical", "chart", "map"])
def test_maps_check_their_coordinates_and_face_indices(kind):
    verts = [small_quat() for _ in range(4)]
    m = GeodesicSimplex(verts, "spherical" if kind == "spherical" else
                        "chart")
    if kind == "map":
        m = ParametrizedMap.from_barycentric(3, barycentric_jet(m))
    for bad in (np.eye(5), np.eye(3), np.full((2, 3), 0.25)):
        with pytest.raises(ValueError):
            m.evaluate(bad)
    for bad in (np.full((2, 4), 0.5), np.full((2, 2), 0.5), [0.5]):
        with pytest.raises(ValueError):
            m.evaluate_cube(bad)
    for i in (-1, 4):
        with pytest.raises(IndexOut):
            m.face(i)
    point = m.face(0).face(1).face(0)
    assert point.degree == 0
    with pytest.raises(IndexOut):
        point.face(0)


@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_degree_0_simplex_is_its_point(kind):
    v = small_quat()
    sx = GeodesicSimplex([v if kind == "chart" else 2.0 * v.vec], kind)
    x, dx = row_jet(sx, np.empty((2, 0)))
    assert np.array_equal(x, np.stack([v.vec, v.vec]))
    assert dx.shape == (2, 0, 4)
    assert np.array_equal(sx.evaluate(np.ones((2, 1))), x)


def test_degree_0_maps_are_their_corner_points():
    # a barycentric map and its thrice-iterated face, which is the cube
    # corner (1, 0, 1), the barycentric corner e_3
    from cocyclelab.suites import _wiggled_simplex
    sx = GeodesicSimplex([small_quat() for _ in range(4)], "chart")
    for f in (_wiggled_simplex(np.random.default_rng(1)),
              ParametrizedMap.from_barycentric(3, barycentric_jet(sx))):
        corner = f.evaluate(np.eye(4)[3])
        point = f.face(0).face(1).face(0)
        x, dx = row_jet(point, np.empty((3, 0)))
        assert dx.shape == (3, 0, 4)
        assert np.array_equal(x, np.repeat(corner, 3, axis=0))
        assert np.array_equal(point.evaluate(np.ones((3, 1))), x)
        constant = ParametrizedMap.from_barycentric(
            0, lambda b, db: (np.repeat(corner, len(b), axis=0),
                              np.zeros((len(b), db.shape[1], 4))))
        assert np.array_equal(constant.evaluate(np.ones((3, 1))), x)


def test_zero_rows_give_one_empty_block():
    # every grid jet yields at least one block, so evaluate_cube and
    # evaluate take zero rows to zero points
    from cocyclelab.forms import sphere_atlas
    from cocyclelab.suites import _wiggled_simplex
    f = _wiggled_simplex(np.random.default_rng(2))
    sx = GeodesicSimplex([small_quat() for _ in range(4)], "chart")
    for m in (sx, GeodesicSimplex(list(np.eye(4)), "spherical"), f,
              f.face(2), f.face(0).face(1).face(0), prism_cell(f.face(1)),
              sphere_atlas("CP1")[0][1]):
        d = len(m.evaluate(np.eye(m.degree + 1)[:1])[0])
        blocks = list(m.evaluate_grid_jet(np.empty((0, m.degree, 3))))
        assert len(blocks) == 1
        assert blocks[0][0].shape == (0, d)
        assert blocks[0][1].shape == (0, m.degree, d)
        assert m.evaluate_cube(np.empty((0, m.degree))).shape == (0, d)
        assert m.evaluate(np.empty((0, m.degree + 1))).shape == (0, d)


def wiggle_jet(rng, eps=0.08):
    """Test-side copy of the barycentric jet of the prism suite's wiggled
    simplex, drawing from ``rng`` as ``suites._wiggled_simplex`` does."""
    u = rng.normal(size=(4, 3))
    u *= 0.18 / np.linalg.norm(u, axis=1, keepdims=True)

    def jet(bary, dbary):
        a, b = np.pi * bary[:, 1:2], np.pi * bary[:, 2:3]
        vec = (bary[:, 1:2] * u[0] + bary[:, 2:3] * u[1]
               + bary[:, 3:4] * u[2] + eps * np.sin(a) * np.sin(b) * u[3])
        dwiggle = eps * np.pi * (np.cos(a) * np.sin(b) * dbary[..., 1]
                                 + np.sin(a) * np.cos(b) * dbary[..., 2])
        return _qexp_jet(vec, dbary[..., 1:] @ u[:3]
                         + dwiggle[..., None] * u[3])

    return jet


def barycentric_face(jet, degree, i):
    """Reference copy of the barycentric face that ``ParametrizedMap.face``
    replaced: the jet of a degree-``degree`` map with 0 inserted at
    position i into the barycentric coordinates and their tangents."""
    return ParametrizedMap.from_barycentric(degree - 1, lambda b, db: jet(
        np.insert(b, i, 0.0, axis=1), np.insert(db, i, 0.0, axis=2)))


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("order", [6, 8, 10])
def test_cube_faces_are_bitwise_the_barycentric_faces(order, depth):
    # face i is the cube face s_i = 0 (i >= 1) or s_1 = 1 (i = 0): on the
    # rule level's grids it gives bitwise the points and tangents of the
    # barycentric face, for the suite's wiggled map and a simplex's jet
    from cocyclelab.suites import _wiggled_simplex
    face_rng = np.random.default_rng(order + 10 * depth)
    jet = wiggle_jet(np.random.default_rng(0x5EED))
    wiggled = _wiggled_simplex(np.random.default_rng(0x5EED))
    s = face_rng.uniform(size=(40, 3))
    assert same_bytes(row_jet(wiggled, s),
                      row_jet(ParametrizedMap.from_barycentric(3, jet), s))
    sx = GeodesicSimplex([small_quat() for _ in range(4)], "chart")
    axes = _rule_level(2, order, depth)[0]
    for jet in (jet, barycentric_jet(sx)):
        f = ParametrizedMap.from_barycentric(3, jet)
        for i in range(4):
            got = _whole(f.face(i).evaluate_grid_jet(axes))
            assert got[1].shape == (len(axes) * order ** 2, 2, 4)
            assert same_bytes(got, _whole(
                barycentric_face(jet, 3, i).evaluate_grid_jet(axes)))


@pytest.mark.parametrize("name", ["conjugate", "twisted-square"])
def test_compose_maps_carry_exact_jets_on_atlas_cells(name):
    from cocyclelab.cochains import conjugate_point_map, twisted_square_map
    from cocyclelab.forms import sphere_atlas
    make = conjugate_point_map if name == "conjugate" else twisted_square_map
    jet_rng = np.random.default_rng(300)
    for base in (QUAT_ONE, random_quat()):
        jet = make(base)
        for _, cell in sphere_atlas("S3")[::5]:
            # the cell's cube jet composed with the map's, as in
            # sphere_integral(compose=...); the points come with no tangents
            assert_jet_matches_five_point(
                lambda s, _c=cell: jet(*row_jet(_c, s)),
                lambda s, _c=cell: jet(_c.evaluate_cube(s),
                                       np.zeros((len(s), 0, 4)))[0],
                jet_rng.uniform(0.01, 0.99, size=(40, 3)))


def test_build_simplex_guards():
    x = np.eye(4)[0]
    sx = GeodesicSimplex([x, -x, np.eye(4)[1], np.eye(4)[2]], "spherical")
    with pytest.raises(DegenerateConfig):
        sx.evaluate(rng.dirichlet(np.ones(4), size=5))
    far = quat_exp([1.2, 0, 0])
    with pytest.raises(DegenerateConfig):
        GeodesicSimplex([QUAT_ONE, far], "chart")


def test_straighten_idempotent_and_vertex_preserving():
    verts = [small_quat() for _ in range(3)]
    sx = GeodesicSimplex(verts, "chart")
    again = straighten(sx)
    pts = rng.dirichlet(np.ones(3), size=30)
    assert np.abs(sx.evaluate(pts) - again.evaluate(pts)).max() < 1e-12

    wig = ParametrizedMap.from_barycentric(2, barycentric_jet(sx))
    st = straighten(wig)
    for i, v in enumerate(verts):
        assert np.allclose(st.evaluate(corner(2, i))[0], v.vec, atol=1e-12)

    g = small_quat()

    def point(b):
        return np.broadcast_to(g.vec, (b.shape[0], 4)).copy()

    const = ParametrizedMap.from_barycentric(2, lambda b, db: (
        point(b), np.zeros(db.shape[:2] + (4,))))
    st_const = straighten(const)
    assert np.abs(st_const.evaluate(pts) - g.vec).max() < 1e-12


def prism_chain(f) -> list:
    """Reference copy of the triangulated join homotopy between f and
    straighten(f): n+1 signed (n+1)-simplices for a degree-n input, whose
    signed sum ``prism_cell`` integrates as one cell.

    Term j (sign (-1)^j) is the (n+1)-simplex with prism vertices
    (v_0,0)...(v_j,0),(v_j,1)...(v_n,1), evaluated through the pointwise
    chart join from f to its straightening.  Each term is a
    ``ParametrizedMap`` whose jet pushes the base point u and the time t,
    both linear in the term's barycentric coordinates, through the
    barycentric jets of f and of straighten(f) and that of the chart
    join."""
    n = f.degree
    f_jet = barycentric_jet(f)
    str_jet = barycentric_jet(straighten(f))

    terms = []
    for j in range(n + 1):
        # rows: prism vertex k -> (base simplex vertex, time)
        vmat = np.zeros((n + 2, n + 1))
        tvec = np.zeros(n + 2)
        for k in range(n + 2):
            vmat[k, k if k <= j else k - 1] = 1.0
            tvec[k] = 0.0 if k <= j else 1.0

        def jet(bary, dbary, _vmat=vmat, _tvec=tvec):
            u, du = bary @ _vmat, dbary @ _vmat
            a, da = f_jet(u, du)
            b, db = str_jet(u, du)
            return reference_chart_join_jet(a, da, b, bary @ _tvec, dy=db,
                                            ds=dbary @ _tvec)

        terms.append(((-1) ** j, ParametrizedMap.from_barycentric(n + 1,
                                                                   jet)))
    return terms


def test_prism_term_count_and_signs():
    for n in (1, 2, 3):
        verts = [small_quat() for _ in range(n + 1)]
        sx = GeodesicSimplex(verts, "chart")
        chain = prism_chain(sx)
        assert len(chain) == n + 1
        signs = [s for s, _ in chain]
        assert signs == [(-1) ** j for j in range(n + 1)]
        for _, term in chain:
            assert term.degree == n + 1


@pytest.mark.parametrize("order", [6, 8])
def test_prism_cell_integrates_as_the_triangulated_prism(order):
    # on every face of the prism suite's wiggled simplices, the one cell
    # and the signed sum of the reference chain agree within the sum of
    # their estimates; where the sum stands clear of its estimate, the two
    # have the same sign, so the cell has the chain's orientation
    from cocyclelab.forms import pullback_integral, vol_form
    from cocyclelab.quadrature import QuadratureSpec
    from cocyclelab.suites import _wiggled_simplex
    form = vol_form()
    quad = QuadratureSpec(order=order, depth=1, tol=1e-3)
    prism_rng = np.random.default_rng(0x5EED)
    signed = 0
    for _ in range(2):
        f = _wiggled_simplex(prism_rng)
        for i in range(4):
            [cell] = pullback_integral(form, [prism_cell(f.face(i))], quad)
            signs, terms = zip(*prism_chain(f.face(i)))
            chain = list(zip(signs, pullback_integral(form, list(terms),
                                                      quad)))
            total = sum(sign * r.value for sign, r in chain)
            est = sum(r.error_estimate for _, r in chain)
            assert abs(cell.value - total) <= cell.error_estimate + est
            if abs(total) > est:
                assert np.sign(cell.value) == np.sign(total)
                signed += 1
    assert signed >= 4


def reference_chart_join_jet(x, dx, y, s, dy=None, ds=None):
    """Reference copy of the chart join kernel as one function, before its
    split into a head and a closed-form tail: ``_qexp_jet`` of s times the
    log, multiplied onto x.  ``dy`` (N, m, 4) and ``ds`` (N, m)
    optionally move the tip and the parameter along the m parameters of
    ``dx``; given ``ds``, the derivative along s is part of those m and no
    column is appended."""
    dd = _qmul(_qconj(dx), y[:, None])
    if dy is not None:
        dd += _qmul(_qconj(x)[:, None], dy)
    z, dz = _qlog_jet(_qmul(_qconj(x), y), dd)
    dv = s[:, None, None] * dz
    dv = np.concatenate([dv, z[:, None]], axis=1) if ds is None \
        else dv + ds[..., None] * z[:, None]
    e, de = _qexp_jet(s[..., None] * z, dv)
    out = _qmul(x, e)
    dout = _qmul(x[:, None], de)
    dout[:, :dx.shape[1]] += _qmul(dx, e[:, None])
    return out, dout


def reference_slerp_jet(x, dx, y, s):
    """Reference copy of the great-circle join kernel as one function,
    before its split into a head and a tail: slerp of rows x (N, d)
    towards y (N, d) at s (N,), with the tangents (N, m+1, d) along the m
    parameters of ``dx`` (N, m, d) and then along s."""
    dot = np.clip(np.sum(x * y, axis=-1, keepdims=True), -1.0, 1.0)
    if np.any(dot <= -1.0 + _ANTIPODE_TOL):
        raise DegenerateConfig("join hit an antipodal pair of points")
    th = np.arccos(dot)
    small = th[..., 0] < 1e-9
    sinth = np.sin(th)
    sinth[small] = 1.0
    s = np.asarray(s, dtype=float)[..., None]
    sin_a = np.sin((1.0 - s) * th)
    sin_b = np.sin(s * th)
    out = (sin_a * x + sin_b * y) / sinth
    if np.any(small):
        lin = (1.0 - s) * x + s * y
        nrm = np.linalg.norm(lin, axis=-1, keepdims=True)
        lin = lin / np.where(nrm == 0.0, 1.0, nrm)
        out[small] = lin[small]
    a, b = sin_a / sinth, sin_b / sinth
    cos_a, cos_b, costh = np.cos((1.0 - s) * th), np.cos(s * th), np.cos(th)
    da = ((1.0 - s) * cos_a - a * costh) / sinth
    db = (s * cos_b - b * costh) / sinth
    dth = -np.einsum("nki,ni->nk", dx, y) / sinth
    d_along = a[:, None] * dx \
        + dth[..., None] * (da * x + db * y)[:, None]
    d_s = th * (cos_b * y - cos_a * x) / sinth
    if np.any(small):
        def unchord(dl):
            return (dl - np.einsum("n...i,ni->n...", dl, lin)[..., None]
                    * lin[:, None]) / nrm[:, None]
        d_along[small] = unchord((1.0 - s)[:, None] * dx)[small]
        d_s[small] = unchord((y - x)[:, None])[small, 0]
    return out, np.concatenate([d_along, d_s[:, None]], axis=1)


def kernel_rows(kind, local, rows, m):
    """Arguments of one join kernel on ``rows`` rows: points x and tips y
    (within 0.24 rad on a chart, 1 rad on the sphere) with the tangents
    dx and dy (rows, m, 4) of both, and s = 0, 1e-9 and uniform values in
    turn.  Every third row joins a point to itself, and on the sphere
    every fifth to a point within 1e-12, both in the small-angle branch."""
    if kind == "chart":
        x = np.stack([small_quat().vec for _ in range(rows)])
        y = np.stack([small_quat().vec for _ in range(rows)])
    else:
        x = local.normal(size=(rows, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = x + 0.5 * local.normal(size=(rows, 4))
        y[::5] = x[::5] + 1e-12 * local.normal(size=(-(-rows // 5), 4))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
    y[::3] = x[::3]
    s = local.uniform(size=rows)
    s[::3], s[1::3] = 0.0, 1e-9
    return (x, local.normal(size=(rows, m, 4)), y,
            local.normal(size=(rows, m, 4)), s)


def test_slerp_head_and_tail_are_bitwise_the_slerp_jet():
    # with two tangents to carry and with none (m = 0)
    local = np.random.default_rng(21)
    for m in (2, 0):
        x, dx, y, _, s = kernel_rows("spherical", local, 5000, m)
        assert same_bytes(join_jet("spherical", x, dx, y, s),
                          reference_slerp_jet(x, dx, y, s))


# the stated bound of the closed-form chart tail against the reference
# chart join, set from the dtype: 4 units of roundoff on the unit-norm
# points, and 8 on tangents, times the largest of them if that exceeds 1
_EPS = np.finfo(float).eps


def assert_close_to_the_chart_join(got, expected):
    assert np.abs(got[0] - expected[0]).max() <= 4 * _EPS
    scale = max(np.abs(expected[1]).max(), 1.0)
    assert np.abs(got[1] - expected[1]).max() <= 8 * _EPS * scale


def test_chart_head_and_tail_match_the_chart_join():
    # with and without tangents of the tip, and with no tangents to carry
    # (m = 0); rows that repeat a vertex take the log at the identity.  The
    # head once per row, its rows repeated three times, is bitwise the head
    # on the repeated rows
    local = np.random.default_rng(22)
    for m in (2, 0):
        x, dx, y, dy, s = kernel_rows("chart", local, 5000, m)
        for d_y in (None, dy):
            assert_close_to_the_chart_join(
                _chart_tail(*_chart_head(x, dx, y, d_y), s),
                reference_chart_join_jet(x, dx, y, s, d_y))
            s3 = local.uniform(size=3 * len(x))
            copies = [None if a is None else np.repeat(a, 3, axis=0)
                      for a in (x, dx, y, d_y)]
            heads = [np.repeat(a, 3, axis=0)
                     for a in _chart_head(x, dx, y, d_y)]
            assert same_bytes(_chart_tail(*heads, s3),
                              _chart_tail(*_chart_head(*copies), s3))


@pytest.mark.parametrize("kind", ["spherical", "chart"])
def test_join_kernels_match_five_point_tangents_near_s_0(kind):
    # x and, on a chart, the tip move with two parameters p; the jet along
    # (p, s) at s = 0, 1e-9 and uniform values, where the closed-form
    # chart tail takes its series, against five-point differences
    local = np.random.default_rng(23)
    v = 0.1 * local.normal(size=(2, 3, 3))

    def moving(p, i):
        return _qexp_jet(v[i, 0] + p @ v[i, 1:],
                         np.broadcast_to(v[i, 1:], (len(p), 2, 3)))

    def jet(c):
        x, dx = moving(c[:, :2], 0)
        if kind == "chart":
            y, dy = moving(c[:, :2], 1)
            return _chart_tail(*_chart_head(x, dx, y, dy), c[:, 2])
        y = np.broadcast_to(_qexp_jet(v[1, 0], np.zeros((0, 3)))[0],
                            x.shape)
        return join_jet(kind, x, dx, y, c[:, 2])

    c = local.uniform(-0.5, 0.5, size=(60, 3))
    c[:20, 2], c[20:40, 2] = 0.0, 1e-9
    x, t = jet(c)
    fd = five_point_tangents(lambda c: jet(c)[0], c)
    assert np.abs(t - fd).max() < 1e-8


def chart_join_rows(x, dx, y, dy, s):
    return _chart_tail(*_chart_head(x, dx, y, dy), s)


def reference_join_rows(x, dx, y, dy, s):
    return reference_chart_join_jet(x, dx, y, s, dy=dy)


def row_prism_jet(f, s, join=chart_join_rows):
    """Reference copy of the row-wise cube jet that ``prism_cell`` had: f
    and straighten(f), through the row join loop, at every (u, t) node,
    joined there by ``join(x, dx, y, dy, t)``, the chart head and tail on
    every row unless another join is given."""
    strf = straighten(f)
    u = s[:, :-1]
    a, da = row_jet(f, u)
    rows = np.broadcast_to(strf.varr, (len(s),) + strf.varr.shape)
    b, db = row_joins("chart", rows, u)
    return join(a, da, b, db, s[:, -1])


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("order", [6, 8, 10])
def test_prism_cell_grid_jet_is_bitwise_the_row_jet(order, depth):
    # the cell on a rule level's grids, in blocks of rows, against the row
    # jet in chunks of as many nodes; at order 10 a chunk boundary falls
    # inside the t nodes of one u.  Against the reference chart join at
    # every node, within its stated bound
    from cocyclelab.suites import _wiggled_simplex
    axes = _rule_level(3, order, depth)[0]
    nodes = level_nodes(axes)
    f = _wiggled_simplex(np.random.default_rng(0x5EED))
    block = simplices._BLOCK_ROWS
    for i in range(4):
        face_map = f.face(i)
        blocks = list(prism_cell(face_map).evaluate_grid_jet(axes))
        assert all(len(x) <= block for x, _ in blocks)
        got = tuple(np.concatenate(part) for part in zip(*blocks))
        expected = tuple(np.concatenate(part) for part in zip(*(
            row_prism_jet(face_map, nodes[lo:lo + block])
            for lo in range(0, len(nodes), block))))
        assert same_bytes(got, expected)
        assert_close_to_the_chart_join(
            got, row_prism_jet(face_map, nodes, reference_join_rows))


def test_prism_cell_evaluates_its_face_once_per_base_point(monkeypatch):
    # per rule level, the face's jet, its straightening and the head of the
    # chart join see the P m^n base points of the level's grids, and only
    # the tail sees all P m^(n+1) nodes
    from cocyclelab.forms import pullback_integral, vol_form
    from cocyclelab.quadrature import QuadratureSpec
    from cocyclelab.suites import _wiggled_simplex
    face_map = _wiggled_simplex(np.random.default_rng(3)).face(1)
    seen = {"face": 0, "straight": 0, "head": 0, "tail": 0}

    def face_jet(axes):
        for x, dx in face_map.evaluate_grid_jet(axes):
            seen["face"] += len(x)
            yield x, dx

    def joins(kind, vertices, axes):
        seen["straight"] += axes.shape[0] * axes.shape[2] ** axes.shape[1]
        return real_join_rows(kind, vertices, axes)

    def chart_head(x, *args):
        seen["head"] += len(x)
        return _chart_head(x, *args)

    def chart_tail(x, *args):
        seen["tail"] += len(x)
        return _chart_tail(x, *args)

    real_join_rows = simplices.join_rows
    cell = prism_cell(ParametrizedMap(2, face_jet))
    seen["face"] = 0  # straighten evaluated the three corners
    monkeypatch.setattr(simplices, "join_rows", joins)
    monkeypatch.setattr(simplices, "_chart_head", chart_head)
    monkeypatch.setattr(simplices, "_chart_tail", chart_tail)
    quad = QuadratureSpec(order=6, depth=1, tol=1)
    pullback_integral(vol_form(), [cell], quad)
    panels = 2 ** (3 * quad.depth)
    base = sum(panels * m ** 2 for m in quad.orders)
    assert seen == {"face": base, "straight": base, "head": base,
                    "tail": sum(panels * m ** 3 for m in quad.orders)}


def test_all_faces_signs():
    t = ("a", "b", "c")
    assert all_faces(t) == [(1, ("b", "c")), (-1, ("a", "c")),
                            (1, ("a", "b"))]


def origin_in_hull_by_subsets(points):
    """Reference copy of the exact subset loop that in_open_hemisphere
    falls back to: by Caratheodory's theorem the origin lies in the hull
    exactly when some subset S of at most d+1 normalized points solves
    [S^T; 1] lam = e_{d+1} with lam >= 0, within the hull tolerance."""
    tol = 1e-9
    pts = np.array([np.asarray(p, dtype=float) for p in points])
    m, d = pts.shape
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    unit = np.divide(pts, norms, out=np.zeros_like(pts), where=norms > 0)
    aug = np.hstack([unit, np.ones((m, 1))])
    rhs = np.eye(d + 1)[d]
    for k in range(1, min(m, d + 1) + 1):
        a = aug[np.array(list(combinations(range(m), k)))].transpose(0, 2, 1)
        lam = np.linalg.pinv(a) @ rhs
        resid = np.linalg.norm((a @ lam[..., None])[..., 0] - rhs, axis=1)
        if np.any((resid <= tol) & (lam.min(axis=1) >= -tol)):
            return True
    return False


def hemisphere_cases():
    local = np.random.default_rng(12)
    e = np.eye(4)
    x, y, z = (v / np.linalg.norm(v) for v in local.normal(size=(3, 4)))
    cases = []
    # rank-deficient sets: points in a plane or a 3-space of R^4
    cases += [[x, y, x + y], [x, y, -x - y], [x, y, x + y, x - y],
              [x, y, z, x + y + z], [x, y, z, -x - y - z, x - z],
              [e[0], e[1], e[2], -e[0] - e[1] - e[2]], [x, x, y, z]]
    # near-antipodal pairs, alone and with more points
    for eps in 10.0 ** -np.arange(1, 13):
        near = -x + eps * y
        cases += [[x, near], [x, near, z], [x, near, y, z],
                  [x, near, e[0], e[1], e[2]]]
    # zero vectors
    zero = np.zeros(4)
    cases += [[zero], [zero, e[0]], [e[0], e[1], zero, e[2]],
              [e[0], e[1], e[2], e[3], zero], [x, y, z, e[0], zero, e[1]]]
    # six points in R^4: in a cap, spread out, and with the cap's antipode
    centre = local.normal(size=4)
    for spread in (0.1, 0.5, 1.0, 3.0):
        for _ in range(10):
            cases.append(list(centre + spread * local.normal(size=(6, 4))))
    cases.append(list(centre + 0.2 * local.normal(size=(5, 4))) + [-centre])
    # at most d+1 points in general position
    for m in range(1, 6):
        for spread in (0.1, 1.0, 3.0):
            for _ in range(10):
                cases.append(list(centre + spread
                                  * local.normal(size=(m, 4))))
    return cases


def test_hemisphere_test_agrees_with_the_subset_loop():
    for pts in hemisphere_cases():
        assert in_open_hemisphere(pts) == \
            (not origin_in_hull_by_subsets(pts)), pts


def test_hemisphere_decides_well_conditioned_sets_in_one_test(monkeypatch):
    calls = []

    def counted(aug):
        calls.append(len(aug))
        return simplices_loop(aug)

    simplices_loop = simplices._origin_in_hull
    monkeypatch.setattr(simplices, "_origin_in_hull", counted)
    e = np.eye(4)
    assert in_open_hemisphere(list(e))
    assert in_open_hemisphere(list(e) + [e.sum(axis=0)])
    assert not in_open_hemisphere(list(e) + [-e.sum(axis=0)])
    assert in_open_hemisphere([e[0], e[0] + e[1], e[2] - e[0]])
    assert calls == []
    # rank-deficient, zero and more than d+1 points take the subset loop
    assert in_open_hemisphere([e[0], e[1], e[0] + e[1]])
    assert not in_open_hemisphere([e[0], np.zeros(4)])
    assert in_open_hemisphere(list(e) + [e[0] + e[1], e[2] + e[3]])
    assert calls == [3, 2, 6]


@pytest.mark.parametrize("seed", [0x5EED, 1, 2, 3, 4])
def test_hemisphere_test_agrees_on_every_suite_tuple(monkeypatch, seed):
    # every point set that cocycle-defect and cs-pairing test: the drawn
    # 5-tuples, the faces of each coboundary and the terms of each pairing
    sets = []

    def recorded(points):
        sets.append([np.array(p) for p in points])
        return in_open_hemisphere(points)

    def guards_only(form, stack, quad):
        # the coboundaries' faces pass their guards, and are not integrated
        return [IntegralResult(0.0, 1.0)] * len(stack)

    monkeypatch.setattr(suites, "in_open_hemisphere", recorded)
    monkeypatch.setattr(cochains, "in_open_hemisphere", recorded)
    with monkeypatch.context() as patch:
        patch.setattr(cochains, "pullback_integral", guards_only)
        suites.run_suite("cocycle-defect", {"seed": seed})
    suites.run_suite("cs-pairing", {"seed": seed})
    assert len(sets) > 600
    assert sum(len(pts) == 5 for pts in sets) >= 100
    for pts in sets:
        assert in_open_hemisphere(pts) == (not origin_in_hull_by_subsets(pts))


def test_grid_jets_are_bitwise_the_same_at_every_block_size(monkeypatch):
    # the block size bounds the rows per block and changes no value: every
    # kind of grid jet gives bitwise its default-size points and tangents
    from cocyclelab.forms import sphere_atlas
    from cocyclelab.suites import _wiggled_simplex
    f = _wiggled_simplex(np.random.default_rng(4))
    stack = np.stack([sx.varr for sx in random_faces("spherical", 5)])
    chart = GeodesicSimplex([small_quat() for _ in range(4)], "chart")
    jets = [
        (chart.evaluate_grid_jet, 3),
        (partial(simplices.join_grids, "spherical", stack), 3),
        (f.evaluate_grid_jet, 3),
        (f.face(1).evaluate_grid_jet, 2),
        (f.face(2).face(0).evaluate_grid_jet, 1),
        (prism_cell(f.face(3)).evaluate_grid_jet, 3),
        (sphere_atlas("CP1")[0][1].evaluate_grid_jet, 2)]
    grids = {n: _rule_level(n, 4, 1)[0] for n in (1, 2, 3)}
    expected = [_whole(jet(grids[n])) for jet, n in jets]
    for size in (1, 7, 64):
        monkeypatch.setattr(simplices, "_BLOCK_ROWS", size)
        for (jet, n), want in zip(jets, expected):
            blocks = list(jet(grids[n]))
            assert all(len(x) <= max(size, 4) for x, _ in blocks)
            assert same_bytes(_whole(blocks), want)
