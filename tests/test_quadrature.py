from itertools import product
from math import factorial

import numpy as np
import pytest

from cocyclelab.errors import QuadratureDiverged
from cocyclelab.quadrature import (IntegralResult, QuadratureSpec,
                                   _grid_nodes, _panel_axes, _panel_rule,
                                   bary_to_cube, cube_to_bary_jet,
                                   gauss_legendre_circle, integrate_on_cube)

rng = np.random.default_rng(2)


def cube_to_bary(s):
    """The points of ``cube_to_bary_jet``, with no tangents to carry."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    return cube_to_bary_jet(s, np.zeros((len(s), 0, s.shape[1])))[0]


def row_jet(m, s):
    """The points and tangents of a map at cube coordinates (N, n): its
    grid jet with one node per axis per row."""
    return next(m.evaluate_grid_jet(s[:, :, None], len(s)))


def bary_to_cube_jet(bary, dbary):
    """Reference copy of ``bary_to_cube`` that also carries tangents: the
    images (N, m, n) of ``dbary`` (N, m, n+1).  The tests build
    barycentric jets of simplices from it.

    The divisions by 1 - s_k are safe away from the apexes, which Gauss
    nodes never reach; at an apex the inverse is not differentiable, and
    the tangents of the lower coordinates are taken to be 0 there."""
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    n = bary.shape[1] - 1
    s = np.empty((bary.shape[0], n))
    ds = np.empty((bary.shape[0], dbary.shape[1], n))
    for k in range(n, 0, -1):
        s[:, k - 1] = bary[:, k]
        denom = 1.0 - bary[:, k]
        at_top = np.abs(denom) < 1e-14
        denom = np.where(at_top, 1.0, denom)
        bary = bary[:, :k] / denom[:, None]
        ds[:, :, k - 1] = dbary[:, :, k]
        # quotient rule: d(b / (1 - s)) = (db + (b / (1 - s)) ds) / (1 - s)
        dbary = (dbary[:, :, :k] + bary[:, None] * dbary[:, :, k:k + 1]) \
            / denom[:, None, None]
        if np.any(at_top):
            bary[at_top] = np.eye(k)[0]
            dbary[at_top] = 0.0
    return s, ds


def barycentric_jet(sx):
    """The jet ``(bary, dbary) -> (points, tangents)`` of a simplex given
    by its cube jet: ``row_jet`` composed with the reference
    ``bary_to_cube_jet``."""

    def jet(bary, dbary):
        s, ds = bary_to_cube_jet(bary, dbary)
        x, dx = row_jet(sx, s)
        return x, np.einsum("nmk,nkd->nmd", ds, dx)

    return jet


def test_cube_to_bary_is_barycentric():
    s = rng.uniform(0, 1, size=(40, 3))
    bary = cube_to_bary(s)
    assert bary.shape == (40, 4)
    assert np.all(bary >= -1e-15)
    assert np.allclose(bary.sum(axis=1), 1.0)
    # corners: s = (1, ..) hits the last vertex regardless of the rest
    assert np.allclose(cube_to_bary([[0.3, 0.7, 1.0]])[0], [0, 0, 0, 1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bary_to_cube_inverts_cube_to_bary(n):
    s = rng.uniform(0.02, 0.98, size=(50, n))
    assert np.abs(bary_to_cube(cube_to_bary(s)) - s).max() < 1e-12
    bary = rng.dirichlet(np.ones(n + 1), size=50)
    assert np.abs(cube_to_bary(bary_to_cube(bary)) - bary).max() < 1e-12


def exact_cube_to_bary_derivative(s):
    """d bary_j / d s_k for bary_j = s_j prod_{i > j} (1 - s_i), s_0 = 1."""
    n = s.shape[1]
    lead = np.concatenate([np.ones((s.shape[0], 1)), s], axis=1)
    out = np.zeros((s.shape[0], n, n + 1))
    for j in range(n + 1):
        for k in range(max(j, 1), n + 1):
            rest = np.prod([1.0 - lead[:, i] for i in range(j + 1, n + 1)
                            if i != k], axis=0)
            out[:, k - 1, j] = rest if k == j else -lead[:, j] * rest
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_to_bary_jet_is_the_exact_derivative(n):
    s = rng.uniform(0, 1, size=(30, n))
    eye = np.broadcast_to(np.eye(n), (30, n, n))
    bary, dbary = cube_to_bary_jet(s, eye)
    assert np.array_equal(bary, cube_to_bary(s))
    assert np.abs(dbary - exact_cube_to_bary_derivative(s)).max() < 1e-15
    # tangents along other parameters go through the chain rule
    ds = rng.normal(size=(30, 2, n))
    assert np.abs(cube_to_bary_jet(s, ds)[1] - np.einsum(
        "nmk,nkj->nmj", ds, dbary)).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bary_to_cube_jet_inverts_the_cube_jet(n):
    s = rng.uniform(0.02, 0.98, size=(30, n))
    eye = np.broadcast_to(np.eye(n), (30, n, n))
    bary, dbary = cube_to_bary_jet(s, eye)
    back, dback = bary_to_cube_jet(bary, dbary)
    assert np.array_equal(back, bary_to_cube(bary))
    assert np.abs(dback - eye).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bary_to_cube_corners(n):
    cube = bary_to_cube(np.eye(n + 1))
    assert cube.shape == (n + 1, n)
    for k in range(1, n + 1):
        assert cube[k, k - 1] == 1.0
        assert np.all(cube[k, :k - 1] == 0.0)
    assert np.all(cube[0] == 0.0)


def test_cube_quadrature_exactness_on_polynomials():
    # oracle: closed-form integral of monomials over the cube
    for n in (1, 2, 3):
        exps = rng.integers(0, 6, size=n)

        def integrand(s, _):
            out = np.ones(s.shape[0])
            for k, e in enumerate(exps):
                out *= s[:, k] ** e
            return out

        exact = np.prod([1.0 / (e + 1) for e in exps])
        res = integrate_on_cube(integrand, n, QuadratureSpec(order=6))
        assert abs(res.value - exact) < 1e-14


def test_simplex_volume_through_cone_map():
    # integrating the cone-map Jacobian reproduces 1/n! (the simplex
    # volume); the Jacobian equals prod_k (1-s_k)^(k-1) analytically
    for n in (2, 3):
        def jac(s, _):
            out = np.ones(s.shape[0])
            for k in range(2, n + 1):
                out *= (1.0 - s[:, k - 1]) ** (k - 1)
            return out

        res = integrate_on_cube(jac, n, QuadratureSpec(order=8))
        assert abs(res.value - 1.0 / factorial(n)) < 1e-14


def test_two_order_error_estimate():
    def wavy(s, _):
        return np.sin(3.0 * s[:, 0]) * np.cos(2.0 * s[:, 1])

    exact = ((np.cos(0) - np.cos(3.0)) / 3.0) * (np.sin(2.0) / 2.0)
    res = integrate_on_cube(wavy, 2, QuadratureSpec(order=6, tol=1e-3))
    assert isinstance(res, IntegralResult)
    assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)


def test_error_estimate_carries_the_rounding_of_the_sum():
    # both orders integrate an affine function exactly, so only rounding
    # is left; the estimate covers it through gamma_N * sum |w_i f_i| of
    # the fine sum, and sum |w_i f_i| is the integral 1.25 of f > 0
    def affine(s, _):
        return 1.0 + s[:, 0] - 0.5 * s[:, 2]

    res = integrate_on_cube(affine, 3, QuadratureSpec(order=4, depth=2))
    nu = (4 * 6) ** 3 * np.finfo(float).eps / 2
    assert res.error_estimate >= 0.99 * nu / (1 - nu) * 1.25
    assert abs(res.value - 1.25) <= res.error_estimate


def test_divergence_guard():
    def rough(s, _):
        return np.where(s[:, 0] < 0.37, 0.0, 17.0)

    with pytest.raises(QuadratureDiverged):
        integrate_on_cube(rough, 1, QuadratureSpec(order=3, tol=1e-9))


def test_panel_depth_refines_consistently():
    def smooth(s, _):
        return np.exp(s[:, 0] - s[:, 1] ** 2)

    v0 = integrate_on_cube(smooth, 2, QuadratureSpec(order=8, depth=0)).value
    v1 = integrate_on_cube(smooth, 2, QuadratureSpec(order=8, depth=1)).value
    assert abs(v0 - v1) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_panel_axes_mesh_to_the_panel_rule(n):
    # each panel's axes are the Gauss nodes moved into it, and meshing them
    # lexicographically, last axis fastest, panel after panel, gives the
    # rule's nodes byte for byte
    for order in (2, 5, 8):
        for depth in (0, 1, 2):
            panels = 2 ** (depth * n)
            if panels * order ** n > 40000:
                continue
            axes = _panel_axes(n, order, depth)
            assert axes.shape == (panels, n, order)
            assert not axes.flags.writeable
            x = (np.polynomial.legendre.leggauss(order)[0] + 1.0) / 2.0
            mesh = []
            for grid, offsets in zip(
                    axes, product(range(2 ** depth), repeat=n)):
                assert grid.tobytes() == np.array(
                    [(x + off) * (1.0 / 2 ** depth)
                     for off in offsets]).tobytes()
                mesh += product(*grid)
            assert np.array(mesh).tobytes() == \
                _panel_rule(n, order, depth)[0].tobytes()
            # any rows of the grids, as a map's blocks of nodes take them
            rows = np.arange(3, len(mesh), 7)
            assert _grid_nodes(axes, rows).tobytes() == \
                np.array(mesh)[rows].tobytes()


def test_circle_rule():
    val = gauss_legendre_circle(lambda t: np.cos(t) ** 2)
    assert abs(val - np.pi) < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(depth=-1)
    with pytest.raises(ValueError):
        IntegralResult(1.0, -1.0)
