import numpy as np
import pytest

from cocyclelab.errors import BadOrder, DegenerateConfig
from cocyclelab.groups import (QUAT_I, QUAT_J, QUAT_ONE, LieVector, Rotation,
                               UnitQuaternion, _qconj, _qlog_jet, _qmul,
                               apply_rotation, cyclic_embed, hopf_arr,
                               quat_exp, so4_of)

rng = np.random.default_rng(20240813)


def random_quat():
    v = rng.normal(size=4)
    return UnitQuaternion(v / np.linalg.norm(v))


def log_of(q):
    return _qlog_jet(q.vec, np.zeros((0, 4)))[0]


def hopf(q):
    return hopf_arr(q.vec)


def test_unit_norm_maintained_after_products():
    q = QUAT_ONE
    for _ in range(200):
        q = q * random_quat()
        assert abs(np.linalg.norm(q.vec) - 1.0) < 1e-12


def test_exp_identity_and_closed_forms():
    assert quat_exp(LieVector("su2", [0, 0, 0])).isclose(QUAT_ONE)
    assert quat_exp(LieVector("su2", [np.pi, 0, 0])).isclose(-QUAT_ONE)
    assert quat_exp(LieVector("su2", [np.pi / 2, 0, 0])).isclose(QUAT_I)


def test_log_inverts_exp_inside_ball():
    assert np.allclose(log_of(QUAT_ONE), 0.0)
    assert np.allclose(log_of(QUAT_I), [np.pi / 2, 0, 0])
    for _ in range(50):
        v = rng.normal(size=3)
        v *= rng.uniform(0, np.pi - 0.1) / np.linalg.norm(v)
        back = log_of(quat_exp(LieVector("su2", v)))
        assert np.linalg.norm(back - v) < 1e-10
        assert np.linalg.norm(back) < np.pi


def test_log_rejects_antipode():
    with pytest.raises(DegenerateConfig):
        log_of(-QUAT_ONE)


def test_hopf_poles():
    assert np.allclose(hopf(QUAT_ONE), [0, 0, 0.5])
    # direct evaluation of the complex-pair formula at j
    assert np.allclose(hopf(QUAT_J), [0, 0, -0.5])


def test_hopf_lands_on_radius_half_sphere():
    for _ in range(20):
        assert abs(np.linalg.norm(hopf(random_quat())) - 0.5) < 1e-12


def test_hopf_constant_on_left_circle_fibers():
    for _ in range(10):
        q = random_quat()
        th = rng.uniform(0, 2 * np.pi)
        u = UnitQuaternion(np.cos(th), np.sin(th), 0, 0)
        assert np.linalg.norm(hopf(u * q) - hopf(q)) < 1e-12


def test_hopf_right_translation_equivariance():
    # right translation by g moves Hopf images by a fixed rotation
    # conjugate to v -> g^{-1} v g; the conjugator swaps the x- and z-axes
    # and flips y
    a = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])

    def conjugation(g):
        # columns: the images of the imaginary units under v -> g v g^{-1}
        units = np.eye(4)[1:]
        return _qmul(_qmul(g.vec, units), g.inverse().vec)[:, 1:].T

    for _ in range(10):
        q, g = random_quat(), random_quat()
        expected = a @ conjugation(g.inverse()) @ a.T @ hopf(q)
        assert np.linalg.norm(hopf(q * g) - expected) < 1e-10


def test_so4_kernel_homomorphism_and_action():
    assert so4_of(QUAT_ONE, QUAT_ONE).isclose(Rotation.identity(4))
    assert so4_of(-QUAT_ONE, -QUAT_ONE).isclose(Rotation.identity(4))
    # i * 1 * i^{-1} = 1
    out = apply_rotation(so4_of(QUAT_I, QUAT_I), QUAT_ONE)
    assert out.isclose(QUAT_ONE)
    for _ in range(20):
        a1, a2, b1, b2 = (random_quat() for _ in range(4))
        lhs = so4_of(a1, a2) @ so4_of(b1, b2)
        rhs = so4_of(a1 * b1, a2 * b2)
        assert lhs.isclose(rhs, tol=1e-12)
        inv = so4_of(a1.inverse(), a2.inverse())
        assert inv.isclose(so4_of(a1, a2).inverse(), tol=1e-10)


def test_cyclic_embed():
    assert cyclic_embed(7, 0).isclose(QUAT_ONE)
    assert cyclic_embed(4, 1).isclose(QUAT_I)
    with pytest.raises(BadOrder):
        cyclic_embed(1, 0)
    for _ in range(10):
        m = int(rng.integers(2, 12))
        a, b = (int(x) for x in rng.integers(-10, 10, size=2))
        lhs = cyclic_embed(m, a) * cyclic_embed(m, b)
        assert lhs.isclose(cyclic_embed(m, a + b), tol=1e-12)


def test_apply_rotation_matches_quaternion_product():
    assert apply_rotation(Rotation.identity(4), QUAT_J).isclose(QUAT_J)
    for _ in range(10):
        q, x = random_quat(), random_quat()
        assert apply_rotation(so4_of(q, q), x).isclose(
            q * x * q.inverse(), tol=1e-12)
    # the cyclic pair action on the base point, against plain products
    for m in (3, 5, 6, 8):
        g = so4_of(cyclic_embed(m, 1), cyclic_embed(m, -1))
        expected = cyclic_embed(m, 1) * QUAT_ONE * cyclic_embed(m, 1)
        assert apply_rotation(g, QUAT_ONE).isclose(expected, tol=1e-12)


def moveaxis_qmul(a, b):
    # reference: components unpacked by moving the trailing axis to the
    # front, the same expressions as _qmul
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


@pytest.mark.parametrize("shape_a,shape_b", [
    ((4,), (4,)), ((4,), (4, 4)), ((7, 4), (4,)), ((7, 4), (7, 4)),
    ((7, 1, 4), (3, 4)), ((7, 3, 4), (7, 1, 4)), ((2, 7, 3, 4), (3, 4))])
def test_qmul_and_qconj_are_bitwise_the_reference(shape_a, shape_b):
    local = np.random.default_rng(41)
    a = local.normal(size=shape_a)
    b = local.normal(size=shape_b)
    # a broadcast view and a strided slice as well as a fresh array
    for x, y in ((a, b), (a, np.broadcast_to(b, np.broadcast_shapes(
            shape_a, shape_b))), (a[..., ::-1], b)):
        got, ref = _qmul(x, y), moveaxis_qmul(x, y)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
        ref = x * np.array([1.0, -1.0, -1.0, -1.0])
        assert _qconj(x).tobytes() == ref.tobytes()


def test_associativity_spot_check():
    for _ in range(30):
        a, b, c = random_quat(), random_quat(), random_quat()
        assert ((a * b) * c).isclose(a * (b * c), tol=1e-12)


def test_hopf_so3_action_compatibility():
    # conjugation-type left actions commute with the fiber projection:
    # hopf(g q g^{-1} * q') factors through so3-type rotations; checked in
    # the right-translation form above, here the fiber/rotation interplay
    for _ in range(10):
        q1, q = random_quat(), random_quat()
        # moving within a fiber never changes the image
        th = rng.uniform(0, 2 * np.pi)
        u = UnitQuaternion(np.cos(th), np.sin(th), 0, 0)
        assert np.linalg.norm(hopf(u * (q1 * q)) - hopf(q1 * q)) < 1e-10


def test_lie_vector_validation():
    with pytest.raises(ValueError):
        LieVector("su2", [1.0, 2.0])
    with pytest.raises(ValueError):
        LieVector("so4", [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        LieVector("nope", [1.0, 2.0, 3.0])


def test_rotation_validation():
    with pytest.raises(ValueError):
        Rotation(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        Rotation(2.0 * np.eye(3))
