import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from se3slam.errors import DegenerateMatrix, NonFiniteState, NotSkewSymmetric
from se3slam.liegroup import (
    _NUMPY,
    SKEW_TOL,
    SMALL_ANGLE,
    Pose,
    _small_angle_coefficients,
    _so3_terms_stacked,
    _trig_coefficients,
    compose_raw,
    exp_se3,
    exp_so3,
    exp_so3_with_right_jacobian,
    hat,
    homogeneous,
    is_rotation,
    reorthonormalize,
    rotation_angle,
    vee,
)

finite_component = st.floats(-1e3, 1e3, allow_nan=False)
vec3 = st.tuples(finite_component, finite_component, finite_component).map(np.array)


def test_hat_zero():
    assert np.array_equal(hat([0, 0, 0]), np.zeros((3, 3)))


def test_hat_canonical_basis():
    expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.array_equal(hat([1, 0, 0]), expected)


def test_hat_matches_cross_product():
    v, w = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
    # oracle: componentwise cross product
    assert np.allclose(hat(v) @ w, [-3.0, 6.0, -3.0])
    assert np.array_equal(hat(v) @ w, np.cross(v, w))


@given(vec3)
def test_vee_hat_roundtrip_exact(v):
    assert np.array_equal(vee(hat(v)), v)


@given(vec3, vec3)
def test_hat_antisymmetry(v, w):
    assert np.allclose(hat(v) @ w, -(hat(w) @ v))


def test_vee_zero():
    assert np.array_equal(vee(np.zeros((3, 3))), np.zeros(3))


def test_vee_skew_check_is_a_frobenius_bound_at_skew_tol():
    # m + m.T = 2 eps I has Frobenius norm 2 sqrt(3) eps
    k = hat([0.3, -1.2, 2.0])
    edge = SKEW_TOL / (2.0 * np.sqrt(3.0))
    assert np.array_equal(vee(k + 0.9 * edge * np.eye(3)), [0.3, -1.2, 2.0])
    with pytest.raises(NotSkewSymmetric):
        vee(k + 1.1 * edge * np.eye(3))


def test_vee_rejects_symmetric():
    with pytest.raises(NotSkewSymmetric):
        vee(np.eye(3))


def test_exp_so3_identity():
    assert np.array_equal(exp_so3([0, 0, 0]), np.eye(3))


def test_exp_so3_quarter_turn_about_z():
    # oracle: closed-form z-axis rotation matrix
    r = exp_so3([0, 0, np.pi / 2])
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)
    closed_form = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(r, closed_form, atol=1e-12)


@given(vec3)
def test_exp_so3_inverse_symmetry(v):
    v = v / max(1.0, np.linalg.norm(v) / 3.0)
    assert np.allclose(exp_so3(v) @ exp_so3(-v), np.eye(3), atol=1e-12)


@given(vec3.filter(lambda v: np.linalg.norm(v) <= 10.0))
def test_exp_so3_is_rotation(v):
    assert is_rotation(exp_so3(v))


def test_exp_so3_small_angle_branch():
    v = np.array([3e-9, -2e-9, 1e-9])
    r = exp_so3(v)
    assert is_rotation(r)
    assert np.allclose(vee(0.5 * (r - r.T)), v, rtol=1e-6)


def test_exp_se3_identity():
    assert np.array_equal(homogeneous(*exp_se3([0, 0, 0], [0, 0, 0])), np.eye(4))


def test_exp_se3_pure_translation():
    dcm, position = exp_se3([0, 0, 0], [1, 2, 3])
    assert np.array_equal(dcm, np.eye(3))
    assert np.array_equal(position, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("omega", [[1e200, 0.0, 0.0], [np.nan, 0.0, 0.0]], ids=["huge", "nan"])
def test_exp_rejects_rotation_without_finite_norm(omega):
    # |omega| overflows to inf for finite entries above ~1e154; sin(inf) is NaN
    with pytest.raises(NonFiniteState):
        exp_so3(omega)
    with pytest.raises(NonFiniteState):
        exp_se3(omega, [0.0, 0.0, 0.0])


def test_exp_se3_rejects_angle_that_overflows_the_series():
    # theta^3 overflows above ~5.6e102 in the one-vector form; the stacked form
    # (ground truth) gets c = 0 and still a rotation
    with pytest.raises(NonFiniteState, match=r"overflows the SO\(3\) series"):
        exp_se3([1e103, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert is_rotation(exp_so3([1e103, 0.0, 0.0]))


rotation_vectors = st.one_of(
    vec3,
    vec3.map(lambda v: v * 1e-12),  # |v| < SMALL_ANGLE = 1e-8: the series branch
    st.just(np.zeros(3)),
)


def _so3_terms(v):
    """(a, b, c, K, K @ K) of one rotation vector evaluated alone with numpy:
    the reference whose bits each slice of the stacked terms must have."""
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    coefficients = _small_angle_coefficients if theta < SMALL_ANGLE else _trig_coefficients
    a, b, c = coefficients(theta, _NUMPY)
    k = hat(v)
    return a, b, c, k, k @ k


@settings(max_examples=60, deadline=None)
@given(st.lists(rotation_vectors, min_size=1, max_size=12))
def test_stacked_so3_terms_match_scalar_bit_for_bit(vectors):
    stack = np.array(vectors)
    stacked = _so3_terms_stacked(stack)
    rotations, jacobians = exp_so3_with_right_jacobian(stack)
    assert np.array_equal(rotations, exp_so3(stack))
    for i, v in enumerate(vectors):
        scalar = _so3_terms(v)
        for got, want in zip(stacked, scalar):
            assert np.array_equal(got[i], np.broadcast_to(want, got[i].shape))
        a, b, _, k, kk = scalar
        assert np.array_equal(rotations[i], np.eye(3) + a * k + b * kk)
        assert np.array_equal(rotations[i], exp_so3(v))
        # the right Jacobian as the left Jacobian I + b K + c K^2 at -v
        _, b, c, k, kk = _so3_terms(-v)
        assert np.array_equal(jacobians[i], np.eye(3) + b * k + c * kk)


def test_stacked_rotation_angle_matches_per_matrix(rng):
    rotations = np.array([random_rotation(rng) for _ in range(20)] + [np.eye(3)])
    angles = rotation_angle(rotations)
    assert angles.shape == (21,)
    for angle, r in zip(angles, rotations):
        assert angle == rotation_angle(r)
        assert isinstance(rotation_angle(r), float)


def _expm_oracle(omega, v):
    twist = np.zeros((4, 4))
    twist[:3, :3] = hat(omega)
    twist[:3, 3] = v
    return scipy.linalg.expm(twist)


def test_exp_se3_half_turn_value():
    # oracle: dense matrix exponential of the twist
    dcm, position = exp_se3([0, 0, np.pi], [1, 0, 0])
    assert np.allclose(homogeneous(dcm, position), _expm_oracle([0, 0, np.pi], [1, 0, 0]), atol=1e-12)
    assert np.allclose(position, [0.0, 2.0 / np.pi, 0.0], atol=1e-12)


def test_exp_se3_matches_dense_exponential(rng):
    for _ in range(100):
        omega = rng.normal(size=3) * rng.uniform(0.0, 3.0)
        v = rng.normal(size=3) * 2.0
        assert np.allclose(homogeneous(*exp_se3(omega, v)), _expm_oracle(omega, v), atol=1e-10)


def test_reorthonormalize_idempotent_on_rotations(rng):
    r = random_rotation(rng)
    assert np.allclose(reorthonormalize(r), r, atol=1e-14)


def test_reorthonormalize_small_perturbation(rng):
    r = np.eye(3) + 1e-6 * rng.normal(size=(3, 3))
    out = reorthonormalize(r)
    # oracle: SVD projection U @ Vt
    u, _, vt = np.linalg.svd(r)
    assert np.allclose(out, u @ vt, atol=1e-15)
    assert np.linalg.norm(out.T @ out - np.eye(3)) < 1e-12
    assert np.linalg.norm(out - r) < 1e-5


def test_reorthonormalize_projection_property(rng):
    r = random_rotation(rng) + 1e-3 * rng.normal(size=(3, 3))
    once = reorthonormalize(r)
    assert np.allclose(reorthonormalize(once), once, atol=1e-14)


def test_reorthonormalize_rejects_degenerate():
    with pytest.raises(DegenerateMatrix):
        reorthonormalize(np.zeros((3, 3)))
    with pytest.raises(DegenerateMatrix):
        reorthonormalize(np.diag([1.0, 1.0, -1.0]))


def test_rotation_angle_identity():
    assert rotation_angle(np.eye(3)) == 0.0


def test_rotation_angle_quarter_turn():
    assert abs(rotation_angle(exp_so3([0, 0, np.pi / 2])) - np.pi / 2) < 1e-12


def test_rotation_angle_unsigned():
    assert abs(rotation_angle(exp_so3([0, 0, -0.3])) - 0.3) < 1e-12


@given(st.floats(1e-6, np.pi - 1e-6), vec3.filter(lambda v: np.linalg.norm(v) > 1e-3))
@settings(max_examples=50)
def test_rotation_angle_roundtrip(theta, axis):
    axis = axis / np.linalg.norm(axis)
    assert abs(rotation_angle(exp_so3(theta * axis)) - theta) < 1e-9


@pytest.mark.parametrize("theta", [1e-10, np.pi - 1e-6])
def test_rotation_angle_relative_accuracy(theta):
    # arccos of the trace alone reads 0 for 1e-10 and is off by ~1e-10 near pi
    r = exp_so3(theta * np.array([0.48, -0.6, 0.64]))
    assert abs(rotation_angle(r) - theta) <= 1e-14 * theta
    assert abs(rotation_angle(r[None])[0] - theta) <= 1e-14 * theta


@settings(max_examples=60, deadline=None)
@given(rotation_vectors, vec3)
def test_exp_se3_agrees_with_stacked_so3(omega, v):
    # exp_se3 works in floats; the stacked numpy path gives exp(hat(omega)) and
    # the left Jacobian as the right Jacobian at -omega. The two round |omega|
    # differently, and an angle error of ~1e-16 |omega| moves every entry by as much.
    dcm, position = exp_se3(omega, v)
    tol = 1e-14 * (1.0 + np.linalg.norm(omega))
    assert np.allclose(dcm, exp_so3(omega).T, rtol=0.0, atol=tol)
    _, left_jacobian = exp_so3_with_right_jacobian(-omega)
    assert np.allclose(position, left_jacobian @ v, rtol=0.0, atol=tol * (1.0 + np.linalg.norm(v)))


def test_right_jacobian_finite_difference(rng):
    # oracle: central difference of exp_so3 along a tangent direction
    a = rng.normal(size=3)
    da = rng.normal(size=3)
    h = 1e-6
    num = (exp_so3(a + h * da) - exp_so3(a - h * da)) / (2 * h)
    rotation, jacobian = exp_so3_with_right_jacobian(a)
    ana = rotation @ hat(jacobian @ da)
    assert np.allclose(num, ana, atol=1e-8)


def test_pose_compose_matches_matrix_product(rng):
    a = Pose(random_rotation(rng), rng.normal(size=3))
    b = Pose(random_rotation(rng), rng.normal(size=3))
    product = homogeneous(*compose_raw(a.dcm, a.position, b.dcm, b.position))
    assert np.allclose(product, a.matrix @ b.matrix, atol=1e-14)


def test_pose_inverse(rng):
    # (C.T, -C @ p) is the inverse of (C, p) under compose_raw
    a = Pose(random_rotation(rng), rng.normal(size=3))
    inverse = (a.dcm.T, -(a.dcm @ a.position))
    assert np.allclose(homogeneous(*compose_raw(a.dcm, a.position, *inverse)), np.eye(4), atol=1e-13)
    assert np.allclose(homogeneous(*inverse), np.linalg.inv(a.matrix), atol=1e-12)


def test_pose_rejects_bad_rotation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 1.01, np.zeros(3))
    with pytest.raises(ValueError):
        Pose(np.eye(3), np.array([np.nan, 0.0, 0.0]))
