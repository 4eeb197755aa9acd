import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose_raw, random_rotation, stack_records
from se3slam.liegroup import Pose, exp_so3, homogeneous, norms_from_squares
from se3slam.metrics import (
    ErrorRecord,
    _pose_error_raw,
    evaluate,
    map_errors,
    relative_map_errors,
)
from se3slam.observer import ObserverState
from se3slam.runner import csv_lines
from se3slam.simulator import GroundTruth, MeasurementFrame, offsets


def random_pose(rng):
    return Pose(random_rotation(rng), rng.normal(size=3))


def make_state(pose, landmarks):
    """The 1-instant state at ``pose`` with the (l, 3) map ``landmarks``."""
    return ObserverState(pose.dcm[None], pose.position[None], landmarks[None])


def make_truth(pose, landmarks, time=0.0):
    """The 1-instant truth at ``pose``, its body-frame landmarks in the plain
    form C (p_i - r)."""
    landmarks = np.atleast_2d(landmarks)
    body = (landmarks - pose.position) @ pose.dcm.T
    return GroundTruth(
        np.array([time]), pose.dcm[None], pose.position[None], np.zeros((1, 3)),
        np.zeros((1, 3)), landmarks, body[None],
    )


IDENTITY = Pose(np.eye(3), np.zeros(3))


def pose_error(estimate, truth):
    """The 4x4 matrix of the group error Xhat @ X^-1."""
    return homogeneous(*_pose_error_raw(estimate.dcm, estimate.position, truth.dcm, truth.position))


def lyapunov(pose_err, map_errs):
    """V of a pose error and map errors through evaluate: the estimate is the
    error pose against the identity truth, and the true landmarks are -map_errs
    against estimates at the datum origin, so the map errors are map_errs exactly."""
    state = make_state(pose_err, np.zeros(map_errs.shape))
    return float(evaluate(state, make_truth(IDENTITY, -map_errs), np.ones(1, bool)).lyapunov[0])


def test_pose_error_identity_at_truth(rng):
    p = random_pose(rng)
    err = pose_error(p, p)
    assert np.allclose(err, np.eye(4), atol=1e-13)


def test_pose_error_identity_truth(rng):
    p = random_pose(rng)
    err = pose_error(p, IDENTITY)
    assert np.allclose(err, p.matrix, atol=1e-14)


def test_pose_error_group_law(rng):
    est, truth = random_pose(rng), random_pose(rng)
    # oracle: composing the error back with the truth returns the estimate
    err_dcm, err_position = _pose_error_raw(est.dcm, est.position, truth.dcm, truth.position)
    recomposed = homogeneous(*compose_raw(err_dcm, err_position, truth.dcm, truth.position))
    assert np.allclose(recomposed, est.matrix, atol=1e-12)


def test_map_error_zero_at_truth(rng):
    pose = random_pose(rng)
    landmarks = rng.normal(size=(3, 3))
    state = make_state(pose, landmarks)
    truth = make_truth(pose, landmarks)
    assert np.allclose(map_errors(state, truth), 0.0, atol=1e-14)


def test_map_error_identity_attitudes(rng):
    landmarks = rng.normal(size=(2, 3))
    guesses = landmarks + rng.normal(size=(2, 3))
    state = make_state(Pose(np.eye(3), rng.normal(size=3)), guesses)
    truth = make_truth(Pose(np.eye(3), rng.normal(size=3)), landmarks)
    assert np.allclose(map_errors(state, truth), guesses - landmarks, atol=1e-14)


def test_map_error_matches_transcription(rng):
    state = make_state(random_pose(rng), rng.normal(size=(4, 3)))
    truth = make_truth(random_pose(rng), rng.normal(size=(4, 3)))
    (errs,) = map_errors(state, truth)
    (c_ea,), (c_ba,), (guesses,) = state.dcm, truth.dcm, state.landmarks
    for i in range(4):
        expected = c_ea @ guesses[i] - c_ba @ truth.landmarks[i]
        assert np.allclose(errs[i], expected, atol=1e-13)


def test_relative_map_error_zero_at_truth(rng):
    pose = random_pose(rng)
    landmarks = rng.normal(size=(3, 3))
    state = make_state(pose, landmarks)
    assert np.allclose(relative_map_errors(state, make_truth(pose, landmarks)), 0.0, atol=1e-14)


def test_relative_map_error_gauge_invariant(rng):
    # a common datum-frame shift of the estimated pose and map cancels exactly
    pose = random_pose(rng)
    landmarks = rng.normal(size=(3, 3))
    truth = make_truth(pose, landmarks)
    shift = rng.normal(size=3)
    shifted = make_state(Pose(pose.dcm, pose.position + shift), landmarks + shift)
    assert np.allclose(relative_map_errors(shifted, truth), 0.0, atol=1e-13)


def test_relative_map_error_matches_transcription(rng):
    state = make_state(random_pose(rng), rng.normal(size=(4, 3)))
    truth = make_truth(random_pose(rng), rng.normal(size=(4, 3)))
    (errs,) = relative_map_errors(state, truth)
    (c_ea,), (c_ba,), (guesses,) = state.dcm, truth.dcm, state.landmarks
    for i in range(4):
        expected = c_ea @ (guesses[i] - state.position[0]) - c_ba @ (
            truth.landmarks[i] - truth.position[0]
        )
        assert np.allclose(errs[i], expected, atol=1e-13)


def test_lyapunov_zero_at_identity():
    assert lyapunov(IDENTITY, np.zeros((0, 3))) == 0.0


def test_lyapunov_pure_translation():
    err = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert lyapunov(err, np.zeros((0, 3))) == 0.5


def test_lyapunov_half_turn():
    # oracle: direct 4x4 Frobenius evaluation
    err = Pose(exp_so3([0, 0, np.pi]), np.zeros(3))
    direct = 0.5 * np.sum((np.eye(4) - err.matrix) ** 2)
    assert abs(lyapunov(err, np.zeros((0, 3))) - 4.0) < 1e-12
    assert abs(lyapunov(err, np.zeros((0, 3))) - direct) < 1e-14


def test_lyapunov_includes_map_terms(rng):
    err = random_pose(rng)
    errs = rng.normal(size=(3, 3))
    base = lyapunov(err, np.zeros((0, 3)))
    assert abs(lyapunov(err, errs) - base - np.sum(errs**2)) < 1e-12


def test_lyapunov_nonnegative(rng):
    for _ in range(50):
        assert lyapunov(random_pose(rng), rng.normal(size=(2, 3))) >= 0.0


def test_evaluate_record_fields(rng):
    pose = random_pose(rng)
    landmarks = rng.normal(size=(2, 3))
    state = make_state(pose, landmarks)
    truth = make_truth(random_pose(rng), landmarks, time=1.5)
    rec = evaluate(state, truth, np.zeros(1, bool)).row(0)
    assert rec.time == 1.5
    assert not rec.attitude_source_ok
    assert rec.lyapunov >= 0.0
    assert rec.map_error.shape == (2,)
    assert rec.relative_map_error.shape == (2,)
    assert 0.0 <= rec.attitude_error_angle <= np.pi
    assert rec.position_error >= 0.0


@pytest.mark.parametrize("l", [4, 256])
def test_stacked_evaluate_matches_per_record(rng, l):
    n = 9
    est = [random_pose(rng) for _ in range(n)]
    tru = [random_pose(rng) for _ in range(n)]
    guesses = rng.normal(size=(n, l, 3))
    times = np.cumsum(rng.uniform(0.0, 0.1, n))
    oks = rng.uniform(size=n) < 0.5
    landmarks = rng.normal(size=(l, 3))
    state = ObserverState(np.array([p.dcm for p in est]), np.array([p.position for p in est]), guesses)
    truth = GroundTruth(
        times,
        np.array([p.dcm for p in tru]),
        np.array([p.position for p in tru]),
        np.zeros((n, 3)),
        np.zeros((n, 3)),
        landmarks,
        np.concatenate([make_truth(p, landmarks).landmarks_body for p in tru]),
    )
    records = evaluate(state, truth, oks)
    singles = [
        evaluate(make_state(est[i], guesses[i]), truth.row(slice(i, i + 1)), oks[i : i + 1])
        for i in range(n)
    ]
    assert len(records) == n
    assert records.map_error.shape == records.relative_map_error.shape == (n, l)
    # 17 significant digits: equal CSV rows are equal bits
    assert csv_lines(records) == csv_lines(stack_records(singles))
    assert records.attitude_source_ok.tolist() == oks.tolist()
    last = records.row(-1)
    assert last.lyapunov == singles[-1].lyapunov[0] and last.time == times[-1]


def test_error_record_equality_is_identity():
    # the generated == compared the array fields as a tuple and raised
    scalars = [np.array([x, x]) for x in (0.0, 2.0, 0.5, 0.3)]
    records = ErrorRecord(*scalars, np.ones((2, 2)), np.ones((2, 2)), np.array([True, False]))
    assert records == records
    assert records.row(0) != records.row(0)
    assert records.row(0) != "record"
    # so do the other records of arrays: two equal-valued copies are distinct
    makers = [
        lambda: Pose(np.eye(3), np.zeros(3)),
        lambda: make_state(Pose(np.eye(3), np.zeros(3)), np.ones((2, 3))),
        lambda: make_truth(Pose(np.eye(3), np.zeros(3)), np.ones((2, 3))),
        lambda: MeasurementFrame(np.zeros(1), np.zeros((1, 3)), np.zeros((1, 3)), np.ones((1, 2, 3))),
    ]
    for make in makers:
        one = make()
        assert one == one
        assert one != make()
        assert {one: "value"}[one] == "value"  # hashable, by identity


# Entries from 1e-300 to 1e200 of either sign, often of one size, where the order
# of a sum shows in its rounding, and the values that break arithmetic.
ENTRIES = st.one_of(
    st.floats(1e-300, 1e200),
    st.floats(-1e200, -1e-300),
    st.integers(2**52, 2**53 - 1).map(lambda m: m / 2**52),  # full mantissas in [1, 2)
    st.sampled_from([np.inf, -np.inf, np.nan, -0.0]),
)


def same_bits(a, b):
    """Equal shapes and values, NaN equal to NaN, -0.0 unequal to 0.0."""
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b))
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_elementwise_forms_have_the_plain_bits(n, l, data):
    # the unrolled norm and the component-wise offsets against the forms they replace
    points = np.array(data.draw(st.lists(ENTRIES, min_size=3 * n * l, max_size=3 * n * l)))
    origins = np.array(data.draw(st.lists(ENTRIES, min_size=3 * n, max_size=3 * n)))
    points, origins = points.reshape(n, l, 3), origins.reshape(n, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(norms_from_squares(points * points), np.linalg.norm(points, axis=-1))
        for p, o in [(points, origins), (points[0], origins), (points[0], origins[0])]:
            assert same_bits(offsets(p, o), p - o[..., None, :])
