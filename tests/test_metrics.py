import numpy as np

from conftest import random_rotation
from se3slam.liegroup import Pose, exp_so3
from se3slam.metrics import (
    evaluate,
    lyapunov,
    map_errors,
    pose_error,
    relative_map_errors,
)
from se3slam.observer import ObserverState
from se3slam.simulator import GroundTruth


def random_pose(rng):
    return Pose(random_rotation(rng), rng.normal(size=3))


def make_truth(pose, landmarks):
    return GroundTruth(pose, np.zeros(3), np.zeros(3), np.atleast_2d(landmarks))


def test_pose_error_identity_at_truth(rng):
    p = random_pose(rng)
    err = pose_error(p, p)
    assert np.allclose(err.matrix, np.eye(4), atol=1e-13)


def test_pose_error_identity_truth(rng):
    p = random_pose(rng)
    err = pose_error(p, Pose.identity())
    assert np.allclose(err.matrix, p.matrix, atol=1e-14)


def test_pose_error_group_law(rng):
    est, truth = random_pose(rng), random_pose(rng)
    # oracle: composing the error back with the truth returns the estimate
    recomposed = pose_error(est, truth).compose(truth)
    assert np.allclose(recomposed.matrix, est.matrix, atol=1e-12)


def test_map_error_zero_at_truth(rng):
    pose = random_pose(rng)
    landmarks = rng.normal(size=(3, 3))
    state = ObserverState(pose, landmarks)
    truth = make_truth(pose, landmarks)
    assert np.allclose(map_errors(state, truth), 0.0, atol=1e-14)


def test_map_error_identity_attitudes(rng):
    landmarks = rng.normal(size=(2, 3))
    guesses = landmarks + rng.normal(size=(2, 3))
    state = ObserverState(Pose(np.eye(3), rng.normal(size=3)), guesses)
    truth = make_truth(Pose(np.eye(3), rng.normal(size=3)), landmarks)
    assert np.allclose(map_errors(state, truth), guesses - landmarks, atol=1e-14)


def test_map_error_matches_transcription(rng):
    state = ObserverState(random_pose(rng), rng.normal(size=(4, 3)))
    truth = make_truth(random_pose(rng), rng.normal(size=(4, 3)))
    errs = map_errors(state, truth)
    for i in range(4):
        expected = state.pose.dcm @ state.landmarks[i] - truth.pose.dcm @ truth.landmarks[i]
        assert np.allclose(errs[i], expected, atol=1e-13)


def test_relative_map_error_zero_at_truth(rng):
    pose = random_pose(rng)
    landmarks = rng.normal(size=(3, 3))
    state = ObserverState(pose, landmarks)
    assert np.allclose(relative_map_errors(state, make_truth(pose, landmarks)), 0.0, atol=1e-14)


def test_relative_map_error_gauge_invariant(rng):
    # a common datum-frame shift of the estimated pose and map cancels exactly
    pose = random_pose(rng)
    landmarks = rng.normal(size=(3, 3))
    truth = make_truth(pose, landmarks)
    shift = rng.normal(size=3)
    shifted = ObserverState(Pose(pose.dcm, pose.position + shift), landmarks + shift)
    assert np.allclose(relative_map_errors(shifted, truth), 0.0, atol=1e-13)


def test_relative_map_error_matches_transcription(rng):
    state = ObserverState(random_pose(rng), rng.normal(size=(4, 3)))
    truth = make_truth(random_pose(rng), rng.normal(size=(4, 3)))
    errs = relative_map_errors(state, truth)
    for i in range(4):
        expected = state.pose.dcm @ (state.landmarks[i] - state.pose.position) - truth.pose.dcm @ (
            truth.landmarks[i] - truth.pose.position
        )
        assert np.allclose(errs[i], expected, atol=1e-13)


def test_lyapunov_zero_at_identity():
    assert lyapunov(Pose.identity(), np.zeros((0, 3))) == 0.0


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
    state = ObserverState(pose, landmarks, time=1.5)
    truth = make_truth(random_pose(rng), landmarks)
    rec = evaluate(state, truth, attitude_source_ok=False)
    assert rec.time == 1.5
    assert not rec.attitude_source_ok
    assert rec.lyapunov >= 0.0
    assert rec.map_error.shape == (2,)
    assert rec.relative_map_error.shape == (2,)
    assert 0.0 <= rec.attitude_error_angle <= np.pi
    assert rec.position_error >= 0.0

