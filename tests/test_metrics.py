import numpy as np

from conftest import random_rotation, stack_records
from se3slam.liegroup import Pose, compose_raw, exp_so3, homogeneous
from se3slam.metrics import (
    ErrorRecord,
    evaluate,
    lyapunov,
    map_errors,
    pose_error,
    relative_map_errors,
)
from se3slam.observer import ObserverState
from se3slam.runner import csv_lines
from se3slam.simulator import GroundTruth, MeasurementFrame


def random_pose(rng):
    return Pose(random_rotation(rng), rng.normal(size=3))


def make_state(pose, landmarks, time=0.0):
    return ObserverState(pose.dcm, pose.position, landmarks, time)


def make_truth(pose, landmarks):
    return GroundTruth(pose.dcm, pose.position, np.zeros(3), np.zeros(3), np.atleast_2d(landmarks))


def test_pose_error_identity_at_truth(rng):
    p = random_pose(rng)
    err = pose_error(p, p)
    assert np.allclose(err.matrix, np.eye(4), atol=1e-13)


def test_pose_error_identity_truth(rng):
    p = random_pose(rng)
    err = pose_error(p, Pose(np.eye(3), np.zeros(3)))
    assert np.allclose(err.matrix, p.matrix, atol=1e-14)


def test_pose_error_group_law(rng):
    est, truth = random_pose(rng), random_pose(rng)
    # oracle: composing the error back with the truth returns the estimate
    err = pose_error(est, truth)
    recomposed = homogeneous(*compose_raw(err.dcm, err.position, truth.dcm, truth.position))
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
    errs = map_errors(state, truth)
    for i in range(4):
        expected = state.dcm @ state.landmarks[i] - truth.dcm @ truth.landmarks[i]
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
    shifted = ObserverState(pose.dcm, pose.position + shift, landmarks + shift)
    assert np.allclose(relative_map_errors(shifted, truth), 0.0, atol=1e-13)


def test_relative_map_error_matches_transcription(rng):
    state = make_state(random_pose(rng), rng.normal(size=(4, 3)))
    truth = make_truth(random_pose(rng), rng.normal(size=(4, 3)))
    errs = relative_map_errors(state, truth)
    for i in range(4):
        expected = state.dcm @ (state.landmarks[i] - state.position) - truth.dcm @ (
            truth.landmarks[i] - truth.position
        )
        assert np.allclose(errs[i], expected, atol=1e-13)


def test_lyapunov_zero_at_identity():
    assert lyapunov(Pose(np.eye(3), np.zeros(3)), np.zeros((0, 3))) == 0.0


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
    state = make_state(pose, landmarks, time=1.5)
    truth = make_truth(random_pose(rng), landmarks)
    rec = evaluate(state, truth, attitude_source_ok=False)
    assert rec.time == 1.5
    assert not rec.attitude_source_ok
    assert rec.lyapunov >= 0.0
    assert rec.map_error.shape == (2,)
    assert rec.relative_map_error.shape == (2,)
    assert 0.0 <= rec.attitude_error_angle <= np.pi
    assert rec.position_error >= 0.0


def test_stacked_evaluate_matches_per_record(rng):
    n, l = 9, 4
    est = [random_pose(rng) for _ in range(n)]
    tru = [random_pose(rng) for _ in range(n)]
    guesses = rng.normal(size=(n, l, 3))
    times = np.cumsum(rng.uniform(0.0, 0.1, n))
    oks = rng.uniform(size=n) < 0.5
    landmarks = rng.normal(size=(l, 3))
    state = ObserverState(
        np.array([p.dcm for p in est]), np.array([p.position for p in est]), guesses, times
    )
    truth = GroundTruth(
        np.array([p.dcm for p in tru]),
        np.array([p.position for p in tru]),
        np.zeros((n, 3)),
        np.zeros((n, 3)),
        landmarks,
    )
    records = evaluate(state, truth, oks)
    singles = [
        evaluate(make_state(est[i], guesses[i], float(times[i])), truth.row(i), bool(oks[i]))
        for i in range(n)
    ]
    assert len(records) == n
    assert records.map_error.shape == records.relative_map_error.shape == (n, l)
    # 17 significant digits: equal CSV rows are equal bits
    assert csv_lines(records) == csv_lines(stack_records(singles))
    assert records.attitude_source_ok.tolist() == oks.tolist()
    last = records.row(-1)
    assert last.lyapunov == singles[-1].lyapunov and last.time == times[-1]


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
        lambda: ObserverState(np.eye(3), np.zeros(3), np.ones((2, 3))),
        lambda: make_truth(Pose(np.eye(3), np.zeros(3)), np.ones((2, 3))),
        lambda: MeasurementFrame(np.zeros(3), np.zeros(3), np.ones((2, 3))),
    ]
    for make in makers:
        one = make()
        assert one == one
        assert one != make()
        assert {one: "value"}[one] == "value"  # hashable, by identity
