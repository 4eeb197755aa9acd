"""Error metrics and the Lyapunov-style energy used for stability checks.

Error definitions:
    * pose error  Xtilde = Xhat @ X^-1 (group product; identity iff exact)
    * map error   ptilde_i = C_ea @ phat_i - C_ba @ p_i
    * relative map error: body-frame landmark position from the estimates
      minus the same from the truth; blind to a shared datum-frame shift of
      the estimated pose and map (the unobservable gauge).
    * energy      V = 0.5 * ||I4 - Xtilde||_F^2 + sum_i ||ptilde_i||^2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import Pose, homogeneous, rotation_angle, vector_norm
from .observer import ObserverState
from .simulator import GroundTruth


@dataclass(frozen=True)
class ErrorRecord:
    """Per-step error summary; serialized as one CSV row by the runner."""

    time: float
    lyapunov: float
    attitude_error_angle: float  # rad
    position_error: float  # m, norm of the pose-error translation
    map_error: np.ndarray  # (l,) norms, m
    relative_map_error: np.ndarray  # (l,) norms, m
    attitude_source_ok: bool


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: the inverse of a stack of rotations."""
    return np.swapaxes(m, -1, -2)


def _column(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for matrices m (..., 3, 3) and vectors v (..., 3)."""
    return (m @ v[..., None])[..., 0]


def _pose_error_raw(est_dcm, est_position, true_dcm, true_position):
    """(dcm, position) of Xhat @ X^-1 over any leading axes, unvalidated: the
    arithmetic of compose_raw and inverse_raw."""
    inv_position = -_column(true_dcm, true_position)
    return _t(true_dcm) @ est_dcm, _column(_t(est_dcm), inv_position) + est_position


def pose_error(estimate: Pose, truth: Pose) -> Pose:
    """Group error Xhat @ X^-1; identity iff estimate equals truth."""
    return Pose(*_pose_error_raw(estimate.dcm, estimate.position, truth.dcm, truth.position))


def map_errors(state: ObserverState, truth: GroundTruth) -> np.ndarray:
    """(..., l, 3) array of C_ea @ phat_i - C_ba @ p_i."""
    return state.landmarks @ _t(state.pose.dcm) - truth.landmarks @ _t(truth.pose.dcm)


def relative_map_errors(state: ObserverState, truth: GroundTruth) -> np.ndarray:
    """(..., l, 3) array of estimated-relative minus true-relative landmark positions."""
    est = (state.landmarks - state.pose.position[..., None, :]) @ _t(state.pose.dcm)
    tru = (truth.landmarks - truth.pose.position[..., None, :]) @ _t(truth.pose.dcm)
    return est - tru


def _energy(err_dcm: np.ndarray, err_position: np.ndarray, map_errs: np.ndarray):
    diff = np.eye(4) - homogeneous(err_dcm, err_position)
    return 0.5 * (diff * diff).sum(axis=(-2, -1)) + (map_errs * map_errs).sum(axis=(-2, -1))


def lyapunov(pose_err: Pose, map_errs) -> float:
    """0.5 * ||I4 - Xtilde||_F^2 + sum of squared map-error norms."""
    map_errs = np.atleast_2d(np.asarray(map_errs, dtype=float)) if len(map_errs) else np.zeros((0, 3))
    return float(_energy(pose_err.dcm, pose_err.position, map_errs))


def evaluate(state: ObserverState, truth: GroundTruth, attitude_source_ok=True):
    """Error record of one instant, computed on the raw pose arrays.

    For a block of n instants, ``state`` holds stacked estimates (pose fields
    (n, 3, 3) and (n, 3), landmarks (n, l, 3), times (n,)), ``truth`` the
    stacked truth at the same times and ``attitude_source_ok`` n flags; the
    result is then the list of the n records, each with the bits of the
    single-instant call.
    """
    err_dcm, err_position = _pose_error_raw(
        state.pose.dcm, state.pose.position, truth.pose.dcm, truth.pose.position
    )
    m = map_errors(state, truth)
    energy = _energy(err_dcm, err_position, m)
    angle = rotation_angle(err_dcm)
    position_error = vector_norm(err_position)
    map_error = np.linalg.norm(m, axis=-1)
    relative_map_error = np.linalg.norm(relative_map_errors(state, truth), axis=-1)
    if np.ndim(state.time) == 0:
        return ErrorRecord(
            state.time, float(energy), angle, float(position_error),
            map_error, relative_map_error, attitude_source_ok,
        )
    columns = (state.time, energy, angle, position_error)
    return [
        ErrorRecord(*row)
        for row in zip(
            *(np.asarray(c).tolist() for c in columns),
            map_error,
            relative_map_error,
            np.asarray(attitude_source_ok).tolist(),
        )
    ]
