"""Error metrics and the Lyapunov-style energy used for stability checks.

Error definitions:
    * pose error  Xtilde = Xhat @ X^-1 (group product; identity iff exact)
    * map error   ptilde_i = C_ea @ phat_i - C_ba @ p_i
    * relative map error: body-frame landmark position from the estimates
      minus the same from the truth; blind to a shared datum-frame shift of
      the estimated pose and map (the unobservable gauge).
    * energy      V = 0.5 * ||I4 - Xtilde||_F^2 + sum_i ||ptilde_i||^2

An ``ErrorRecord`` holds them at one instant, or at n instants stacked along a
leading axis of every field, as ``GroundTruth`` does. ``evaluate`` works on the
plain (dcm, position) arrays of ``ObserverState`` and ``GroundTruth``;
``pose_error`` and ``lyapunov`` are the public one-pose forms, on checked
``Pose`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .liegroup import Pose, homogeneous, rotation_angle, vector_norm
from .observer import ObserverState
from .simulator import GroundTruth


@dataclass(frozen=True, eq=False)
class ErrorRecord:
    """Errors at one instant, or at n instants stacked along a leading axis;
    the runner writes one CSV row per instant. Records compare by identity (eq=False)."""

    time: np.ndarray  # s, () or (n,)
    lyapunov: np.ndarray  # () or (n,)
    attitude_error_angle: np.ndarray  # rad, () or (n,)
    position_error: np.ndarray  # m, norm of the pose-error translation, () or (n,)
    map_error: np.ndarray  # m, landmark norms, (l,) or (n, l)
    relative_map_error: np.ndarray  # m, landmark norms, (l,) or (n, l)
    attitude_source_ok: np.ndarray  # bool, () or (n,)

    def __len__(self) -> int:
        return len(self.time)

    def columns(self) -> list[np.ndarray]:
        """The fields in declaration order, which is the CSV's column order."""
        return [getattr(self, f.name) for f in fields(self)]

    def row(self, i: int) -> "ErrorRecord":
        """The record of the i-th instant of a stacked record."""
        return ErrorRecord(*(c[i] for c in self.columns()))


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: the inverse of a stack of rotations."""
    return np.swapaxes(m, -1, -2)


def _column(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for matrices m (..., 3, 3) and vectors v (..., 3)."""
    return (m @ v[..., None])[..., 0]


def _pose_error_raw(est_dcm, est_position, true_dcm, true_position):
    """(dcm, position) of Xhat @ X^-1 over any leading axes, unvalidated: the
    arithmetic of compose_raw with the inverse (C.T, -C @ p) of the truth."""
    inv_position = -_column(true_dcm, true_position)
    return _t(true_dcm) @ est_dcm, _column(_t(est_dcm), inv_position) + est_position


def pose_error(estimate: Pose, truth: Pose) -> Pose:
    """Group error Xhat @ X^-1; identity iff estimate equals truth."""
    return Pose(*_pose_error_raw(estimate.dcm, estimate.position, truth.dcm, truth.position))


def map_errors(state: ObserverState, truth: GroundTruth) -> np.ndarray:
    """(..., l, 3) array of C_ea @ phat_i - C_ba @ p_i."""
    return state.landmarks @ _t(state.dcm) - truth.landmarks @ _t(truth.dcm)


def relative_map_errors(state: ObserverState, truth: GroundTruth) -> np.ndarray:
    """(..., l, 3) array of estimated-relative minus true-relative landmark positions."""
    est = (state.landmarks - state.position[..., None, :]) @ _t(state.dcm)
    tru = (truth.landmarks - truth.position[..., None, :]) @ _t(truth.dcm)
    return est - tru


def _energy(err_dcm: np.ndarray, err_position: np.ndarray, map_errs: np.ndarray):
    diff = np.eye(4) - homogeneous(err_dcm, err_position)
    return 0.5 * (diff * diff).sum(axis=(-2, -1)) + (map_errs * map_errs).sum(axis=(-2, -1))


def lyapunov(pose_err: Pose, map_errs) -> float:
    """0.5 * ||I4 - Xtilde||_F^2 + sum of squared map-error norms."""
    map_errs = np.atleast_2d(np.asarray(map_errs, dtype=float)) if len(map_errs) else np.zeros((0, 3))
    return float(_energy(pose_err.dcm, pose_err.position, map_errs))


def evaluate(state: ObserverState, truth: GroundTruth, attitude_source_ok=True):
    """Error record of one instant, or of n instants stacked along a leading axis.

    For a block of n instants, ``state`` holds stacked estimates (dcm
    (n, 3, 3), position (n, 3), landmarks (n, l, 3), times (n,)), ``truth`` the
    stacked truth at the same times and ``attitude_source_ok`` n flags; every
    field of the record then has the leading axis n, and each row has the bits
    of the single-instant call. ``time`` and ``attitude_source_ok`` are the
    inputs themselves, not copies.
    """
    err_dcm, err_position = _pose_error_raw(state.dcm, state.position, truth.dcm, truth.position)
    m = map_errors(state, truth)
    return ErrorRecord(
        state.time,
        _energy(err_dcm, err_position, m),
        rotation_angle(err_dcm),
        vector_norm(err_position),
        np.linalg.norm(m, axis=-1),
        np.linalg.norm(relative_map_errors(state, truth), axis=-1),
        attitude_source_ok,
    )
