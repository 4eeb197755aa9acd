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

from .liegroup import Pose, compose_raw, homogeneous, inverse_raw, rotation_angle
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


def _pose_error_raw(estimate: Pose, truth: Pose):
    """(dcm, position) of Xhat @ X^-1, unvalidated."""
    return compose_raw(estimate.dcm, estimate.position, *inverse_raw(truth.dcm, truth.position))


def pose_error(estimate: Pose, truth: Pose) -> Pose:
    """Group error Xhat @ X^-1; identity iff estimate equals truth."""
    return Pose(*_pose_error_raw(estimate, truth))


def map_errors(state: ObserverState, truth: GroundTruth) -> np.ndarray:
    """(l, 3) array of C_ea @ phat_i - C_ba @ p_i."""
    return state.landmarks @ state.pose.dcm.T - truth.landmarks @ truth.pose.dcm.T


def relative_map_errors(state: ObserverState, truth: GroundTruth) -> np.ndarray:
    """(l, 3) array of estimated-relative minus true-relative landmark positions."""
    est = (state.landmarks - state.pose.position) @ state.pose.dcm.T
    tru = (truth.landmarks - truth.pose.position) @ truth.pose.dcm.T
    return est - tru


def _energy(err_dcm: np.ndarray, err_position: np.ndarray, map_errs: np.ndarray) -> float:
    diff = np.eye(4) - homogeneous(err_dcm, err_position)
    return float(0.5 * (diff * diff).sum() + (map_errs * map_errs).sum())


def lyapunov(pose_err: Pose, map_errs) -> float:
    """0.5 * ||I4 - Xtilde||_F^2 + sum of squared map-error norms."""
    map_errs = np.atleast_2d(np.asarray(map_errs, dtype=float)) if len(map_errs) else np.zeros((0, 3))
    return _energy(pose_err.dcm, pose_err.position, map_errs)


def evaluate(
    state: ObserverState, truth: GroundTruth, attitude_source_ok: bool = True
) -> ErrorRecord:
    """Full error record for one instant, computed on the raw pose arrays."""
    err_dcm, err_position = _pose_error_raw(state.pose, truth.pose)
    m = map_errors(state, truth)
    rel = relative_map_errors(state, truth)
    return ErrorRecord(
        time=state.time,
        lyapunov=_energy(err_dcm, err_position, m),
        attitude_error_angle=rotation_angle(err_dcm),
        position_error=float(np.linalg.norm(err_position)),
        map_error=np.linalg.norm(m, axis=1),
        relative_map_error=np.linalg.norm(rel, axis=1),
        attitude_source_ok=attitude_source_ok,
    )
