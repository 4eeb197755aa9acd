"""Error metrics and the Lyapunov-style energy used for stability checks.

Error definitions:
    * pose error  Xtilde = Xhat @ X^-1 (group product; identity iff exact)
    * map error   ptilde_i = C_ea @ phat_i - C_ba @ p_i
    * relative map error: body-frame landmark position from the estimates
      minus the same from the truth; blind to a shared datum-frame shift of
      the estimated pose and map (the unobservable gauge).
    * energy      V = 0.5 * ||I4 - Xtilde||_F^2 + sum_i ||ptilde_i||^2

``evaluate`` scores n >= 1 stacked instants in one call, a run's record 0 as a
1-instant block like any other, and an ``ErrorRecord`` holds the n instants
stacked along a leading axis of every field; ``ErrorRecord.row`` picks one.
``evaluate`` works on the plain (dcm, position) arrays of ``ObserverState``
and ``GroundTruth``, and is the one public path to these numbers. The truth
brings the record's instants and the true body-frame landmarks, so neither is
made again here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .liegroup import homogeneous, norms_from_squares, rotation_angle, vector_norm
from .observer import ObserverState
from .simulator import GroundTruth, offsets, to_body


@dataclass(frozen=True, eq=False)
class ErrorRecord:
    """Errors at n instants stacked along a leading axis, or at one instant
    (``row``); the runner writes one CSV row per instant. Records compare by
    identity (eq=False)."""

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
    pose product a @ b = (C_b C_a, C_a^T p_b + p_a) with the inverse
    (C.T, -C @ p) of the truth as b."""
    inv_position = -_column(true_dcm, true_position)
    return _t(true_dcm) @ est_dcm, _column(_t(est_dcm), inv_position) + est_position


def map_errors(state: ObserverState, truth: GroundTruth) -> np.ndarray:
    """(..., l, 3) array of C_ea @ phat_i - C_ba @ p_i."""
    return to_body(state.landmarks, state.dcm) - to_body(truth.landmarks, truth.dcm)


def relative_map_errors(state: ObserverState, truth: GroundTruth) -> np.ndarray:
    """(..., l, 3) array of estimated-relative minus true-relative landmark
    positions; the true ones are the truth's ``landmarks_body``."""
    return to_body(offsets(state.landmarks, state.position), state.dcm) - truth.landmarks_body


def _energy(err_dcm: np.ndarray, err_position: np.ndarray, map_sq: np.ndarray):
    """V = 0.5 * ||I4 - Xtilde||_F^2 + sum of squared map-error norms, over any
    leading axes, from the squared map-error entries ``map_sq``."""
    diff = np.eye(4) - homogeneous(err_dcm, err_position)
    return 0.5 * (diff * diff).sum(axis=(-2, -1)) + map_sq.sum(axis=(-2, -1))


def evaluate(state: ObserverState, truth: GroundTruth, attitude_source_ok):
    """Error record of n >= 1 instants stacked along a leading axis.

    ``state`` holds stacked estimates (dcm (n, 3, 3), position (n, 3),
    landmarks (n, l, 3)), ``truth`` the stacked truth at the instants they are
    scored at and ``attitude_source_ok`` their n flags; every field of the
    record has the leading axis n, and each row has the bits of a 1-instant
    call. ``time`` is ``truth.time`` and ``attitude_source_ok`` the flags given,
    the inputs themselves, not copies. The map errors are squared once, in
    place, for the energy and for their norms.
    """
    err_dcm, err_position = _pose_error_raw(state.dcm, state.position, truth.dcm, truth.position)
    sq = map_errors(state, truth)
    np.square(sq, out=sq)
    rel_sq = relative_map_errors(state, truth)
    np.square(rel_sq, out=rel_sq)
    return ErrorRecord(
        truth.time,
        _energy(err_dcm, err_position, sq),
        rotation_angle(err_dcm),
        vector_norm(err_position),
        norms_from_squares(sq),
        norms_from_squares(rel_sq),
        attitude_source_ok,
    )
