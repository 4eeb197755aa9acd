"""Landmark-aided pose observer on SE(3).

The filter propagates a pose estimate and a landmark map from body-frame
angular velocity, velocity, and relative landmark measurements. Each
equation below is one function of this module, and ``step`` composes them:

    innovations:                innov_i = C_ea @ (p_hat_i - r_hat) - s_meas_i
    attitude_error:             e = vee( (C_ba @ C_ea.T - C_ea @ C_ba.T) / 2 )
    corrected_angular_velocity: omega_hat = omega_meas - k1 * e
    corrected_velocity:         v_hat = v_meas + W @ C_ea @ r_hat
                                        + k2 * sum_i innov_i
                                        - k3 * (C_ea @ r_hat + s_meas_1)
    landmark_rates:             d/dt p_hat_i = C_ea.T @ (W @ C_ea @ p_hat_i
                                                         - k2 * innov_i)
    step:                       d/dt Xhat = Xhat @ [[hat(omega_hat), v_hat], [0, 0]]

where W = hat(omega_hat - omega_meas), C_ea is the datum-to-body map of the
*estimated* pose and C_ba the attitude used by the corrections (the true one,
or the one ``resolve_attitude`` reconstructs from the landmarks).
Discretization is Lie-Euler on SE(3) for the pose (keeps the estimate on the
group) and explicit Euler for the landmarks; all correction terms are
evaluated at the pre-step state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attitude as attitude_mod
from .errors import DegenerateGeometry, EmptyMap, NonFiniteState
from .liegroup import Pose, compose_raw, exp_se3, hat, reorthonormalize, vee
from .simulator import MeasurementFrame


@dataclass(frozen=True)
class Gains:
    """Correction gains, all 1/s. k1: attitude, k2: map/velocity, k3: position."""

    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"gain {name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ObserverState:
    """Pose estimate plus landmark-position estimates (datum frame, meters)."""

    pose: Pose
    landmarks: np.ndarray  # (l, 3)
    time: float = 0.0

    def __post_init__(self):
        lm = np.atleast_2d(np.asarray(self.landmarks, dtype=float))
        object.__setattr__(self, "landmarks", lm)

    @property
    def num_landmarks(self) -> int:
        return self.landmarks.shape[0]


def innovations(state: ObserverState, meas: MeasurementFrame) -> np.ndarray:
    """All landmark residuals stacked as an (l, 3) array."""
    c_ea = state.pose.dcm
    return (state.landmarks - state.pose.position) @ c_ea.T - meas.landmark_obs


def attitude_error(c_ba: np.ndarray, c_ea: np.ndarray) -> np.ndarray:
    """vee of the skew part of C_ba @ C_ea.T; zero iff the attitudes agree."""
    m = c_ba @ c_ea.T
    return vee(0.5 * (m - m.T))


def corrected_angular_velocity(
    meas: MeasurementFrame, e: np.ndarray, gains: Gains
) -> np.ndarray:
    return meas.omega - gains.k1 * e


def corrected_velocity(
    state: ObserverState,
    meas: MeasurementFrame,
    w: np.ndarray,
    s_tilde: np.ndarray,
    gains: Gains,
) -> np.ndarray:
    """Velocity input of the pose update, given w = hat(omega_hat - omega_meas)
    and the innovations; the k3 term anchors on landmark 0."""
    if state.num_landmarks == 0:
        raise EmptyMap("corrected_velocity needs at least one landmark")
    body_pos = state.pose.dcm @ state.pose.position
    return (
        meas.velocity
        + w @ body_pos
        + gains.k2 * s_tilde.sum(axis=0)
        - gains.k3 * (body_pos + meas.landmark_obs[0])
    )


def landmark_rates(
    state: ObserverState, w: np.ndarray, s_tilde: np.ndarray, gains: Gains
) -> np.ndarray:
    """(l, 3) datum-frame velocities of the landmark estimates, given
    w = hat(omega_hat - omega_meas) and the innovations."""
    c_ea = state.pose.dcm
    return ((state.landmarks @ c_ea.T) @ w.T - gains.k2 * s_tilde) @ c_ea


def resolve_attitude(
    state: ObserverState,
    meas: MeasurementFrame,
    fallback: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Datum-to-body attitude solved from the landmark observations and the
    current estimates, plus a health flag.

    A degenerate landmark geometry falls back to the caller-supplied previous
    solution (flagged False); with no fallback the DegenerateGeometry
    propagates.
    """
    datum = state.landmarks - state.pose.position
    try:
        return attitude_mod.solve_attitude(meas.landmark_obs, datum), True
    except DegenerateGeometry:
        if fallback is not None:
            return fallback, False
        raise


def step(
    state: ObserverState,
    meas: MeasurementFrame,
    c_ba: np.ndarray,
    gains: Gains,
    dt: float,
) -> ObserverState:
    """Advance the estimate by one time step of length dt, with c_ba the
    datum-to-body attitude used by the corrections.

    The pose moves on raw arrays: the Lie-Euler increment is checked finite
    before it is applied, the result is projected back onto SO(3), and the
    new pose and map are checked finite; no pose is validated on the way.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    c_ea = state.pose.dcm
    e = attitude_error(c_ba, c_ea)
    omega_hat = corrected_angular_velocity(meas, e, gains)
    w = hat(omega_hat - meas.omega)
    s_tilde = innovations(state, meas)
    v_hat = corrected_velocity(state, meas, w, s_tilde, gains)

    # exp_se3 rejects a non-finite increment, so NaN never reaches the SVD of
    # the projection.
    try:
        motion = exp_se3(omega_hat * dt, v_hat * dt)
    except NonFiniteState:
        raise NonFiniteState(f"non-finite pose increment at t={state.time}") from None
    dcm, position = compose_raw(c_ea, state.pose.position, motion.dcm, motion.position)
    dcm = reorthonormalize(dcm)

    new_landmarks = state.landmarks + dt * landmark_rates(state, w, s_tilde, gains)

    if not (np.isfinite(new_landmarks).all() and np.isfinite(position).all()):
        raise NonFiniteState(f"non-finite state after step at t={state.time}")
    return ObserverState(Pose.unchecked(dcm, position), new_landmarks, state.time + dt)
