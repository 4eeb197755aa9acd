"""Landmark-aided pose observer on SE(3).

The filter propagates a pose estimate and a landmark map from body-frame
angular velocity, velocity, and relative landmark measurements:

    d/dt Xhat = Xhat @ [[hat(omega_hat), v_hat], [0, 0]]
    omega_hat = omega_meas - k1 * e
    e         = vee( (C_ba @ C_ea.T - C_ea @ C_ba.T) / 2 )
    v_hat     = v_meas + hat(omega_hat - omega_meas) @ C_ea @ r_hat
                + k2 * sum_i innov_i - k3 * (C_ea @ r_hat + s_meas_1)
    d/dt p_hat_i = C_ea.T @ (hat(omega_hat - omega_meas) @ C_ea @ p_hat_i
                             - k2 * innov_i)

where innov_i = C_ea @ (p_hat_i - r_hat) - s_meas_i and C_ea is the
datum-to-body map of the *estimated* pose. Discretization is Lie-Euler on
SE(3) for the pose (keeps the estimate on the group) and explicit Euler for
the landmarks; all correction terms are evaluated at the pre-step state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attitude as attitude_mod
from .errors import DegenerateGeometry, EmptyMap, NonFiniteState
from .liegroup import Pose, compose_raw, exp_se3, hat, reorthonormalize, vee

TRUE_ATTITUDE = "true_attitude"
RECONSTRUCTED = "reconstructed"


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


@dataclass(frozen=True)
class MeasurementFrame:
    """One time step of body-frame sensor data."""

    omega: np.ndarray  # rad/s
    velocity: np.ndarray  # m/s
    landmark_obs: np.ndarray  # (l, 3), m
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))
        object.__setattr__(
            self, "landmark_obs", np.atleast_2d(np.asarray(self.landmark_obs, dtype=float))
        )


@dataclass(frozen=True)
class AttitudeSource:
    """Where the datum-to-body attitude used by the correction terms comes from.

    In ``true_attitude`` mode ``true_dcm`` carries the true map for the current
    step; in ``reconstructed`` mode the attitude is solved from the landmark
    observations and the current estimates.
    """

    mode: str
    true_dcm: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in (TRUE_ATTITUDE, RECONSTRUCTED):
            raise ValueError(f"unknown attitude mode: {self.mode!r}")
        if self.mode == TRUE_ATTITUDE and self.true_dcm is None:
            raise ValueError("true_attitude mode requires true_dcm")


def innovation(state: ObserverState, meas: MeasurementFrame, i: int) -> np.ndarray:
    """Residual C_ea @ (p_hat_i - r_hat) - s_meas_i for landmark i (0-based)."""
    if not 0 <= i < state.num_landmarks:
        raise IndexError(f"landmark index {i} out of range")
    c_ea = state.pose.dcm
    return c_ea @ (state.landmarks[i] - state.pose.position) - meas.landmark_obs[i]


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
    omega_hat: np.ndarray,
    gains: Gains,
) -> np.ndarray:
    """Velocity input of the pose update; the k3 term anchors on landmark 0."""
    return _corrected_velocity(
        state, meas, gains, hat(omega_hat - meas.omega), innovations(state, meas)
    )


def _corrected_velocity(
    state: ObserverState,
    meas: MeasurementFrame,
    gains: Gains,
    w: np.ndarray,
    s_tilde: np.ndarray,
) -> np.ndarray:
    """corrected_velocity given w = hat(omega_hat - omega_meas) and the innovations."""
    if state.num_landmarks == 0:
        raise EmptyMap("corrected_velocity needs at least one landmark")
    body_pos = state.pose.dcm @ state.pose.position
    return (
        meas.velocity
        + w @ body_pos
        + gains.k2 * s_tilde.sum(axis=0)
        - gains.k3 * (body_pos + meas.landmark_obs[0])
    )


def landmark_rate(
    state: ObserverState,
    meas: MeasurementFrame,
    omega_hat: np.ndarray,
    gains: Gains,
    i: int,
) -> np.ndarray:
    """Datum-frame velocity of landmark estimate i (0-based)."""
    if not 0 <= i < state.num_landmarks:
        raise IndexError(f"landmark index {i} out of range")
    c_ea = state.pose.dcm
    alpha = hat(omega_hat - meas.omega) @ (c_ea @ state.landmarks[i]) - gains.k2 * innovation(
        state, meas, i
    )
    return c_ea.T @ alpha


def resolve_attitude(
    state: ObserverState,
    meas: MeasurementFrame,
    source: AttitudeSource,
    fallback: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Datum-to-body attitude for the current step plus a health flag.

    In reconstructed mode a degenerate landmark geometry falls back to the
    caller-supplied previous solution (flagged False); with no fallback the
    DegenerateGeometry propagates.
    """
    if source.mode == TRUE_ATTITUDE:
        return source.true_dcm, True
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
    source: AttitudeSource,
    gains: Gains,
    dt: float,
    c_ba: np.ndarray | None = None,
) -> ObserverState:
    """Advance the estimate by one time step of length dt.

    The pose moves on raw arrays: the Lie-Euler increment is checked finite
    before it is applied, the result is projected back onto SO(3), and the
    new pose and map are checked finite; no pose is validated on the way.
    ``c_ba`` lets the caller pass an already-resolved attitude (e.g. a
    degeneracy fallback); otherwise it is taken from ``source``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if c_ba is None:
        c_ba, _ = resolve_attitude(state, meas, source)

    c_ea = state.pose.dcm
    e = attitude_error(c_ba, c_ea)
    omega_hat = corrected_angular_velocity(meas, e, gains)
    w = hat(omega_hat - meas.omega)
    s_tilde = innovations(state, meas)
    v_hat = _corrected_velocity(state, meas, gains, w, s_tilde)

    # exp_se3 rejects a non-finite increment, so NaN never reaches the SVD of
    # the projection.
    try:
        motion = exp_se3(omega_hat * dt, v_hat * dt)
    except NonFiniteState:
        raise NonFiniteState(f"non-finite pose increment at t={state.time}") from None
    dcm, position = compose_raw(c_ea, state.pose.position, motion.dcm, motion.position)
    dcm = reorthonormalize(dcm)

    alpha = (state.landmarks @ c_ea.T) @ w.T - gains.k2 * s_tilde
    new_landmarks = state.landmarks + dt * (alpha @ c_ea)

    if not (np.isfinite(new_landmarks).all() and np.isfinite(position).all()):
        raise NonFiniteState(f"non-finite state after step at t={state.time}")
    return ObserverState(Pose.unchecked(dcm, position), new_landmarks, state.time + dt)
