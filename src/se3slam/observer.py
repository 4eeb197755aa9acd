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
Discretization is Lie-Euler on SE(3) for the pose, which keeps C_ea on SO(3)
to rounding (``step`` projects it back only on drift), and explicit Euler for
the landmarks, with every correction at the pre-step state. 3-vectors pass as
Python floats; numpy runs the (l, 3) terms, from P_hat @ C_ea.T formed once.
An ``ObserverState`` holds the pose as the plain arrays C_ea and r_hat, and
the map, and checks none of them; ``step`` checks the state it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attitude as attitude_mod
from .errors import DegenerateGeometry, EmptyMap, NonFiniteState
from .liegroup import compose_raw, exp_se3, hat, reorthonormalize, rotation_drift, vee
from .simulator import MeasurementFrame, Vec3, require_finite

# |C C^T - I|_F above which step projects onto SO(3); 1e5 steps drift ~4e-14.
DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class Gains:
    """Correction gains, all 1/s. k1: attitude, k2: map/velocity, k3: position."""

    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        require_finite(self)
        for name in ("k1", "k2", "k3"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"gain {name} must be >= 0, got {value}")


@dataclass(frozen=True, eq=False)
class ObserverState:
    """Pose estimate (dcm, position) plus landmark-position estimates (datum
    frame, meters) at one instant, or at n instants stacked along a leading
    axis of every field. Holds the arrays it is given, unchecked, as
    ``GroundTruth`` does. Compares by identity (eq=False): its fields are arrays."""

    dcm: np.ndarray  # datum-to-body, (3, 3) or (n, 3, 3)
    position: np.ndarray  # m, datum frame, (3,) or (n, 3)
    landmarks: np.ndarray  # (l, 3) or (n, l, 3)
    time: float = 0.0  # s, or (n,)


def innovations(body_landmarks: np.ndarray, body_position, meas: MeasurementFrame) -> np.ndarray:
    """All landmark residuals stacked as an (l, 3) array, from the estimates in
    the body frame: body_landmarks = P_hat @ C_ea.T, body_position = C_ea @ r_hat."""
    return body_landmarks - body_position - meas.landmark_obs


def attitude_error(c_ba: np.ndarray, c_ea: np.ndarray) -> Vec3:
    """vee of the skew part of C_ba @ C_ea.T; zero iff the attitudes agree."""
    (_, m01, m02), (m10, _, m12), (m20, m21, _) = (c_ba @ c_ea.T).tolist()
    s01, s02, s12 = 0.5 * (m01 - m10), 0.5 * (m02 - m20), 0.5 * (m12 - m21)
    return tuple(vee([[0.0, s01, s02], [-s01, 0.0, s12], [-s02, -s12, 0.0]]).tolist())


def corrected_angular_velocity(meas: MeasurementFrame, e, gains: Gains) -> Vec3:
    (o0, o1, o2), (e0, e1, e2), k1 = meas.omega.tolist(), e, gains.k1
    return o0 - k1 * e0, o1 - k1 * e1, o2 - k1 * e2


def corrected_velocity(meas: MeasurementFrame, w, body_position, s_tilde, gains: Gains) -> Vec3:
    """Velocity input of the pose update, given w = hat(omega_hat - omega_meas),
    body_position = C_ea @ r_hat and the innovations; k3 anchors on landmark 0."""
    if len(s_tilde) == 0:
        raise EmptyMap("corrected_velocity needs at least one landmark")
    (x, y, z), (w0, w1, w2), (w3, w4, w5), (w6, w7, w8) = body_position, *w.tolist()
    (v0, v1, v2), (s0, s1, s2) = meas.velocity.tolist(), s_tilde.sum(axis=0).tolist()
    (a0, a1, a2), k2, k3 = meas.landmark_obs[0].tolist(), gains.k2, gains.k3
    return (
        v0 + (w0 * x + w1 * y + w2 * z) + k2 * s0 - k3 * (x + a0),
        v1 + (w3 * x + w4 * y + w5 * z) + k2 * s1 - k3 * (y + a1),
        v2 + (w6 * x + w7 * y + w8 * z) + k2 * s2 - k3 * (z + a2),
    )


def landmark_rates(body_landmarks, w, s_tilde, c_ea, gains: Gains) -> np.ndarray:
    """(l, 3) datum-frame velocities of the landmark estimates, given body_landmarks
    = P_hat @ C_ea.T, w = hat(omega_hat - omega_meas) and the innovations."""
    return (body_landmarks @ w.T - gains.k2 * s_tilde) @ c_ea


def resolve_attitude(
    state: ObserverState,
    meas: MeasurementFrame,
    fallback: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Datum-to-body attitude solved from the landmark observations and the
    current estimates, plus a health flag.

    A degenerate landmark geometry falls back to the caller-supplied previous
    solution (flagged False); with no fallback an error of the same class
    names the time and where the datum directions come from.
    """
    datum = state.landmarks - state.position
    try:
        return attitude_mod.solve_attitude(meas.landmark_obs, datum), True
    except DegenerateGeometry as exc:
        if fallback is not None:
            return fallback, False
        raise type(exc)(
            f"attitude solve at t={state.time}: {exc}; the datum directions are the "
            "estimated landmarks seen from the estimated position"
        ) from None


def step(
    state: ObserverState,
    meas: MeasurementFrame,
    c_ba: np.ndarray,
    gains: Gains,
    dt: float,
) -> ObserverState:
    """Advance the estimate by one time step of length dt, with c_ba the
    datum-to-body attitude used by the corrections. The increment is checked
    finite before it is applied and the new pose and map after; the attitude
    is projected onto SO(3) only when its drift exceeds DRIFT_TOL. Numpy's
    error state is the caller's: an overflow may warn before NonFiniteState."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    c_ea, position = state.dcm, state.position
    body_landmarks, body_position = state.landmarks @ c_ea.T, (c_ea @ position).tolist()
    o0, o1, o2 = corrected_angular_velocity(meas, attitude_error(c_ba, c_ea), gains)
    m0, m1, m2 = meas.omega.tolist()
    w = hat((o0 - m0, o1 - m1, o2 - m2))
    s_tilde = innovations(body_landmarks, body_position, meas)
    v0, v1, v2 = corrected_velocity(meas, w, body_position, s_tilde, gains)

    try:
        motion = exp_se3((o0 * dt, o1 * dt, o2 * dt), (v0 * dt, v1 * dt, v2 * dt))
    except NonFiniteState:
        raise NonFiniteState(f"non-finite pose increment at t={state.time}") from None
    dcm, position = compose_raw(c_ea, position, *motion)
    if rotation_drift(dcm) > DRIFT_TOL:
        dcm = reorthonormalize(dcm)

    new_landmarks = state.landmarks + dt * landmark_rates(body_landmarks, w, s_tilde, c_ea, gains)

    if not (np.isfinite(new_landmarks).all() and all(map(math.isfinite, position.tolist()))):
        raise NonFiniteState(f"non-finite state after step at t={state.time}")
    return ObserverState(dcm, position, new_landmarks, state.time + dt)
