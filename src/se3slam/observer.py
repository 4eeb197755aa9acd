"""Landmark-aided pose observer on SE(3).

The filter propagates a pose estimate and a landmark map from body-frame
angular velocity, velocity, and relative landmark measurements:

    innovations:       s_tilde_i = C_ea @ (p_hat_i - r_hat) - s_meas_i
    attitude error:    e = vee( (C_ba @ C_ea.T - C_ea @ C_ba.T) / 2 )
    angular velocity:  omega_hat = omega_meas - k1 * e
    velocity:          v_hat = v_meas + W @ C_ea @ r_hat + k2 * sum_i s_tilde_i
                               - k3 * (C_ea @ r_hat + s_meas_1)
    landmark rates:    d/dt p_hat_i = C_ea.T @ (W @ C_ea @ p_hat_i - k2 * s_tilde_i)
    pose:              d/dt Xhat = Xhat @ [[hat(omega_hat), v_hat], [0, 0]]

where W = hat(u), u = omega_hat - omega_meas = -k1 * e, C_ea is the
datum-to-body map of the *estimated* pose and C_ba the attitude used by the
corrections: the true one, or in reconstructed mode one solved from the
observations and the map. Discretization is Lie-Euler on SE(3) for the pose,
which keeps C_ea on SO(3) to rounding, and explicit Euler for the landmarks,
with every correction at the pre-step state. ``step`` projects C_ea back onto
SO(3) only when |C C^T - I|_F exceeds DRIFT_TOL; no bundled scenario gets there,
as the drift stays at 2e-14 to 4e-14 over their 4000 steps and at 3.5e-14 after
1e5.

``step`` is a block kernel: it makes n consecutive steps in one call, from n
stacked measurements, and takes no other shape. It continues from the last
instant of a stacked state and returns the stack of the n states it made, so
its output is its next call's input. The pose of each step runs in
Python floats (C = C_ea, r_hat, e, omega_hat, v_hat, the SE(3) increment, the
composition and the drift check). All (l, 3) work is two products per step:
[O | 1 | P_hat] @ M = [P_hat' | s_tilde], with O the (l, 3) observations,
b = C @ r_hat and M the (7, 6) matrix whose rows are

    O rows:      [dt k2 C                   | -I  ]
    ones row:    [dt k2 b^T C               | -b^T]
    P_hat rows:  [I + dt C^T (W^T - k2 I) C | C^T ]

the innovation and landmark-rate equations re-associated, so each landmark's
innovation is formed before the sum that feeds v_hat (a sum of landmarks 1e306 m
away overflows where their differences do not). The second product is that
sum, 1^T @ s_tilde: on OpenBLAS it has the bits of s_tilde.sum(axis=0) at a
fifth of its cost for 256 landmarks. In reconstructed mode step k
solves its C_ba from O_k and the datum directions of row k's map, the map step
k - 1 made, seen from the float position (``resolve_attitude``), so a block of
either mode is one call.

An ``ObserverState`` holds the pose as the plain arrays C_ea and r_hat, and the
map, at m >= 1 instants stacked, and checks none of them; ``step`` checks the
shapes of the state it is given and the values of the states it returns. It
has no clock: the instants are the measurements' own
(``MeasurementFrame.time``), and ``step`` names them in its errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attitude as attitude_mod
from .errors import DegenerateGeometry, NonFiniteState
from .liegroup import exp_se3_floats, reorthonormalize, rotation_drift
from .liegroup import exp_se3, hat, vee  # noqa: F401  wrapped here by bench/tracer.py
from .simulator import MeasurementFrame, require_finite

# |C C^T - I|_F above which step projects onto SO(3).
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


def fastest_rate(gains: Gains, num_landmarks: int) -> float:
    """lambda_max (1/s), the fastest decay rate of the error linearized about
    the truth with the attitude exact and no rotation: the largest of k1
    (attitude), k2 (l - 1 times) and the roots of lambda^2 - T lambda + k2 k3,
    T = (l + 1) k2 + k3 (position and map). Explicit Euler at step dt is stable
    if and only if dt * lambda_max < 2. T is factored out of the larger root, so
    no square of a gain overflows."""
    k1, k2, k3 = gains.k1, gains.k2, gains.k3
    trace = (num_landmarks + 1) * k2 + k3
    if trace == 0.0:
        return k1
    return max(k1, trace * (1.0 + math.sqrt(1.0 - 4.0 * (k2 / trace) * (k3 / trace))) / 2.0)


@dataclass(frozen=True, eq=False)
class ObserverState:
    """Pose estimate (dcm, position) plus landmark-position estimates (datum
    frame, meters) at n >= 1 instants stacked along a leading axis of every
    field, a 1-instant stack for one instant. It holds no time: which instant
    a state belongs to is the caller's, whose truth carries it. Holds the
    arrays it is given, unchecked, as ``GroundTruth`` does. Compares by
    identity (eq=False): its fields are arrays."""

    dcm: np.ndarray  # datum-to-body, (n, 3, 3)
    position: np.ndarray  # m, datum frame, (n, 3)
    landmarks: np.ndarray  # (n, l, 3)


def resolve_attitude(body, datum, time: float, fallback: np.ndarray | None):
    """Datum-to-body attitude solved from the (l, 3) body-frame observations and
    datum directions, and a health flag. A degenerate geometry falls back to the
    last good solve ``fallback`` (flagged False); with none, an error of the same
    class names the time and where the datum directions come from."""
    try:
        return attitude_mod.solve_attitude(body, datum), True
    except DegenerateGeometry as exc:
        if fallback is not None:
            return fallback, False
        raise type(exc)(
            f"attitude solve at t={time}: {exc}; the datum directions are the "
            "estimated landmarks seen from the estimated position"
        ) from None


@np.errstate(over="ignore", invalid="ignore")
def step(
    state: ObserverState, meas: MeasurementFrame, c_ba, gains: Gains, dt: float, fallback=None
):
    """Advance the last instant of the stacked ``state`` (dcm (m, 3, 3),
    position (m, 3), landmarks (m, l, 3), m >= 1) by n time steps of length dt,
    given the n stacked measurements ``meas`` (``landmark_obs`` (n, l, 3),
    n, l >= 1) and the datum-to-body attitudes ``c_ba`` (n, 3, 3) used by the
    corrections. Returns (states, flags, last_good): the n new states stacked,
    which the next call continues from, the n attitude flags, and the last good
    solve, the next call's ``fallback``. An n-block call has the bits of n
    1-block calls. Step k reads its instant from ``meas.time[k]``, and an error
    in step k names that instant; step names no instant of its own, and its
    states carry none. The fields of ``meas`` and ``state``, and ``c_ba``, are
    read as arrays; any other shape of them raises ValueError naming the
    shape, as does a dt that is not finite and positive.

    With ``c_ba`` None (reconstructed mode), step k solves its attitude from O_k
    and the map step k - 1 made (``resolve_attitude``), falling back to the last
    good solve, ``fallback`` before the first, and flags each fallback False.
    With true attitudes every flag is True and ``fallback`` comes back as given.

    Each increment is checked finite before it is applied, and each new pose
    and map after; the attitude is projected onto SO(3) only when its drift
    exceeds DRIFT_TOL. ``step`` owns numpy's error state: overflow and invalid
    never warn inside it, so a blow-up is a Se3SlamError and never a warning."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    given = meas.time, meas.omega, meas.velocity, meas.landmark_obs, state.dcm, state.position
    time, omega, velocity, obs, est_dcm, est_position = (np.asarray(x, float) for x in given)
    est_map = np.asarray(state.landmarks, float)
    if obs.ndim != 3 or len(obs) == 0:
        raise ValueError(f"landmark_obs must be (n, l, 3) with n >= 1, got shape {obs.shape}")
    n, num_landmarks = obs.shape[:2]
    reconstructed = c_ba is None
    if not reconstructed and np.shape(c_ba) != (n, 3, 3):
        raise ValueError(f"c_ba must be ({n}, 3, 3) or None, got shape {np.shape(c_ba)}")
    if est_dcm.ndim != 3 or est_dcm.shape[1:] != (3, 3) or len(est_dcm) == 0:
        raise ValueError(f"state.dcm must be (m, 3, 3) with m >= 1, got shape {est_dcm.shape}")
    names = "time", "omega", "velocity", "state.position", "state.landmarks"
    shapes = (n,), (n, 3), (n, 3), (len(est_dcm), 3), (len(est_dcm), num_landmarks, 3)
    for name, value, shape in zip(names, (time, omega, velocity, est_position, est_map), shapes):
        if value.shape != shape:
            raise ValueError(f"{name} must be {shape}, got shape {value.shape}")
    if num_landmarks == 0:
        raise ValueError(f"landmark_obs must hold at least one landmark, got shape {obs.shape}")

    # Row k holds [O_k | 1 | P_hat_k | s_tilde_{k-1}]: step k multiplies its first seven
    # columns by M and writes [P_hat_{k+1} | s_tilde_k] into the last six of row k + 1.
    rows = np.empty((n + 1, num_landmarks, 10))
    rows[:n, :, :3] = obs
    rows[:n, :, 3] = 1.0
    rows[0, :, 4:7] = est_map[-1]
    m = np.empty((7, 6))
    m_entries = m.reshape(-1)
    ones, s_sum = np.ones(num_landmarks), np.empty(3)
    times, omegas, velocities = time.tolist(), omega.tolist(), velocity.tolist()
    anchors = obs[:, 0].tolist()
    attitudes = [None] * n if reconstructed else np.reshape(c_ba, (n, 9)).tolist()
    oks = [True] * n

    k1, k2, k3 = gains.k1, gains.k2, gains.k3
    dk2 = dt * k2
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = est_dcm[-1].ravel().tolist()
    r0, r1, r2 = est_position[-1].tolist()
    dcms, positions = [], []
    isfinite = math.isfinite
    for k, t in enumerate(times):
        if reconstructed:
            fallback, oks[k] = resolve_attitude(obs[k], rows[k, :, 4:7] - (r0, r1, r2), t, fallback)
            attitudes[k] = fallback.ravel().tolist()
        (m0, m1, m2), (q0, q1, q2, q3, q4, q5, q6, q7, q8) = omegas[k], attitudes[k]
        # e from the entries n_ij = C_ba[i] . C[j] of C_ba @ C.T; u = -k1 e; b = C r_hat.
        n01, n10 = q0 * c3 + q1 * c4 + q2 * c5, q3 * c0 + q4 * c1 + q5 * c2
        n02, n20 = q0 * c6 + q1 * c7 + q2 * c8, q6 * c0 + q7 * c1 + q8 * c2
        n12, n21 = q3 * c6 + q4 * c7 + q5 * c8, q6 * c3 + q7 * c4 + q8 * c5
        u0 = -k1 * (0.5 * (n21 - n12))
        u1 = -k1 * (0.5 * (n02 - n20))
        u2 = -k1 * (0.5 * (n10 - n01))
        b0 = c0 * r0 + c1 * r1 + c2 * r2
        b1 = c3 * r0 + c4 * r1 + c5 * r2
        b2 = c6 * r0 + c7 * r1 + c8 * r2

        # G = dt (W^T - k2 I) C, row by row; C^T G is the rate block of the P_hat rows.
        w0, w1, w2 = dt * u0, dt * u1, dt * u2
        g0 = -dk2 * c0 + w2 * c3 - w1 * c6
        g1 = -dk2 * c1 + w2 * c4 - w1 * c7
        g2 = -dk2 * c2 + w2 * c5 - w1 * c8
        g3 = -w2 * c0 - dk2 * c3 + w0 * c6
        g4 = -w2 * c1 - dk2 * c4 + w0 * c7
        g5 = -w2 * c2 - dk2 * c5 + w0 * c8
        g6 = w1 * c0 - w0 * c3 - dk2 * c6
        g7 = w1 * c1 - w0 * c4 - dk2 * c7
        g8 = w1 * c2 - w0 * c5 - dk2 * c8
        m_entries[:] = [
            dk2 * c0, dk2 * c1, dk2 * c2, -1.0, 0.0, 0.0,
            dk2 * c3, dk2 * c4, dk2 * c5, 0.0, -1.0, 0.0,
            dk2 * c6, dk2 * c7, dk2 * c8, 0.0, 0.0, -1.0,
            dk2 * (b0 * c0 + b1 * c3 + b2 * c6),
            dk2 * (b0 * c1 + b1 * c4 + b2 * c7),
            dk2 * (b0 * c2 + b1 * c5 + b2 * c8),
            -b0, -b1, -b2,
            1.0 + (c0 * g0 + c3 * g3 + c6 * g6), c0 * g1 + c3 * g4 + c6 * g7,
            c0 * g2 + c3 * g5 + c6 * g8, c0, c3, c6,
            c1 * g0 + c4 * g3 + c7 * g6, 1.0 + (c1 * g1 + c4 * g4 + c7 * g7),
            c1 * g2 + c4 * g5 + c7 * g8, c1, c4, c7,
            c2 * g0 + c5 * g3 + c8 * g6, c2 * g1 + c5 * g4 + c8 * g7,
            1.0 + (c2 * g2 + c5 * g5 + c8 * g8), c2, c5, c8,
        ]
        np.matmul(rows[k, :, :7], m, out=rows[k + 1, :, 4:])
        s0, s1, s2 = np.matmul(ones, rows[k + 1, :, 7:], out=s_sum).tolist()

        (v0, v1, v2), (a0, a1, a2) = velocities[k], anchors[k]
        v0 += (u1 * b2 - u2 * b1) + k2 * s0 - k3 * (b0 + a0)
        v1 += (u2 * b0 - u0 * b2) + k2 * s1 - k3 * (b1 + a1)
        v2 += (u0 * b1 - u1 * b0) + k2 * s2 - k3 * (b2 + a2)
        try:
            (e0, e1, e2, e3, e4, e5, e6, e7, e8), (d0, d1, d2) = exp_se3_floats(
                (m0 + u0) * dt, (m1 + u1) * dt, (m2 + u2) * dt, v0 * dt, v1 * dt, v2 * dt
            )
        except NonFiniteState:
            # A map that went non-finite at step k - 1 shows first here, in v_hat.
            if k and not np.isfinite(rows[k, :, 4:7]).all():
                raise NonFiniteState(f"non-finite state after step at t={times[k - 1]}") from None
            raise NonFiniteState(f"non-finite pose increment at t={t}") from None

        # The new pose (exp(...) C, C^T d + r_hat), projected if it drifted.
        r0 += c0 * d0 + c3 * d1 + c6 * d2
        r1 += c1 * d0 + c4 * d1 + c7 * d2
        r2 += c2 * d0 + c5 * d1 + c8 * d2
        c0, c1, c2, c3, c4, c5, c6, c7, c8 = (
            e0 * c0 + e1 * c3 + e2 * c6, e0 * c1 + e1 * c4 + e2 * c7, e0 * c2 + e1 * c5 + e2 * c8,
            e3 * c0 + e4 * c3 + e5 * c6, e3 * c1 + e4 * c4 + e5 * c7, e3 * c2 + e4 * c5 + e5 * c8,
            e6 * c0 + e7 * c3 + e8 * c6, e6 * c1 + e7 * c4 + e8 * c7, e6 * c2 + e7 * c5 + e8 * c8,
        )
        dcm = (c0, c1, c2), (c3, c4, c5), (c6, c7, c8)
        if rotation_drift(dcm) > DRIFT_TOL:
            dcm = reorthonormalize(dcm).tolist()
            (c0, c1, c2), (c3, c4, c5), (c6, c7, c8) = dcm
        if not (isfinite(r0) and isfinite(r1) and isfinite(r2)):
            raise NonFiniteState(f"non-finite state after step at t={t}")
        dcms.append(dcm)
        positions.append((r0, r1, r2))

    landmarks = rows[1:, :, 4:7].copy()
    if not np.isfinite(landmarks).all():
        first = np.argmin(np.isfinite(landmarks).all(axis=(1, 2)))
        raise NonFiniteState(f"non-finite state after step at t={times[first]}")
    return ObserverState(np.array(dcms), np.array(positions), landmarks), np.array(oks), fallback
