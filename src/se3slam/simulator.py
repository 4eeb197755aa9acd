"""Ground-truth trajectories, landmark layouts, and noisy measurement synthesis.

Trajectory families are closed-form in both pose and body rates, so the
kinematic consistency d/dt X = X @ [[hat(omega), v], [0, 0]] holds without
numerical differentiation. The body-frame velocity convention forced by that
ODE is v_b = C_ba @ dr_a/dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteState
from .liegroup import Pose, exp_so3, right_jacobian_so3

FAMILIES = ("static", "circle", "helix", "tumble")
NOISE_FAMILIES = ("none", "gaussian", "student_t", "uniform")

# Frequency multipliers for the three axis-angle components of the tumble
# family; incommensurate-ish so the motion explores all axes.
TUMBLE_FREQ_RATIOS = (1.0, 0.6, 1.4)


@dataclass(frozen=True)
class TrajectorySpec:
    """Closed-form trajectory description.

    ``circle``/``helix`` translate along a circle of ``radius`` at
    ``angular_rate`` (helix additionally climbs at ``vertical_rate``) while
    yawing at the same rate. ``tumble`` follows the same translational path
    with a sinusoidal axis-angle attitude of amplitudes ``tumble_amplitude``.
    ``static`` holds the initial pose.
    """

    family: str
    radius: float = 0.0
    angular_rate: float = 0.0  # rad/s
    vertical_rate: float = 0.0  # m/s
    tumble_amplitude: tuple[float, float, float] = (0.0, 0.0, 0.0)  # rad
    initial_pose: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown trajectory family: {self.family!r}")
        for name in ("radius", "angular_rate", "vertical_rate", "tumble_amplitude"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ChannelNoise:
    """Additive i.i.d. noise plus a constant bias on one measurement channel."""

    family: str = "none"
    scale: float = 0.0
    dof: float = 3.0  # student_t only
    bias: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family: {self.family!r}")
        if self.scale < 0.0:
            raise ValueError("noise scale must be >= 0")
        if self.family == "student_t" and self.dof <= 2.0:
            raise ValueError("student_t dof must be > 2")


@dataclass(frozen=True)
class NoiseSpec:
    omega: ChannelNoise = field(default_factory=ChannelNoise)
    velocity: ChannelNoise = field(default_factory=ChannelNoise)
    landmark: ChannelNoise = field(default_factory=ChannelNoise)


@dataclass(frozen=True)
class GroundTruth:
    """True pose, body rates, and landmark positions at one instant."""

    pose: Pose
    omega_body: np.ndarray  # rad/s
    velocity_body: np.ndarray  # m/s
    landmarks: np.ndarray  # (l, 3), datum frame


def _translation(spec: TrajectorySpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Datum-frame position offset from the initial position, and its rate."""
    w, r, c = spec.angular_rate, spec.radius, spec.vertical_rate
    th = w * t
    offset = np.array([r * (np.cos(th) - 1.0), r * np.sin(th), c * t])
    rate = np.array([-r * w * np.sin(th), r * w * np.cos(th), c])
    return offset, rate


def truth_at(spec: TrajectorySpec, t: float, landmarks=None) -> GroundTruth:
    """Closed-form ground truth at time t >= 0.

    The spec's fields are finite (its constructor checks them), so the pose is
    a product of rotations by construction and is not validated again. Finite
    fields can still overflow: an axis-angle without a finite norm raises
    NonFiniteState in exp_so3, and so does a non-finite position.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError("t must be finite and >= 0")
    if landmarks is None:
        landmarks = np.zeros((0, 3))
    landmarks = np.atleast_2d(np.asarray(landmarks, dtype=float))
    c0 = spec.initial_pose.dcm
    r0 = spec.initial_pose.position

    if spec.family == "static":
        return GroundTruth(spec.initial_pose, np.zeros(3), np.zeros(3), landmarks)

    offset, rdot = _translation(spec, t)
    position = r0 + offset
    if not np.isfinite(position).all():
        raise NonFiniteState(f"non-finite ground-truth position at t={t}")

    if spec.family in ("circle", "helix"):
        omega = np.array([0.0, 0.0, spec.angular_rate])
        rot = exp_so3(omega * t)  # C_ba(t).T = C0.T @ rot
        dcm = rot.T @ c0
    else:  # tumble
        amp = np.asarray(spec.tumble_amplitude, dtype=float)
        ratios = np.asarray(TUMBLE_FREQ_RATIOS)
        nu = spec.angular_rate * ratios
        a = amp * np.sin(nu * t)
        adot = amp * nu * np.cos(nu * t)
        dcm = exp_so3(a).T @ c0
        omega = right_jacobian_so3(a) @ adot

    v_body = dcm @ rdot
    return GroundTruth(Pose.unchecked(dcm, position), omega, v_body, landmarks)


def _sample(channel: ChannelNoise, rng: np.random.Generator, shape) -> np.ndarray:
    bias = np.asarray(channel.bias, dtype=float)
    if channel.family == "none":
        return np.broadcast_to(bias, shape).copy() if np.any(bias) else np.zeros(shape)
    if channel.family == "gaussian":
        noise = rng.normal(0.0, channel.scale, shape) if channel.scale > 0 else np.zeros(shape)
    elif channel.family == "student_t":
        noise = channel.scale * rng.standard_t(channel.dof, shape)
    else:  # uniform
        noise = rng.uniform(-channel.scale, channel.scale, shape)
    return noise + bias


def measure(truth: GroundTruth, noise: NoiseSpec, rng: np.random.Generator, time: float = 0.0):
    """Body-frame measurement frame: exact model plus configured noise.

    Landmark model: s_b_i = C_ba @ (p_a_i - r_a). Sampling order is fixed
    (omega, velocity, landmarks) so streams are reproducible per seed.
    """
    from .observer import MeasurementFrame

    c_ba = truth.pose.dcm
    exact = (truth.landmarks - truth.pose.position) @ c_ba.T
    omega_y = truth.omega_body + _sample(noise.omega, rng, (3,))
    velocity_y = truth.velocity_body + _sample(noise.velocity, rng, (3,))
    landmark_y = exact + _sample(noise.landmark, rng, exact.shape)
    return MeasurementFrame(omega_y, velocity_y, landmark_y, time)


def place_landmarks(count: int, box_min, box_max, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. landmark positions in an axis-aligned box."""
    if count < 1:
        raise ValueError("count must be >= 1")
    lo = np.asarray(box_min, dtype=float)
    hi = np.asarray(box_max, dtype=float)
    if np.any(hi < lo):
        raise ValueError("box_max must be >= box_min componentwise")
    return rng.uniform(lo, hi, (count, 3))
