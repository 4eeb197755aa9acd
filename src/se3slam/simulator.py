"""Ground-truth trajectories, landmark layouts, and noisy measurement synthesis.

Trajectory families are closed-form in both pose and body rates, so the
kinematic consistency d/dt X = X @ [[hat(omega), v], [0, 0]] holds without
numerical differentiation. The body-frame velocity convention forced by that
ODE is v_b = C_ba @ dr_a/dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NonFiniteState
from .liegroup import Pose, exp_so3, exp_so3_with_right_jacobian

FAMILIES = ("static", "circle", "helix", "tumble")
NOISE_FAMILIES = ("none", "gaussian", "student_t", "uniform")

# Frequency multipliers for the three axis-angle components of the tumble
# family; incommensurate-ish so the motion explores all axes.
TUMBLE_FREQ_RATIOS = (1.0, 0.6, 1.4)

Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class TrajectorySpec:
    """Closed-form trajectory description, with the fields a scenario file writes.

    The body starts at ``initial_position`` (datum frame) with the datum-to-body
    attitude exp_so3(``initial_rotation``), an axis-angle vector; ``initial_pose``
    builds that pose. ``circle``/``helix`` translate along a circle of ``radius``
    at ``angular_rate`` (helix additionally climbs at ``vertical_rate``) while
    yawing at the same rate. ``tumble`` follows the same translational path with
    a sinusoidal axis-angle attitude of amplitudes ``tumble_amplitude``.
    ``static`` holds the initial pose.
    """

    family: str
    radius: float = 0.0
    angular_rate: float = 0.0  # rad/s
    vertical_rate: float = 0.0  # m/s
    tumble_amplitude: Vec3 = (0.0, 0.0, 0.0)  # rad
    initial_position: Vec3 = (0.0, 0.0, 0.0)  # m
    initial_rotation: Vec3 = (0.0, 0.0, 0.0)  # rad, axis-angle

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown trajectory family: {self.family!r}")
        for f in fields(self)[1:]:  # every field but family
            value = getattr(self, f.name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        try:  # finite entries can still overflow the rotation vector's norm
            Pose(exp_so3(self.initial_rotation), np.array(self.initial_position, dtype=float))
        except NonFiniteState as exc:
            raise ValueError(str(exc)) from None

    @property
    def initial_pose(self) -> Pose:
        """The pose at t = 0, unchecked: the constructor checked it once."""
        rotation, position = self.initial_rotation, self.initial_position
        return Pose.unchecked(exp_so3(rotation), np.array(position, dtype=float))


@dataclass(frozen=True)
class ChannelNoise:
    """Additive i.i.d. noise plus a constant bias on one measurement channel."""

    family: str = "none"
    scale: float = 0.0
    dof: float = 3.0  # student_t only
    bias: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family: {self.family!r}")
        if self.scale < 0.0:
            raise ValueError("noise scale must be >= 0")
        if np.isfinite(self.scale) and not np.isfinite(2.0 * self.scale):
            raise ValueError(f"noise scale {self.scale:g} overflows its span 2 * scale")
        if self.family == "student_t" and self.dof <= 2.0:
            raise ValueError("student_t dof must be > 2")


@dataclass(frozen=True)
class NoiseSpec:
    omega: ChannelNoise = field(default_factory=ChannelNoise)
    velocity: ChannelNoise = field(default_factory=ChannelNoise)
    landmark: ChannelNoise = field(default_factory=ChannelNoise)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """True pose, body rates, and landmark positions at one instant, or at n
    instants stacked along a leading axis of the pose and rate fields. Compares
    by identity (eq=False): its fields are arrays."""

    pose: Pose
    omega_body: np.ndarray  # rad/s, (3,) or (n, 3)
    velocity_body: np.ndarray  # m/s, (3,) or (n, 3)
    landmarks: np.ndarray  # (l, 3), datum frame

    def row(self, i: int) -> "GroundTruth":
        """The truth at the i-th instant of a stacked truth."""
        return GroundTruth(
            Pose.unchecked(self.pose.dcm[i], self.pose.position[i]),
            self.omega_body[i],
            self.velocity_body[i],
            self.landmarks,
        )


@dataclass(frozen=True, eq=False)
class MeasurementFrame:
    """One time step of body-frame sensor data. Compares by identity (eq=False)."""

    omega: np.ndarray  # rad/s
    velocity: np.ndarray  # m/s
    landmark_obs: np.ndarray  # (l, 3), m

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))
        object.__setattr__(
            self, "landmark_obs", np.atleast_2d(np.asarray(self.landmark_obs, dtype=float))
        )


def _translation(spec: TrajectorySpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Datum-frame position offsets from the initial position, and their rates,
    at the times t (n,): two (n, 3) arrays."""
    w, r, c = spec.angular_rate, spec.radius, spec.vertical_rate
    th = w * t
    sin, cos = np.sin(th), np.cos(th)
    offset, rate = np.empty((2, len(t), 3))
    offset[:, 0], offset[:, 1], offset[:, 2] = r * (cos - 1.0), r * sin, c * t
    rate[:, 0], rate[:, 1], rate[:, 2] = -r * w * sin, r * w * cos, c
    return offset, rate


def truth_at(spec: TrajectorySpec, t, landmarks=None) -> GroundTruth:
    """Closed-form ground truth at time t >= 0, or at each time of a 1-D array t.

    For an array of n times the pose and body-rate fields gain a leading axis
    of length n (``GroundTruth.row`` picks one instant) and the landmarks are
    shared; a scalar t is the one-time case of the same arithmetic, so row i
    of a stacked truth has the bits of the truth at t[i] alone.

    The spec's fields are finite (its constructor checks them), so the pose is
    a product of rotations by construction and is not validated again. Finite
    fields can still overflow: an axis-angle without a finite norm raises
    NonFiniteState in exp_so3, and a non-finite position raises NonFiniteState
    naming the first time it occurs at.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array of times")
    ts = times.reshape(-1)
    bad = ~((ts >= 0.0) & (ts < np.inf))
    if bad.any():
        raise ValueError(f"t must be finite and >= 0, got {float(ts[bad][0])}")
    if landmarks is None:
        landmarks = np.zeros((0, 3))
    landmarks = np.atleast_2d(np.asarray(landmarks, dtype=float))
    initial = spec.initial_pose
    c0, r0 = initial.dcm, initial.position
    n = len(ts)

    if spec.family == "static":
        dcm = np.broadcast_to(c0, (n, 3, 3))
        position = np.broadcast_to(r0, (n, 3))
        omega = np.zeros((n, 3))
        v_body = np.zeros((n, 3))
    else:
        offset, rdot = _translation(spec, ts)
        position = r0 + offset
        if not np.isfinite(position).all():
            first = np.argmin(np.isfinite(position).all(axis=-1))
            raise NonFiniteState(f"non-finite ground-truth position at t={float(ts[first])}")
        if spec.family in ("circle", "helix"):
            omega = np.zeros((n, 3))
            omega[:, 2] = spec.angular_rate
            rot = exp_so3(omega * ts[:, None])  # C_ba(t).T = C0.T @ rot
        else:  # tumble
            amp = np.asarray(spec.tumble_amplitude, dtype=float)
            nu = spec.angular_rate * np.asarray(TUMBLE_FREQ_RATIOS)
            a = amp * np.sin(nu * ts[:, None])
            adot = amp * nu * np.cos(nu * ts[:, None])
            rot, jacobian = exp_so3_with_right_jacobian(a)
            omega = (jacobian @ adot[:, :, None])[:, :, 0]
        dcm = np.swapaxes(rot, -1, -2) @ c0
        v_body = (dcm @ rdot[:, :, None])[:, :, 0]

    truth = GroundTruth(Pose.unchecked(dcm, position), omega, v_body, landmarks)
    return truth.row(0) if times.ndim == 0 else truth


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


def measure(truth: GroundTruth, noise: NoiseSpec, rng: np.random.Generator) -> MeasurementFrame:
    """Body-frame measurement frame: exact model plus configured noise.

    Landmark model: s_b_i = C_ba @ (p_a_i - r_a). Sampling order is fixed
    (omega, velocity, landmarks) so streams are reproducible per seed.
    """
    c_ba = truth.pose.dcm
    exact = (truth.landmarks - truth.pose.position) @ c_ba.T
    omega_y = truth.omega_body + _sample(noise.omega, rng, (3,))
    velocity_y = truth.velocity_body + _sample(noise.velocity, rng, (3,))
    landmark_y = exact + _sample(noise.landmark, rng, exact.shape)
    return MeasurementFrame(omega_y, velocity_y, landmark_y)


def place_landmarks(count: int, box_min, box_max, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. landmark positions in an axis-aligned box."""
    if count < 1:
        raise ValueError("count must be >= 1")
    lo = np.asarray(box_min, dtype=float)
    hi = np.asarray(box_max, dtype=float)
    if np.any(hi < lo):
        raise ValueError("box_max must be >= box_min componentwise")
    return rng.uniform(lo, hi, (count, 3))
