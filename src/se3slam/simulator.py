"""Ground-truth trajectories and noisy measurement synthesis.

Trajectory families are closed-form in both pose and body rates, so the
kinematic consistency d/dt X = X @ [[hat(omega), v], [0, 0]] holds without
numerical differentiation. The body-frame velocity convention forced by that
ODE is v_b = C_ba @ dr_a/dt. A ``GroundTruth`` holds the true pose as the
plain arrays (dcm, position) and checks neither: its ``TrajectorySpec``
checked the fields they come from once, on construction.

``truth_at`` and ``measure`` both work on n instants stacked along a leading
axis, and on no other shape, so a run makes a block's truth and measurements
in one call each, and the truth at t = 0 as a 1-instant block. The truth owns
each instant: it carries the times it was made at and the exact body-frame
landmarks C_ba (p_i - r), and the layers downstream read both from it.
``measure`` reads the noise generator as n 1-instant blocks would: one draw for
the block when every channel that draws has one law, and one instant at a time
when the channels mix families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import NonFiniteState
from .liegroup import exp_so3, exp_so3_with_right_jacobian

FAMILIES = ("circle", "tumble")
NOISE_FAMILIES = ("none", "gaussian", "student_t", "uniform")

# Frequency multipliers for the three axis-angle components of the tumble
# family; incommensurate-ish so the motion explores all axes.
TUMBLE_FREQ_RATIOS = (1.0, 0.6, 1.4)

Vec3 = tuple[float, float, float]


def require_finite(config) -> None:
    """Raise ValueError naming the first field of the config dataclass ``config``
    that holds NaN or infinity. ``str``, ``int`` and ``None`` fields are not
    checked, nor are nested config dataclasses, which check themselves."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None or isinstance(value, (str, int)) or is_dataclass(value):
            continue
        if not np.isfinite(value).all():
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class TrajectorySpec:
    """Closed-form trajectory description, with the fields a scenario file writes.

    The body starts level at ``initial_position`` (datum frame): its datum-to-body
    attitude at t = 0 is the identity. The two families are the two attitude
    laws, and both follow the same circle in the horizontal plane through the
    start. ``circle`` runs that circle of ``radius`` at ``angular_rate`` while
    yawing at the same rate: with the default zero radius and rate it holds the
    initial pose. ``tumble`` follows the same path with a sinusoidal axis-angle
    attitude of amplitudes ``tumble_amplitude``, which only ``tumble`` reads, so
    a ``circle`` needs it zero.
    """

    family: str
    radius: float = 0.0
    angular_rate: float = 0.0  # rad/s
    tumble_amplitude: Vec3 = (0.0, 0.0, 0.0)  # rad
    initial_position: Vec3 = (0.0, 0.0, 0.0)  # m

    def __post_init__(self):
        require_finite(self)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown trajectory family: {self.family!r} ({' or '.join(FAMILIES)})")
        if self.family != "tumble" and any(self.tumble_amplitude):
            raise ValueError(f"tumble_amplitude must be 0 unless family is tumble, not {self.family}")


@dataclass(frozen=True)
class ChannelNoise:
    """Additive i.i.d. noise plus a constant bias on one measurement channel.
    Family ``none`` reads no ``scale``, and only ``student_t`` reads ``dof``, so
    the constructor rejects a non-zero scale or a dof other than 3.0 that no
    draw would read."""

    family: str = "none"
    scale: float = 0.0
    dof: float = 3.0  # student_t only
    bias: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        require_finite(self)
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family: {self.family!r}")
        if self.scale < 0.0:
            raise ValueError("noise scale must be >= 0")
        if self.family == "none" and self.scale != 0.0:
            raise ValueError(f"scale must be 0 for family none, got {self.scale:g}")
        if self.family != "student_t" and self.dof != ChannelNoise.dof:
            raise ValueError(f"dof must be 3 unless family is student_t, not {self.family}")
        if not np.isfinite(2.0 * self.scale):
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
    """The instants, and the true pose (dcm, position), body rates, landmark
    positions and landmarks in the body frame, C_ba (p_i - r), at n instants
    stacked along a leading axis of every field but ``landmarks``, or at one
    instant (``row``). ``truth_at`` makes them all: the run's records take their
    instants from here, and the measurements and the relative map errors their
    exact observations. Compares by identity (eq=False): its fields are arrays."""

    time: np.ndarray  # s, () or (n,)
    dcm: np.ndarray  # datum-to-body, (3, 3) or (n, 3, 3)
    position: np.ndarray  # m, datum frame, (3,) or (n, 3)
    omega_body: np.ndarray  # rad/s, (3,) or (n, 3)
    velocity_body: np.ndarray  # m/s, (3,) or (n, 3)
    landmarks: np.ndarray  # (l, 3), datum frame
    landmarks_body: np.ndarray  # m, body frame, (l, 3) or (n, l, 3)

    def row(self, i) -> "GroundTruth":
        """The truth at the i-th instant of a stacked truth, or the stacked truth
        at the instants of a slice i."""
        return GroundTruth(
            self.time[i], self.dcm[i], self.position[i], self.omega_body[i],
            self.velocity_body[i], self.landmarks, self.landmarks_body[i],
        )


@dataclass(frozen=True, eq=False)
class MeasurementFrame:
    """Body-frame sensor data, and the instants they were taken at, at n >= 1
    instants stacked along a leading axis of every field. Holds what it is
    given, unchecked, as ``GroundTruth`` does; ``step`` reads the fields as
    float arrays and checks their shapes. Compares by identity (eq=False): its
    fields are arrays."""

    time: np.ndarray  # s, (n,)
    omega: np.ndarray  # rad/s, (n, 3)
    velocity: np.ndarray  # m/s, (n, 3)
    landmark_obs: np.ndarray  # m, (n, l, 3)


def truth_at(spec: TrajectorySpec, t, landmarks) -> GroundTruth:
    """Closed-form ground truth at each time of the 1-D array t (times >= 0),
    with the (l, 3) ``landmarks``.

    ``time`` is t as a float array, and every other field but the shared
    landmarks has a leading axis of length n, one row per time
    (``GroundTruth.row`` picks one instant); ``landmarks_body`` is one stacked
    product over all n. Each time is computed on its own, so row i has the bits
    of the truth at t[i:i + 1]. Any other shape of t raises ValueError.

    The spec's fields are finite (its constructor checks them), so the pose is
    a product of rotations by construction and is not validated again. Finite
    fields can still overflow: an axis-angle without a finite norm raises
    NonFiniteState in exp_so3, and a non-finite position raises NonFiniteState
    naming the first time it occurs at.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"t must be a 1-D array of times, got shape {ts.shape}")
    bad = ~((ts >= 0.0) & (ts < np.inf))
    if bad.any():
        raise ValueError(f"t must be finite and >= 0, got {float(ts[bad][0])}")
    r0 = np.array(spec.initial_position, dtype=float)
    w, r = spec.angular_rate, spec.radius

    # Position offsets from r0 on a circle of radius r at rate w.
    th = w * ts
    sin, cos = np.sin(th), np.cos(th)
    offset, rdot = np.zeros((2, len(ts), 3))
    offset[:, 0], offset[:, 1] = r * (cos - 1.0), r * sin
    rdot[:, 0], rdot[:, 1] = -r * w * sin, r * w * cos
    position = r0 + offset
    if not np.isfinite(position).all():
        first = np.argmin(np.isfinite(position).all(axis=-1))
        raise NonFiniteState(f"non-finite ground-truth position at t={float(ts[first])}")
    if spec.family == "tumble":
        amp = np.asarray(spec.tumble_amplitude, dtype=float)
        nu = w * np.asarray(TUMBLE_FREQ_RATIOS)
        a = amp * np.sin(nu * ts[:, None])
        adot = amp * nu * np.cos(nu * ts[:, None])
        rot, jacobian = exp_so3_with_right_jacobian(a)
        omega = (jacobian @ adot[:, :, None])[:, :, 0]
    else:
        omega = np.zeros((len(ts), 3))
        omega[:, 2] = w
        rot = exp_so3(omega * ts[:, None])  # C_ba(t).T
    dcm = np.ascontiguousarray(np.swapaxes(rot, -1, -2))
    v_body = (dcm @ rdot[:, :, None])[:, :, 0]
    landmarks = np.asarray(landmarks, dtype=float)
    body = to_body(offsets(landmarks, position), dcm)
    return GroundTruth(ts, dcm, position, omega, v_body, landmarks, body)


def _standard(channel: ChannelNoise, rng: np.random.Generator, shape) -> np.ndarray:
    """Standard variates of the channel's family: N(0, 1), t(dof) or U[0, 1)."""
    if channel.family == "student_t":
        return rng.standard_t(channel.dof, shape)
    if channel.family == "uniform":
        return rng.random(shape)
    return rng.standard_normal(shape)


def _scaled(channel: ChannelNoise, z: np.ndarray) -> np.ndarray:
    """The channel's noise from its standard variates, with the arithmetic of
    Generator.uniform (low + (high - low) * u) and of scale * standard_t, so
    the bits are theirs. Generator.normal also adds its loc, 0.0, which can
    only turn a -0.0 into 0.0, as the bias sum that follows does anyway."""
    s = channel.scale
    if channel.family == "uniform":
        return -s + (s - -s) * z
    return s * z


def _variates(drawing, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Standard variates of the drawing (channel, width) pairs, an (n, width)
    array each, in the order n one-instant draws take them: instant by instant,
    channel by channel. Channels of one law, (family, dof), share a single draw:
    every channel but a Student-t one holds the default dof."""
    if not drawing:
        return []
    widths = [w for _, w in drawing]
    if len({(c.family, c.dof) for c, _ in drawing}) == 1:
        z = _standard(drawing[0][0], rng, (n, sum(widths)))
        return np.split(z, np.cumsum(widths)[:-1], axis=1)
    rows = [[_standard(c, rng, w) for c, w in drawing] for _ in range(n)]
    return [np.reshape([row[j] for row in rows], (n, w)) for j, w in enumerate(widths)]


def offsets(points: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """points - origins[..., None, :] for points (..., l, 3) and origins (..., 3),
    with the bits of that broadcast subtraction: one subtraction per component,
    whose inner loop runs over the landmarks, not over 3 entries."""
    out = np.empty(np.broadcast_shapes(points.shape, origins.shape[:-1] + (1, 3)))
    for j in range(3):
        np.subtract(points[..., j], origins[..., None, j], out=out[..., j])
    return out


def to_body(points: np.ndarray, dcm: np.ndarray) -> np.ndarray:
    """points @ dcm.T over the leading axes, for points (..., l, 3) and dcms
    (..., 3, 3): each row resolved in the frame the dcm maps into. The transpose
    is made contiguous first: numpy multiplies it about twice as fast as the
    strided view, by the same (K = 3) BLAS product."""
    return points @ np.ascontiguousarray(np.swapaxes(dcm, -1, -2))


def measure(truth: GroundTruth, noise: NoiseSpec, rng: np.random.Generator) -> MeasurementFrame:
    """Body-frame measurements of a stacked truth: exact model plus configured noise.

    For a truth of n instants every field of the frame has a leading axis of
    length n; a truth whose dcm is not (n, 3, 3) raises ValueError. ``time``
    is the truth's own array, and the landmark model s_b_i = C_ba @ (p_a_i - r_a)
    is the truth's ``landmarks_body``.
    The generator is read in a fixed order, instant by instant and within an
    instant omega, velocity, landmarks, so one call over n instants leaves the
    bits and the generator state of n calls on 1-instant blocks. When every
    channel that draws has one law, the whole block is one draw; channels of
    mixed families draw one instant at a time.
    """
    dcm = truth.dcm
    if dcm.shape[1:] != (3, 3):
        raise ValueError(f"truth.dcm must be (n, 3, 3), got shape {dcm.shape}")
    values = (truth.omega_body, truth.velocity_body, truth.landmarks_body)
    channels = (noise.omega, noise.velocity, noise.landmark)
    # A channel of zero scale, as every channel of family none is, draws nothing.
    drawing = [(c, math.prod(v.shape[1:])) for c, v in zip(channels, values) if c.scale]
    variates = iter(_variates(drawing, len(dcm), rng))
    measured = []
    for channel, value in zip(channels, values):
        if channel.scale:
            y = _scaled(channel, next(variates).reshape(value.shape))
            y += channel.bias
            y += value  # value + noise: the bits are the same either way round
        else:
            y = value + channel.bias
        measured.append(y)
    return MeasurementFrame(truth.time, *measured)

