"""Scenario files: declarative run descriptions with strict validation.

Format: YAML with a mandatory ``schema_version: 1``. Unknown keys anywhere in
the document are errors so typos in gain or noise names cannot pass silently.
See the bundled files under ``scenarios/`` for the full schema.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigInvalid, NonFiniteState, UnknownParameter
from .liegroup import Pose, exp_so3
from .observer import Gains
from .simulator import ChannelNoise, NoiseSpec, TrajectorySpec

SCHEMA_VERSION = 1

TRUE_ATTITUDE = "true_attitude"
RECONSTRUCTED = "reconstructed"

# Upper bound on duration / dt: a run keeps one ErrorRecord per step in memory.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class LandmarkLayout:
    """Either an explicit (l, 3) position list or count + box sampled per seed."""

    positions: tuple | None = None
    count: int | None = None
    box_min: tuple[float, float, float] = (0.0, 0.0, 0.0)
    box_max: tuple[float, float, float] = (1.0, 1.0, 1.0)

    @property
    def num_landmarks(self) -> int:
        if self.positions is not None:
            return len(self.positions)
        return int(self.count)


@dataclass(frozen=True)
class InitialEstimate:
    """Offsets applied to the truth at t=0 to form the initial estimate.

    The attitude estimate is rotated by ``attitude_error_rad`` about
    ``attitude_error_axis``; landmark guesses get per-landmark uniform offsets
    in [-scale, scale]^3 drawn from the scenario seed.
    """

    attitude_error_rad: float = 0.0
    attitude_error_axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    position_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    landmark_offset_scale: float = 0.0


@dataclass(frozen=True)
class Scenario:
    name: str
    trajectory: TrajectorySpec
    landmarks: LandmarkLayout
    gains: Gains
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    attitude_mode: str = TRUE_ATTITUDE
    duration: float = 10.0
    dt: float = 0.005
    initial_estimate: InitialEstimate = field(default_factory=InitialEstimate)
    seed: int = 0

    def validate(self) -> None:
        # TrajectorySpec and Gains reject non-finite fields when constructed.
        bad = [
            path
            for f in dataclasses.fields(self)
            if f.name not in ("trajectory", "gains")
            for path in _non_finite_fields(getattr(self, f.name), f.name)
        ]
        if bad:
            raise ConfigInvalid(f"{bad[0]}: must be finite")
        if self.seed < 0:
            raise ConfigInvalid("seed: expected a non-negative integer")
        if self.duration <= 0.0:
            raise ConfigInvalid("duration: must be > 0")
        if self.dt <= 0.0:
            raise ConfigInvalid("dt: must be > 0")
        if self.dt > self.duration:
            raise ConfigInvalid("dt: must be <= duration")
        steps = self.duration / self.dt
        if steps > MAX_STEPS:
            raise ConfigInvalid(
                f"duration/dt: {steps:.6g} steps exceed the limit of {MAX_STEPS}"
            )
        if self.attitude_mode not in (TRUE_ATTITUDE, RECONSTRUCTED):
            raise ConfigInvalid(
                f"attitude_mode: must be '{TRUE_ATTITUDE}' or '{RECONSTRUCTED}'"
            )
        if self.landmarks.num_landmarks < 1:
            raise ConfigInvalid("landmarks: at least one landmark required")
        if self.attitude_mode == RECONSTRUCTED and self.landmarks.num_landmarks < 2:
            raise ConfigInvalid(
                "landmarks: reconstructed attitude mode needs >= 2 landmarks"
            )


def _non_finite_fields(value, path: str) -> list[str]:
    """Dotted paths of the numeric fields at or under ``value`` (named ``path``)
    that hold NaN or infinity."""
    if dataclasses.is_dataclass(value):
        return [
            bad
            for f in dataclasses.fields(value)
            for bad in _non_finite_fields(getattr(value, f.name), f"{path}.{f.name}")
        ]
    if isinstance(value, (int, float, tuple)) and not isinstance(value, bool):
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            return [path]
    return []


class _Section:
    """Dict wrapper that tracks consumed keys and reports leftovers by path."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigInvalid(f"{path or 'document'}: expected a mapping")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _full(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, default=..., kind=None):
        self.seen.add(key)
        if key not in self.data:
            if default is ...:
                raise ConfigInvalid(f"{self._full(key)}: required field missing")
            return default
        value = self.data[key]
        if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if kind is not None and not isinstance(value, kind):
            raise ConfigInvalid(
                f"{self._full(key)}: expected {getattr(kind, '__name__', kind)}"
            )
        return value

    def section(self, key: str, required: bool = True):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigInvalid(f"{self._full(key)}: required section missing")
            return None
        return _Section(self.data[key], self._full(key))

    def finish(self) -> None:
        extra = set(self.data) - self.seen
        if extra:
            name = sorted(self._full(k) for k in extra)
            raise ConfigInvalid(f"unknown keys: {', '.join(name)}")


def _vec3(value, path: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigInvalid(f"{path}: expected a 3-element list")
    try:
        return tuple(float(x) for x in value)
    except (TypeError, ValueError):
        raise ConfigInvalid(f"{path}: entries must be numeric") from None


def _parse_trajectory(sec: _Section) -> TrajectorySpec:
    family = sec.take("family", kind=str)
    radius = sec.take("radius", 0.0, float)
    rate = sec.take("angular_rate", 0.0, float)
    vertical = sec.take("vertical_rate", 0.0, float)
    amp = _vec3(sec.take("tumble_amplitude", [0, 0, 0]), f"{sec.path}.tumble_amplitude")
    position = _vec3(sec.take("initial_position", [0, 0, 0]), f"{sec.path}.initial_position")
    rotvec = _vec3(sec.take("initial_rotation", [0, 0, 0]), f"{sec.path}.initial_rotation")
    sec.finish()
    try:
        pose = Pose(exp_so3(rotvec), np.array(position))
        return TrajectorySpec(family, radius, rate, vertical, amp, pose)
    except (ValueError, NonFiniteState) as exc:
        raise ConfigInvalid(f"{sec.path}: {exc}") from None


def _parse_landmarks(sec: _Section) -> LandmarkLayout:
    positions = sec.take("positions", None)
    count = sec.take("count", None)
    box = sec.section("box", required=False)
    if positions is not None:
        if count is not None or box is not None:
            raise ConfigInvalid(f"{sec.path}: give either positions or count+box, not both")
        sec.finish()
        if not isinstance(positions, list) or not positions:
            raise ConfigInvalid(f"{sec.path}.positions: expected a non-empty list")
        pts = tuple(_vec3(p, f"{sec.path}.positions[{i}]") for i, p in enumerate(positions))
        return LandmarkLayout(positions=pts)
    if count is None or box is None:
        raise ConfigInvalid(f"{sec.path}: need positions, or count and box")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ConfigInvalid(f"{sec.path}.count: expected a positive integer")
    lo = _vec3(box.take("min"), f"{box.path}.min")
    hi = _vec3(box.take("max"), f"{box.path}.max")
    box.finish()
    sec.finish()
    if any(h < l for l, h in zip(lo, hi)):
        raise ConfigInvalid(f"{sec.path}.box: max must be >= min componentwise")
    return LandmarkLayout(count=count, box_min=lo, box_max=hi)


def _parse_channel(sec: _Section | None, path: str) -> ChannelNoise:
    if sec is None:
        return ChannelNoise()
    family = sec.take("family", "none", str)
    scale = sec.take("scale", 0.0, float)
    dof = sec.take("dof", 3.0, float)
    bias = _vec3(sec.take("bias", [0, 0, 0]), f"{path}.bias")
    sec.finish()
    try:
        return ChannelNoise(family, scale, dof, bias)
    except ValueError as exc:
        raise ConfigInvalid(f"{path}: {exc}") from None


def _parse_noise(sec: _Section | None) -> NoiseSpec:
    if sec is None:
        return NoiseSpec()
    spec = NoiseSpec(
        omega=_parse_channel(sec.section("omega", required=False), f"{sec.path}.omega"),
        velocity=_parse_channel(sec.section("velocity", required=False), f"{sec.path}.velocity"),
        landmark=_parse_channel(sec.section("landmark", required=False), f"{sec.path}.landmark"),
    )
    sec.finish()
    return spec


def _parse_initial_estimate(sec: _Section | None) -> InitialEstimate:
    if sec is None:
        return InitialEstimate()
    est = InitialEstimate(
        attitude_error_rad=sec.take("attitude_error_rad", 0.0, float),
        attitude_error_axis=_vec3(
            sec.take("attitude_error_axis", [0, 0, 1]), f"{sec.path}.attitude_error_axis"
        ),
        position_offset=_vec3(
            sec.take("position_offset", [0, 0, 0]), f"{sec.path}.position_offset"
        ),
        landmark_offset_scale=sec.take("landmark_offset_scale", 0.0, float),
    )
    sec.finish()
    return est


def parse_scenario(data: dict) -> Scenario:
    """Build and validate a Scenario from a parsed YAML document."""
    root = _Section(data, "")
    version = root.take("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigInvalid(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    name = root.take("name", kind=str)
    seed = root.take("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigInvalid("seed: expected a non-negative integer")
    duration = root.take("duration", kind=float)
    dt = root.take("dt", kind=float)
    mode = root.take("attitude_mode", TRUE_ATTITUDE, str)

    gains_sec = root.section("gains")
    k1 = gains_sec.take("k1", kind=float)
    k2 = gains_sec.take("k2", kind=float)
    k3 = gains_sec.take("k3", kind=float)
    gains_sec.finish()
    try:
        gains = Gains(k1, k2, k3)
    except ValueError as exc:
        raise ConfigInvalid(f"gains: {exc}") from None

    trajectory = _parse_trajectory(root.section("trajectory"))
    landmarks = _parse_landmarks(root.section("landmarks"))
    noise = _parse_noise(root.section("noise", required=False))
    initial = _parse_initial_estimate(root.section("initial_estimate", required=False))
    root.finish()

    scenario = Scenario(
        name=name,
        trajectory=trajectory,
        landmarks=landmarks,
        gains=gains,
        noise=noise,
        attitude_mode=mode,
        duration=duration,
        dt=dt,
        initial_estimate=initial,
        seed=seed,
    )
    scenario.validate()
    return scenario


def load_scenario(path) -> tuple[Scenario, str]:
    """Load a scenario file; returns (scenario, sha256 of the file bytes)."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{path}: top level must be a mapping")
    return parse_scenario(data), digest


def set_parameter(scenario: Scenario, path: str, value: float) -> Scenario:
    """Return a copy of the scenario with the numeric field at ``path`` replaced.

    Paths use dots, e.g. ``gains.k1``, ``dt``, ``noise.omega.scale``.
    """
    parts = path.split(".")

    def rebuild(obj, remaining):
        name = remaining[0]
        if not dataclasses.is_dataclass(obj) or name not in {
            f.name for f in dataclasses.fields(obj)
        }:
            raise UnknownParameter(f"no scenario field at path {path!r}")
        current = getattr(obj, name)
        if len(remaining) == 1:
            if isinstance(current, bool) or not isinstance(current, (int, float)):
                raise UnknownParameter(f"{path!r} is not a numeric field")
            if isinstance(current, int) and not float(value).is_integer():
                raise ConfigInvalid(f"{path}: expected an integer, got {value}")
            new = type(current)(value) if isinstance(current, int) else float(value)
            return dataclasses.replace(obj, **{name: new})
        return dataclasses.replace(obj, **{name: rebuild(current, remaining[1:])})

    try:
        updated = rebuild(scenario, parts)
    except ValueError as exc:  # a field's own constructor check, e.g. Gains
        raise ConfigInvalid(f"{path}: {exc}") from None
    updated.validate()
    return updated
