"""Scenario files: declarative run descriptions with strict validation.

Format: YAML with a mandatory ``schema_version: 1``. Every other key is the
field of the same name on ``Scenario`` or a nested config dataclass, read as
its annotated type; absent keys take the field's default, and unknown keys are
errors, so typos cannot pass silently; no key is an exception to this rule,
and a mapping that repeats a key is an error too.
A float field also takes an integer, and an int field a float with an
integral value, since a sweep's values are floats: ``set_parameter`` writes
the scenario back as a document, puts the value in and reads it as a file.
Each dataclass checks its own fields on construction and raises ValueError,
first that every float and vector field is finite (``require_finite``), so
every ``Scenario`` is valid, and none holds an array, so scenarios compare
and hash by value. A section's error reads ``<section>: <message>``, e.g.
``gains: k1 must be finite, got nan``, from a file or from ``set_parameter``,
and ``load_scenario`` puts the file's path in front.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import numbers
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path, PurePath

import numpy as np
import yaml

from .errors import ConfigInvalid
from .observer import Gains
from .simulator import NoiseSpec, TrajectorySpec, Vec3, require_finite

SCHEMA_VERSION = 1

TRUE_ATTITUDE = "true_attitude"
RECONSTRUCTED = "reconstructed"

# Upper bound on duration / dt: a run keeps one row of errors per step in memory.
MAX_STEPS = 10**6
# Upper bound on the landmark count: every step works on (l, 3) arrays, and
# every row of a run's errors keeps two l-vectors.
MAX_LANDMARKS = 10**4
# Upper bound on the values of a run's record, (steps + 1) rows of 2 l + 5
# columns: the two bounds above alone admit 1.6e11 values (about 160 GB). One
# run() of 4000 steps x 1024 landmarks (8.2e6 values) raised the peak RSS by
# 9.5 bytes per value on CPython 3.11 and numpy 2.4, so this caps a run near 1 GB.
MAX_RECORD_VALUES = 10**8


@dataclass(frozen=True)
class Box:
    """Axis-aligned box that ``count`` landmarks are sampled from."""

    min: Vec3
    max: Vec3

    def __post_init__(self):
        require_finite(self)
        for low, high in zip(self.min, self.max):
            if high < low:
                raise ValueError("max must be >= min componentwise")
            if not np.isfinite(high - low):
                raise ValueError(f"max - min overflows: {high:g} - {low:g}")


@dataclass(frozen=True)
class LandmarkLayout:
    """Either an explicit (l, 3) position list or count + box sampled per seed."""

    positions: tuple[Vec3, ...] | None = None
    count: int | None = None
    box: Box | None = None

    def __post_init__(self):
        require_finite(self)
        if self.positions is not None:
            if self.count is not None or self.box is not None:
                raise ValueError("give either positions or count+box, not both")
        elif self.count is None or self.box is None:
            raise ValueError("need positions, or count and box")
        if self.num_landmarks < 1:
            raise ValueError("at least one landmark required")

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
    attitude_error_axis: Vec3 = (0.0, 0.0, 1.0)
    position_offset: Vec3 = (0.0, 0.0, 0.0)
    landmark_offset_scale: float = 0.0

    def __post_init__(self):
        require_finite(self)
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = np.linalg.norm(self.attitude_error_axis)
        if self.attitude_error_rad != 0.0 and not 0.0 < norm < np.inf:
            raise ValueError(f"attitude_error_axis needs a finite non-zero norm, got {norm}")
        scale = self.landmark_offset_scale
        if scale < 0.0:
            raise ValueError(f"landmark_offset_scale must be >= 0, got {scale}")
        if not np.isfinite(2.0 * scale):
            raise ValueError(f"landmark_offset_scale {scale:g} overflows its span 2 * scale")


@dataclass(frozen=True)
class Scenario:
    name: str
    trajectory: TrajectorySpec
    landmarks: LandmarkLayout
    gains: Gains
    duration: float
    dt: float
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    attitude_mode: str = TRUE_ATTITUDE
    initial_estimate: InitialEstimate = field(default_factory=InitialEstimate)
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if not self.name or PurePath(self.name).name != self.name:  # names the output files
            raise ValueError(f"name: must be a file name, not empty or a path, got {self.name!r}")
        if self.seed < 0:
            raise ValueError(f"seed: expected a non-negative integer, got {self.seed}")
        if self.duration <= 0.0:
            raise ValueError("duration: must be > 0")
        if self.dt <= 0.0:
            raise ValueError("dt: must be > 0")
        if self.dt > self.duration:
            raise ValueError("dt: must be <= duration")
        steps = self.duration / self.dt
        if steps > MAX_STEPS:
            raise ValueError(f"duration/dt: {steps:.6g} steps exceed the limit of {MAX_STEPS}")
        if abs(steps - round(steps)) > 1e-9 * steps:  # after the limit: round(inf) raises
            raise ValueError(
                f"duration/dt: duration {self.duration:g} is {steps:.6g} steps of dt "
                f"{self.dt:g}, not a whole number"
            )
        if self.landmarks.num_landmarks > MAX_LANDMARKS:
            key = "count" if self.landmarks.positions is None else "positions"
            raise ValueError(
                f"landmarks.{key}: {self.landmarks.num_landmarks} landmarks exceed "
                f"the limit of {MAX_LANDMARKS}"
            )
        values = (round(steps) + 1) * (2 * self.landmarks.num_landmarks + 5)
        if values > MAX_RECORD_VALUES:
            raise ValueError(
                f"duration/dt, landmarks: {round(steps)} steps of {self.landmarks.num_landmarks} "
                f"landmarks make a record of {values} values, (steps + 1) x (2 landmarks + 5), "
                f"over the limit of {MAX_RECORD_VALUES}"
            )
        if self.attitude_mode not in (TRUE_ATTITUDE, RECONSTRUCTED):
            raise ValueError(f"attitude_mode: must be '{TRUE_ATTITUDE}' or '{RECONSTRUCTED}'")
        if self.attitude_mode == RECONSTRUCTED and self.landmarks.num_landmarks < 2:
            raise ValueError("landmarks: reconstructed attitude mode needs >= 2 landmarks")


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> annotated type of a config dataclass, resolved once."""
    return typing.get_type_hints(cls)


def _build(cls, data, path: str):
    """An instance of the config dataclass ``cls`` from the mapping ``data``
    (found at dotted ``path``), each key read as the field of the same name."""
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{path or 'document'}: expected a mapping")
    kinds = _field_types(cls)
    prefix = f"{path}." if path else ""
    unknown = sorted(f"{prefix}{k}" for k in data if k not in kinds)
    if unknown:
        raise ConfigInvalid(f"unknown keys: {', '.join(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            kwargs[f.name] = _read(kinds[f.name], data[f.name], prefix + f.name)
        elif f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigInvalid(f"{prefix}{f.name}: required field missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigInvalid(f"{path}: {exc}" if path else str(exc)) from None


def _read(kind, value, path: str):
    """``value`` read as the annotated type ``kind``."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):  # X | None
        (kind,) = (k for k in typing.get_args(kind) if k is not type(None))
        if value is None and not dataclasses.is_dataclass(kind):  # a section is a mapping
            return None
    if dataclasses.is_dataclass(kind):
        return _build(kind, value, path)
    if kind == Vec3:
        return _vec3(value, path)
    if kind is int:
        return _integer(value, path)
    if typing.get_origin(kind) is tuple:  # tuple[Vec3, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigInvalid(f"{path}: expected a list")
        return tuple(_vec3(v, f"{path}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if kind is float else kind  # YAML writes 2.0 as 2 too
    if isinstance(value, bool) or not isinstance(value, accepted):
        message = f"{path}: expected {kind.__name__}, got {type(value).__name__} {value!r}"
        if kind is float and isinstance(value, str) and _is_number(value):
            message += "; write it unquoted, with a dot and a signed exponent (1.0e+6, not 1.0e6)"
        raise ConfigInvalid(message)
    return _float(value, path) if kind is float else value


def _is_number(text: str) -> bool:
    """Whether float() reads the text: YAML 1.1 reads 1.0e6 and 1e+6 as strings."""
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _integer(value, path: str) -> int:
    """``value`` read as an int field: an integer, or a float with an integral
    value, since a sweep's values are floats."""
    if isinstance(value, float):
        value = float(value)  # a numpy float prints as a plain one
        if value.is_integer():
            return int(value)
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigInvalid(f"{path}: expected an integer, got {value!r}")


def _float(value, path: str) -> float:
    """An int or a float as a float: only an int past float range fails."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigInvalid(f"{path}: expected a number, got {value!r}") from None


def _vec3(value, path: str) -> Vec3:
    """A 3-element list, each entry read as a float field."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigInvalid(f"{path}: expected a 3-element list")
    return tuple(_read(float, x, f"{path}[{i}]") for i, x in enumerate(value))


def parse_scenario(data: dict) -> Scenario:
    """Build a Scenario from a parsed YAML document."""
    if isinstance(data, dict):
        data = dict(data)
        version = data.pop("schema_version", None)
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ConfigInvalid(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    return _build(Scenario, data, "")


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.safe_load``'s loader, with a key repeated in a mapping an error."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key, line = self.construct_object(key_node), key_node.start_mark.line + 1
                if key in seen:
                    raise ConfigInvalid(f"line {line}: duplicate key {key!r}")
                seen.add(key)
        return super().construct_mapping(node, deep)


def load_scenario(path) -> tuple[Scenario, str]:
    """Load a scenario file; returns (scenario, sha256 of the file bytes).
    Every error names the file first: ``<path>: <message>``."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return parse_scenario(yaml.load(raw, Loader=_UniqueKeyLoader)), digest
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"{path}: not valid YAML: {exc}") from None
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc}") from None


def set_parameter(scenario: Scenario, path: str, value: float) -> Scenario:
    """The scenario with ``value`` at the dotted key ``path`` (``gains.k1``,
    ``dt``, ``noise.omega.scale``): the scenario is written back as a document,
    ``value`` goes in at ``path``, and ``_build`` reads it as it reads a file,
    so a sweep value is checked and named as that key in a file."""
    # sections as mappings and no None fields, as in a file
    document = dataclasses.asdict(
        scenario, dict_factory=lambda items: {k: v for k, v in items if v is not None}
    )
    *sections, key = path.split(".")
    node = document
    for section in sections:
        node = node.setdefault(section, {})
        if not isinstance(node, dict):
            raise ConfigInvalid(f"{path}: no scenario section at this path")
    node[key] = value
    return _build(Scenario, document, "")
