"""SO(3)/SE(3) primitives: hat/vee maps, exponentials, and rotation utilities.

Conventions:
    * hat(v) is the skew-symmetric matrix of the right-handed cross product,
      hat(v) @ w == cross(v, w).
    * A pose is ``dcm`` mapping datum-frame coordinates to body-frame
      coordinates, plus the body origin ``position`` resolved in the datum
      frame. The equivalent 4x4 homogeneous matrix carries ``dcm.T`` in its
      rotation block.

Inside the package a pose is the plain pair of arrays (dcm, position):
``exp_se3`` returns one, and ``homogeneous`` (the 4x4 matrix) takes one, with
no checks, for code whose inputs are rotations and finite vectors by
construction. ``Pose`` is the checked public value: its constructor validates
both fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NonFiniteState

# Below this rotation magnitude the trig coefficients switch to their series
# expansions to avoid 0/0.
SMALL_ANGLE = 1e-8
SKEW_TOL = 1e-9
ROTATION_TOL = 1e-9

_I3 = np.eye(3)


def hat(v) -> np.ndarray:
    """Skew-symmetric matrix S with S @ w == cross(v, w), or the stack of
    them (..., 3, 3) for vectors v (..., 3)."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    zero = np.zeros(x.shape)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(x.shape + (3, 3))


def vee(m) -> np.ndarray:
    """Inverse of hat (3x3 array or nested rows); ValueError if |m + m.T|_F > SKEW_TOL."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    d01, d02, d12 = m01 + m10, m02 + m20, m12 + m21
    sym = 4.0 * (m00 * m00 + m11 * m11 + m22 * m22) + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12)
    if math.sqrt(sym) > SKEW_TOL:
        raise ValueError(f"matrix is not skew-symmetric within {SKEW_TOL}")
    return np.array([m21, m02, m10], dtype=float)


# ``lib`` of the coefficient functions: the math module for one angle, this for an array.
_NUMPY = SimpleNamespace(pow=np.float_power, sin=np.sin, cos=np.cos)


def _small_angle_coefficients(theta, lib):
    """(a, b, c) below SMALL_ANGLE: their series about theta = 0."""
    theta2 = lib.pow(theta, 2)
    return 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0


def _trig_coefficients(theta, lib):
    """(a, b, c) = (sin(theta)/theta, (1 - cos(theta))/theta^2, (theta - sin(theta))/theta^3)."""
    s = lib.sin(theta)
    return s / theta, (1.0 - lib.cos(theta)) / lib.pow(theta, 2), (theta - s) / lib.pow(theta, 3)


def vector_norm(v):
    """Euclidean norm over the last axis of v, with the bits np.linalg.norm
    gives a single 1-D vector (a dot product, not a sum of squares)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def norms_from_squares(sq):
    """Row norms from the squares sq (..., 3) of the rows: the bits of
    np.linalg.norm(x, axis=-1), which is sqrt(add.reduce(x * x)) summed in
    this order, without a reduction over a length-3 axis."""
    return np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])


def _so3_terms_stacked(axis_angle):
    """(a, b, c, K, K @ K) over the leading axes of rotation vectors v (..., 3),
    with K = hat(v), theta = |v|, a, b and c shaped (..., 1, 1); each slice has
    the bits numpy gives that vector alone. theta^3 may overflow to inf (c is
    then 0); only a theta without a finite norm raises NonFiniteState."""
    v = np.asarray(axis_angle, dtype=float)
    # An overflowing norm is rejected below; theta^2 and theta^3 may overflow.
    with np.errstate(over="ignore"):
        theta = vector_norm(v)
        finite = np.isfinite(theta)
        if not finite.all():
            bad = v.reshape(-1, 3)[~finite.reshape(-1)][0]
            raise NonFiniteState(f"rotation vector has no finite norm: {bad.tolist()}")
        # Both forms at every angle, each fed a harmless stand-in where the other is kept.
        small = theta < SMALL_ANGLE
        series = _small_angle_coefficients(np.where(small, theta, 0.0), _NUMPY)
        trig = _trig_coefficients(np.where(small, 1.0, theta), _NUMPY)
        coefficients = (np.where(small, s, t) for s, t in zip(series, trig))
    a, b, c = (x[..., None, None] for x in coefficients)
    k = hat(v)
    return a, b, c, k, k @ k


def _series(p, q, k, kk) -> np.ndarray:
    """I + p K + q K^2, the closed form of every SO(3) series used here."""
    return _I3 + p * k + q * kk


def exp_so3(axis_angle) -> np.ndarray:
    """Rodrigues rotation matrix of an axis-angle vector (3,), or the stack
    of them (..., 3, 3) for rotation vectors (..., 3)."""
    a, b, _, k, kk = _so3_terms_stacked(axis_angle)
    return _series(a, b, k, kk)


def exp_so3_with_right_jacobian(axis_angle):
    """(exp_so3(a), Jr(a)) from one evaluation of the SO(3) terms, where Jr is
    the right Jacobian: d/dt exp(hat(a)) = exp(hat(a)) hat(Jr(a) da/dt).

    Jr(a) is the left Jacobian I + b K + c K^2 at -a; b and c are even in a,
    hat(-a) = -K, and (-K)(-K) = K K exactly. Over leading axes like exp_so3.
    """
    a, b, c, k, kk = _so3_terms_stacked(axis_angle)
    return _series(a, b, k, kk), _series(b, c, -k, kk)


def rotation_drift(m) -> float:
    """|m @ m.T - I|_F (= |m.T @ m - I|_F) of a 3x3 matrix given as nested rows, in floats."""
    (a, b, c), (d, e, f), (g, h, i) = m
    ad, ag, dg = a * d + b * e + c * f, a * g + b * h + c * i, d * g + e * h + f * i
    aa, dd, gg = a * a + b * b + c * c - 1, d * d + e * e + f * f - 1, g * g + h * h + i * i - 1
    return math.sqrt(aa * aa + dd * dd + gg * gg + 2.0 * (ad * ad + ag * ag + dg * dg))


def is_rotation(m) -> bool:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    drift = rotation_drift(m.tolist())
    return drift <= ROTATION_TOL and abs(np.linalg.det(m) - 1.0) <= ROTATION_TOL


def reorthonormalize(m) -> np.ndarray:
    """Nearest rotation matrix (polar projection). Idempotent on exact rotations;
    ValueError for a singular matrix or one with det <= 0."""
    m = np.asarray(m, dtype=float)
    u, s, vt = np.linalg.svd(m)
    if np.linalg.det(m) <= 0.0 or s[-1] < 1e-12:
        raise ValueError("input is singular or has non-positive determinant")
    return u @ vt


def rotation_angle(r):
    """Rotation angle atan2(|vee(R - R.T)| / 2, (tr R - 1) / 2) in [0, pi], exact
    near 0 too: np.float64 (a float) for one matrix, elementwise (same bits)
    for a stack."""
    r = np.asarray(r, dtype=float)
    cos = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    x, y, z = r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1]
    return np.arctan2(0.5 * np.sqrt(x * x + y * y + z * z), cos)


def homogeneous(dcm, position) -> np.ndarray:
    """4x4 homogeneous matrix of a pose given as raw arrays, over any leading
    axes of dcm (..., 3, 3) and position (..., 3)."""
    out = np.zeros(dcm.shape[:-2] + (4, 4))
    out[..., :3, :3] = np.swapaxes(dcm, -1, -2)
    out[..., :3, 3] = position
    out[..., 3, 3] = 1.0
    return out


@dataclass(frozen=True, eq=False)
class Pose:
    """SE(3) element: datum->body rotation plus body position in the datum frame.
    Compares by identity (eq=False): its fields are arrays."""

    dcm: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        dcm = np.asarray(self.dcm, dtype=float)
        if not is_rotation(dcm):
            raise ValueError("matrix violates rotation invariants (orthonormality / det)")
        object.__setattr__(self, "dcm", dcm)
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("position must be a finite 3-vector")
        object.__setattr__(self, "position", p)

    @property
    def matrix(self) -> np.ndarray:
        return homogeneous(self.dcm, self.position)


def exp_se3(omega, v) -> tuple[np.ndarray, np.ndarray]:
    """Matrix exponential of the twist [[hat(omega), v], [0, 0]] as (dcm, position):
    ``exp_se3_floats`` of the six components, as arrays."""
    dcm, position = exp_se3_floats(*map(float, omega), *map(float, v))
    return np.array(dcm).reshape(3, 3), np.array(position)


def exp_se3_floats(x, y, z, v0, v1, v2):
    """Matrix exponential of the twist [[hat(omega), v], [0, 0]], omega = (x, y, z),
    in Python floats: the dcm's nine entries row by row and the position's three.
    With K = hat(omega), exp(K) = I + a K + b K^2 and the left Jacobian
    I + b K + c K^2 applied to v (Sola et al., arXiv:1812.01537), equal to
    exp_so3 up to rounding. A non-finite v, or an omega without a finite norm
    or whose angle overflows the series, raises NonFiniteState."""
    if not (math.isfinite(v0) and math.isfinite(v1) and math.isfinite(v2)):
        raise NonFiniteState("twist must be finite")
    theta = math.sqrt(x * x + y * y + z * z)
    if not math.isfinite(theta):
        raise NonFiniteState(f"rotation vector has no finite norm: {[x, y, z]}")
    coefficients = _small_angle_coefficients if theta < SMALL_ANGLE else _trig_coefficients
    try:
        a, b, c = coefficients(theta, math)
    except OverflowError:
        raise NonFiniteState(f"rotation angle {theta:g} overflows the SO(3) series") from None
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    ax, ay, az = a * x, a * y, a * z
    dcm = (  # exp(K).T, with K^2 = omega omega^T - theta^2 I
        1.0 - b * (y * y + z * z), bxy + az, bxz - ay,
        bxy - az, 1.0 - b * (x * x + z * z), byz + ax,
        bxz + ay, byz - ax, 1.0 - b * (x * x + y * y),
    )
    # K v = omega x v, so the Jacobian gives v + b (omega x v) + c omega x (omega x v).
    u0, u1, u2 = y * v2 - z * v1, z * v0 - x * v2, x * v1 - y * v0
    t0, t1, t2 = y * u2 - z * u1, z * u0 - x * u2, x * u1 - y * u0
    return dcm, (v0 + b * u0 + c * t0, v1 + b * u1 + c * t1, v2 + b * u2 + c * t2)
