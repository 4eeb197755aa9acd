"""SO(3)/SE(3) primitives: hat/vee maps, exponentials, and rotation utilities.

Conventions:
    * hat(v) is the skew-symmetric matrix of the right-handed cross product,
      hat(v) @ w == cross(v, w).
    * A ``Pose`` stores ``dcm`` mapping datum-frame coordinates to body-frame
      coordinates, plus the body origin ``position`` resolved in the datum
      frame. The equivalent 4x4 homogeneous matrix carries ``dcm.T`` in its
      rotation block.

Validation happens where poses enter from outside: the public ``Pose(...)``
constructor, ``compose`` and ``inverse`` check their results. The raw-array
functions ``compose_raw``, ``inverse_raw`` and ``homogeneous`` carry the same
arithmetic without checks, for code whose inputs are rotations and finite
vectors by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrix, NonFiniteState, NotSkewSymmetric

# Below this rotation magnitude the trig coefficients switch to their series
# expansions to avoid 0/0.
SMALL_ANGLE = 1e-8
SKEW_TOL = 1e-9
ROTATION_TOL = 1e-9

_I3 = np.eye(3)


def hat(v) -> np.ndarray:
    """Skew-symmetric matrix S with S @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(m) -> np.ndarray:
    """Inverse of hat. Raises NotSkewSymmetric if m + m.T exceeds tolerance."""
    m = np.asarray(m, dtype=float)
    if np.linalg.norm(m + m.T) > SKEW_TOL:
        raise NotSkewSymmetric(f"matrix is not skew-symmetric within {SKEW_TOL}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _small_angle_coefficients(theta, power):
    """(a, b, c) below SMALL_ANGLE: their series about theta = 0."""
    theta2 = power(theta, 2)
    return 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0


def _trig_coefficients(theta, power):
    """(a, b, c) = (sin(theta)/theta, (1 - cos(theta))/theta^2, (theta - sin(theta))/theta^3)."""
    sin = np.sin(theta)
    return sin / theta, (1.0 - np.cos(theta)) / power(theta, 2), (theta - sin) / power(theta, 3)


def _so3_terms(axis_angle):
    """(a, b, c, K, K @ K) for one rotation vector v, with K = hat(v),
    theta = |v| and (a, b, c) from the coefficient functions above.

    Raises NonFiniteState when theta is not finite (a NaN entry, or finite
    entries whose norm overflows, would give NaN coefficients) or when theta^3
    overflows.
    """
    v = np.asarray(axis_angle, dtype=float)
    theta = float(np.linalg.norm(v))
    if not math.isfinite(theta):
        raise NonFiniteState(f"rotation vector has no finite norm: {v.tolist()}")
    k = hat(v)
    coefficients = _small_angle_coefficients if theta < SMALL_ANGLE else _trig_coefficients
    try:
        a, b, c = coefficients(theta, pow)
    except OverflowError:
        raise NonFiniteState(f"rotation angle {theta:g} overflows the SO(3) series") from None
    return a, b, c, k, k @ k


def vector_norm(v):
    """Euclidean norm over the last axis of v, with the bits np.linalg.norm
    gives a single 1-D vector (a dot product, not a sum of squares)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


# Flat indices of the off-diagonal entries of hat(v), the component of v in
# each and its sign: hat(v) = [[0, -z, y], [z, 0, -x], [-y, x, 0]].
_HAT_SLOTS = [1, 2, 3, 5, 6, 7]
_HAT_SOURCES = [2, 1, 2, 0, 1, 0]
_HAT_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _hat_stacked(v) -> np.ndarray:
    """hat over the leading axes of v (..., 3); a product with -1 is exact."""
    k = np.zeros(v.shape[:-1] + (9,))
    k[..., _HAT_SLOTS] = v[..., _HAT_SOURCES] * _HAT_SIGNS
    return k.reshape(v.shape[:-1] + (3, 3))


def _so3_terms_stacked(axis_angle):
    """_so3_terms over the leading axes of axis_angle (..., 3): a, b and c
    come shaped (..., 1, 1) and K, K @ K (..., 3, 3). Each slice has the
    bits _so3_terms gives that vector alone; theta^3 may overflow to inf here
    (c is then 0), and only a theta without a finite norm raises.
    """
    v = np.asarray(axis_angle, dtype=float)
    # An overflowing norm is rejected below; theta^2 and theta^3 may overflow.
    with np.errstate(over="ignore"):
        theta = vector_norm(v)
        finite = np.isfinite(theta)
        if not finite.all():
            bad = v.reshape(-1, 3)[~finite.reshape(-1)][0]
            raise NonFiniteState(f"rotation vector has no finite norm: {bad.tolist()}")
        small = theta < SMALL_ANGLE
        if small.any():
            series = _small_angle_coefficients(np.where(small, theta, 0.0), np.float_power)
            trig = _trig_coefficients(np.where(small, 1.0, theta), np.float_power)
            coefficients = (np.where(small, s, t) for s, t in zip(series, trig))
        else:
            coefficients = _trig_coefficients(theta, np.float_power)
    a, b, c = (x[..., None, None] for x in coefficients)
    k = _hat_stacked(v)
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


def is_rotation(m, tol: float = ROTATION_TOL) -> bool:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    if np.linalg.norm(m.T @ m - _I3) > tol:
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol


def check_rotation(m, tol: float = ROTATION_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not is_rotation(m, tol):
        raise ValueError("matrix violates rotation invariants (orthonormality / det)")
    return m


def reorthonormalize(m) -> np.ndarray:
    """Nearest rotation matrix (polar projection). Idempotent on exact rotations."""
    m = np.asarray(m, dtype=float)
    u, s, vt = np.linalg.svd(m)
    if np.linalg.det(m) <= 0.0 or s[-1] < 1e-12:
        raise DegenerateMatrix("input is singular or has non-positive determinant")
    return u @ vt


def rotation_angle(r):
    """Rotation angle in [0, pi] from the trace, clamped for numerical safety:
    a float for one matrix (3, 3), an array for a stack (..., 3, 3)."""
    cos = (np.trace(np.asarray(r, dtype=float), axis1=-2, axis2=-1) - 1.0) / 2.0
    angle = np.arccos(np.clip(cos, -1.0, 1.0))
    return float(angle) if angle.ndim == 0 else angle


def compose_raw(dcm_a, position_a, dcm_b, position_b):
    """(dcm, position) of the product a @ b of two poses given as raw arrays."""
    return dcm_b @ dcm_a, dcm_a.T @ position_b + position_a


def inverse_raw(dcm, position):
    """(dcm, position) of the inverse of a pose given as raw arrays."""
    return dcm.T, -(dcm @ position)


def homogeneous(dcm, position) -> np.ndarray:
    """4x4 homogeneous matrix of a pose given as raw arrays, over any leading
    axes of dcm (..., 3, 3) and position (..., 3)."""
    out = np.zeros(dcm.shape[:-2] + (4, 4))
    out[..., :3, :3] = np.swapaxes(dcm, -1, -2)
    out[..., :3, 3] = position
    out[..., 3, 3] = 1.0
    return out


@dataclass(frozen=True)
class Pose:
    """SE(3) element: datum->body rotation plus body position in the datum frame."""

    dcm: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dcm", check_rotation(self.dcm))
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("position must be a finite 3-vector")
        object.__setattr__(self, "position", p)

    @classmethod
    def unchecked(cls, dcm: np.ndarray, position: np.ndarray) -> "Pose":
        """Pose from float arrays that are a rotation and a finite 3-vector by
        construction; skips the checks of ``Pose(...)``."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "dcm", dcm)
        object.__setattr__(pose, "position", position)
        return pose

    @classmethod
    def identity(cls) -> "Pose":
        return cls(_I3.copy(), np.zeros(3))

    @property
    def matrix(self) -> np.ndarray:
        return homogeneous(self.dcm, self.position)

    def compose(self, other: "Pose") -> "Pose":
        """Homogeneous-matrix product self.matrix @ other.matrix."""
        return Pose(*compose_raw(self.dcm, self.position, other.dcm, other.position))

    def inverse(self) -> "Pose":
        return Pose(*inverse_raw(self.dcm, self.position))


def exp_se3(omega, v) -> Pose:
    """Matrix exponential of the twist [[hat(omega), v], [0, 0]] as a Pose.

    The rotation block equals exp_so3(omega); the translation block is the
    SO(3) left Jacobian applied to v. Both share one evaluation of the SO(3)
    terms, in the one-vector form (a stack costs more than this call for a
    single twist). A twist whose omega has a finite norm gives a rotation by
    construction, so only finiteness is checked: a non-finite v, or an omega
    without a finite norm or whose angle overflows the series, raises
    NonFiniteState.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise NonFiniteState("twist must be finite")
    a, b, c, k, kk = _so3_terms(omega)
    return Pose.unchecked(_series(a, b, k, kk).T, _series(b, c, k, kk) @ v)
