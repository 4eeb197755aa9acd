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


def _so3_terms(axis_angle):
    """(a, b, c, K, K @ K) for K = hat(v), theta = |v|: a = sin(theta)/theta,
    b = (1 - cos(theta))/theta^2 and c = (theta - sin(theta))/theta^3.

    Raises NonFiniteState when theta is not finite: a NaN entry, or finite
    entries whose norm overflows, would otherwise give NaN coefficients.
    """
    v = np.asarray(axis_angle, dtype=float)
    theta = float(np.linalg.norm(v))
    if not math.isfinite(theta):
        raise NonFiniteState(f"rotation vector has no finite norm: {v.tolist()}")
    k = hat(v)
    if theta < SMALL_ANGLE:
        a, b, c = 1.0 - theta**2 / 6.0, 0.5 - theta**2 / 24.0, 1.0 / 6.0 - theta**2 / 120.0
    else:
        sin = np.sin(theta)
        a, b, c = sin / theta, (1.0 - np.cos(theta)) / theta**2, (theta - sin) / theta**3
    return a, b, c, k, k @ k


def _series(p, q, k, kk) -> np.ndarray:
    """I + p K + q K^2, the closed form of every SO(3) series used here."""
    return _I3 + p * k + q * kk


def exp_so3(axis_angle) -> np.ndarray:
    """Rodrigues rotation matrix for the axis-angle vector."""
    a, b, _, k, kk = _so3_terms(axis_angle)
    return _series(a, b, k, kk)


def _left_jacobian_so3(axis_angle) -> np.ndarray:
    _, b, c, k, kk = _so3_terms(axis_angle)
    return _series(b, c, k, kk)


def right_jacobian_so3(axis_angle) -> np.ndarray:
    """Right Jacobian of SO(3): d/dt exp(hat(a)) = exp(hat(a)) hat(Jr(a) da/dt)."""
    return _left_jacobian_so3(np.negative(np.asarray(axis_angle, dtype=float)))


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


def rotation_angle(r) -> float:
    """Rotation angle in [0, pi] from the trace, clamped for numerical safety."""
    cos = (np.asarray(r, dtype=float).trace() - 1.0) / 2.0
    return float(np.arccos(min(max(cos, -1.0), 1.0)))


def compose_raw(dcm_a, position_a, dcm_b, position_b):
    """(dcm, position) of the product a @ b of two poses given as raw arrays."""
    return dcm_b @ dcm_a, dcm_a.T @ position_b + position_a


def inverse_raw(dcm, position):
    """(dcm, position) of the inverse of a pose given as raw arrays."""
    return dcm.T, -(dcm @ position)


def homogeneous(dcm, position) -> np.ndarray:
    """4x4 homogeneous matrix of a pose given as raw arrays."""
    out = np.eye(4)
    out[:3, :3] = dcm.T
    out[:3, 3] = position
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
    terms. A twist whose omega has a finite norm gives a rotation by
    construction, so only finiteness is checked: a non-finite v, or an omega
    without a finite norm, raises NonFiniteState.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise NonFiniteState("twist must be finite")
    a, b, c, k, kk = _so3_terms(omega)
    return Pose.unchecked(_series(a, b, k, kk).T, _series(b, c, k, kk) @ v)
