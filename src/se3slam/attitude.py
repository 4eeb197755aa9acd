"""Attitude reconstruction from paired body/datum direction vectors.

Solves the orthogonal-Procrustes (Wahba) problem on unit-normalized pairs:
find the rotation R minimizing sum ||body_i - R @ datum_i||^2. Used by the
observer to build a measured attitude from landmark observations and the
current map/pose estimates.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometry, ZeroVector

# Datum directions closer than this angle (rad) count as collinear.
COLLINEARITY_ANGLE = 1e-4
ZERO_NORM = 1e-12


def collinearity_rank(directions) -> int:
    """Effective rank of the unit directions at the angle threshold.
    ``directions`` is an (n, 3) float array of unit rows, taken as given."""
    # The eigenvalues of the 3x3 Gram matrix are the squared singular values
    # of the unit rows, so this is the singular-value rule without an SVD.
    eig = np.linalg.eigvalsh(directions.T @ directions).tolist()  # ascending
    threshold = COLLINEARITY_ANGLE**2 * eig[-1]
    return sum(e > threshold for e in eig)


def solve_attitude(body_vectors, datum_vectors) -> np.ndarray:
    """Rotation best aligning datum directions onto body directions.

    Both arguments are (n, 3) arrays of paired vectors, n >= 2; pairs are
    unit-normalized and uniformly weighted, so only directions matter. The
    determinant of the result is forced to +1. Exact pairs (body = R @ datum
    with >= 2 non-collinear datum directions) are recovered exactly. Numpy's
    error state is the caller's: an overflowing norm may warn before DegenerateGeometry.
    """
    body = np.asarray(body_vectors, dtype=float)
    datum = np.asarray(datum_vectors, dtype=float)
    if body.ndim != 2 or body.shape != datum.shape or body.shape[0] < 2:
        raise DegenerateGeometry("need at least 2 paired vectors of equal count")
    # Both sides' rows normalized in one pass, with np.linalg.norm's bits. max()
    # propagates NaN, and a squared norm past float range reads inf.
    rows = np.concatenate((body, datum))
    norms = np.sqrt((rows * rows).sum(axis=1))
    if not norms.max() < np.inf:
        raise DegenerateGeometry("direction vector with a non-finite or overflowing norm")
    if norms.min() < ZERO_NORM:
        raise ZeroVector("direction vector with near-zero norm")
    dirs = rows / norms[:, None]
    b, d = dirs[: len(body)], dirs[len(body) :]
    if collinearity_rank(d) < 2:
        raise DegenerateGeometry("fewer than 2 non-collinear datum directions")
    u, _, vt = np.linalg.svd(b.T @ d)
    rot = u @ vt
    (r0, r1, r2), (r3, r4, r5), (r6, r7, r8) = rot.tolist()  # only the sign of det(rot) = +-1
    if r0 * (r4 * r8 - r5 * r7) - r1 * (r3 * r8 - r5 * r6) + r2 * (r3 * r7 - r4 * r6) < 0.0:
        rot = (u * np.array([1.0, 1.0, -1.0])) @ vt  # a reflection: flip the last direction
    return rot
