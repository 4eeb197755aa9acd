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


def _normalize_rows(vecs: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms < ZERO_NORM):
        raise ZeroVector("direction vector with near-zero norm")
    return vecs / norms[:, None]


def collinearity_rank(datum_vectors) -> int:
    """Effective rank of the normalized datum directions at the angle threshold."""
    vecs = np.atleast_2d(np.asarray(datum_vectors, dtype=float))
    if vecs.size == 0:
        return 0
    norms = np.linalg.norm(vecs, axis=1)
    keep = norms >= ZERO_NORM
    if not keep.any():
        return 0
    unit = vecs[keep] / norms[keep, None]
    # The eigenvalues of the 3x3 Gram matrix are the squared singular values
    # of the unit rows, so this is the singular-value rule without an SVD.
    eig = np.linalg.eigvalsh(unit.T @ unit)
    return int(np.count_nonzero(eig > COLLINEARITY_ANGLE**2 * eig[-1]))


def solve_attitude(body_vectors, datum_vectors) -> np.ndarray:
    """Rotation best aligning datum directions onto body directions.

    Both arguments are (n, 3) arrays of paired vectors, n >= 2; pairs are
    unit-normalized and uniformly weighted, so only directions matter. The
    determinant of the result is forced to +1. Exact pairs (body = R @ datum
    with >= 2 non-collinear datum directions) are recovered exactly.
    """
    body = np.atleast_2d(np.asarray(body_vectors, dtype=float))
    datum = np.atleast_2d(np.asarray(datum_vectors, dtype=float))
    if body.shape != datum.shape or body.shape[0] < 2:
        raise DegenerateGeometry("need at least 2 paired vectors of equal count")
    b = _normalize_rows(body)
    d = _normalize_rows(datum)
    if collinearity_rank(d) < 2:
        raise DegenerateGeometry("fewer than 2 non-collinear datum directions")
    u, _, vt = np.linalg.svd(b.T @ d)
    sign = np.sign(np.linalg.det(u @ vt))
    return (u * np.array([1.0, 1.0, sign])) @ vt
