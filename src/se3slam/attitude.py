"""Attitude reconstruction from paired body/datum direction vectors.

Solves the orthogonal-Procrustes (Wahba) problem on unit-normalized pairs:
find the rotation R minimizing sum ||body_i - R @ datum_i||^2. Used by the
observer to build a measured attitude from landmark observations and the
current map/pose estimates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateGeometry
from .liegroup import norms_from_squares

# Datum directions closer than this angle (rad) count as collinear.
COLLINEARITY_ANGLE = 1e-4
ZERO_NORM = 1e-12


def collinearity_rank(directions) -> int:
    """Effective rank of the unit directions at the angle threshold.
    ``directions`` is an (n, 3) float array of unit rows, taken as given."""
    # The eigenvalues l1 >= l2 >= l3 of the 3x3 Gram matrix G are the squared
    # singular values of the unit rows, so counting those above tau * l1 (tau =
    # COLLINEARITY_ANGLE**2) is the singular-value rule without an SVD.
    tau = COLLINEARITY_ANGLE**2
    gram = directions.T @ directions
    g0, g1, g2, g3, g4, g5, g6, g7, g8 = gram.ravel().tolist()
    # A rank-3 certificate in Python floats, from tr, det and e2 (the sum of the
    # principal 2x2 minors) of G. For PSD G, l1 l2 <= e2, so det > 2 tau tr e2
    # gives l3 = det / (l1 l2) >= det / e2 > 2 tau tr >= 2 tau l1: l3 clears the
    # threshold tau l1 by a factor 2, which eigvalsh's rounding (a small multiple
    # of eps l1 per eigenvalue) cannot undo. The term 64 eps tr^3 (eps = 2^-52)
    # covers the rounding of det and e2: |g_ij| <= sqrt(g_ii g_jj), so the six
    # products in det add up to at most 6 g_00 g_11 g_22 < tr^3 / 4. It also
    # covers a computed G that is PSD only to within a few eps tr. Any other G
    # is ranked by eigvalsh's count.
    m48, m37, m36 = g4 * g8 - g5 * g7, g3 * g8 - g5 * g6, g3 * g7 - g4 * g6
    tr = g0 + g4 + g8
    e2 = (g0 * g4 - g1 * g3) + (g0 * g8 - g2 * g6) + m48
    det = g0 * m48 - g1 * m37 + g2 * m36
    if det > 2.0 * tau * tr * e2 + 64.0 * 2.0**-52 * tr * tr * tr:
        return 3
    eig = np.linalg.eigvalsh(gram).tolist()  # ascending
    threshold = tau * eig[-1]
    return sum(e > threshold for e in eig)


def solve_attitude(body_vectors, datum_vectors) -> np.ndarray:
    """Rotation best aligning datum directions onto body directions.

    Both arguments are (n, 3) arrays of paired vectors, n >= 2; pairs are
    unit-normalized and uniformly weighted, so only directions matter. The
    determinant of the result is forced to +1. Exact pairs (body = R @ datum
    with >= 2 non-collinear datum directions) are recovered exactly. A row with
    a non-finite or near-zero norm, fewer than 2 pairs and collinear datum
    directions all raise DegenerateGeometry. Numpy's error state is the
    caller's: an overflowing norm may warn before DegenerateGeometry.
    """
    body = np.asarray(body_vectors, dtype=float)
    datum = np.asarray(datum_vectors, dtype=float)
    if body.ndim != 2 or body.shape != datum.shape or body.shape[0] < 2:
        raise DegenerateGeometry("need at least 2 paired vectors of equal count")
    # Both sides' rows normalized in one pass, with np.linalg.norm's bits, and
    # checked in one pass over Python floats. A squared norm past float range
    # reads inf, so a finite norm is below sqrt(DBL_MAX) ~ 1.3e154 and a sum of
    # finite norms cannot overflow: the sum is finite exactly when every norm
    # is, and NaN and inf carry through it (Python's max would drop a NaN).
    rows = np.concatenate((body, datum))
    norms = norms_from_squares(rows * rows)
    ns = norms.tolist()
    if not math.isfinite(sum(ns)):
        raise DegenerateGeometry("direction vector with a non-finite or overflowing norm")
    if min(ns) < ZERO_NORM:
        raise DegenerateGeometry("direction vector with near-zero norm")
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
