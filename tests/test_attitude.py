import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counted_eigvalsh, random_rotation
from se3slam.attitude import COLLINEARITY_ANGLE, ZERO_NORM, collinearity_rank, solve_attitude
from se3slam.errors import DegenerateGeometry
from se3slam.liegroup import is_rotation


def test_identity_pairs():
    dirs = np.eye(3)
    assert np.allclose(solve_attitude(dirs, dirs), np.eye(3), atol=1e-14)


def test_recovers_generating_rotation(rng):
    datum = np.eye(3)
    for _ in range(20):
        r = random_rotation(rng)
        body = datum @ r.T
        assert np.allclose(solve_attitude(body, datum), r, atol=1e-12)


def _unit_rows(vectors):
    """The rows normalized as solve_attitude normalizes them."""
    return vectors / np.sqrt((vectors * vectors).sum(axis=1))[:, None]


def test_exact_consistency_random_pairs(rng):
    for _ in range(50):
        n = rng.integers(2, 8)
        datum = rng.normal(size=(n, 3))
        if collinearity_rank(_unit_rows(datum)) < 2:
            continue
        r = random_rotation(rng)
        body = datum @ r.T
        assert np.allclose(solve_attitude(body, datum), r, atol=1e-10)


def test_rotation_equivariance(rng):
    datum = rng.normal(size=(5, 3))
    r = random_rotation(rng)
    q = random_rotation(rng)
    body = datum @ r.T
    assert np.allclose(solve_attitude(body @ q.T, datum), q @ r, atol=1e-10)


def test_permutation_invariance(rng):
    datum = rng.normal(size=(6, 3))
    body = datum @ random_rotation(rng).T + 0.01 * rng.normal(size=(6, 3))
    base = solve_attitude(body, datum)
    perm = rng.permutation(6)
    assert np.allclose(solve_attitude(body[perm], datum[perm]), base, atol=1e-12)


def test_output_is_rotation_under_noise(rng):
    for _ in range(20):
        datum = rng.normal(size=(4, 3))
        body = datum @ random_rotation(rng).T + 0.1 * rng.normal(size=(4, 3))
        assert is_rotation(solve_attitude(body, datum))


def test_collinear_datum_raises():
    datum = np.array([[1.0, 0, 0], [2.0, 0, 0], [-3.0, 0, 0]])
    body = datum.copy()
    with pytest.raises(DegenerateGeometry):
        solve_attitude(body, datum)


def test_single_pair_raises():
    with pytest.raises(DegenerateGeometry):
        solve_attitude(np.array([[1.0, 0, 0]]), np.array([[1.0, 0, 0]]))


def test_zero_vector_raises():
    datum = np.array([[1.0, 0, 0], [0.0, 0, 0]])
    with pytest.raises(DegenerateGeometry, match="near-zero norm"):
        solve_attitude(datum, datum)


ZERO_ROW = [0.0, 0.5 * ZERO_NORM, 0.0]


@pytest.mark.parametrize("side", ["body", "datum"])
@pytest.mark.parametrize(
    "bad, error, message",
    [
        ({1: [np.nan, 0.0, 0.0]}, DegenerateGeometry, "non-finite"),
        ({1: [0.0, np.inf, 0.0]}, DegenerateGeometry, "non-finite"),
        ({1: [0.0, 0.0, -np.inf]}, DegenerateGeometry, "non-finite"),
        ({1: [1.0e200, 0.0, 0.0]}, DegenerateGeometry, "non-finite or overflowing"),
        ({1: ZERO_ROW}, DegenerateGeometry, "near-zero"),
        ({0: ZERO_ROW, 2: [np.nan, 0.0, 0.0]}, DegenerateGeometry, "non-finite"),
        ({0: ZERO_ROW, 2: [0.0, np.inf, 0.0]}, DegenerateGeometry, "non-finite"),
        ({1: [np.nan, 0.0, 0.0], 3: ZERO_ROW}, DegenerateGeometry, "non-finite"),
        ({1: [0.0, -np.inf, 0.0], 3: ZERO_ROW}, DegenerateGeometry, "non-finite"),
    ],
    ids=[
        "nan",
        "inf",
        "-inf",
        "overflowing",
        "zero",
        "zero-then-nan",
        "zero-then-inf",
        "nan-and-zero-across",
        "inf-and-zero-across",
    ],
)
def test_bad_row_among_good_ones_raises(side, bad, error, message):
    # the solve checks every row before the rank and the SVD: a NaN, infinite
    # or overflowing direction ends in DegenerateGeometry, never in numpy's
    # LinAlgError, and a finite row whose squared norm overflows is not read
    # as a zero direction. A non-finite row wins over a zero row wherever
    # either sits. ``bad`` places rows by index in [side's 3 rows; other's 3].
    rows = np.vstack((np.eye(3), np.eye(3)))
    for index, row in bad.items():
        rows[index] = row
    body, datum = (rows[:3], rows[3:]) if side == "body" else (rows[3:], rows[:3])
    with np.errstate(over="ignore"), pytest.raises(error, match=message):
        solve_attitude(body, datum)


def test_solve_is_scale_invariant(rng):
    # directions on a line, a plane or all of space: rescaling the rows keeps
    # the outcome, a rotation or a DegenerateGeometry for collinear datums
    for base_rank in (1, 2, 3):
        for _ in range(10):
            count = int(rng.integers(2, 9))
            datum = _unit_rows(rng.normal(size=(count, base_rank)) @ random_rotation(rng)[:base_rank])
            body = datum @ random_rotation(rng).T
            scale_b, scale_d = rng.uniform(0.1, 10.0, size=(2, count, 1))
            if base_rank == 1:
                for b, d in ((body, datum), (body * scale_b, datum * scale_d)):
                    with pytest.raises(DegenerateGeometry, match="non-collinear"):
                        solve_attitude(b, d)
            else:
                rot = solve_attitude(body, datum)
                assert np.allclose(solve_attitude(body * scale_b, datum * scale_d), rot, atol=1e-12)


def test_one_dimensional_input_raises():
    with pytest.raises(DegenerateGeometry):
        solve_attitude(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
    with pytest.raises(DegenerateGeometry):
        solve_attitude(np.array([1.0, 0, 0, 0, 1.0, 0]), np.eye(3)[:2])


def _oracle_solve(body, datum):
    """The solve as first written: numpy's norm, SVD and determinant sign."""
    b = body / np.linalg.norm(body, axis=1)[:, None]
    d = datum / np.linalg.norm(datum, axis=1)[:, None]
    u, _, vt = np.linalg.svd(b.T @ d)
    sign = np.sign(np.linalg.det(u @ vt))
    return (u * np.array([1.0, 1.0, sign])) @ vt


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 11), st.booleans(), st.floats(-8.0, 0.0))
def test_solve_matches_the_first_formula_bit_for_bit(seed, count, mirrored, log_noise):
    # Mirrored pairs have a reflection (det -1) as their unconstrained optimum,
    # so the determinant fix must flip it; the others take the plain u @ vt.
    rng = np.random.default_rng(seed)
    datum = rng.normal(size=(count, 3)) * rng.uniform(0.1, 10.0, size=(count, 1))
    if mirrored:
        body = datum * np.array([1.0, 1.0, -1.0])
    else:
        body = datum @ random_rotation(rng).T + 10.0**log_noise * rng.normal(size=(count, 3))
    if collinearity_rank(_unit_rows(datum)) < 2:
        return
    rot = solve_attitude(body, datum)
    assert np.array_equal(rot, _oracle_solve(body, datum))
    assert np.linalg.det(rot) > 0.0


def test_rank_empty():
    assert collinearity_rank(np.zeros((0, 3))) == 0


def test_rank_two_orthogonal():
    assert collinearity_rank(np.array([[1.0, 0, 0], [0, 1.0, 0]])) == 2


def test_rank_collinear_is_one():
    assert collinearity_rank(np.array([[1.0, 0, 0], [-1.0, 0, 0]])) == 1


def test_rank_random_directions_full(rng):
    # oracle: singular-value count of the stacked direction matrix
    for _ in range(20):
        dirs = rng.normal(size=(10, 3))
        unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        s = np.linalg.svd(unit, compute_uv=False)
        expected = int(np.sum(s > 1e-4 * s[0]))
        assert collinearity_rank(unit) == expected == 3


def test_rank_three_needs_no_eigvalsh_and_lower_ranks_do(rng):
    # well-spread directions are ranked by the certificate alone; coplanar and
    # collinear ones cannot be, and eigvalsh counts them
    spread = [np.eye(3), _unit_rows(rng.normal(size=(10, 3)))]
    plane = _unit_rows(rng.normal(size=(6, 2)) @ random_rotation(rng)[:2])
    line = np.outer([1.0, -1.0, 1.0], random_rotation(rng)[0])
    for dirs, rank, calls in [(d, 3, 0) for d in spread] + [(plane, 2, 1), (line, 1, 1)]:
        with counted_eigvalsh() as eigvalsh_calls:
            assert collinearity_rank(dirs) == rank
        assert len(eigvalsh_calls) == calls


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.floats(-1.0, 1.0),
    st.integers(1, 2),
)
def test_certificate_fires_only_where_eigvalsh_counts_three(seed, count, log_ratio, base_rank):
    # unit directions about a line or a plane, spread within a decade of the
    # collinearity angle either way, so the smallest eigenvalue sits on both
    # sides of the threshold. Whenever the rank comes back without eigvalsh,
    # eigvalsh would have counted 3 eigenvalues above the threshold.
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, base_rank)) @ random_rotation(rng)[:base_rank]
    spread = COLLINEARITY_ANGLE * 10.0**log_ratio
    dirs += spread * np.linalg.norm(dirs, axis=1)[:, None] * rng.normal(size=(count, 3))
    unit = _unit_rows(dirs)
    with counted_eigvalsh() as eigvalsh_calls:
        rank = collinearity_rank(unit)
    if not eigvalsh_calls:
        eig = np.linalg.eigvalsh(unit.T @ unit)
        assert rank == np.count_nonzero(eig > COLLINEARITY_ANGLE**2 * eig[-1]) == 3


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.floats(-7.0, 0.0),
    st.integers(1, 3),
)
def test_rank_matches_the_svd_rule(seed, count, log_spread, base_rank):
    # directions spread by 10**log_spread about a line, a plane or all of space
    rng = np.random.default_rng(seed)
    basis = random_rotation(rng)[:base_rank]
    dirs = rng.normal(size=(count, base_rank)) @ basis
    dirs += 10.0**log_spread * np.linalg.norm(dirs, axis=1)[:, None] * rng.normal(size=(count, 3))
    dirs *= rng.uniform(0.1, 10.0, size=(count, 1))
    # oracle: the singular-value rule the rank was first computed by
    unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    s = np.linalg.svd(unit, compute_uv=False)
    ratios = s / s[0]
    if np.any(np.abs(ratios / COLLINEARITY_ANGLE - 1.0) < 0.01):
        return  # too close to the threshold for either rule to be the right one
    assert collinearity_rank(unit) == np.count_nonzero(ratios > COLLINEARITY_ANGLE)


def _rank_normalizing_again(unit):
    """The rank as it was before it took unit rows: the rows normalized once
    more and zero rows dropped. Returns the rank, the Gram eigenvalues and the
    threshold."""
    norms = np.sqrt((unit * unit).sum(axis=1))
    keep = norms >= ZERO_NORM
    vecs = unit[keep] / norms[keep][:, None]
    eig = np.linalg.eigvalsh(vecs.T @ vecs)
    threshold = COLLINEARITY_ANGLE**2 * eig[-1]
    return np.count_nonzero(eig > threshold), eig, threshold


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 11),
    st.floats(-0.5, 0.5),
    st.integers(1, 2),
)
def test_rank_of_unit_rows_matches_normalizing_again(seed, count, log_ratio, base_rank):
    # directions about a line or a plane, spread within half a decade of the
    # collinearity angle, so the smallest eigenvalues sit near the threshold.
    # The second normalization moves the Gram matrix by rounding only; an
    # eigenvalue that close to the threshold may fall either side of it.
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, base_rank)) @ random_rotation(rng)[:base_rank]
    spread = COLLINEARITY_ANGLE * 10.0**log_ratio
    dirs += spread * np.linalg.norm(dirs, axis=1)[:, None] * rng.normal(size=(count, 3))
    unit = _unit_rows(dirs * rng.uniform(0.1, 10.0, size=(count, 1)))
    expected, eig_again, threshold_again = _rank_normalizing_again(unit)
    eig = np.linalg.eigvalsh(unit.T @ unit)
    threshold = COLLINEARITY_ANGLE**2 * eig[-1]
    if np.any(np.abs(eig_again / threshold_again - 1.0) < 1e-6) or np.any(
        np.abs(eig / threshold - 1.0) < 1e-6
    ):
        return
    assert collinearity_rank(unit) == expected
