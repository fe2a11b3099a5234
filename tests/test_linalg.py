import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matwalk as mw
from matwalk.linalg import CANONICAL_ZERO, canonicalize_rows, check_group_element

from conftest import random_invertible

SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# --- operator norm ---

def test_operator_norm_identity_and_diagonal():
    assert mw.operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert mw.operator_norm(np.diag([3.0, -2.0])) == pytest.approx(3.0, abs=1e-14)


def test_operator_norm_shear_matches_symmetric_eigensolver_oracle():
    # oracle: largest eigenvalue of g^T g, taken by a symmetric eigensolver
    oracle = float(np.sqrt(np.linalg.eigvalsh(SHEAR.T @ SHEAR).max()))
    assert oracle == pytest.approx(GOLDEN, abs=1e-12)
    assert mw.operator_norm(SHEAR) == pytest.approx(1.618033988749895, abs=1e-12)


def test_norm_attained_on_top_right_singular_direction():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = random_invertible(rng, 3)
        triple = mw.cartan(g)
        v = triple.l[0]  # top right singular direction
        assert np.linalg.norm(g @ v) == pytest.approx(mw.operator_norm(g), rel=1e-9)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        assert np.linalg.norm(g @ u) <= mw.operator_norm(g) * (1 + 1e-12)


# --- exterior powers ---

def test_exterior_square_dim2_is_determinant():
    g = np.array([[2.0, 1.0], [0.5, 3.0]])
    assert mw.exterior_square(g) == pytest.approx(np.array([[np.linalg.det(g)]]))


def test_exterior_square_diagonal():
    out = mw.exterior_square(np.diag([2.0, 3.0, 5.0]))
    assert out == pytest.approx(np.diag([6.0, 10.0, 15.0]))


def test_exterior_square_scaling():
    out = mw.exterior_square(2.5 * np.eye(4))
    assert out == pytest.approx(2.5**2 * np.eye(6))


def test_exterior_square_rejects_dim1():
    with pytest.raises(mw.DimensionError):
        mw.exterior_square(np.array([[2.0]]))


def test_exterior_square_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        g, h = random_invertible(rng, d), random_invertible(rng, d)
        lhs = mw.exterior_square(g @ h)
        rhs = mw.exterior_square(g) @ mw.exterior_square(h)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())


def test_exterior_square_acts_as_wedge():
    rng = np.random.default_rng(13)
    g = random_invertible(rng, 4)
    v, w = rng.normal(size=4), rng.normal(size=4)

    def wedge_coords(a, b):
        outer = np.outer(a, b) - np.outer(b, a)
        return np.array([outer[i, j] for i in range(4) for j in range(i + 1, 4)])

    assert mw.exterior_square(g) @ wedge_coords(v, w) == pytest.approx(
        wedge_coords(g @ v, g @ w)
    )


def test_wedge_square_norm_bounded_by_square():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_invertible(rng, int(rng.integers(2, 5)))
        assert mw.operator_norm(mw.exterior_square(g)) <= mw.operator_norm(g) ** 2 * (1 + 1e-12)


# --- projective points and distances ---

def test_projective_point_canonical_sign_and_equality():
    a = mw.ProjectivePoint([-1.0, 0.0])
    b = mw.ProjectivePoint([2.0, 0.0])
    assert a == b
    assert hash(a) == hash(b)
    assert a.rep[0] == 1.0


# first entries at, just below and just above the threshold, and -0.0 entries
_SIGN_CASES = [[-1e-12, 1.0], [-1e-13, 1.0], [1e-13, -1.0], [-1e-11, 1.0], [-0.0, -1.0],
               [0.0, -0.6, 0.8], [-0.0, 1e-13, -1.0], [1e-13, -0.0, -0.6, 0.8]]


@pytest.mark.parametrize("v", _SIGN_CASES)
def test_points_rows_and_cartan_share_the_sign_rule(v):
    v = np.array(v)
    unit = v / np.linalg.norm(v)
    lead = next(c for c in unit if abs(c) > CANONICAL_ZERO)
    want = (unit if lead > 0.0 else -unit) + 0.0
    for rep in (mw.ProjectivePoint(v).rep, mw.DualProjectivePoint(v).rep,
                canonicalize_rows(v[None])[0]):
        assert rep.tobytes() == want.tobytes()
    # a Householder reflection takes e_1 to the line of v, the top left singular
    # direction of g; the SVD rounds it, so each column of k is checked as it is
    w = unit - np.eye(len(v))[0]
    g = (np.eye(len(v)) - 2.0 * np.outer(w, w) / (w @ w)) @ np.diag(np.arange(len(v), 0.0, -1.0))
    triple = mw.cartan(g)
    assert abs(triple.k[:, 0] @ unit) == pytest.approx(1.0, abs=1e-14)
    assert triple.matrix() == pytest.approx(g, abs=1e-14)
    for col in triple.k.T:
        assert mw.ProjectivePoint(col).rep == pytest.approx(col, abs=1e-15)


def test_primal_and_dual_points_never_compare_equal():
    assert mw.ProjectivePoint([1.0, 0.0]) != mw.DualProjectivePoint([1.0, 0.0])


def test_proj_distance_examples():
    e1 = mw.ProjectivePoint([1.0, 0.0])
    e2 = mw.ProjectivePoint([0.0, 1.0])
    mid = mw.ProjectivePoint([1.0, 1.0])
    assert mw.proj_distance(e1, e1) == 0.0
    assert mw.proj_distance(e1, e2) == pytest.approx(1.0, abs=1e-15)
    # oracle: direct wedge-norm evaluation of unit representatives
    assert mw.proj_distance(e1, mid) == pytest.approx(0.7071067811865475, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_proj_distance_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    x, y, z = (mw.ProjectivePoint(rng.normal(size=d)) for _ in range(3))
    assert mw.proj_distance(x, z) <= mw.proj_distance(x, y) + mw.proj_distance(y, z) + 1e-12
    assert 0.0 <= mw.proj_distance(x, y) <= 1.0


def test_delta_examples():
    e1 = mw.ProjectivePoint([1.0, 0.0])
    mid = mw.ProjectivePoint([1.0, 1.0])
    e1_star = mw.DualProjectivePoint([1.0, 0.0])
    e2_star = mw.DualProjectivePoint([0.0, 1.0])
    assert mw.delta(e1, e1_star) == pytest.approx(1.0, abs=1e-15)
    assert mw.delta(e1, e2_star) == 0.0
    assert mw.delta(mid, e1_star) == pytest.approx(0.7071067811865475, abs=1e-12)


def test_delta_equals_distance_to_hyperplane_in_dim2():
    # in the plane the kernel of f is the perpendicular line
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = mw.ProjectivePoint(rng.normal(size=2))
        f = rng.normal(size=2)
        y = mw.DualProjectivePoint(f)
        kernel_line = mw.ProjectivePoint([-f[1], f[0]])
        assert mw.delta(x, y) == pytest.approx(mw.proj_distance(x, kernel_line), abs=1e-12)


# --- Cartan triple ---

def test_cartan_diagonal_is_trivial():
    triple = mw.cartan(np.diag([3.0, 1.0]))
    assert triple.a == pytest.approx([3.0, 1.0])
    assert triple.k == pytest.approx(np.eye(2))
    assert triple.l == pytest.approx(np.eye(2))


def test_cartan_rotation_has_unit_singular_values():
    theta = 0.83
    triple = mw.cartan(rotation(theta))
    assert triple.a == pytest.approx([1.0, 1.0])
    assert triple.k @ triple.l == pytest.approx(rotation(theta), abs=1e-12)


def test_cartan_reconstruction_on_random_matrices():
    rng = np.random.default_rng(29)
    for _ in range(100):
        g = random_invertible(rng, int(rng.integers(2, 6)))
        triple = mw.cartan(g)
        err = np.linalg.norm(triple.matrix() - g) / np.linalg.norm(g)
        assert err <= 1e-9
        assert np.all(np.diff(triple.a) <= 1e-12)
        assert np.all(triple.a > 0)
        assert triple.k.T @ triple.k == pytest.approx(np.eye(g.shape[0]), abs=1e-12)


def test_cartan_is_deterministic():
    g = np.random.default_rng(31).normal(size=(4, 4))
    t1, t2 = mw.cartan(g), mw.cartan(g.copy())
    assert t1.k.tobytes() == t2.k.tobytes()
    assert t1.l.tobytes() == t2.l.tobytes()


def test_cartan_rejects_singular():
    with pytest.raises(mw.SingularMatrixError):
        mw.cartan(np.array([[1.0, 1.0], [1.0, 1.0]]))


# --- first gap and attracting directions ---

def test_first_gap_examples():
    assert mw.first_gap(np.diag([3.0, 2.0, 1.0])) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert mw.first_gap(2.0 * np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    # oracle: |det| / sigma_max^2 through the symmetric eigensolver
    assert mw.first_gap(SHEAR) == pytest.approx(0.38196601125010515, abs=1e-12)


def test_first_gap_equals_wedge_norm_ratio():
    rng = np.random.default_rng(37)
    for _ in range(50):
        g = random_invertible(rng, int(rng.integers(2, 5)))
        ratio = mw.operator_norm(mw.exterior_square(g)) / mw.operator_norm(g) ** 2
        assert mw.first_gap(g) == pytest.approx(ratio, rel=1e-9)


def test_density_points_diagonal():
    x, y = mw.density_points(np.diag([3.0, 2.0, 1.0]))
    assert x == mw.ProjectivePoint([1.0, 0.0, 0.0])
    assert y == mw.DualProjectivePoint([1.0, 0.0, 0.0])


def test_density_points_degenerate_for_rotations():
    with pytest.raises(mw.DegenerateGapError):
        mw.density_points(rotation(0.4))


def test_attracting_direction_inequalities_hold_with_tiny_slack():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 5))
        g = random_invertible(rng, d)
        try:
            x_att, y_rep = mw.density_points(g)
        except mw.DegenerateGapError:
            continue
        checked += 1
        gap = mw.first_gap(g)
        x = mw.ProjectivePoint(rng.normal(size=d))
        y = mw.DualProjectivePoint(rng.normal(size=d))
        op = mw.operator_norm(g)
        ratio = np.linalg.norm(g @ x.rep) / op
        lo = mw.delta(x, y_rep)
        assert lo <= ratio + 1e-12
        assert ratio <= lo + gap + 1e-12
        ratio_t = np.linalg.norm(g.T @ y.rep) / op
        lo_t = mw.delta(x_att, y)
        assert lo_t <= ratio_t + 1e-12
        assert ratio_t <= lo_t + gap + 1e-12
        assert mw.proj_distance(mw.act(g, x), x_att) * lo <= gap + 1e-12


# --- group-element validation and actions ---

def test_check_group_element_rejects_bad_input():
    with pytest.raises(ValueError):
        check_group_element(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_group_element(np.ones((2, 3)))
    with pytest.raises(mw.SingularMatrixError):
        check_group_element(np.ones((2, 2)))
    # sqrt(2) times the largest double: invertible, but its singular values overflow
    big = np.finfo(float).max
    with pytest.raises(ValueError, match="overflows the float range"):
        check_group_element(np.array([[big, -big], [big, big]]))
    # invertibility is relative: a tiny scalar matrix is a fine group element
    check_group_element(1e-20 * np.eye(2))


def test_act_is_contragredient_on_dual_points():
    # pairing scales consistently: delta(gx, g*y) relates through the cocycles
    rng = np.random.default_rng(43)
    g = random_invertible(rng, 3)
    x = mw.ProjectivePoint(rng.normal(size=3))
    y = mw.DualProjectivePoint(rng.normal(size=3))
    lhs = mw.delta(mw.act(g, x), mw.act(g, y))
    # |f(g^{-1} g v)| / (|g^{-T} f| |g v|) = delta(x, y) * |f||v| / (|g^{-T}f||gv|)
    expected = mw.delta(x, y) / (
        np.linalg.norm(np.linalg.solve(g.T, y.rep)) * np.linalg.norm(g @ x.rep)
    )
    assert lhs == pytest.approx(expected, rel=1e-10)
