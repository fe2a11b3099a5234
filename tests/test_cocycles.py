import numpy as np
import pytest

import matwalk as mw
from matwalk.cocycles import check_determinant

from conftest import random_invertible


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_unimodular(rng, d):
    g = random_invertible(rng, d)
    det = np.linalg.det(g)
    return g * np.sign(det) / np.abs(det) ** (1.0 / d) if d % 2 else _fix_even(g, det, d)


def _fix_even(g, det, d):
    if det < 0:
        g = g.copy()
        g[0] = -g[0]
        det = -det
    return g / det ** (1.0 / d)


def test_norm_cocycle_examples():
    e1 = mw.ProjectivePoint([1.0, 0.0])
    assert mw.norm_cocycle(np.diag([2.0, 0.5]), e1) == pytest.approx(np.log(2.0), abs=1e-12)
    assert mw.norm_cocycle(np.eye(2), mw.ProjectivePoint([1.0, 2.0])) == pytest.approx(0.0, abs=1e-15)


def test_norm_cocycle_additive_along_products():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        g, h = random_invertible(rng, d), random_invertible(rng, d)
        x = mw.ProjectivePoint(rng.normal(size=d))
        lhs = mw.norm_cocycle(g @ h, x)
        rhs = mw.norm_cocycle(g, mw.act(h, x)) + mw.norm_cocycle(h, x)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_norm_cocycle_dual_action():
    g = np.diag([2.0, 0.5])
    y = mw.DualProjectivePoint([1.0, 0.0])
    # covector moves by f -> f o g^{-1}
    assert mw.norm_cocycle(g, y) == pytest.approx(-np.log(2.0), abs=1e-12)


def test_sup_norm_examples():
    assert mw.sup_norm(np.eye(3)) == pytest.approx(0.0, abs=1e-12)
    assert mw.sup_norm(rotation(1.2)) == pytest.approx(0.0, abs=1e-10)
    assert mw.sup_norm(np.diag([np.e**2, np.e**-2])) == pytest.approx(2.0, abs=1e-12)


def test_sup_norm_is_sup_over_grid():
    g = np.diag([np.e**2, np.e**-2])
    angles = np.linspace(0.0, np.pi, 10_001)
    vals = [abs(mw.norm_cocycle(g, mw.ProjectivePoint([np.cos(a), np.sin(a)])))
            for a in angles]
    assert max(vals) == pytest.approx(mw.sup_norm(g), abs=1e-6)


def test_cocycle_bounded_by_sup_norm():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g = random_invertible(rng, 3)
        x = mw.ProjectivePoint(rng.normal(size=3))
        assert abs(mw.norm_cocycle(g, x)) <= mw.sup_norm(g) + 1e-12


def test_drift_examples(free_pair):
    x = mw.ProjectivePoint([1.0, 0.0])
    assert mw.drift(mw.GeneratorMeasure.from_atoms([np.eye(2)]), x) == 0.0
    g = np.array([[1.0, 1.0], [0.0, 1.0]])
    single = mw.GeneratorMeasure.from_atoms([g])
    assert mw.drift(single, x) == pytest.approx(mw.norm_cocycle(g, x), abs=1e-14)
    # both atoms stretch e1 by e
    stretch = np.diag([np.e, 1.0 / np.e])
    mu = mw.GeneratorMeasure.from_atoms([stretch, rotation(np.pi / 2) @ stretch])
    assert mw.drift(mu, x) == pytest.approx(1.0, abs=1e-12)


def test_multinorm_cocycle():
    rng = np.random.default_rng(13)
    g = random_invertible(rng, 2)
    x = mw.ProjectivePoint(rng.normal(size=2))
    single = mw.multinorm_cocycle([g], [x])
    assert single == pytest.approx([mw.norm_cocycle(g, x)])
    zeros = mw.multinorm_cocycle([np.eye(2), np.eye(3)],
                                 [mw.ProjectivePoint([1.0, 0.0]),
                                  mw.ProjectivePoint([0.0, 1.0, 0.0])])
    assert zeros == pytest.approx([0.0, 0.0])
    with pytest.raises(ValueError):
        mw.multinorm_cocycle([g], [x, x])


def test_multinorm_cocycle_identity_componentwise():
    rng = np.random.default_rng(17)
    for _ in range(100):
        dims = [int(rng.integers(2, 4)) for _ in range(3)]
        gs = [random_invertible(rng, d) for d in dims]
        hs = [random_invertible(rng, d) for d in dims]
        xs = [mw.ProjectivePoint(rng.normal(size=d)) for d in dims]
        lhs = mw.multinorm_cocycle([g @ h for g, h in zip(gs, hs)], xs)
        rhs = mw.multinorm_cocycle(gs, [mw.act(h, x) for h, x in zip(hs, xs)]) \
            + mw.multinorm_cocycle(hs, xs)
        assert np.abs(lhs - rhs).max() <= 1e-9


# --- unimodular projections ---

def test_cartan_projection_examples():
    out = mw.cartan_projection(np.diag([2.0, 1.0, 0.5]))
    assert out == pytest.approx([np.log(2.0), 0.0, -np.log(2.0)], abs=1e-12)
    assert mw.cartan_projection(rotation(0.3)) == pytest.approx([0.0, 0.0], abs=1e-10)


def test_cartan_projection_sums_to_zero_random():
    rng = np.random.default_rng(19)
    for _ in range(100):
        g = random_unimodular(rng, 3)
        assert abs(mw.cartan_projection(g).sum()) <= 1e-9


def test_cartan_projection_rejects_non_unimodular():
    with pytest.raises(mw.NotUnimodularError):
        mw.cartan_projection(np.diag([2.0, 1.0]))


def test_cartan_projection_inversion_reverses_and_negates():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g = random_unimodular(rng, 4)
        k = mw.cartan_projection(g)
        k_inv = mw.cartan_projection(np.linalg.inv(g))
        assert np.abs(k_inv - (-k[::-1])).max() <= 1e-9


def test_cartan_partial_sums_are_wedge_log_norms():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_unimodular(rng, 4)
        sums = mw.cartan_partial_sums(g)
        for r in range(1, 4):
            assert sums[r - 1] == pytest.approx(
                np.log(mw.operator_norm(mw.exterior_power(g, r))), rel=1e-9, abs=1e-9
            )


def test_jordan_projection_examples():
    assert mw.jordan_projection(np.diag([2.0, 1.0, 0.5])) == pytest.approx(
        [np.log(2.0), 0.0, -np.log(2.0)], abs=1e-12)
    assert mw.jordan_projection(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(
        [0.0, 0.0], abs=1e-12)
    # eigensolver oracle: moduli (3 +- sqrt 5)/2
    out = mw.jordan_projection(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert out == pytest.approx([0.9624236501192069, -0.9624236501192069], abs=1e-12)


def test_jordan_is_power_limit_of_cartan():
    # kappa(g^n)/n approaches the eigenvalue-moduli vector, within 0.05 at
    # n = 256.  The top coordinate comes from a scaled power walk; for a
    # unit-determinant 2x2 the bottom one is pinned to its negative, which
    # sidesteps the underflow a direct small-singular-value read-off would hit.
    rng = np.random.default_rng(31)
    done = 0
    while done < 20:
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 1e-6:
            continue
        g = _fix_even(m, np.linalg.det(m), 2)
        ell = mw.jordan_projection(g)
        if ell[0] - ell[1] < 0.1:  # need distinct moduli for a clean limit
            continue
        done += 1
        n = 256
        b, scale = np.eye(2), 0.0
        for _ in range(n):
            b = g @ b
            s = np.abs(b).max()
            b /= s
            scale += np.log(s)
        top = np.log(np.linalg.svd(b, compute_uv=False)[0]) + scale
        kappa_n = np.array([top, -top])
        assert np.abs(kappa_n / n - ell).max() <= 0.05


# --- flags and the triangular-factor cocycle ---

def test_flag_point_validation():
    with pytest.raises(ValueError):
        mw.FlagPoint(np.array([[1.0, 1.0], [0.0, 1.0]]))
    std = mw.FlagPoint.standard(3)
    assert std.line() == mw.ProjectivePoint([1.0, 0.0, 0.0])


def test_iwasawa_cocycle_triangular_case():
    g = np.array([[2.0, 1.0, 3.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.5]])
    out = mw.iwasawa_cocycle(g, mw.FlagPoint.standard(3))
    assert out == pytest.approx([np.log(2.0), 0.0, np.log(0.5)], abs=1e-12)


def test_iwasawa_cocycle_vanishes_on_isometries():
    rng = np.random.default_rng(37)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    flag = mw.flag_apply(random_unimodular(rng, 3), mw.FlagPoint.standard(3))
    out = mw.iwasawa_cocycle(q * np.sign(np.linalg.det(q)), flag)
    assert np.abs(out).max() <= 1e-10


def test_iwasawa_cocycle_identity_and_zero_sum():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        g, h = random_unimodular(rng, 3), random_unimodular(rng, 3)
        x = mw.flag_apply(random_unimodular(rng, 3), mw.FlagPoint.standard(3))
        lhs = mw.iwasawa_cocycle(g @ h, x)
        rhs = mw.iwasawa_cocycle(g, mw.flag_apply(h, x)) + mw.iwasawa_cocycle(h, x)
        worst = max(worst, np.abs(lhs - rhs).max(), abs(lhs.sum()))
    assert worst <= 1e-9


def test_iwasawa_first_coordinate_is_norm_cocycle_on_flag_line():
    rng = np.random.default_rng(43)
    for _ in range(100):
        g = random_unimodular(rng, 3)
        x = mw.flag_apply(random_unimodular(rng, 3), mw.FlagPoint.standard(3))
        first = mw.iwasawa_cocycle(g, x)[0]
        assert first == pytest.approx(mw.norm_cocycle(g, x.line()), abs=1e-9)


def test_iwasawa_coordinates_are_quotient_log_norms():
    # coordinate i is the log norm of the induced map between successive
    # quotients of the flag, computed here by projecting out the leading block
    rng = np.random.default_rng(47)
    g = random_unimodular(rng, 3)
    x = mw.flag_apply(random_unimodular(rng, 3), mw.FlagPoint.standard(3))
    out = mw.iwasawa_cocycle(g, x)
    k = x.basis
    gk = g @ k
    for i in range(3):
        # orthonormal basis of g V_i built from the image so far
        img_prev = gk[:, :i]
        q_prev, _ = np.linalg.qr(img_prev) if i else (np.zeros((3, 0)), None)
        w = gk[:, i]
        residual = w - q_prev @ (q_prev.T @ w) if i else w
        assert out[i] == pytest.approx(np.log(np.linalg.norm(residual)), abs=1e-9)


def test_ensure_unimodular_rescales_within_tolerance():
    g = np.diag([2.0, 0.5]) * (1.0 + 1e-9)
    fixed = mw.ensure_unimodular(g)
    assert abs(np.linalg.det(fixed) - 1.0) <= 1e-12
    with pytest.raises(mw.NotUnimodularError):
        mw.ensure_unimodular(np.diag([2.0, 0.5001]))


@pytest.mark.parametrize("scale, det", [(1e150, "1 x e^1036.16"), (-1e150, "-1 x e^1036.16"),
                                        (1e-200, "1 x e^-1381.55")])
def test_a_determinant_past_the_float_range_is_named_by_its_log(scale, det):
    # det of scale * I_3 overflows or underflows; slogdet does not, and no warning is raised
    with pytest.raises(mw.NotUnimodularError) as exc:
        check_determinant(scale * np.eye(3))
    assert str(exc.value) == f"determinant {det} is not 1 within 1e-08"
