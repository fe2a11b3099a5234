import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matwalk as mw
from matwalk.stats import (
    binomial_ci_halfwidth,
    mean_ci_halfwidth,
    ndtr,
    ndtri,
    variance_ci_halfwidth,
)

EPS = np.finfo(float).eps

# frozen reference values for the standard normal CDF (50-digit evaluation)
NCDF_REFERENCE = [
    (-3.0, 0.0013498980316300946),
    (-2.0, 0.02275013194817921),
    (-1.5, 0.06680720126885807),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.5, 0.6914624612740131),
    (1.0, 0.8413447460685429),
    (2.0, 0.9772498680518208),
    (3.0, 0.9986501019683699),
]


def test_ks_single_point_against_uniform():
    # hand evaluation of both one-sided gaps: max(1 - 0.5, 0.5 - 0)
    assert mw.ks_statistic([0.5], lambda t: np.clip(t, 0.0, 1.0)) == pytest.approx(0.5)


def test_ks_single_point_against_normal():
    assert mw.ks_statistic([0.0], mw.gaussian_cdf) == pytest.approx(0.5)


def test_ks_exact_quantiles():
    n = 40
    sample = [(i - 0.5) / n for i in range(1, n + 1)]
    assert mw.ks_statistic(sample, lambda t: np.clip(t, 0.0, 1.0)) == pytest.approx(0.5 / n)


def test_ks_against_own_ecdf_is_zero():
    rng = np.random.default_rng(3)
    sample = rng.normal(size=257)
    ecdf = mw.Ecdf(sample)
    assert mw.ks_statistic(sample, ecdf) == 0.0


def test_ks_handles_ties():
    sample = [0.0, 0.0, 0.0, 1.0]
    # F_hat jumps to 0.75 at 0: gap vs uniform reference is 0.75
    assert mw.ks_statistic(sample, lambda t: np.clip(t, 0.0, 1.0)) == pytest.approx(0.75)


@given(st.integers(0, 2**31 - 1), st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
def test_ks_invariant_under_increasing_affine_maps(seed, a, b):
    rng = np.random.default_rng(seed)
    sample = rng.normal(size=64)
    d1 = mw.ks_statistic(sample, mw.gaussian_cdf)
    d2 = mw.ks_statistic(a * sample + b, lambda t: mw.gaussian_cdf((t - b) / a))
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_ks_two_sample():
    assert mw.ks_two_sample([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert mw.ks_two_sample([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert mw.ks_two_sample([0.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=30),
       st.lists(st.integers(-4, 4), min_size=1, max_size=30),
       st.sampled_from([1.0, 0.1, 1e-3]))
def test_ks_two_sample_is_ks_statistic_against_a_step_reference(a, b, scale):
    # small integers, scaled, give ties within and across the samples
    a, b = np.array(a) * scale, np.array(b) * scale
    ea, eb = mw.Ecdf(a), mw.Ecdf(b)
    grid = np.concatenate([a, b])
    sup = float(np.abs(ea(grid) - eb(grid)).max())   # the sup over both samples' points
    assert mw.ks_two_sample(a, b) == mw.ks_statistic(a, eb) == sup


def test_gaussian_cdf_reference_values():
    for t, ref in NCDF_REFERENCE:
        assert mw.gaussian_cdf(t) == pytest.approx(ref, abs=1e-12)
    assert mw.gaussian_cdf(1.0, mean=1.0, var=4.0) == pytest.approx(0.5)
    assert mw.gaussian_cdf(0.5, mean=0.0, var=0.0) == 1.0
    assert mw.gaussian_cdf(-0.5, mean=0.0, var=0.0) == 0.0
    with pytest.raises(ValueError):
        mw.gaussian_cdf(0.0, var=-1.0)


def test_gaussian_cdf_is_exactly_one_half_at_its_mean():
    assert mw.gaussian_cdf(0.0) == 0.5
    assert mw.gaussian_cdf(-0.0) == 0.5
    assert mw.gaussian_cdf(1.5, mean=1.5, var=3.0) == 0.5
    assert ndtr(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]


def test_gaussian_cdf_symmetry():
    x = np.linspace(-8.0, 8.0, 1601)
    assert np.abs(mw.gaussian_cdf(-x) - (1.0 - mw.gaussian_cdf(x))).max() <= EPS


def test_ndtri_inverts_ndtr():
    # the round trip is as good as the condition number of the quantile allows:
    # a relative error of a few ulp in p moves x by about eps * p / pdf(x)
    x = np.linspace(-8.0, 6.0, 14001)
    p = ndtr(x)
    pdf = np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)
    assert np.all(np.abs(ndtri(p) - x) <= 4.0 * EPS * (p / pdf + np.abs(x)))
    assert ndtri(0.5) == 0.0
    assert ndtr(np.array(0.3)).ndim == 0 and ndtri(np.array([[0.3]])).shape == (1, 1)


def test_ndtr_is_the_per_element_formula_bitwise():
    z = np.random.default_rng(12).normal(scale=10.0, size=100_000)
    z[:6] = [0.0, -0.0, 40.0, -40.0, np.inf, -np.inf]
    want = [0.5 * math.erfc(-x * math.sqrt(0.5)) for x in z.tolist()]
    assert ndtr(z).tobytes() == np.array(want).tobytes()
    assert ndtr(z.reshape(4, -1)).tobytes() == np.array(want).tobytes()
    assert ndtr(z.reshape(4, -1)).shape == (4, 25_000) and ndtr([]).shape == (0,)


def test_closed_forms_match_scipy():
    special = pytest.importorskip("scipy.special")
    z = np.linspace(-8.0, 8.0, 16001)
    ref = special.ndtr(z)
    assert (np.abs(ndtr(z) - ref) / ref).max() <= 4e-15
    p = np.linspace(1e-12, 1.0 - 1e-12, 100_001)
    assert np.abs(ndtri(p) - special.ndtri(p)).max() <= 2e-15


def test_folded_gaussian_cdf():
    assert mw.folded_gaussian_cdf(0.0, 1.0) == pytest.approx(0.0)
    assert mw.folded_gaussian_cdf(-0.3, 1.0) == 0.0
    assert mw.folded_gaussian_cdf(1.0, 1.0) == pytest.approx(2 * 0.8413447460685429 - 1, abs=1e-12)
    grid = np.linspace(0.0, 8.0, 200)
    vals = mw.folded_gaussian_cdf(grid, 2.0)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-7)


def test_covariance_fit_examples():
    same = mw.covariance_fit(np.tile([1.0, 2.0], (5, 1)))
    assert np.abs(same.covariance).max() == 0.0
    two = mw.covariance_fit(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert two.covariance == pytest.approx(np.diag([2.0, 0.0]))
    assert two.eigenvalues == pytest.approx([2.0, 0.0])
    with pytest.raises(ValueError):
        mw.covariance_fit(np.array([[1.0, 2.0]]))


def test_covariance_eigenvalues_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        fit = mw.covariance_fit(rng.normal(size=(20, 4)))
        assert fit.eigenvalues.min() >= -1e-12


def test_ci_helpers():
    vals = np.array([1.0, 1.0, 1.0])
    assert mean_ci_halfwidth(vals) == 0.0
    assert variance_ci_halfwidth(np.zeros(100)) == 0.0
    assert binomial_ci_halfwidth(0.0, 1000) == 0.0
    assert binomial_ci_halfwidth(0.5, 100) == pytest.approx(1.96 * 0.05)
    rng = np.random.default_rng(13)
    x = rng.normal(size=10_000)
    assert mean_ci_halfwidth(x) == pytest.approx(1.96 / 100.0, rel=0.05)
