"""Distribution utilities: ECDFs, Kolmogorov-Smirnov distances, Gaussian CDFs.

Convergence-in-law claims are operationalized as KS distances between a
sample ECDF and a reference CDF (or a second sample).  References passed as
plain callables are assumed continuous; pass an :class:`Ecdf` to compare
against a step reference exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

# Standard normal CDF and quantile from the stdlib, elementwise.  The CDF
# scales its argument by sqrt(1/2), as the Cephes ndtr does.  Against
# Cephes, the CDF is within 4e-15 relative on |z| <= 8 and the quantile
# within 2e-15 absolute on [1e-12, 1 - 1e-12] (tests/test_stats.py).
_SQRT1_2 = math.sqrt(0.5)


def ndtr(z):
    """Standard normal CDF ``P(Z <= z)``, elementwise: ``0.5 * erfc(-z sqrt(1/2))``."""
    z = np.asarray(z, dtype=float)
    # erfc mapped over a Python list takes half the time of a frompyfunc ufunc
    tails = map(math.erfc, (-z * _SQRT1_2).ravel().tolist())
    return 0.5 * np.fromiter(tails, dtype=float, count=z.size).reshape(z.shape)


def ndtri(p):
    """Standard normal quantile, elementwise, for ``0 < p < 1``."""
    from statistics import NormalDist  # imported on first use, not at a cold start

    quantile = np.frompyfunc(NormalDist().inv_cdf, 1, 1)
    return np.asarray(quantile(np.asarray(p, dtype=float)), dtype=float)


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class Ecdf:
    """Empirical CDF of a one-dimensional sample."""

    values: np.ndarray  # sorted ascending

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("sample must be a nonempty vector")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.size

    def __call__(self, t):
        """Right-continuous evaluation F(t)."""
        return np.searchsorted(self.values, t, side="right") / self.n

    def left(self, t):
        """Left limit F(t-)."""
        return np.searchsorted(self.values, t, side="left") / self.n


def ks_statistic(sample, cdf):
    """Uniform distance between a sample ECDF and a reference CDF.

    Evaluated at the sample points, taking the ECDF's own jumps into account;
    for a continuous reference this is the classical one-sample statistic.
    """
    ecdf = sample if isinstance(sample, Ecdf) else Ecdf(sample)
    t = ecdf.values
    n = ecdf.n
    if isinstance(cdf, Ecdf):
        ref_right = cdf(t)
        ref_left = cdf.left(t)
    else:
        ref_right = np.asarray(cdf(t), dtype=float)
        ref_left = ref_right
    upper = np.arange(1, n + 1) / n - ref_right
    lower = ref_left - np.arange(0, n) / n
    return float(min(1.0, max(upper.max(), lower.max(), 0.0)))


def ks_two_sample(a, b):
    """Uniform distance between the ECDFs of two samples: ``ks_statistic``
    against the step reference ``b``."""
    return ks_statistic(a, b if isinstance(b, Ecdf) else Ecdf(b))


def gaussian_cdf(t, mean=0.0, var=1.0):
    """Centered-or-shifted Gaussian CDF; ``var = 0`` degenerates to a step."""
    if var < 0.0:
        raise ValueError("variance must be nonnegative")
    t = np.asarray(t, dtype=float)
    if var == 0.0:
        out = (t >= mean).astype(float)
    else:
        out = ndtr((t - mean) / np.sqrt(var))
    return float(out) if out.ndim == 0 else out


def folded_gaussian_cdf(t, var):
    """CDF of ``|Z|`` for centered Gaussian ``Z`` with the given variance."""
    t = np.asarray(t, dtype=float)
    out = np.where(t < 0.0, 0.0, 2.0 * gaussian_cdf(np.maximum(t, 0.0), 0.0, var) - 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class CovarianceFit:
    mean: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray  # sorted descending


def covariance_fit(samples):
    """Sample mean and unbiased covariance with its eigenvalues."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least two samples")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
    return CovarianceFit(mean=mean, covariance=cov, eigenvalues=eigs)


# 95% normal-theory half-widths; every confidence interval in the package
# uses these two helpers so "k half-widths" means the same thing everywhere.
_Z95 = 1.96


def mean_ci_halfwidth(values):
    """Monte Carlo 95% half-width for the mean of i.i.d. replicas."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(_Z95 * v.std(ddof=1) / np.sqrt(v.size))


def variance_ci_halfwidth(values):
    """Moment-based 95% half-width for the unbiased sample variance."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 4:
        return float("inf")
    c = v - v.mean()
    m2 = float(np.mean(c**2))
    m4 = float(np.mean(c**4))
    se_sq = (m4 - m2**2 * (n - 3) / (n - 1)) / n
    return float(_Z95 * np.sqrt(max(se_sq, 0.0)))


def binomial_ci_halfwidth(p_hat, trials):
    """95% normal-approximation half-width for an empirical frequency."""
    return float(_Z95 * np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials))
