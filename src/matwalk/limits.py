"""Lyapunov exponents, fluctuation experiments, and deviation curves.

All estimators consume walk samples produced by the scaled-product engines;
raw matrix products are never formed.  Confidence half-widths are 95% and
Monte Carlo only; estimators are deterministic functions of ``(measure,
parameters, seed)``.

The exponent normalization in the fluctuation experiments is a plug-in: an
independent calibration run (its own stream family) estimates the exponent
unless the caller supplies a sharper value.  Distances to a *fitted* Gaussian
are insensitive to that plug-in (a common shift is absorbed by the fitted
mean); distances to a fixed reference law are not, so reference comparisons
should supply exact centering when it is known.
"""

from dataclasses import dataclass

import numpy as np

from . import rng, walks
from .cocycles import ensure_unimodular
from .errors import DimensionError
from .linalg import ProjectivePoint, exterior_power
from .measures import GeneratorMeasure
from .stationary import _check_psi, psi_eval_many
from .stats import (
    covariance_fit,
    gaussian_cdf,
    ks_statistic,
    mean_ci_halfwidth,
    variance_ci_halfwidth,
)

CALIBRATION_REPLICAS = 256  # replicas of the exponent calibration walk
LIL_SLACK = 0.3
LIL_SLACK_LOW = 0.3
DEGENERATE_VAR = 1e-12
LIL_CHECKPOINTS = 1000  # most checkpoints a LIL record keeps


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda1: float
    ci_halfwidth: float
    n: int
    replicas: int
    seed: int
    lambda2: float | None = None
    pair_sum: float | None = None            # estimate of lambda1 + lambda2
    pair_sum_ci_halfwidth: float | None = None

    def __post_init__(self):
        if self.ci_halfwidth < 0.0:
            raise ValueError("confidence half-width cannot be negative")

    @property
    def simplicity_gap(self):
        if self.lambda2 is None:
            return None
        return self.lambda1 - self.lambda2

    @property
    def simplicity_gap_ci_halfwidth(self):
        if self.lambda2 is None:
            return None
        # gap = 2 * lambda1 - pair_sum, so half-widths combine accordingly
        return 2.0 * self.ci_halfwidth + self.pair_sum_ci_halfwidth


def _power_log_norms(atoms, weights, degrees, n, replicas, seed, tag, checkpoints=None):
    """Degree ``r`` -> ``log |^r P|`` of every replica's product ``P``: each degree
    walks the ``r``-th exterior powers of ``atoms``, all on the same words."""
    return walks.matrix_walk_log_norms({r: exterior_power(atoms, r) for r in degrees},
                                       weights, n, replicas, seed, tag, checkpoints)


def lyapunov_top(mu, n=1000, replicas=200, seed=0):
    """Mean of ``log |b_n ... b_1| / n`` over independent replicas."""
    if n < 1 or replicas < 1:
        raise ValueError("need n >= 1 and replicas >= 1")
    vals = _power_log_norms(mu.atoms, mu.weights, [1], n, replicas, seed,
                            rng.TAG_LYAPUNOV)[1] / n
    return LyapunovEstimate(float(vals.mean()), mean_ci_halfwidth(vals), n, replicas, seed)


def wedge_square_measure(mu):
    """The driving measure of the induced walk on wedge-squares."""
    return GeneratorMeasure(exterior_power(mu.atoms, 2), mu.weights.copy())


def lyapunov_pair(mu, n=1000, replicas=200, seed=0):
    """Top exponent plus the second one, read off the same products.

    One walk follows every replica's product ``P`` and its wedge square:
    ``log |P| / n`` gives the top exponent, as ``lyapunov_top`` does, and
    ``log |P^^2| / n`` the sum of the top two.  The second is obtained by
    subtraction and the simplicity gap is reported with combined half-widths.
    """
    if mu.dim < 2:
        raise DimensionError("second exponent needs dimension >= 2")
    if n < 1 or replicas < 1:
        raise ValueError("need n >= 1 and replicas >= 1")
    logs = _power_log_norms(mu.atoms, mu.weights, [1, 2], n, replicas, seed, rng.TAG_LYAPUNOV)
    top, pair = logs[1] / n, logs[2] / n
    lambda1, pair_sum = float(top.mean()), float(pair.mean())
    return LyapunovEstimate(lambda1, mean_ci_halfwidth(top), n, replicas, seed,
                            lambda2=pair_sum - lambda1, pair_sum=pair_sum,
                            pair_sum_ci_halfwidth=mean_ci_halfwidth(pair))


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class CltReport:
    """Normalized fluctuation samples with Gaussian fit and KS distances."""

    samples: np.ndarray            # (N,) or (N, m)
    raw_values: np.ndarray         # statistic before centering/scaling
    fitted_mean: np.ndarray
    fitted_covariance: np.ndarray
    ks_vs_fitted_gaussian: float
    ks_vs_reference: float | None
    n: int
    sample_count: int
    seed: int
    lambda_used: np.ndarray
    lambda_ci_halfwidth: np.ndarray
    degenerate: bool
    # vector-valued extras (None for scalar experiments)
    restricted_covariance: np.ndarray | None = None
    restricted_min_eigenvalue: float | None = None
    restricted_min_eigenvalue_ci: float | None = None
    max_coordinate_sum: float | None = None


def _clt_report(raw, normalized, rate, rate_ci, n, seed, reference=None, **extras):
    """Gaussian fit and KS distances of ``normalized``, as ``(N, m)`` columns.

    A 1-D sample is one column, and its fitted mean and variance are scalars.
    ``ks_vs_fitted_gaussian`` is the largest distance of a column to its fitted
    marginal over the columns whose fitted variance exceeds ``DEGENERATE_VAR``,
    and 0 when none does.  ``reference`` is a CDF for the 1-D sample.
    """
    fit = covariance_fit(normalized)
    ks_fit = 0.0
    for column, mean_j, var_j in zip(normalized.reshape(len(normalized), -1).T,
                                     fit.mean.tolist(), np.diag(fit.covariance).tolist()):
        if var_j > DEGENERATE_VAR:
            ks_fit = max(ks_fit, ks_statistic(column, lambda t: gaussian_cdf(t, mean_j, var_j)))
    shape = normalized.shape[1:]   # () for a 1-D sample: ``[()]`` then reads a scalar
    return CltReport(
        samples=normalized,
        raw_values=raw,
        fitted_mean=fit.mean.reshape(shape)[()],
        fitted_covariance=fit.covariance.reshape(shape * 2)[()],
        ks_vs_fitted_gaussian=ks_fit,
        ks_vs_reference=None if reference is None else ks_statistic(normalized, reference),
        n=n,
        sample_count=len(normalized),
        seed=seed,
        lambda_used=rate,
        lambda_ci_halfwidth=rate_ci,
        degenerate=bool(fit.eigenvalues[0] <= DEGENERATE_VAR),
        **extras,
    )


def clt_experiment(mu, x=None, n=1000, samples=10_000, seed=0, reference=None,
                   lambda1=None):
    """Normalized samples ``(statistic - n lambda1) / sqrt(n)`` and their fit.

    The statistic is the cocycle at the start point ``x``, or the log operator
    norm of the product when ``x`` is None: the first coordinate of the
    Cartan statistic of ``multidim_clt_cartan``, and fitted by the same rule,
    so a fitted variance at most ``DEGENERATE_VAR`` reads KS 0.  Without
    ``lambda1``, the exponent is calibrated on ``CALIBRATION_REPLICAS``
    replicas.  ``reference`` is an optional CDF callable for a second KS
    comparison.
    """
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    if lambda1 is None:
        cal = lyapunov_top(mu, n=n, replicas=CALIBRATION_REPLICAS, seed=seed)
        lambda1, lam_ci = cal.lambda1, cal.ci_halfwidth
    else:
        lam_ci = 0.0
    if x is None:
        raw = _power_log_norms(mu.atoms, mu.weights, [1], n, samples, seed, rng.TAG_WALK)[1]
    else:
        if not isinstance(x, ProjectivePoint):
            raise TypeError("start must be a ProjectivePoint or None")
        raw, _ = walks.vector_walk(
            mu.atoms, mu.weights, x.rep, n, samples, seed, rng.TAG_WALK
        )
    normalized = (raw - n * lambda1) / np.sqrt(n)
    return _clt_report(raw, normalized, np.float64(lambda1), np.float64(lam_ci), n, seed,
                       reference)


@dataclass(frozen=True)
class VarianceEstimate:
    value: float
    ci_halfwidth: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("variance cannot be negative")


def variance_estimate(report):
    """Fluctuation variance straight from the normalized samples."""
    vals = np.asarray(report.samples, dtype=float)
    if vals.ndim != 1:
        raise ValueError("direct variance route expects scalar samples")
    return VarianceEstimate(
        value=float(vals.var(ddof=1)),
        ci_halfwidth=variance_ci_halfwidth(vals),
    )


def variance_via_corrector(mu, psi, lambda1, nu, word_len=1, seed=0):
    """Fluctuation variance through the centered corrected increment.

    Averages ``(sigma(w, x) + psi(w x) - psi(x) - word_len * lambda1)^2 /
    word_len`` over the cloud ``nu``, where ``w`` runs over words of the given
    length.  For ``word_len = 1`` the group average is the exact finite sum
    over the atoms; longer words are sampled, one per particle, from streams
    derived from ``seed``.  Requires the corrector from the dual cloud and a
    primal cloud ``nu``, both of the dimension of ``mu`` (``ValueError`` else).
    """
    if word_len < 1:
        raise ValueError("word length must be >= 1")
    if nu.dual:
        raise TypeError("corrector variance averages over a primal cloud")
    if nu.dim != mu.dim:
        raise ValueError(f"nu has dimension {nu.dim}, the measure {mu.dim}")
    _check_psi(psi, mu.dim)
    x_rows = nu.reps
    if word_len == 1:  # every atom, with its weight
        sigma, images = walks.atom_images(mu.atoms, x_rows)
        weights = mu.weights
    else:  # one sampled word per particle, with weight 1
        sigma, finals = walks.vector_walk(mu.atoms, mu.weights, x_rows, word_len, nu.size,
                                          seed, rng.TAG_WALK)
        sigma, images, weights = sigma[None], finals[None], [1.0]
    points = np.concatenate([x_rows[None], images])   # x, then every image w x
    psi_at = psi_eval_many(psi, points.reshape(-1, nu.dim)).reshape(points.shape[:2])
    centered = sigma + psi_at[1:] - psi_at[0] - word_len * lambda1
    per_particle = walks.atom_average(weights, centered**2) / word_len
    value = float(np.einsum("i,i->", per_particle, nu.weights))
    return VarianceEstimate(
        value=value,
        ci_halfwidth=mean_ci_halfwidth(per_particle),
    )


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class LilReport:
    n_max: int
    window: tuple
    max_normalized: float
    min_normalized: float
    checkpoints: np.ndarray
    normalized_at_checkpoints: np.ndarray
    phi: float
    lambda1: float
    seed: int

    @property
    def within_band(self):
        hi = 1.0 + LIL_SLACK
        return -hi <= self.min_normalized and self.max_normalized <= hi

    @property
    def reaches_band(self):
        return self.max_normalized >= 1.0 - LIL_SLACK_LOW


def lil_diagnostic(mu, x, n_max, seed, lambda1, phi):
    """Single-trajectory iterated-logarithm record.

    Tracks ``(S_n - n lambda1) / sqrt(2 phi n log log n)`` over the window
    ``[n_max / 10, n_max]`` and reports its extrema, with its values at up to
    ``LIL_CHECKPOINTS`` evenly spaced checkpoints.  Qualitative by design:
    the expected band is ``[-1, 1]`` but the approach is log-log slow, hence
    the generous slacks.
    """
    if phi <= 0.0:
        raise ValueError("need a positive variance estimate")
    if n_max < 1000:
        raise ValueError("window too short for a meaningful record")
    x_rep = getattr(x, "rep", x)
    sums = walks.trajectory_cocycle(mu.atoms, mu.weights, x_rep, n_max, seed, rng.TAG_WALK)
    ns = np.arange(1, n_max + 1)
    lo = max(16, n_max // 10)
    window = slice(lo - 1, n_max)
    scale = np.sqrt(2.0 * phi * ns[window] * np.log(np.log(ns[window])))
    normalized = (sums[window] - ns[window] * lambda1) / scale
    cps = np.unique(np.linspace(lo, n_max, min(LIL_CHECKPOINTS, n_max - lo + 1)).astype(int))
    return LilReport(
        n_max=n_max,
        window=(lo, n_max),
        max_normalized=float(normalized.max()),
        min_normalized=float(normalized.min()),
        checkpoints=cps,
        normalized_at_checkpoints=normalized[cps - lo],
        phi=phi,
        lambda1=lambda1,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class DeviationCurve:
    epsilon: float
    schedule: tuple
    frequencies: np.ndarray
    decay_rate: float | None     # None when too few nonzero frequencies
    replicas: int
    seed: int
    lambda_used: float


def large_deviation_curve(mu, eps, schedule, replicas=10_000, seed=0, lambda1=None):
    """Frequencies of ``|log|P_n| - n lambda1| >= eps n`` along a schedule.

    Fits ``log frequency ~ -alpha n`` by least squares on the nonzero
    entries; with fewer than three of them the rate is indeterminate.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must be non-empty")
    if lambda1 is None:
        lambda1 = lyapunov_top(mu, n=schedule[-1], replicas=CALIBRATION_REPLICAS,
                               seed=seed).lambda1
    vals = _power_log_norms(mu.atoms, mu.weights, [1], schedule[-1], replicas, seed,
                            rng.TAG_WALK, checkpoints=schedule)[1]
    ns = np.asarray(schedule, dtype=float)
    freqs = (np.abs(vals - ns[None, :] * lambda1) >= eps * ns[None, :]).mean(axis=0)
    nonzero = freqs > 0.0
    rate = None
    if nonzero.sum() >= 3:
        slope = np.polyfit(ns[nonzero], np.log(freqs[nonzero]), 1)[0]
        rate = float(-slope)
    return DeviationCurve(
        epsilon=eps,
        schedule=tuple(schedule),
        frequencies=freqs,
        decay_rate=rate,
        replicas=replicas,
        seed=seed,
        lambda_used=float(lambda1),
    )


def _helmert_basis(d):
    """Orthonormal basis of the sum-zero hyperplane, as columns."""
    basis = np.zeros((d, d - 1))
    for j in range(1, d):
        basis[:j, j - 1] = 1.0
        basis[j, j - 1] = -j
        basis[:, j - 1] /= np.sqrt(j * (j + 1))
    return basis


def multidim_clt_cartan(mu, n=1000, samples=10_000, seed=0):
    """Vector fluctuations of the sorted log singular values of the product.

    Coordinate ``i`` of the statistic is recovered from the log norms of the
    induced walks on the exterior powers: the partial sums of the projection
    are exactly those log norms, and the last coordinate is pinned by the
    unit determinant.  Samples are centered at the empirical mean rate and
    the covariance is also reported restricted to the sum-zero hyperplane,
    where nondegeneracy is meaningful.
    """
    d = mu.dim
    if d < 2:
        raise DimensionError("the projection statistic needs dimension >= 2")
    atoms = np.array([ensure_unimodular(a) for a in mu.atoms])
    logs = _power_log_norms(atoms, mu.weights, range(1, d), n, samples, seed, rng.TAG_WALK)
    partial = np.column_stack([logs[r] for r in range(1, d)])
    kappa = np.empty((samples, d))
    kappa[:, 0] = partial[:, 0]
    for i in range(1, d - 1):
        kappa[:, i] = partial[:, i] - partial[:, i - 1]
    kappa[:, d - 1] = -partial[:, d - 2]
    max_sum = float(np.abs(kappa.sum(axis=1)).max())

    lam = kappa.mean(axis=0) / n
    normalized = (kappa - n * lam) / np.sqrt(n)
    basis = _helmert_basis(d)
    projected = normalized @ basis
    restricted = covariance_fit(projected)
    eigvals, eigvecs = np.linalg.eigh(restricted.covariance)
    u_min = eigvecs[:, 0]
    quad = (projected - restricted.mean) @ u_min
    min_eig_ci = variance_ci_halfwidth(quad)

    lam_ci = np.array([mean_ci_halfwidth(kappa[:, j]) / n for j in range(d)])
    return _clt_report(
        kappa, normalized, lam, lam_ci, n, seed,
        restricted_covariance=restricted.covariance,
        restricted_min_eigenvalue=float(eigvals[0]),
        restricted_min_eigenvalue_ci=min_eig_ci,
        max_coordinate_sum=max_sum,
    )
