"""Empirical martingale toolbox: concentration, weighted tail sums, arrays.

Every difference stream here satisfies ``E(phi_n | past) = 0`` by
construction:

* ``iid_bounded`` draws i.i.d. values from a finite zero-mean law;
* ``iid_square_integrable`` draws i.i.d. standard normals;
* ``counterexample_3i`` draws independent symmetric variables taking values
  ``{-3^i, 0, 3^i}`` with ``P(+-3^i) = 3^(-p i)`` for ``3^(i-1) < n <= 3^i`` --
  square-integrable at each step yet escaping any i.i.d. domination, which is
  what makes its weighted tail series diverge;
* ``walk_induced`` uses ``phi_n = sigma(b_n, x_{n-1}) - drift(x_{n-1})``, the
  increment of the matrix walk centered at its current position.

Partial sums are only ever needed at scheduled checkpoints, so streams with
known increment laws are sampled blockwise (multinomial counts / normal sums),
which is exact in distribution.  Such block sums have no per-replica form, so
the three scalar streams read one stream per block of 8192 replicas, a
documented exception to "replica r reads stream r".
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import rng, walks
from .linalg import _canonical_unit, atom_growth
from .stats import binomial_ci_halfwidth, gaussian_cdf, ks_statistic, ndtr, ndtri

INCREMENT_TOL = 1e-3   # summability heuristic on the last doubling increment
LINDEBERG_TOL = 1e-2
_MART_BLOCK = 8192     # replicas per derived stream for scalar streams
# past 40 standard deviations both terms of the truncated Gaussian moment are below
# the smallest double (exp(-800) and erfc(40 / sqrt 2)), so it is exactly 0
_TAIL_ZERO = 40.0


def azuma_bound(n, eps, a):
    """One-sided tail bound ``exp(-n eps^2 / (2 a^2))`` for |increments| <= a."""
    if a <= 0.0:
        raise ValueError("increment bound must be positive")
    if n < 1 or eps < 0.0:
        raise ValueError("need n >= 1 and eps >= 0")
    return float(np.exp(-n * eps * eps / (2.0 * a * a)))


@dataclass(frozen=True)
class DifferenceStream:
    """A reproducible martingale-difference generator.

    A walk-induced stream starts from the direction of ``start``, a point or a nonzero
    finite vector of the measure's dimension (``linalg._canonical_unit``; ``ValueError``
    naming ``start`` at construction else)."""

    kind: str
    seed: int = 0
    values: tuple = (-1.0, 1.0)   # iid_bounded
    probs: tuple = (0.5, 0.5)
    p: float = 2.0                # counterexample_3i tail power
    measure: object = None        # walk_induced
    start: object = None

    def __post_init__(self):
        if self.kind == "iid_bounded":
            v = np.asarray(self.values, dtype=float)
            q = np.asarray(self.probs, dtype=float)
            if v.shape != q.shape or np.any(q <= 0.0):
                raise ValueError("values and positive probs of equal length required")
            if abs(q.sum() - 1.0) > 1e-12 or abs(float(v @ q)) > 1e-12:
                raise ValueError("bounded stream must have probabilities summing to 1 and mean 0")
        elif self.kind == "iid_square_integrable":
            pass
        elif self.kind == "counterexample_3i":
            if self.p <= 1.0:
                raise ValueError("tail power must exceed 1")
        elif self.kind == "walk_induced":
            if self.measure is None or self.start is None:
                raise ValueError("walk_induced stream needs a measure and a start point")
            _canonical_unit(getattr(self.start, "rep", self.start), "start", self.measure.dim)
        else:
            raise ValueError(f"unknown stream kind: {self.kind!r}")

    @property
    def bound(self):
        """Uniform bound on |phi_n|, when one exists."""
        if self.kind == "iid_bounded":
            return float(np.abs(np.asarray(self.values)).max())
        if self.kind == "walk_induced":
            return float(atom_growth(self.measure.atoms).max()) * 2.0
        raise ValueError(f"{self.kind} stream is not uniformly bounded")


def _scale_segments(lo, hi):
    """Split (lo, hi] by the powers of three grading the counterexample."""
    segments = []
    k = lo
    while k < hi:
        i = 1
        while 3**i < k + 1:
            i += 1
        end = min(hi, 3**i)
        segments.append((i, end - k))
        k = end
    return segments


def checkpoint_sums(stream, schedule, replicas):
    """Partial sums ``S_n`` at the scheduled n, one row per replica."""
    schedule = list(schedule)
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])) or schedule[0] < 1:
        raise ValueError("schedule must be non-empty, strictly increasing and >= 1")
    if stream.kind == "walk_induced":
        return _walk_checkpoint_sums(stream, schedule, replicas)

    out = np.empty((replicas, len(schedule)))
    for block, (first, count) in enumerate(
        (s, min(_MART_BLOCK, replicas - s)) for s in range(0, replicas, _MART_BLOCK)
    ):
        gen = rng.stream(stream.seed, rng.TAG_MARTINGALE, block)
        sums = np.zeros(count)
        prev = 0
        for j, n in enumerate(schedule):
            lo, hi = prev, n
            if stream.kind == "iid_bounded":
                counts = gen.multinomial(hi - lo, list(stream.probs), size=count)
                sums = sums + counts @ np.asarray(stream.values)
            elif stream.kind == "iid_square_integrable":
                sums = sums + gen.normal(0.0, np.sqrt(hi - lo), size=count)
            elif stream.kind == "counterexample_3i":
                for scale, length in _scale_segments(lo, hi):
                    q = 3.0 ** (-stream.p * scale)
                    counts = gen.multinomial(length, [q, q, 1.0 - 2.0 * q], size=count)
                    sums = sums + (3.0**scale) * (counts[:, 0] - counts[:, 1])
            out[first:first + count, j] = sums
            prev = n
    return out


def _walk_checkpoint_sums(stream, schedule, replicas):
    """``S_n = sigma(b_n ... b_1, x_0) - sum_(k<n) drift(x_k)`` at the schedule.

    Positions come from the chunked prefix scan of ``walks``, one bounded
    segment of the time axis at a time; the drift is then taken at every
    position of the segment at once.
    """
    mu = stream.measure
    x = np.tile(_canonical_unit(getattr(stream.start, "rep", stream.start)), (replicas, 1))
    cps = np.asarray(schedule)
    out = np.empty((replicas, len(schedule)))
    drift_sum = np.zeros(replicas)
    for lo, values, units in walks.chunked_walk(mu.atoms, mu.weights, x, schedule[-1],
                                                stream.seed, rng.TAG_MARTINGALE):
        # positions x_lo, ..., x_(lo+length-1) of every replica, one row each
        before = np.concatenate([x[:, None], units[:, :-1]], axis=1).reshape(-1, mu.dim)
        drift = walks.atom_average(mu.weights, walks.atom_images(mu.atoms, before)[0])
        drifts = drift_sum[:, None] + np.cumsum(drift.reshape(replicas, -1), axis=1)
        inside = (cps > lo) & (cps <= lo + values.shape[1])
        at = cps[inside] - lo - 1
        out[:, inside] = values[:, at] - drifts[:, at]
        drift_sum = drifts[:, -1]
        x = units[:, -1]
    return out


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class AzumaReport:
    schedule: tuple
    frequencies: np.ndarray
    bounds: np.ndarray
    ci_halfwidths: np.ndarray
    trials: int
    eps: float
    seed: int

    @property
    def satisfied(self):
        """Frequencies never exceed bound + 3 binomial half-widths."""
        return bool(np.all(self.frequencies <= self.bounds + 3.0 * self.ci_halfwidths))


def azuma_check(stream, eps, schedule, trials=100_000):
    """Empirical one-sided tail frequencies against the exponential bound."""
    a = stream.bound
    sums = checkpoint_sums(stream, schedule, trials)
    freqs = (sums >= np.asarray(schedule)[None, :] * eps).mean(axis=0)
    bounds = np.array([azuma_bound(n, eps, a) for n in schedule])
    cis = np.array([binomial_ci_halfwidth(f, trials) for f in freqs])
    return AzumaReport(
        schedule=tuple(schedule),
        frequencies=freqs,
        bounds=bounds,
        ci_halfwidths=cis,
        trials=trials,
        eps=eps,
        seed=stream.seed,
    )


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class WeightedSumReport:
    """Quadrature of the weighted tail series along a checkpoint schedule.

    The series ``sum_n n^(p-2) P(|S_n| > n eps)`` is estimated by giving each
    scheduled point the block of integers since the previous checkpoint:
    term_j = (n_j - n_{j-1}) n_j^(p-2) freq_j.  Sampling the series only at
    the checkpoints themselves would make every geometric schedule look
    summable; the block weights preserve the convergent/divergent contrast.
    """

    p: float
    epsilon: float
    schedule: tuple
    empirical_probs: np.ndarray
    weighted_partial_sums: np.ndarray
    increments: np.ndarray
    replicas: int
    seed: int

    @property
    def verdict(self):
        if self.increments[-1] < INCREMENT_TOL:
            return "consistent with summability"
        return "no sign of summability"


def max_weight_power(n_max):
    """The largest ``p`` whose weighted tail sums up to ``n_max`` stay finite.

    Every partial sum is at most ``sum_j (n_j - n_(j-1)) n_max^(p - 2) =
    n_max^(p - 1)``, so ``(p - 1) log n_max <= log(DBL_MAX)`` keeps it, and
    every weight ``n^(p - 2)``, below overflow; with ``n_max = 1`` any ``p`` does.
    """
    return math.inf if n_max <= 1 else 1.0 + math.log(sys.float_info.max) / math.log(n_max)


def baum_katz_sums(stream, p, eps, schedule, replicas=10_000):
    """Weighted tail-sum report for a difference stream."""
    schedule = list(schedule)
    n_max = max(schedule, default=1)  # checkpoint_sums checks the schedule
    if not 1.0 < p <= max_weight_power(n_max):
        raise ValueError(f"weight power p must lie in (1, {max_weight_power(n_max):g}] "
                         f"for checkpoints up to {n_max}")
    sums = checkpoint_sums(stream, schedule, replicas)
    ns = np.asarray(schedule, dtype=float)
    freqs = (np.abs(sums) > ns[None, :] * eps).mean(axis=0)
    gaps = np.diff(np.concatenate([[0.0], ns]))
    terms = gaps * ns ** (p - 2.0) * freqs
    return WeightedSumReport(
        p=p,
        epsilon=eps,
        schedule=tuple(schedule),
        empirical_probs=freqs,
        weighted_partial_sums=np.cumsum(terms),
        increments=terms,
        replicas=replicas,
        seed=stream.seed,
    )


@dataclass(frozen=True)
class TriangularArraySpec:
    """Row family for the triangular-array limit check.

    Kinds (all with rows of ``n`` entries at stage ``n``):

    * ``iid_gaussian``: entries N(0, 1/n); row variance sum is 1 exactly.
    * ``zero``: all-zero rows; degenerate limit.
    * ``single_spike``: one +-1 entry, rest zero; row variance sum is 1 but
      the spike never becomes negligible, violating the small-increments
      (Lindeberg) condition.

    ``shift`` must be zero: shifted rows are not conditionally centered and
    are rejected.
    """

    kind: str
    row_sizes: tuple
    eps: float = 0.25
    replicas: int = 10_000
    seed: int = 0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid_gaussian", "zero", "single_spike"):
            raise ValueError(f"unknown array kind: {self.kind!r}")
        if self.shift != 0.0:
            raise ValueError("rows are not conditionally centered (nonzero shift)")
        if len(self.row_sizes) == 0 or any(n < 1 for n in self.row_sizes):
            raise ValueError("row sizes must be positive")


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class BrownReport:
    row_sizes: tuple
    w_values: np.ndarray           # exact conditional variance sums
    lindeberg_values: np.ndarray   # exact truncated second moments
    phi: float
    samples: np.ndarray
    ks_vs_limit: float | None
    eps: float
    replicas: int
    seed: int

    @property
    def lindeberg_violated(self):
        return bool(self.lindeberg_values[-1] > LINDEBERG_TOL)


def _gaussian_truncated_second_moment(var, a):
    """E[X^2 1_{|X| >= a}] for X ~ N(0, var), in closed form."""
    if var == 0.0 or a > _TAIL_ZERO * np.sqrt(var):
        return 0.0
    # on a one-element array, as NumPy's scalar exp can differ in the last bit
    c = np.array([a / np.sqrt(var)])
    pdf = np.exp(-c**2 / 2.0) / np.sqrt(2 * np.pi)
    return float(2.0 * var * (c * pdf + ndtr(-c))[0])


def brown_triangular_check(spec):
    """Exact row diagnostics plus a sampled look at the row-sum law.

    ``W_n`` and the truncated moments are computed in closed form from the
    known row laws; only the row sums at the largest stage are sampled, from
    their exact law, and compared by KS distance to the Gaussian with
    covariance ``phi``.
    """
    ns = np.asarray(spec.row_sizes, dtype=int)
    # replica r reads draw 0 of stream r; the zero array reads none
    u = None if spec.kind == "zero" else rng.replica_uniforms(
        spec.seed, rng.TAG_MARTINGALE, spec.replicas, 1)[:, 0]
    if spec.kind == "iid_gaussian":
        w, phi = np.ones(len(ns)), 1.0
        lind = np.array([
            n * _gaussian_truncated_second_moment(1.0 / n, spec.eps) for n in ns
        ])
        # the last-stage row sum is exactly N(0, 1), so one quantile gives it
        samples = ndtri(np.maximum(u, 2.0**-53))   # u = 0 has no quantile
    elif spec.kind == "zero":
        w, lind, phi = np.zeros(len(ns)), np.zeros(len(ns)), 0.0
        samples = np.zeros(spec.replicas)
    else:  # single_spike
        w, phi = np.ones(len(ns)), 1.0
        lind = np.where(spec.eps <= 1.0, 1.0, 0.0) * np.ones(len(ns))
        samples = np.where(u < 0.5, -1.0, 1.0)

    ks = None
    if phi > 0.0:
        ks = ks_statistic(samples, lambda t: gaussian_cdf(t, 0.0, phi))
    return BrownReport(
        row_sizes=tuple(int(n) for n in ns),
        w_values=w,
        lindeberg_values=lind,
        phi=phi,
        samples=samples,
        ks_vs_limit=ks,
        eps=spec.eps,
        replicas=spec.replicas,
        seed=spec.seed,
    )
