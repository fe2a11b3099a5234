"""Scenario execution: dispatch a validated config and emit its artifacts.

Each run writes ``report.csv`` (schema fixed per experiment kind) and
``summary.txt`` (point estimates, intervals, verdicts, seeds, and the claim
being exercised); fluctuation kinds add an SVG overlay and the measure-cloud
kinds export the particle cloud.  Artifacts are byte-deterministic functions
of ``(config, master seed)``; the thread count never reaches them.  The
schedule arrives validated and typed, with every default filled in
(``scenarios.SCHEDULES``), so the runners only read it.

There is one runner per key of ``scenarios.SCHEDULES``; each returns the report
table and the summary lines after the common header, ``(header, rows, lines)``,
and ``run_scenario`` alone writes both files.
"""

import functools
import os
from pathlib import Path

import numpy as np

from . import martingales, rng, walks
from .errors import ConfigError
from .limits import (
    clt_experiment,
    large_deviation_curve,
    lil_diagnostic,
    lyapunov_pair,
    lyapunov_top,
    multidim_clt_cartan,
)
from .linalg import DualProjectivePoint, ProjectivePoint
from .reports import fmt, svg_histogram, write_csv, write_summary
from .scenarios import check_seed
from .stationary import (
    PsiFunction,
    canonicalize_rows,
    cohomological_residual,
    estimate_dual_stationary,
    estimate_stationary,
    log_regularity_integral,
)
from .stats import folded_gaussian_cdf, gaussian_cdf

_CLAIMS = {
    "lyapunov": "log norm of the walk product grows at a deterministic rate,"
                " with the second rate read off the wedge-square walk",
    "clt": "normalized log-norm fluctuations of the walk converge in law"
           " (Gaussian under strong irreducibility and proximality)",
    "clt_cartan": "the vector of log singular values of a unimodular walk"
                  " satisfies a nondegenerate multidimensional limit law",
    "stationary": "the forward walk equidistributes toward a stationary"
                  " measure whose log-pairing integrals are finite",
    "cohomological": "the drift of the norm cocycle equals a constant plus a"
                     " coboundary of the explicit dual-cloud corrector",
    "large_deviation": "tail frequencies of the rate deviation decay"
                       " exponentially in the walk length",
    "lil": "normalized running extrema of the walk stay in the iterated-"
           "logarithm band and reach its edge",
    "martingale_lab": "martingale concentration, weighted tail sums, and the"
                      " triangular-array limit behave as predicted",
}


def _test_rows(seed, count, dim):
    draws = rng.stream(seed, rng.TAG_TEST_POINTS).normal(size=(count, dim))
    return canonicalize_rows(draws)


def _header_lines(config, seed):
    lines = [
        f"scenario: {config.name}",
        f"kind: {config.kind}",
        f"master_seed: {seed}",
        f"dimension: {config.dimension}",
        f"claim: {_CLAIMS[config.kind]}",
    ]
    for key in ("strong_irreducible", "proximal", "unimodular"):
        if key in config.assertions:
            lines.append(f"asserted {key}: {fmt(config.assertions[key])}")
    return lines


def _run_lyapunov(config, mu, seed, out):
    n, replicas = config.schedule["n"], config.schedule["replicas"]
    header = ["quantity", "value", "ci_halfwidth", "n", "replicas", "seed"]
    if mu.dim >= 2:
        est = lyapunov_pair(mu, n=n, replicas=replicas, seed=seed)
        rows = [
            ("lambda1", est.lambda1, est.ci_halfwidth, n, replicas, seed),
            ("lambda2", est.lambda2, est.pair_sum_ci_halfwidth + est.ci_halfwidth,
             n, replicas, seed),
            ("pair_sum", est.pair_sum, est.pair_sum_ci_halfwidth, n, replicas, seed),
            ("simplicity_gap", est.simplicity_gap,
             est.simplicity_gap_ci_halfwidth, n, replicas, seed),
        ]
    else:
        est = lyapunov_top(mu, n=n, replicas=replicas, seed=seed)
        rows = [("lambda1", est.lambda1, est.ci_halfwidth, n, replicas, seed)]
    return header, rows, [f"{q}: {fmt(v)} +- {fmt(ci)}" for q, v, ci, *_ in rows]


def _reference_cdf(sched):
    ref, var = sched["reference"], sched["reference_var"]
    if ref is None:
        return None, None
    if ref == "folded_normal":
        return functools.partial(folded_gaussian_cdf, var=var), f"folded normal(var={fmt(var)})"
    return (lambda t: gaussian_cdf(t, 0.0, var)), f"gaussian(var={fmt(var)})"


def _run_clt(config, mu, seed, out):
    sched = config.schedule
    start = sched["start"]
    x = ProjectivePoint(np.asarray(start)) if start is not None else None
    reference, ref_label = _reference_cdf(sched)
    report = clt_experiment(
        mu, x=x, n=sched["n"], samples=sched["samples"], seed=seed,
        reference=reference, lambda1=sched["lambda1"],
    )
    lines = [
        f"statistic: {'cocycle at start point' if x is not None else 'log operator norm'}",
        f"exponent_used: {fmt(report.lambda_used)} +- {fmt(report.lambda_ci_halfwidth)}",
        f"fitted_mean: {fmt(report.fitted_mean)}",
        f"fitted_variance: {fmt(report.fitted_covariance)}",
        f"ks_vs_fitted_gaussian: {fmt(report.ks_vs_fitted_gaussian)}",
    ]
    if report.ks_vs_reference is not None:
        lines.append(f"ks_vs_reference[{ref_label}]: {fmt(report.ks_vs_reference)}")
    lines.append(f"degenerate_limit: {fmt(report.degenerate)}")
    fit_cdf = reference if reference is not None else (
        lambda t: gaussian_cdf(t, float(report.fitted_mean), float(report.fitted_covariance))
    )
    svg_histogram(out / "histogram.svg", report.samples, cdf=fit_cdf,
                  title=f"{config.name}: normalized samples")
    return ["sample_index", "normalized_value"], list(enumerate(report.samples)), lines


def _run_clt_cartan(config, mu, seed, out):
    sched = config.schedule
    report = multidim_clt_cartan(mu, n=sched["n"], samples=sched["samples"], seed=seed)
    d = mu.dim
    header = ["sample_index"] + [f"coord_{j + 1}" for j in range(d)]
    rows = [(i, *row) for i, row in enumerate(report.samples)]
    lam = ", ".join(fmt(v) for v in report.lambda_used)
    lam_ci = ", ".join(fmt(v) for v in report.lambda_ci_halfwidth)
    lines = [
        f"rate_vector: [{lam}]",
        f"rate_ci_halfwidths: [{lam_ci}]",
        f"max_coordinate_sum: {fmt(report.max_coordinate_sum)}",
        f"ks_vs_fitted_gaussian_max_coord: {fmt(report.ks_vs_fitted_gaussian)}",
        f"restricted_min_eigenvalue: {fmt(report.restricted_min_eigenvalue)}"
        f" +- {fmt(report.restricted_min_eigenvalue_ci)}",
    ]
    svg_histogram(out / "histogram.svg", report.samples[:, 0],
                  title=f"{config.name}: first coordinate")
    return header, rows, lines


def _run_stationary(config, mu, seed, out):
    sched = config.schedule
    burn_in, particles, p = sched["burn_in"], sched["particles"], sched["p"]
    cloud = estimate_stationary(mu, burn_in=burn_in, particles=particles, seed=seed)
    cloud.to_csv(out / "cloud.csv")
    ys = _test_rows(seed, sched["test_points"], mu.dim)
    rows = []
    for i, row in enumerate(ys):
        val = log_regularity_integral(cloud, DualProjectivePoint(row), p)
        rows.append((i, p, val, *row))
    header = ["point_index", "p", "integral_value"] + [
        f"y_{j + 1}" for j in range(mu.dim)
    ]
    finite = [r[2] for r in rows if np.isfinite(r[2])]
    return header, rows, [
        f"particles: {particles}, burn_in: {burn_in}",
        f"finite_integrals: {len(finite)}/{len(rows)}",
        f"integral_min: {fmt(min(finite)) if finite else ''}",
        f"integral_max: {fmt(max(finite)) if finite else ''}",
        "note: continuity in the test direction is reported as stability"
        " across independent clouds, not pointwise.",
    ]


def _run_cohomological(config, mu, seed, out):
    sched = config.schedule
    burn_in, particles = sched["burn_in"], sched["particles"]
    est = lyapunov_top(mu, n=sched["calibration_n"], replicas=sched["calibration_replicas"],
                       seed=seed)
    dual = estimate_dual_stationary(mu, burn_in=burn_in, particles=particles, seed=seed)
    psi = PsiFunction(dual)
    xs = [ProjectivePoint(row) for row in _test_rows(seed, sched["test_points"], mu.dim)]
    res = cohomological_residual(mu, psi, est.lambda1, xs)
    header = ["point_index", "residual"] + [f"x_{j + 1}" for j in range(mu.dim)]
    rows = [(i, r, *x.rep) for i, (r, x) in enumerate(zip(res.residuals, xs))]
    return header, rows, [
        f"exponent_used: {fmt(est.lambda1)} +- {fmt(est.ci_halfwidth)}",
        f"dual_particles: {particles}, burn_in: {burn_in}",
        f"mean_abs_residual: {fmt(res.mean_abs)}",
        f"max_abs_residual: {fmt(res.max_abs)}",
    ]


def _run_large_deviation(config, mu, seed, out):
    sched = config.schedule
    curve = large_deviation_curve(mu, sched["eps"], sched["n_values"],
                                  replicas=sched["replicas"], seed=seed)
    return ["n", "frequency"], list(zip(curve.schedule, curve.frequencies)), [
        f"eps: {fmt(curve.epsilon)}",
        f"exponent_used: {fmt(curve.lambda_used)}",
        f"decay_rate: {fmt(curve.decay_rate) if curve.decay_rate is not None else 'indeterminate'}",
    ]


def _run_lil(config, mu, seed, out):
    sched = config.schedule
    x = ProjectivePoint(np.eye(mu.dim)[0])
    report = lil_diagnostic(mu, x, sched["n_max"], seed,
                            lambda1=sched["lambda1"], phi=sched["phi"])
    rows = list(zip(report.checkpoints, report.normalized_at_checkpoints))
    return ["n", "normalized_value"], rows, [
        f"window: [{report.window[0]}, {report.window[1]}]",
        f"max_normalized: {fmt(report.max_normalized)}",
        f"min_normalized: {fmt(report.min_normalized)}",
        f"within_band: {fmt(report.within_band)}",
        f"reaches_band: {fmt(report.reaches_band)}",
    ]


_STREAMS = {"coin": "iid_bounded", "gaussian": "iid_square_integrable",
            "counterexample_3i": "counterexample_3i"}


def _run_azuma(config, mu, seed, out):
    sched = config.schedule
    stream = martingales.DifferenceStream(kind=_STREAMS[sched["stream"]], seed=seed)
    report = martingales.azuma_check(stream, sched["eps"], sched["n_values"],
                                     trials=sched["trials"])
    rows = [(n, f, b, None) for n, f, b in
            zip(report.schedule, report.frequencies, report.bounds)]
    margins = report.bounds + 3.0 * report.ci_halfwidths - report.frequencies
    return ["n", "frequency", "bound", "partial_sum"], rows, [
        f"eps: {fmt(report.eps)}, trials: {report.trials}",
        f"bound_respected: {fmt(report.satisfied)}",
        f"min_margin_with_3_halfwidths: {fmt(float(margins.min()))}",
    ]


def _run_baum_katz(config, mu, seed, out):
    sched = config.schedule
    # the tail power p weights the sums, and shapes the counterexample stream
    stream = martingales.DifferenceStream(kind=_STREAMS[sched["stream"]], seed=seed,
                                          p=sched["p"])
    report = martingales.baum_katz_sums(stream, sched["p"], sched["eps"],
                                        sched["n_values"], replicas=sched["replicas"])
    rows = [(n, f, None, s) for n, f, s in
            zip(report.schedule, report.empirical_probs, report.weighted_partial_sums)]
    return ["n", "frequency", "bound", "partial_sum"], rows, [
        f"p: {fmt(report.p)}, eps: {fmt(report.epsilon)}, replicas: {report.replicas}",
        f"verdict: {report.verdict}",
    ]


def _run_brown(config, mu, seed, out):
    sched = config.schedule
    spec = martingales.TriangularArraySpec(
        kind=sched["array_kind"], row_sizes=sched["row_sizes"], eps=sched["eps"],
        replicas=sched["replicas"], seed=seed,
    )
    report = martingales.brown_triangular_check(spec)
    rows = list(zip(report.row_sizes, report.w_values, report.lindeberg_values))
    return ["n", "w_n", "lindeberg_term"], rows, [
        f"phi: {fmt(report.phi)}",
        f"ks_vs_limit: {fmt(report.ks_vs_limit) if report.ks_vs_limit is not None else 'degenerate'}",
        f"lindeberg_violated: {fmt(report.lindeberg_violated)}",
    ]


_RUNNERS = {
    "lyapunov": _run_lyapunov,
    "clt": _run_clt,
    "clt_cartan": _run_clt_cartan,
    "stationary": _run_stationary,
    "cohomological": _run_cohomological,
    "large_deviation": _run_large_deviation,
    "lil": _run_lil,
    "martingale_lab/azuma": _run_azuma,
    "martingale_lab/baum_katz": _run_baum_katz,
    "martingale_lab/brown": _run_brown,
}


def resolve_seed(config, override=None):
    """Seed priority: explicit override, then config, then MATWALK_SEED, then 0.

    Whatever its source, the seed must be an integer in [0, 2**64).
    """
    env = os.environ.get("MATWALK_SEED")
    try:
        env = int(env)
    except (TypeError, ValueError):
        pass  # None, or text that check_seed reports
    for source, seed in (("--seed", override), ("master_seed", config.master_seed),
                         ("MATWALK_SEED", env)):
        if seed is not None:
            return check_seed(seed, source)
    return 0


def run_scenario(config, out_dir=None, seed=None, threads=1):
    """Execute one scenario and write its artifacts; returns the output dir."""
    seed = resolve_seed(config, seed)
    walks.set_thread_count(threads)
    out = Path(out_dir or config.output_dir or Path("out") / config.name)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path through one
        raise ConfigError(
            [f"cannot create output directory {str(out)!r}: {exc.strerror or exc}"]
        ) from exc
    mu = config.to_measure()
    key = config.kind
    if key == "martingale_lab":
        key += "/" + config.schedule["check"]
    try:
        header, rows, lines = _RUNNERS[key](config, mu, seed, out)
        write_csv(out / "report.csv", header, rows)
        write_summary(out / "summary.txt", _header_lines(config, seed) + lines)
    except OSError as exc:  # an artifact path is taken, say by a directory
        raise ConfigError([f"cannot write artifacts in {str(out)!r}: {exc}"]) from exc
    return out
