import numpy as np
import pytest

import matwalk as mw
from matwalk import rng, walks
from matwalk.stats import mean_ci_halfwidth

from conftest import gaussian_measure


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# --- exponent estimation ---

def test_lyapunov_rotation_is_zero():
    mu = mw.GeneratorMeasure.from_atoms([rotation(0.9)])
    est = mw.lyapunov_top(mu, n=300, replicas=4, seed=1)
    assert abs(est.lambda1) <= 1e-9
    assert est.ci_halfwidth <= 1e-9


def test_lyapunov_single_matrix_matches_spectral_radius():
    # power-limit oracle: for a fixed matrix the rate is log of the spectral radius
    g = np.array([[1.1, 0.7, 0.0], [0.2, 0.9, -0.4], [0.0, 0.3, 1.2]])
    rho = float(np.max(np.abs(np.linalg.eigvals(g))))
    est = mw.lyapunov_top(mw.GeneratorMeasure.from_atoms([g]), n=2000, replicas=1, seed=2)
    assert est.lambda1 == pytest.approx(np.log(rho), abs=1e-3)


def test_lyapunov_rotating_measure_rate_is_zero(rotating):
    # few replicas on purpose: the folded mean is positively biased at finite n
    est = mw.lyapunov_top(rotating, n=2000, replicas=16, seed=3)
    assert abs(est.lambda1) <= 3 * est.ci_halfwidth


def test_lyapunov_pair_split_diagonal():
    mu = mw.GeneratorMeasure.from_atoms([np.diag([3.0, 0.5])])
    est = mw.lyapunov_pair(mu, n=200, replicas=4, seed=4)
    assert est.lambda1 == pytest.approx(np.log(3.0), abs=1e-10)
    assert est.lambda2 == pytest.approx(np.log(0.5), abs=1e-10)


def test_lyapunov_pair_unimodular_sum_is_exactly_zero(free_pair):
    est = mw.lyapunov_pair(free_pair, n=400, replicas=64, seed=5)
    assert est.pair_sum == 0.0
    assert est.pair_sum_ci_halfwidth == 0.0
    assert est.simplicity_gap == pytest.approx(2 * est.lambda1)
    assert est.simplicity_gap > 3 * est.simplicity_gap_ci_halfwidth


def test_lyapunov_pair_draws_its_words_once(free_pair, monkeypatch):
    draws = []
    words = rng.replica_words
    monkeypatch.setattr(rng, "replica_words", lambda *a, **k: draws.append(a[1]) or words(*a, **k))
    mw.lyapunov_pair(free_pair, n=100, replicas=32, seed=6)
    assert draws == [rng.TAG_LYAPUNOV]


def test_lyapunov_pair_reads_the_wedge_walk_of_the_same_products(sl3_pair):
    # the wedge walk of the SL3 pair is random, so a second word draw would move it
    n, replicas, seed = 200, 64, 14
    wedge = np.array([mw.exterior_power(a, 2) for a in sl3_pair.atoms])
    logs = walks.matrix_walk_log_norms({1: sl3_pair.atoms, 2: wedge}, sl3_pair.weights, n,
                                       replicas, seed, rng.TAG_LYAPUNOV)
    est = mw.lyapunov_pair(sl3_pair, n=n, replicas=replicas, seed=seed)
    assert est.pair_sum == float((logs[2] / n).mean())
    assert est.pair_sum_ci_halfwidth == mean_ci_halfwidth(logs[2] / n)
    assert est.lambda2 == est.pair_sum - est.lambda1


@pytest.mark.parametrize("measure", ["free_pair", "rotating", "sl3_pair", "gaussian"])
def test_lyapunov_pair_top_exponent_is_lyapunov_top(measure, request):
    mu = (gaussian_measure(3, 4, 5) if measure == "gaussian"
          else request.getfixturevalue(measure))
    pair = mw.lyapunov_pair(mu, n=150, replicas=24, seed=9)
    top = mw.lyapunov_top(mu, n=150, replicas=24, seed=9)
    assert (pair.lambda1, pair.ci_halfwidth) == (top.lambda1, top.ci_halfwidth)


# --- scalar fluctuation experiments ---

def test_clt_deterministic_walk_is_degenerate():
    mu = mw.GeneratorMeasure.from_atoms([np.diag([2.0, 0.5])])
    rep = mw.clt_experiment(mu, n=200, samples=256, seed=6, lambda1=np.log(2.0))
    assert rep.degenerate
    assert float(rep.fitted_covariance) <= 1e-12


@pytest.mark.parametrize("atoms", [[np.eye(2)], [rotation(0.9), rotation(2.0)]],
                         ids=["identity", "rotations"])
def test_degenerate_scalar_fit_reads_ks_zero(atoms):
    # log |P| is the first Cartan coordinate, so both reports leave a coordinate
    # of fitted variance at most DEGENERATE_VAR out of the KS distance
    mu = mw.GeneratorMeasure.from_atoms(atoms)
    scalar = mw.clt_experiment(mu, n=100, samples=500, seed=1)
    cartan = mw.multidim_clt_cartan(mu, n=100, samples=500, seed=1)
    for rep in (scalar, cartan):
        assert rep.degenerate
        assert rep.ks_vs_fitted_gaussian == 0.0
    assert type(scalar.fitted_mean) is type(scalar.fitted_covariance) is np.float64


def test_clt_scalar_reduction_matches_standard_normal(scalar_pair):
    rep = mw.clt_experiment(scalar_pair, n=400, samples=4000, seed=7, lambda1=0.0,
                            reference=lambda t: mw.gaussian_cdf(t, 0.0, 1.0))
    assert rep.ks_vs_reference <= 0.035
    assert float(rep.fitted_covariance) == pytest.approx(1.0, rel=0.1)


def test_clt_start_point_version_uses_cocycle(free_pair):
    x = mw.ProjectivePoint([1.0, 0.0])
    rep = mw.clt_experiment(free_pair, x=x, n=50, samples=32, seed=8, lambda1=0.0)
    vals, _ = walks.vector_walk(free_pair.atoms, free_pair.weights, x.rep,
                                50, 32, 8, rng.TAG_WALK)
    assert rep.raw_values == pytest.approx(vals)


def test_clt_plugin_rate_is_calibrated_independently(free_pair):
    rep = mw.clt_experiment(free_pair, n=300, samples=200, seed=9)
    assert rep.lambda_ci_halfwidth > 0.0
    assert float(rep.lambda_used) == pytest.approx(0.396, abs=0.05)


# --- variance routes ---

def test_variance_routes_on_scalar_walk(scalar_pair):
    rep = mw.clt_experiment(scalar_pair, n=400, samples=4000, seed=10, lambda1=0.0)
    direct = mw.variance_estimate(rep)
    assert direct.value == pytest.approx(1.0, rel=0.1)
    # corrector route: in dimension one the corrector vanishes identically
    nu = mw.estimate_stationary(scalar_pair, burn_in=2, particles=500, seed=11)
    dual = mw.estimate_dual_stationary(scalar_pair, burn_in=2, particles=500, seed=11)
    via = mw.variance_via_corrector(scalar_pair, mw.PsiFunction(dual), 0.0, nu)
    assert via.value == pytest.approx(1.0, abs=1e-10)
    assert abs(direct.value - via.value) <= 3 * (direct.ci_halfwidth + via.ci_halfwidth)


@pytest.mark.parametrize("d", [2, 3])
def test_variance_via_corrector_on_words_matches_a_per_particle_loop(d):
    mu = gaussian_measure(d, 3, 50 + d)
    nu = mw.estimate_stationary(mu, burn_in=20, particles=50, seed=5)
    psi = mw.PsiFunction(mw.estimate_dual_stationary(mu, burn_in=20, particles=300, seed=6))
    k, seed, lam = 3, 9, 0.2
    via = mw.variance_via_corrector(mu, psi, lam, nu, word_len=k, seed=seed)
    words = rng.replica_words(seed, rng.TAG_WALK, nu.size, k, mu.weights)
    per_particle = []
    for x, word in zip(nu.reps, words):
        v = x
        for letter in word:   # the first letter acts first
            v = mu.atoms[letter] @ v
        centered = (np.log(np.linalg.norm(v)) + mw.psi_eval(psi, mw.ProjectivePoint(v))
                    - mw.psi_eval(psi, mw.ProjectivePoint(x)) - k * lam)
        per_particle.append(centered**2 / k)
    per_particle = np.array(per_particle)
    assert via.value == pytest.approx(per_particle @ nu.weights, rel=1e-12)
    assert via.ci_halfwidth == pytest.approx(mean_ci_halfwidth(per_particle), rel=1e-9)


@pytest.mark.parametrize("word_len", [0, -1])
def test_variance_via_corrector_rejects_short_words(free_pair, word_len):
    nu = mw.estimate_stationary(free_pair, burn_in=5, particles=20, seed=1)
    psi = mw.PsiFunction(mw.estimate_dual_stationary(free_pair, burn_in=5, particles=20, seed=2))
    with pytest.raises(ValueError, match="word length"):
        mw.variance_via_corrector(free_pair, psi, 0.0, nu, word_len=word_len)


def test_variance_via_corrector_refuses_a_dual_cloud(free_pair):
    dual = mw.estimate_dual_stationary(free_pair, burn_in=5, particles=20, seed=2)
    with pytest.raises(TypeError, match="primal cloud"):
        mw.variance_via_corrector(free_pair, mw.PsiFunction(dual), 0.396, dual)


def test_variance_deterministic_walk_is_zero():
    mu = mw.GeneratorMeasure.from_atoms([np.diag([2.0, 0.5])])
    rep = mw.clt_experiment(mu, n=100, samples=64, seed=12, lambda1=np.log(2.0))
    assert mw.variance_estimate(rep).value <= 1e-20


# --- iterated-logarithm diagnostic ---

def test_lil_deterministic_walk_flat():
    mu = mw.GeneratorMeasure.from_atoms([np.diag([2.0, 0.5])])
    report = mw.lil_diagnostic(mu, mw.ProjectivePoint([1.0, 0.0]), 2000, 13,
                               lambda1=np.log(2.0), phi=1.0)
    assert report.max_normalized == pytest.approx(0.0, abs=1e-10)
    assert report.min_normalized == pytest.approx(0.0, abs=1e-10)


def test_lil_scalar_walk_band(scalar_pair):
    # the reach verdict is one-sided and qualitative: over a single decade a
    # fixed trajectory may spend its excursion on either side, so this pins
    # one representative seed at the scale where the band is meaningful
    report = mw.lil_diagnostic(scalar_pair, mw.ProjectivePoint([1.0]), 1_000_000, 1,
                               lambda1=0.0, phi=1.0)
    assert report.within_band
    assert report.reaches_band
    assert report.max_normalized <= 1.3 and report.min_normalized >= -1.3
    assert report.checkpoints[0] >= report.window[0]


def test_lil_requires_positive_variance(scalar_pair):
    with pytest.raises(ValueError):
        mw.lil_diagnostic(scalar_pair, mw.ProjectivePoint([1.0]), 2000, 15,
                          lambda1=0.0, phi=0.0)


def test_lil_atom_relabeling_mirrors_trajectory(scalar_pair):
    # swapping the two equal-weight atoms flips every increment drawn by the
    # same uniforms, so the whole record mirrors
    swapped = mw.GeneratorMeasure(scalar_pair.atoms[::-1].copy(),
                                  scalar_pair.weights.copy())
    x = mw.ProjectivePoint([1.0])
    a = mw.lil_diagnostic(scalar_pair, x, 5000, 16, lambda1=0.0, phi=1.0)
    b = mw.lil_diagnostic(swapped, x, 5000, 16, lambda1=0.0, phi=1.0)
    assert a.max_normalized == pytest.approx(-b.min_normalized, abs=1e-12)
    assert a.min_normalized == pytest.approx(-b.max_normalized, abs=1e-12)


# --- deviation curves ---

def test_large_deviation_zero_when_eps_exceeds_growth():
    mu = mw.GeneratorMeasure.from_atoms([rotation(1.0)])
    curve = mw.large_deviation_curve(mu, 0.5, [8, 16, 32], replicas=100, seed=16,
                                     lambda1=0.0)
    assert np.all(curve.frequencies == 0.0)
    assert curve.decay_rate is None


def test_large_deviation_deterministic_past_transient():
    g = np.diag([2.0, 0.5])
    mu = mw.GeneratorMeasure.from_atoms([g])
    curve = mw.large_deviation_curve(mu, 0.1, [16, 64, 256], replicas=16, seed=17,
                                     lambda1=np.log(2.0))
    assert np.all(curve.frequencies == 0.0)


@pytest.mark.parametrize("lambda1", [None, 0.1])
def test_large_deviation_rejects_an_empty_schedule(free_pair, lambda1):
    with pytest.raises(ValueError, match="schedule"):
        mw.large_deviation_curve(free_pair, 0.2, [], replicas=10, seed=18, lambda1=lambda1)


def test_large_deviation_decay_rate_is_the_least_squares_slope(free_pair):
    sched = [2**k for k in range(3, 9)]
    curve = mw.large_deviation_curve(free_pair, 0.05, sched, replicas=2000, seed=3)
    nonzero = curve.frequencies > 0.0
    assert nonzero.sum() == 5
    # slope of log frequency against n, by the normal equations
    x, y = np.asarray(sched, dtype=float)[nonzero], np.log(curve.frequencies[nonzero])
    slope = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
    assert curve.decay_rate == pytest.approx(-slope, rel=1e-12)
    assert curve.decay_rate > 0.0


def test_large_deviation_decay_on_free_pair(free_pair):
    sched = [2**k for k in range(4, 10)]
    curve = mw.large_deviation_curve(free_pair, 0.2, sched, replicas=2000, seed=18)
    assert np.all(np.diff(curve.frequencies) <= 1e-12)
    assert curve.decay_rate is None or curve.decay_rate > 0.0


# --- vector fluctuations of the singular-value projection ---

def test_multidim_requires_unimodular():
    mu = mw.GeneratorMeasure.from_atoms([np.diag([2.0, 1.0])])
    with pytest.raises(mw.NotUnimodularError):
        mw.multidim_clt_cartan(mu, n=10, samples=16, seed=19)


def test_multidim_coordinate_sums_vanish(sl3_pair):
    rep = mw.multidim_clt_cartan(sl3_pair, n=200, samples=500, seed=20)
    assert rep.max_coordinate_sum <= 1e-8
    assert rep.samples.shape == (500, 3)
    assert np.abs(rep.samples.sum(axis=1)).max() <= 1e-8


def test_multidim_first_coordinate_equals_scalar_statistic(sl3_pair):
    # same seed, same stream family: the top coordinate is the log norm walk
    rep = mw.multidim_clt_cartan(sl3_pair, n=150, samples=300, seed=21)
    scalar = mw.clt_experiment(sl3_pair, x=None, n=150, samples=300, seed=21,
                               lambda1=0.0)
    assert rep.raw_values[:, 0].tobytes() == scalar.raw_values.tobytes()


def test_multidim_rates_strictly_ordered(sl3_pair):
    rep = mw.multidim_clt_cartan(sl3_pair, n=400, samples=2000, seed=22)
    lam, ci = rep.lambda_used, rep.lambda_ci_halfwidth
    for i in range(2):
        assert lam[i] - lam[i + 1] > 3 * (ci[i] + ci[i + 1])
    assert rep.restricted_min_eigenvalue > 3 * rep.restricted_min_eigenvalue_ci
