import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matwalk as mw
from matwalk import rng
from matwalk.martingales import (
    INCREMENT_TOL,
    _gaussian_truncated_second_moment,
    _scale_segments,
    max_weight_power,
)


def test_azuma_bound_examples():
    assert mw.azuma_bound(5, 0.0, 1.0) == 1.0
    assert mw.azuma_bound(200, 0.3, 1.0) == pytest.approx(0.00012340980408667956, rel=1e-12)
    with pytest.raises(ValueError):
        mw.azuma_bound(10, 0.1, 0.0)


@given(st.integers(1, 10_000), st.floats(0.01, 2.0), st.floats(0.1, 5.0))
def test_azuma_bound_monotonicity(n, eps, a):
    assert mw.azuma_bound(n + 1, eps, a) <= mw.azuma_bound(n, eps, a)
    assert mw.azuma_bound(n, eps * 1.1, a) <= mw.azuma_bound(n, eps, a)
    assert mw.azuma_bound(n, eps, a * 1.1) >= mw.azuma_bound(n, eps, a)


def test_stream_validation():
    with pytest.raises(ValueError):
        mw.DifferenceStream(kind="iid_bounded", values=(1.0, 2.0), probs=(0.5, 0.5))
    with pytest.raises(ValueError):
        mw.DifferenceStream(kind="unknown")
    with pytest.raises(ValueError):
        mw.DifferenceStream(kind="counterexample_3i", p=1.0)
    with pytest.raises(ValueError):
        mw.DifferenceStream(kind="walk_induced")


def test_scale_segments_cover_range():
    segs = _scale_segments(0, 30)
    assert sum(m for _, m in segs) == 30
    # scales: n in 1..3 -> 1, 4..9 -> 2, 10..27 -> 3, 28..30 -> 4
    assert segs == [(1, 3), (2, 6), (3, 18), (4, 3)]


def test_checkpoint_sums_coin_moments():
    stream = mw.DifferenceStream(kind="iid_bounded", seed=1)
    sums = mw.checkpoint_sums(stream, [64, 256], replicas=20_000)
    assert sums.shape == (20_000, 2)
    assert np.all(np.mod(sums[:, 0], 2) == np.mod(64, 2))
    assert abs(sums[:, 0].mean()) <= 3 * 8.0 / np.sqrt(20_000)
    assert sums[:, 1].var() == pytest.approx(256.0, rel=0.05)


def test_checkpoint_sums_deterministic():
    stream = mw.DifferenceStream(kind="iid_square_integrable", seed=5)
    a = mw.checkpoint_sums(stream, [10, 20], replicas=100)
    b = mw.checkpoint_sums(stream, [10, 20], replicas=100)
    assert a.tobytes() == b.tobytes()


def test_counterexample_marginal_at_first_checkpoint():
    # at n = 1 the sum is a single increment: values {-3, 0, 3} with
    # P(+-3) = 3^(-p) each
    stream = mw.DifferenceStream(kind="counterexample_3i", seed=2, p=2.0)
    sums = mw.checkpoint_sums(stream, [1], replicas=200_000)[:, 0]
    vals, counts = np.unique(sums, return_counts=True)
    assert set(vals).issubset({-3.0, 0.0, 3.0})
    freq_plus = counts[vals == 3.0][0] / 200_000
    assert freq_plus == pytest.approx(1.0 / 9.0, abs=3 * 1.96 * np.sqrt(1 / 9 * 8 / 9 / 200_000))


def test_walk_induced_stream_is_centered(free_pair):
    stream = mw.DifferenceStream(kind="walk_induced", seed=3, measure=free_pair,
                                 start=mw.ProjectivePoint([1.0, 0.0]))
    sums = mw.checkpoint_sums(stream, [200], replicas=4000)[:, 0]
    assert abs(sums.mean()) <= 3 * sums.std(ddof=1) / np.sqrt(4000)
    assert stream.bound > 0.0


def test_walk_induced_sums_read_only_the_direction_of_the_start(free_pair):
    # the start goes through linalg's normaliser: a huge one keeps every byte
    far, near = (mw.checkpoint_sums(mw.DifferenceStream(kind="walk_induced", seed=4,
                                                        measure=free_pair, start=start),
                                    [1, 40, 300], 50)
                 for start in ([2.0**600, 2.0**600], [1.0, 1.0]))
    assert far.tobytes() == near.tobytes()


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
def test_walk_induced_sums_match_step_loop(measure, request):
    # 4100 replicas cut the 150-step time axis into three segments of the scan
    mu = request.getfixturevalue(measure)
    start = np.arange(1.0, mu.dim + 1.0)
    stream = mw.DifferenceStream(kind="walk_induced", seed=12, measure=mu, start=start)
    schedule, replicas = [1, 63, 64, 65, 130, 150], 4100
    sums = mw.checkpoint_sums(stream, schedule, replicas)
    words = rng.replica_words(12, rng.TAG_MARTINGALE, replicas, schedule[-1], mu.weights)
    v = np.tile(start / np.linalg.norm(start), (replicas, 1))
    acc, want = np.zeros(replicas), []
    for k in range(schedule[-1]):
        moved = np.array([np.linalg.norm(v @ a.T, axis=1) for a in mu.atoms])
        drift = mu.weights @ np.log(moved)
        acc += np.log(moved[words[:, k], np.arange(replicas)]) - drift
        v = np.einsum("nij,nj->ni", mu.atoms[words[:, k]], v)
        v /= np.linalg.norm(v, axis=1)[:, None]
        if k + 1 in schedule:
            want.append(acc.copy())
    assert np.allclose(sums, np.column_stack(want), rtol=1e-12, atol=1e-12)


_SCHEDULE_USERS = {
    "checkpoint_sums": lambda stream, sched: mw.checkpoint_sums(stream, sched, 10),
    "azuma_check": lambda stream, sched: mw.azuma_check(stream, 0.3, sched, trials=10),
    "baum_katz_sums": lambda stream, sched: mw.baum_katz_sums(stream, 2.0, 0.1, sched, 10),
}


@pytest.mark.parametrize("user", sorted(_SCHEDULE_USERS))
@pytest.mark.parametrize("schedule", [[], [4, 4], [0, 3]])
@pytest.mark.parametrize("kind", ["iid_bounded", "walk_induced"])
def test_schedules_must_be_nonempty_increasing_and_positive(user, schedule, kind, free_pair):
    stream = mw.DifferenceStream(kind=kind, seed=1, measure=free_pair,
                                 start=mw.ProjectivePoint([1.0, 0.0]))
    with pytest.raises(ValueError, match="schedule"):
        _SCHEDULE_USERS[user](stream, schedule)


def test_azuma_check_on_coin_flips():
    stream = mw.DifferenceStream(kind="iid_bounded", seed=4)
    report = mw.azuma_check(stream, 0.3, [16, 64, 256, 1024], trials=20_000)
    assert report.satisfied
    assert np.all(np.diff(report.bounds) < 0)
    assert report.frequencies[-1] == 0.0


def test_baum_katz_zero_stream_has_zero_frequencies():
    zero = mw.DifferenceStream(kind="iid_bounded", values=(0.0, 0.0), probs=(0.5, 0.5), seed=6)
    report = mw.baum_katz_sums(zero, 2.0, 0.1, [16, 32, 64], replicas=500)
    assert np.all(report.empirical_probs == 0.0)
    assert np.all(report.weighted_partial_sums == 0.0)
    assert report.verdict == "consistent with summability"


def test_baum_katz_contrast_between_streams():
    sched = [2**k for k in range(4, 11)]
    good = mw.baum_katz_sums(mw.DifferenceStream(kind="iid_bounded", seed=7),
                             2.0, 0.5, sched, replicas=4000)
    bad = mw.baum_katz_sums(mw.DifferenceStream(kind="counterexample_3i", seed=7, p=2.0),
                            2.0, 0.5, sched, replicas=4000)
    assert good.increments[-1] < INCREMENT_TOL
    assert good.verdict == "consistent with summability"
    assert bad.verdict == "no sign of summability"
    assert bad.weighted_partial_sums[-1] > good.weighted_partial_sums[-1]


def test_brown_gaussian_rows_exact_and_gaussian():
    spec = mw.TriangularArraySpec(kind="iid_gaussian", row_sizes=(100, 1000),
                                  replicas=4000, seed=8)
    report = mw.brown_triangular_check(spec)
    assert np.all(report.w_values == 1.0)
    assert report.lindeberg_values[-1] < 1e-10
    assert not report.lindeberg_violated
    assert report.ks_vs_limit <= 0.03


@pytest.mark.parametrize("sds", [39.0, 40.0, 40.5, 1e10, 1e150, 1e300])
@pytest.mark.parametrize("n", [1, 20, 10**7])
def test_lindeberg_term_past_40_sds_is_exactly_zero(sds, n):
    # the closed form is already 0.0 from 39 standard deviations on; past 40 it is
    # read as 0 without forming a / sqrt(var), which overflows for eps = 1e308
    var = 1.0 / n
    assert _gaussian_truncated_second_moment(var, sds * np.sqrt(var)) == 0.0
    assert _gaussian_truncated_second_moment(var, 38.0 * np.sqrt(var)) > 0.0


def test_brown_takes_any_eps():
    report = mw.brown_triangular_check(mw.TriangularArraySpec(
        kind="iid_gaussian", row_sizes=(20, 50), eps=1e308, replicas=100, seed=8))
    assert np.all(report.lindeberg_values == 0.0)
    assert not report.lindeberg_violated


def test_baum_katz_weight_power_is_bounded_by_the_float_range():
    stream = mw.DifferenceStream(kind="iid_bounded", seed=3)
    most = max_weight_power(16)
    assert most == pytest.approx(1.0 + np.log(np.finfo(float).max) / np.log(16.0))
    # with eps tiny nearly every frequency is 1, so the sums come near 16^(p - 1)
    report = mw.baum_katz_sums(stream, most, 1e-9, [8, 16], replicas=50)
    assert np.all(np.isfinite(report.weighted_partial_sums))
    for p in (np.nextafter(most, np.inf), 2.0**64):
        with pytest.raises(ValueError, match="weight power p must lie in"):
            mw.baum_katz_sums(stream, p, 0.5, [8, 16], replicas=50)
    assert max_weight_power(1) == np.inf


def test_brown_zero_rows_degenerate():
    report = mw.brown_triangular_check(
        mw.TriangularArraySpec(kind="zero", row_sizes=(50,), replicas=100, seed=9))
    assert report.phi == 0.0
    assert np.all(report.samples == 0.0)
    assert report.ks_vs_limit is None


def test_brown_single_spike_flags_violation():
    report = mw.brown_triangular_check(
        mw.TriangularArraySpec(kind="single_spike", row_sizes=(100, 1000),
                               replicas=2000, seed=10))
    assert np.all(report.w_values == 1.0)
    assert report.lindeberg_violated
    assert report.ks_vs_limit > 0.25  # +-1 sums are nothing like a Gaussian


@pytest.mark.parametrize("kind, draws", [("iid_gaussian", 1), ("zero", 0), ("single_spike", 1)])
def test_brown_draws_uniforms_only_for_arrays_that_read_them(monkeypatch, kind, draws):
    # the zero array's samples are all 0: it reads no stream
    calls, uniforms = [], rng.replica_uniforms
    monkeypatch.setattr(rng, "replica_uniforms",
                        lambda *a, **k: calls.append(a) or uniforms(*a, **k))
    mw.brown_triangular_check(
        mw.TriangularArraySpec(kind=kind, row_sizes=(10, 40), replicas=100, seed=9))
    assert len(calls) == draws


@pytest.mark.parametrize("kind", ["iid_gaussian", "single_spike"])
def test_brown_replicas_do_not_depend_on_batch_size(kind):
    # replica r reads stream r
    small, large = (mw.brown_triangular_check(
        mw.TriangularArraySpec(kind=kind, row_sizes=(10, 40), replicas=r, seed=3))
        for r in (5, 9))
    assert small.samples.tobytes() == large.samples[:5].tobytes()


def test_brown_rejects_uncentered_rows():
    with pytest.raises(ValueError):
        mw.TriangularArraySpec(kind="iid_gaussian", row_sizes=(100,), shift=0.5)


@pytest.mark.parametrize("var", [0.01, 1.0, 4.0])
@pytest.mark.parametrize("a", [0.0, 0.3, 2.0, 5.0])
def test_gaussian_truncated_second_moment_matches_quadrature(var, a):
    # E[X^2 1{|X| >= a}] = 2 int_a^inf x^2 pdf(x) dx, by Simpson's rule on
    # 200k panels out to 40 standard deviations
    x, h = np.linspace(a, a + 40.0 * np.sqrt(var), 400_001, retstep=True)
    f = x * x * np.exp(-x * x / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    quad = 2.0 * h / 3.0 * float(f[0] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum() + f[-1])
    assert _gaussian_truncated_second_moment(var, a) == pytest.approx(quad, rel=1e-12)
    if a == 0.0:
        assert _gaussian_truncated_second_moment(var, a) == pytest.approx(var, rel=1e-15)


def test_gaussian_truncated_second_moment_of_a_point_mass():
    assert _gaussian_truncated_second_moment(0.0, 0.5) == 0.0
