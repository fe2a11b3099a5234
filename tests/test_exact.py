"""The walk engines against exact products of integer atoms (``tests/exact.py``).

Each value must lie within ``exact.budget``: ``n eps max(1, max |value|)`` for a
walk of ``n`` letters, the budget the README states next to the byte contract.
"""

import decimal

import numpy as np
import pytest

import matwalk as mw
from matwalk import rng, walks

import exact

N, SEED = 2000, 3
MARKS = [1, 7, 64, 65, 999, 1500, 2000]


def _start(dim, shift=0.0):
    start = np.arange(1.0, dim + 1.0) + shift
    return start / np.linalg.norm(start)


def _check(got, want, n=N):
    """``got`` lies within the budget of the exact values ``want`` of a walk of ``n`` letters."""
    assert np.abs(got - want).max() <= exact.budget(n, want)


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
@pytest.mark.parametrize("replicas", [1, 3])
def test_vector_walk_is_within_budget_of_exact_products(measure, replicas, request):
    mu = request.getfixturevalue(measure)
    values, _ = walks.vector_walk(mu.atoms, mu.weights, _start(mu.dim), N, replicas, SEED,
                                  rng.TAG_WALK, checkpoints=MARKS)
    words = rng.replica_words(SEED, rng.TAG_WALK, replicas, N, mu.weights)
    for r in range(replicas):
        _check(values[r], exact.vector_logs(mu.atoms, words[r], _start(mu.dim), MARKS))


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
@pytest.mark.parametrize("replicas", [1, 3])
def test_matrix_walk_is_within_budget_of_exact_products(measure, replicas, request):
    # every exterior degree on one word draw: m = 2 and 1 for the free pair, the
    # 3 x 3 walk, its 3 x 3 wedge square and m = 1 for sl3_pair
    mu = request.getfixturevalue(measure)
    sets = {r: mw.exterior_power(mu.atoms, r) for r in range(1, mu.dim + 1)}
    logs = walks.matrix_walk_log_norms(sets, mu.weights, N, replicas, SEED, rng.TAG_WALK,
                                       checkpoints=MARKS)
    words = rng.replica_words(SEED, rng.TAG_WALK, replicas, N, mu.weights)
    for degree, atoms in sets.items():
        for r in range(replicas):
            _check(logs[degree][r], exact.matrix_logs(atoms, words[r], MARKS))


# three chunks of 128 steps of 8 letters and a tail; the checkpoint leaves two chunks
# before it and one, walked step by step, after it
LONG = 3 * walks._CHUNK_STEPS * 8 + 100
LONG_MARKS = [2 * walks._CHUNK_STEPS * 8 + 51, LONG]


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
@pytest.mark.parametrize("replicas", [1, 3])
def test_chunked_matrix_walk_is_within_budget_of_exact_products(measure, replicas, request):
    # the free pair, and shear_pair_sl3 with its wedge square, walk their chunks
    # side by side, with and without a checkpoint inside the long stretch
    mu = request.getfixturevalue(measure)
    sets = {r: mw.exterior_power(mu.atoms, r) for r in range(1, mu.dim)}
    words = rng.replica_words(SEED, rng.TAG_WALK, replicas, LONG, mu.weights)
    read = walks.matrix_walk_log_norms(sets, mu.weights, LONG, replicas, SEED, rng.TAG_WALK,
                                       checkpoints=LONG_MARKS)
    whole = walks.matrix_walk_log_norms(sets, mu.weights, LONG, replicas, SEED, rng.TAG_WALK)
    for degree, atoms in sets.items():
        for r in range(replicas):
            want = exact.matrix_logs(atoms, words[r], LONG_MARKS)
            _check(read[degree][r], want, LONG)
            _check(whole[degree][r], want[-1:], LONG)


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
def test_trajectory_is_within_budget_of_exact_products_at_every_step(measure, request):
    mu = request.getfixturevalue(measure)
    values = walks.trajectory_cocycle(mu.atoms, mu.weights, _start(mu.dim), N, SEED,
                                      rng.TAG_WALK, stream_index=4)
    word = rng.replica_words(SEED, rng.TAG_WALK, 1, N, mu.weights, first_replica=4)[0]
    _check(values, exact.vector_logs(mu.atoms, word, _start(mu.dim), range(1, N + 1)))


# about 1500 letters, no multiple of a chunk, scanned in segments of 7 chunks
SCAN_N = 1501


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
@pytest.mark.parametrize("rows", [3, 5])
def test_many_row_scan_is_within_budget_of_exact_products_at_every_step(measure, rows, request,
                                                                        monkeypatch):
    mu = request.getfixturevalue(measure)
    monkeypatch.setattr(walks, "_SCAN_PRODUCTS", 7 * walks.rescale_interval(mu.atoms) * rows)
    starts = np.array([_start(mu.dim, r) for r in range(rows)])
    segments = list(walks.chunked_walk(mu.atoms, mu.weights, starts, SCAN_N, SEED, rng.TAG_WALK,
                                       first_replica=2))
    assert len(segments) >= 4
    values = np.concatenate([v for _, v, _ in segments], axis=1)
    words = rng.replica_words(SEED, rng.TAG_WALK, rows, SCAN_N, mu.weights, first_replica=2)
    for r in range(rows):
        _check(values[r], exact.vector_logs(mu.atoms, words[r], starts[r], range(1, SCAN_N + 1)),
               SCAN_N)


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
@pytest.mark.parametrize("rows", [1, 7])
def test_atom_images_are_within_budget_of_exact_images(measure, rows, request):
    # one letter: log norms within budget(1, ...), unit rows within a few eps
    mu = request.getfixturevalue(measure)
    x_rows = np.array([_start(mu.dim, 0.7 * r) for r in range(rows)])
    logs, units = walks.atom_images(mu.atoms, x_rows)
    assert logs.shape == (len(mu.atoms), rows) and units.shape == (len(mu.atoms), rows, mu.dim)
    for r, x in enumerate(x_rows):
        want_logs, want_units = exact.images(mu.atoms, x)
        _check(logs[:, r], want_logs, 1)
        assert np.abs(units[:, r] - want_units).max() <= 4 * exact.EPS


@pytest.mark.parametrize("n", [1, 3, 10**20, 2**64 - 1, 3**1000, 2**3000 + 1])
def test_log_int_reads_the_top_bits(n):
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        assert exact.log_int(n) == pytest.approx(float(decimal.Decimal(n).ln()), rel=exact.EPS)


@pytest.mark.parametrize("a, b", [(3**1000 + 3**990, 3**1000), (10**20, 7), (2**3000, 3),
                                  (3, 2**3000), (2**1100 + 1, 2**1100)])
def test_log_ratio_reads_the_rounded_quotient(a, b):
    # a quotient near 1 of two huge ints, in range and out of it both ways
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        want = float((decimal.Decimal(a) / decimal.Decimal(b)).ln())
    assert abs(exact.log_ratio(a, b) - want) <= exact.EPS * max(1.0, abs(want))


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
def test_one_letter_oracle_is_within_budget_of_the_exact_images(measure, request):
    # the walk oracle after one letter agrees with the 40-digit images to budget(1, ...)
    mu = request.getfixturevalue(measure)
    for shift in np.linspace(0.0, 3.0, 10):
        x = _start(mu.dim, shift)
        want, _ = exact.images(mu.atoms, x)
        got = [exact.vector_logs(mu.atoms, [a], x, [1])[0] for a in range(len(mu.atoms))]
        _check(np.array(got), want, 1)
