import numpy as np
import pytest

import matwalk as mw
from matwalk import rng, walks


def test_vector_walk_matches_direct_product(free_pair):
    # short walks can be multiplied out: oracle for the scaled engine
    n, replicas, seed = 12, 8, 99
    x0 = np.array([1.0, 0.0])
    vals, finals = walks.vector_walk(free_pair.atoms, free_pair.weights,
                                     x0, n, replicas, seed, rng.TAG_WALK)
    words = rng.replica_words(seed, rng.TAG_WALK, replicas, n, free_pair.weights)
    for r in range(replicas):
        prod = np.eye(2)
        for k in words[r]:
            prod = free_pair.atoms[int(k)] @ prod
        assert vals[r] == pytest.approx(np.log(np.linalg.norm(prod @ x0)), rel=1e-12)
        direction = prod @ x0 / np.linalg.norm(prod @ x0)
        assert finals[r] == pytest.approx(direction, abs=1e-12)


def test_matrix_walk_matches_direct_product(free_pair):
    n, replicas, seed = 10, 6, 7
    out = walks.matrix_walk_log_norms({"id": free_pair.atoms}, free_pair.weights,
                                      n, replicas, seed, rng.TAG_WALK)["id"]
    words = rng.replica_words(seed, rng.TAG_WALK, replicas, n, free_pair.weights)
    for r in range(replicas):
        prod = np.eye(2)
        for k in words[r]:
            prod = free_pair.atoms[int(k)] @ prod
        assert out[r] == pytest.approx(np.log(mw.operator_norm(prod)), rel=1e-12)


def test_long_walks_stay_finite(free_pair):
    out = walks.matrix_walk_log_norms({"id": free_pair.atoms}, free_pair.weights,
                                      20_000, 4, 1, rng.TAG_WALK)["id"]
    assert np.all(np.isfinite(out))
    assert np.all(out > 1000.0)  # far beyond raw double range e^709


def test_results_independent_of_thread_count(free_pair):
    args = (free_pair.atoms, free_pair.weights, np.array([1.0, 0.0]),
            200, 3 * walks._BLOCK // 2, 5, rng.TAG_WALK)
    walks.set_thread_count(1)
    v1, f1 = walks.vector_walk(*args)
    walks.set_thread_count(4)
    v2, f2 = walks.vector_walk(*args)
    walks.set_thread_count(1)
    assert v1.tobytes() == v2.tobytes()
    assert f1.tobytes() == f2.tobytes()


def test_replica_rows_do_not_depend_on_batch_size(free_pair):
    # per-replica streams: the first rows of a bigger batch are unchanged
    small = walks.matrix_walk_log_norms({"id": free_pair.atoms}, free_pair.weights,
                                        50, 5, 3, rng.TAG_WALK)["id"]
    large = walks.matrix_walk_log_norms({"id": free_pair.atoms}, free_pair.weights,
                                        50, 9, 3, rng.TAG_WALK)["id"]
    assert small.tobytes() == large[:5].tobytes()


def test_checkpoints_agree_with_shorter_runs(free_pair):
    cps = [10, 25, 40]
    out = walks.matrix_walk_log_norms({"id": free_pair.atoms}, free_pair.weights,
                                      40, 6, 11, rng.TAG_WALK, checkpoints=cps)["id"]
    for j, n in enumerate(cps):
        direct = walks.matrix_walk_log_norms({"id": free_pair.atoms}, free_pair.weights,
                                             n, 6, 11, rng.TAG_WALK)["id"]
        assert out[:, j] == pytest.approx(direct, rel=1e-12)


def test_shared_words_across_induced_actions(free_pair):
    # the wedge-square log norm of the same product never exceeds twice the log norm
    sets = {1: free_pair.atoms,
            2: np.array([mw.exterior_square(a) for a in free_pair.atoms])}
    out = walks.matrix_walk_log_norms(sets, free_pair.weights, 100, 16, 13, rng.TAG_WALK)
    assert np.all(out[2] <= 2 * out[1] + 1e-9)


def test_trajectory_cocycle_dim1_is_cumulative_sum(scalar_pair):
    sums = walks.trajectory_cocycle(scalar_pair.atoms, scalar_pair.weights,
                                    np.array([1.0]), 1000, 17, rng.TAG_WALK)
    steps = np.diff(np.concatenate([[0.0], sums]))
    assert np.allclose(np.abs(steps), 1.0, atol=1e-12)


def test_trajectory_cocycle_matches_vector_walk(free_pair):
    traj = walks.trajectory_cocycle(free_pair.atoms, free_pair.weights,
                                    np.array([1.0, 0.0]), 64, 23, rng.TAG_WALK,
                                    stream_index=0)
    vals, _ = walks.vector_walk(free_pair.atoms, free_pair.weights,
                                np.array([1.0, 0.0]), 64, 1, 23, rng.TAG_WALK)
    assert traj[-1] == pytest.approx(vals[0], rel=1e-12)


def test_rotating_measure_log_norm_equals_scalar_walk(rotating):
    # the product is rotation-diagonal, so its log norm is the absolute value
    # of a +-1 scalar walk read off the same letters
    n, replicas, seed = 500, 32, 77
    logs = walks.matrix_walk_log_norms({"id": rotating.atoms}, rotating.weights,
                                       n, replicas, seed, rng.TAG_WALK)["id"]
    words = rng.replica_words(seed, rng.TAG_WALK, replicas, n, rotating.weights)
    for r in range(replicas):
        sign, total = 1.0, 0.0
        for a in words[r]:
            total += sign * (1.0 if a % 2 == 0 else -1.0)
            if a >= 2:
                sign = -sign
        assert abs(logs[r] - abs(total)) <= 1e-10


def test_rescale_interval_scales_with_growth():
    tame = walks.rescale_interval(np.eye(2)[None])
    wild = walks.rescale_interval(np.diag([1e6, 1e-6])[None])
    assert tame == 64
    assert 1 <= wild < 64


@pytest.mark.parametrize("skip", [0, 1, 3, 4, 5, 499, 500, 501])
def test_replica_uniforms_skip_is_the_prefix_tail(skip):
    full = rng.replica_uniforms(31, rng.TAG_DUAL_CLOUD, 6, 510, first_replica=40)
    tail = rng.replica_uniforms(31, rng.TAG_DUAL_CLOUD, 6, 510 - skip, first_replica=40,
                                skip=skip)
    assert tail.tobytes() == full[:, skip:].tobytes()


def test_replica_uniforms_rows_are_their_own_streams():
    # one generator serves the block; each row still reads stream r alone
    block = rng.replica_uniforms(8, rng.TAG_WALK, 5, 33, first_replica=3)
    for i in range(5):
        assert block[i].tobytes() == rng.stream(8, rng.TAG_WALK, 3 + i).random(33).tobytes()
