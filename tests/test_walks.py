import ast
import decimal
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import matwalk as mw
from matwalk import rng, walks

from conftest import gaussian_measure, random_invertible


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
            200, 3 * walks.BLOCK // 2, 5, rng.TAG_WALK)
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


def test_a_walk_of_one_replica_is_replica_0_of_two(free_pair, sl3_pair):
    # a lone replica walks beside a copy of itself; walked alone, the final unit
    # rows of these sl3_pair vector walks differed at 21 of the 40 seeds, the
    # matrix-walk log norms at 2 each without checkpoints and sample_word at 16
    wedge = {1: sl3_pair.atoms, 2: mw.exterior_power(sl3_pair.atoms, 2)}
    tables = walks._tables([sl3_pair.atoms])
    for seed in range(40):
        (v1, u1), (v2, u2) = (walks.vector_walk(sl3_pair.atoms, sl3_pair.weights, np.eye(3)[0],
                                                301, r, seed, rng.TAG_WALK) for r in (1, 2))
        assert v1.tobytes() == v2[:1].tobytes() and u1.tobytes() == u2[:1].tobytes(), seed
        for sets, mu, cps in (({1: free_pair.atoms}, free_pair, None),
                              ({1: free_pair.atoms}, free_pair, [7, 150, 299]),
                              (wedge, sl3_pair, None)):
            one, two = (walks.matrix_walk_log_norms(sets, mu.weights, 301, r, seed,
                                                    rng.TAG_WALK, cps) for r in (1, 2))
            assert all(one[k].tobytes() == two[k][:1].tobytes() for k in sets), seed
        word = mw.sample_word(mw.WalkSampler(sl3_pair, seed), 301)
        words = np.tile(word.indices, (2, 1))
        eyes = walks._entry_major(np.tile(np.eye(3), (2, 1, 1)))
        [logs], [state] = walks._walk_block(tables, [eyes], None, 301,
                                            lambda lo, hi: words[:, lo:hi])
        product = state[..., 0] / np.linalg.norm(state[..., 0], 2)
        assert word.log_scale == logs[0, 0] and word.matrix.tobytes() == product.tobytes(), seed


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


def test_atom_growth_per_exterior_degree():
    # log singular values 3, 1, -2: r = 1 is the atom's own growth, r = d is |log |det||
    atom = np.diag(np.exp([3.0, 1.0, -2.0]))
    assert [walks.atom_growth(atom, r) for r in (1, 2, 3)] == [3.0, 4.0, 2.0]
    assert walks.atom_growth(atom) == walks.atom_growth(atom, 1)


def test_atom_growth_past_the_bound_is_refused():
    # growth 345.4 stays below the bound of 350 and walks; 368.4 would overflow
    # a unit state's squared norm after one letter, and is refused up front
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    tame = np.array([1e150 * np.eye(2), shear])
    assert walks.rescale_interval(tame) == 1
    vals, finals = walks.vector_walk(tame, [0.5, 0.5], np.array([1.0, 0.0]), 300, 4, 3,
                                     rng.TAG_WALK)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(finals))
    logs = walks.matrix_walk_log_norms({"id": tame}, [0.5, 0.5], 300, 4, 3, rng.TAG_WALK)["id"]
    assert np.all(np.isfinite(logs))
    for wild in ([shear, 1e160 * np.eye(2)], [shear, 1e-160 * np.eye(2)]):
        with pytest.raises(ValueError, match=r"atom 1 has growth .* = 368\.4, above 350"):
            walks.rescale_interval(np.array(wild))
        with pytest.raises(ValueError, match="atom 1 has growth"):
            walks.vector_walk(np.array(wild), [0.5, 0.5], np.array([1.0, 0.0]), 10, 2, 3,
                              rng.TAG_WALK)


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


@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_trajectory_cocycle_dim1_reads_its_own_stream(scalar_pair, n):
    sums = walks.trajectory_cocycle(scalar_pair.atoms, scalar_pair.weights, np.array([1.0]),
                                    n, 17, rng.TAG_WALK, stream_index=4)
    word = rng.indices_from_uniforms(rng.stream(17, rng.TAG_WALK, 4).random(n),
                                     scalar_pair.weights)
    want = np.cumsum(np.log(np.abs(scalar_pair.atoms[:, 0, 0]))[word])
    assert sums.tobytes() == want.tobytes()


@pytest.mark.parametrize("skip", [0, 3, 4, 5, 500])
def test_vector_walk_skip_walks_the_stream_tail(free_pair, skip):
    n, replicas, seed = 70, 5, 41
    starts = np.random.default_rng(8).normal(size=(replicas, 2))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    vals, finals = walks.vector_walk(free_pair.atoms, free_pair.weights, starts, n, replicas,
                                     seed, rng.TAG_CLOUD, skip=skip)
    words = rng.replica_words(seed, rng.TAG_CLOUD, replicas, skip + n, free_pair.weights)
    [logs], [state] = walks._walk_block(walks._tables([free_pair.atoms]),
                                        [np.ascontiguousarray(starts.T)], None, n,
                                        lambda lo, hi: words[:, skip + lo:skip + hi])
    state = np.ascontiguousarray(state.T)
    assert vals.tobytes() == logs[:, 0].tobytes()
    assert finals.tobytes() == (state / np.linalg.norm(state, axis=1)[:, None]).tobytes()


# "replica r reads stream r": only rng.py builds generators, apart from two
# documented draws that have no per-replica form
_STREAM_USERS = {("martingales.py", "checkpoint_sums"), ("runner.py", "_test_rows")}


def test_only_rng_builds_random_streams():
    src = Path(walks.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "rng.py":
            continue
        text = path.read_text()
        spans = [(node.name, node.lineno, node.end_lineno)
                 for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), 1):
            if "np.random" in line or "rng.stream(" in line:
                owner = next((name for name, lo, hi in spans if lo <= lineno <= hi), None)
                if (path.name, owner) not in _STREAM_USERS:
                    found.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not found, "random draws outside rng.py:\n" + "\n".join(found)


# the step kernel is walks._product: entry-wise, never a BLAS product
_BLAS_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot", "multi_dot"}


def _blas_uses(path, functions=None):
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.FunctionDef) or functions and node.name not in functions:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
                found.append(f"{path.name}:{sub.lineno}: @")
            elif isinstance(sub, ast.Attribute) and sub.attr in _BLAS_CALLS:
                found.append(f"{path.name}:{sub.lineno}: {sub.attr}")
            elif isinstance(sub, ast.keyword) and sub.arg == "optimize":
                found.append(f"{path.name}:{sub.lineno}: einsum optimize")
    return found


def test_walk_steps_call_no_blas():
    src = Path(walks.__file__).parent
    found = _blas_uses(src / "walks.py")
    found += _blas_uses(src / "martingales.py", {"_walk_checkpoint_sums"})
    # the average over atoms moves its points through walks.atom_images
    found += _blas_uses(src / "stationary.py", {"cohomological_residual"})
    found += _blas_uses(src / "limits.py", {"variance_via_corrector"})
    assert not found, "BLAS products in walk steps:\n" + "\n".join(sorted(set(found)))


def test_product_is_the_entrywise_sum():
    rng_ = np.random.default_rng(12)
    for d in (2, 3):
        left = rng_.normal(size=(d, d, 50))
        vectors, matrices = rng_.normal(size=(d, 50)), rng_.normal(size=(d, d, 50))
        got_v = walks._product(left, vectors, np.empty((d, 50)))
        got_m = walks._product(left, matrices, np.empty((d, d, 50)))
        want_v, want_m = left[:, 0] * vectors[0], left[:, 0, None] * matrices[None, 0]
        for j in range(1, d):
            want_v = want_v + left[:, j] * vectors[j]
            want_m = want_m + left[:, j, None] * matrices[None, j]
        assert np.allclose(got_v, want_v, rtol=1e-14, atol=1e-14)
        assert np.allclose(got_m, want_m, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", [1, 2, 4])
def test_atom_images_match_the_pointwise_definitions(d, n_atoms):
    mu = gaussian_measure(d, n_atoms, 10 * d + n_atoms)
    points = [mw.ProjectivePoint(v) for v in np.random.default_rng(d).normal(size=(100, d))]
    x_rows = np.stack([x.rep for x in points])
    log_norms, images = walks.atom_images(mu.atoms, x_rows)
    drift = walks.atom_average(mu.weights, log_norms)
    assert log_norms.shape == (n_atoms, 100) and images.shape == (n_atoms, 100, d)
    for i, x in enumerate(points):
        assert abs(drift[i] - mw.drift(mu, x)) <= 1e-14
        for a, image in zip(mu.atoms, images[:, i]):
            want = mw.act(a, x).rep
            assert min(np.abs(image - want).max(), np.abs(image + want).max()) <= 1e-14


def test_atom_average_adds_in_atom_order():
    values = np.array([[1e16, 1.0], [1.0, 1e16], [-1e16, -1e16]])
    # left to right: (1e16 + 1) - 1e16 = 0 and (1 + 1e16) - 1e16 = 0
    assert walks.atom_average([1.0, 1.0, 1.0], values).tolist() == [0.0, 0.0]
    assert walks.atom_average([0.5, 0.25], np.array([[2.0], [4.0]])).tolist() == [2.0]


# --- the letter-table engine against a plain per-letter loop ---------------

def _atom_set(n_atoms):
    rng_ = np.random.default_rng(40 + n_atoms)
    return np.array([random_invertible(rng_, 2) for _ in range(n_atoms)])


def _letter_loop(atoms, words, states, marks):
    """Log norms after each mark, one letter at a time, renormalised every step."""
    vector = states.ndim == 2
    acc = np.zeros(len(states))
    out = []
    for k in range(words.shape[1]):
        mats = atoms[words[:, k]]
        states = np.einsum("nij,nj->ni", mats, states) if vector else mats @ states
        scale = np.linalg.norm(states.reshape(len(states), -1), axis=1)
        acc += np.log(scale)
        states = states / scale.reshape(-1, *[1] * (states.ndim - 1))
        if k + 1 in marks:
            top = 1.0 if vector else np.linalg.norm(states, ord=2, axis=(1, 2))
            out.append(acc + np.log(top))
    return np.column_stack(out), states


# letters per table step for each tested atom count: A^L <= 256, L <= 64
_LETTERS = {1: 64, 2: 8, 4: 4, 20: 1}
_WALK_CASES = [(3, None), (203, None), (203, [1, 3, 17, 100, 190]), (130, [64, 65, 130])]


def test_letters_per_step_follows_the_table_bound():
    for n_atoms, letters in _LETTERS.items():
        assert walks.letters_per_step(n_atoms, 64) == letters
    assert walks.letters_per_step(3, 64) == 5
    assert walks.letters_per_step(300, 64) == 1
    assert walks.letters_per_step(1, 21) == 21
    assert walks.letters_per_step(2, 5) == 5


@pytest.mark.parametrize("n_atoms", sorted(_LETTERS))
@pytest.mark.parametrize("n, checkpoints", _WALK_CASES)
@pytest.mark.parametrize("shared", [True, False])
def test_vector_walk_matches_letter_loop(n_atoms, n, checkpoints, shared):
    atoms = _atom_set(n_atoms)
    weights = np.full(n_atoms, 1.0 / n_atoms)
    assert walks.letters_per_step(n_atoms, walks.rescale_interval(atoms)) == _LETTERS[n_atoms]
    replicas, seed = 7, 21
    starts = np.random.default_rng(3).normal(size=(replicas, 2))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    start = starts[0] if shared else starts
    vals, finals = walks.vector_walk(atoms, weights, start, n, replicas, seed, rng.TAG_WALK,
                                     checkpoints=checkpoints)
    words = rng.replica_words(seed, rng.TAG_WALK, replicas, n, weights)
    want, units = _letter_loop(atoms, words, np.tile(start, (replicas, 1)) if shared
                               else starts.copy(), checkpoints or [n])
    assert np.allclose(vals, want if checkpoints else want[:, 0], rtol=1e-12, atol=1e-12)
    assert np.allclose(finals, units, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_atoms", sorted(_LETTERS))
@pytest.mark.parametrize("n, checkpoints", _WALK_CASES)
def test_matrix_walk_matches_letter_loop(n_atoms, n, checkpoints):
    atoms = _atom_set(n_atoms)
    weights = np.full(n_atoms, 1.0 / n_atoms)
    replicas, seed = 7, 22
    out = walks.matrix_walk_log_norms({"id": atoms}, weights, n, replicas, seed, rng.TAG_WALK,
                                      checkpoints=checkpoints)["id"]
    words = rng.replica_words(seed, rng.TAG_WALK, replicas, n, weights)
    want, _ = _letter_loop(atoms, words, np.tile(np.eye(2), (replicas, 1, 1)),
                           checkpoints or [n])
    assert np.allclose(out, want if checkpoints else want[:, 0], rtol=1e-12, atol=1e-12)


def test_extreme_atoms_stay_finite_over_long_walks():
    # table rows hold products of up to 8 letters of entries 1e+-6; the
    # rescaling interval still bounds every state
    big = np.diag([1e6, 1e-6])
    atoms = np.array([big, np.linalg.inv(big)])
    weights = np.array([0.5, 0.5])
    n, replicas, seed = 20_001, 5, 8
    words = rng.replica_words(seed, rng.TAG_WALK, replicas, n, weights)
    drift = np.log(1e6) * (words == 0).sum(axis=1) - np.log(1e6) * (words == 1).sum(axis=1)
    vals, finals = walks.vector_walk(atoms, weights, np.array([1.0, 0.0]), n, replicas, seed,
                                     rng.TAG_WALK)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(finals))
    assert np.allclose(vals, drift, rtol=1e-12)
    logs = walks.matrix_walk_log_norms({"id": atoms}, weights, n, replicas, seed, rng.TAG_WALK,
                                       checkpoints=[3, 9999, n])["id"]
    assert np.all(np.isfinite(logs))
    single = walks.matrix_walk_log_norms({"id": big[None]}, [1.0], n, 2, seed, rng.TAG_WALK)["id"]
    assert np.allclose(single, n * np.log(1e6), rtol=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a scaled state that loses its small direction to underflow reads "
                          "the signed log norm; no guard catches it yet")
def test_underflowed_direction_reads_the_true_log_norm():
    # P_n = diag(1e6, 1e-6)^k, k the letter-0 count minus the letter-1 count:
    # log |P_n| = |k| log 1e6 exactly in the letters
    big = np.diag([1e6, 1e-6])
    atoms = np.array([big, np.linalg.inv(big)])
    weights = np.array([0.5, 0.5])
    n, replicas, seed = 20_001, 5, 8
    words = rng.replica_words(seed, rng.TAG_WALK, replicas, n, weights)
    k = (words == 0).sum(axis=1).astype(int) - (words == 1).sum(axis=1).astype(int)
    logs = walks.matrix_walk_log_norms({"id": atoms}, weights, n, replicas, seed,
                                       rng.TAG_WALK)["id"]
    assert np.allclose(logs, np.abs(k) * np.log(1e6), rtol=1e-9, atol=0.0)


def _exact_top_singular_value(s):
    """Top singular value of a 2 x 2 float matrix, in 60-digit decimals."""
    with decimal.localcontext(decimal.Context(prec=60)):
        a, b, c, d = (decimal.Decimal(float(x)) for x in s.ravel())
        frob, det = a * a + b * b + c * c + d * d, a * d - b * c
        gap = max(frob * frob - 4 * det * det, decimal.Decimal(0))
        return ((frob + gap.sqrt()) / 2).sqrt()


def _two_by_two_states(family, count=2000):
    """Entry-major ``(2, 2, count)`` states of one test family."""
    g = np.random.default_rng(["random", "rank_one", "signed", "zeros", "scaled"].index(family))
    states = g.normal(size=(2, 2, count))
    if family == "rank_one":
        u, v = g.normal(size=(2, 2, count))
        states = np.einsum("in,jn->ijn", u, v) + 1e-12 * states
    elif family == "signed":
        # every sign pattern of the same magnitudes
        signs = 1 - 2 * ((np.arange(count) >> np.arange(4)[:, None]) & 1)
        states = np.abs(states) * signs.reshape(2, 2, count)
    elif family == "zeros":
        states[g.integers(0, 2, count), g.integers(0, 2, count), np.arange(count)] = 0.0
        states[:, 1, :count // 4] = 0.0
    elif family == "scaled":
        states *= np.exp(g.uniform(-300.0, 300.0, count))
    return np.ascontiguousarray(states)


def _svd_top(states):
    return np.linalg.svd(np.moveaxis(states, -1, 0), compute_uv=False)[:, 0]


def test_one_by_one_read_out_is_the_svd_bitwise():
    g = np.random.default_rng(5)
    states = (g.normal(size=200_000) * np.exp(g.uniform(-300.0, 300.0, 200_000)))[None, None]
    assert np.array_equal(walks._operator_norms(states), _svd_top(states))


@pytest.mark.parametrize("family", ["random", "rank_one", "signed", "zeros", "scaled"])
def test_two_by_two_read_out_is_the_top_singular_value(family):
    states = _two_by_two_states(family)
    got = walks._operator_norms(states)
    spacing = np.spacing(got)
    exact = [_exact_top_singular_value(s) for s in np.moveaxis(states, -1, 0)]
    ulps = [float(abs(decimal.Decimal(x) - e)) / h for x, e, h in zip(got.tolist(), exact, spacing)]
    assert max(ulps) <= 2.0
    # LAPACK's dgesdd is itself off the exact value by up to about 7.5 ulps on these families
    assert np.all(np.abs(got - _svd_top(states)) <= 8 * spacing)


@pytest.mark.parametrize("m", [3, 4])
def test_larger_read_outs_are_the_svd_bitwise(m):
    states = np.ascontiguousarray(np.random.default_rng(m).normal(size=(m, m, 500)))
    assert np.array_equal(walks._operator_norms(states), _svd_top(states))


def test_matrix_walk_independent_of_thread_count(free_pair):
    sets = {1: free_pair.atoms,
            2: np.array([mw.exterior_square(a) for a in free_pair.atoms])}
    args = (sets, free_pair.weights, 200, 3 * walks.BLOCK // 2, 5, rng.TAG_WALK)
    cps = [3, 77, 150, 199]
    walks.set_thread_count(1)
    one = walks.matrix_walk_log_norms(*args, checkpoints=cps)
    walks.set_thread_count(4)
    four = walks.matrix_walk_log_norms(*args, checkpoints=cps)
    walks.set_thread_count(1)
    for lab in sets:
        assert one[lab].tobytes() == four[lab].tobytes()


def _fixed_blocks(total):
    """Plain blocks of 4096 replicas whatever the walk's length: a last block of
    one walks beside a copy of itself, so it needs no cut of its own."""
    return [(first, min(4096, total - first)) for first in range(0, total, 4096)]


@given(st.integers(1, 10**6))
@example(1)
@example(4097)
@example(8193)
def test_walks_within_the_letter_budget_keep_fixed_blocks(total):
    # every walk draws its words a segment at a time, so every walk stays within
    # the letter budget and keeps the blocks it took before walks were cut
    assert walks._blocks(total) == _fixed_blocks(total)


@given(st.integers(1, 10**6), st.integers(1, 10**7), st.integers(1, 64))
@example(1, 1, 1)
@example(4097, 10**7, 64)
@example(8193, 8193, 8)
def test_blocks_cover_the_replicas_within_the_letter_budget(total, n, letters):
    blocks = walks._blocks(total)
    firsts, counts = zip(*blocks)
    assert list(firsts) == np.cumsum((0,) + counts[:-1]).tolist()
    assert sum(counts) == total
    assert max(counts) <= walks.BLOCK
    # the segments of a walk of n letters tile it, and no block draws more than
    # BLOCK x _SEGMENT letters of words at once
    los, cuts = zip(*((lo, ends[-1]) for lo, ends, _ in walks._segments([n], n, letters)))
    assert los == (0,) + cuts[:-1] and cuts[-1] == n
    assert max(counts) * max(cut - lo for lo, cut in zip(los, cuts)) <= \
        walks.BLOCK * walks._SEGMENT


def _shear_lone_replica(replicas):
    mu = mw.shear_pair_sl3()
    return walks.vector_walk(mu.atoms, mu.weights, np.eye(3)[0], 300, replicas, 2, rng.TAG_WALK)


def test_a_replica_past_a_full_block_keeps_its_bytes():
    # replica 4096 is a block of one when 4097 replicas run; walked alone, not
    # beside a copy of itself, its final unit row read 1.1e-16 apart from a run of 4098
    values, finals = _shear_lone_replica(4097)
    more_values, more_finals = _shear_lone_replica(4098)
    assert values.tobytes() == more_values[:4097].tobytes()
    assert finals.tobytes() == more_finals[:4097].tobytes()


@given(st.integers(3, 9), st.integers(1, 30))
def test_block_size_changes_no_byte(block, replicas):
    # any block of two replicas or more rounds as the whole walk does
    mu = mw.shear_pair_sl3()
    sets = {1: mu.atoms, 2: mw.exterior_power(mu.atoms, 2)}

    def run():
        vector = walks.vector_walk(mu.atoms, mu.weights, np.eye(3)[0], 300, replicas, 2,
                                   rng.TAG_WALK, checkpoints=[9, 150, 299])
        return vector + tuple(walks.matrix_walk_log_norms(sets, mu.weights, 300, replicas, 2,
                                                          rng.TAG_WALK).values())

    whole = run()
    default, walks.BLOCK = walks.BLOCK, block
    try:
        blocked = run()
    finally:
        walks.BLOCK = default
    assert [a.tobytes() for a in whole] == [a.tobytes() for a in blocked]


def test_thread_count_keeps_the_bytes_of_a_last_block_of_one():
    # 3334 replicas of 30000 letters were cut into blocks of 3333 and 1 on two
    # threads, and replica 3333 read 11888.890001775644 against ...642 on one; its
    # 29 chunks now read ...651, 1.8e-12 from the exact value (7.3e-12 before)
    pair = mw.GeneratorMeasure.from_atoms([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    logs = []
    for threads in (1, 2):
        walks.set_thread_count(threads)
        try:
            logs.append(walks.matrix_walk_log_norms({1: pair.atoms}, pair.weights, 30_000, 3334,
                                                    80, rng.TAG_WALK)[1])
        finally:
            walks.set_thread_count(1)
    assert logs[0][3333] == 11888.890001775651
    assert logs[0].tobytes() == logs[1].tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_letter_budget_changes_no_byte(free_pair, sl3_pair, monkeypatch, threads):
    # short segments cut every walk between whole steps, past checkpoints and
    # single letters; every value and final unit row keeps its bytes, and no
    # block draws more than BLOCK x _SEGMENT letters of words
    n, replicas, seed, cps = 301, 37, 9, [7, 60, 64, 65, 299]

    def run(mu):
        starts = np.random.default_rng(3).normal(size=(replicas, mu.dim))
        starts /= np.linalg.norm(starts, axis=1)[:, None]
        sets = {r: mw.exterior_power(mu.atoms, r) for r in range(1, mu.dim + 1)}
        shared = walks.vector_walk(mu.atoms, mu.weights, np.eye(mu.dim)[0], n, replicas, seed,
                                   rng.TAG_WALK, checkpoints=cps)
        own = walks.vector_walk(mu.atoms, mu.weights, starts, n, replicas, seed,
                                rng.TAG_CLOUD, checkpoints=cps[:2], skip=13)
        matrix = walks.matrix_walk_log_norms(sets, mu.weights, n, replicas, seed,
                                             rng.TAG_WALK, checkpoints=cps)
        return [a.tobytes() for a in shared + own + tuple(matrix.values())]

    uncut = [run(mu) for mu in (free_pair, sl3_pair)]
    letters = []
    words = rng.replica_words
    monkeypatch.setattr(rng, "replica_words", lambda seed, tag, count, n, *a, **k:
                        letters.append(count * n) or words(seed, tag, count, n, *a, **k))
    monkeypatch.setattr(walks, "BLOCK", 16)
    walks.set_thread_count(threads)
    try:
        for segment in (8, 13, 64, 100):
            monkeypatch.setattr(walks, "_SEGMENT", segment)
            assert [run(mu) for mu in (free_pair, sl3_pair)] == uncut
            assert max(letters) <= 16 * segment
            letters.clear()
    finally:
        walks.set_thread_count(1)


# 5 chunks of 128 steps of 8 letters and 37 letters: every measure below takes 8 letters a step
_CHUNKED_N = 5 * walks._CHUNK_STEPS * 8 + 37
# a checkpoint after 2 chunks and 100 letters: the stretches before and after it hold 2 chunks
_CHUNKED_MARKS = [2 * walks._CHUNK_STEPS * 8 + 100, _CHUNKED_N]


def _chunked_sets(name, request):
    """Atom sets and weights of a chunked-walk case: the free pair, shear_pair_sl3 with
    its wedge, and the reducible pair diag(1e6, 1e-6) and its inverse, whose chunk
    products lose a direction to underflow (ROADMAP item 2)."""
    if name == "reducible":
        big = np.diag([1e6, 1e-6])
        return {1: np.array([big, np.linalg.inv(big)])}, np.array([0.5, 0.5]), None
    mu = request.getfixturevalue(name)
    return {r: mw.exterior_power(mu.atoms, r) for r in range(1, mu.dim)}, mu.weights, mu


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair", "reducible"])
def test_chunked_walks_depend_on_the_words_alone(measure, request, monkeypatch):
    # a chunked walk reads the same bytes whatever the replicas beside it, the
    # blocks, the thread count and the segments.  Blocks of 8 replicas make
    # BLOCK + 1 two blocks, of 8 and of 1, at a small cost, and their chunks walk in
    # groups of 1 (8 columns), 2 (3 columns) and 4 (one replica beside its copy)
    sets, weights, mu = _chunked_sets(measure, request)
    assert [t.letters for t in walks._tables(list(sets.values()))] == [8] * len(sets)
    joins, redo = [], []
    join, walk = walks._LetterTable._join_chunks, walks._LetterTable._chunk_walk
    monkeypatch.setattr(walks._LetterTable, "_join_chunks", lambda self, codes, *a: joins.append(
        len(codes) // walks._CHUNK_STEPS) or join(self, codes, *a))
    monkeypatch.setattr(walks._LetterTable, "_chunk_walk", lambda self, codes, start=None: (
        start is not None and redo.append(1)) or walk(self, codes, start))

    def run(replicas, seed=4, n=_CHUNKED_N, checkpoints=_CHUNKED_MARKS):
        logs = walks.matrix_walk_log_norms(sets, weights, n, replicas, seed, rng.TAG_WALK,
                                           checkpoints)
        return [logs[k] for k in sets]

    alone = run(1)
    # 2 chunks up to the checkpoint, 2 after it, per table
    assert joins == [2, 2] * len(sets)
    assert bool(redo) == (measure == "reducible")
    three = run(3)
    assert [a.tobytes() for a in alone] == [t[:1].tobytes() for t in three]
    # a checkpoint reads the walk that stops there
    short = run(1, n=_CHUNKED_MARKS[0], checkpoints=None)
    assert [a[:, 0].tobytes() for a in alone] == [s.tobytes() for s in short]
    default = walks._SEGMENT
    for segment in (walks._CHUNK_STEPS * 8, 5):
        monkeypatch.setattr(walks, "_SEGMENT", segment)
        assert [t.tobytes() for t in run(3)] == [t.tobytes() for t in three], segment
    monkeypatch.setattr(walks, "_SEGMENT", default)
    monkeypatch.setattr(walks, "BLOCK", 8)
    wides = []
    for threads in (1, 2):
        walks.set_thread_count(threads)
        try:
            wides.append([w.tobytes() for w in run(walks.BLOCK + 1)])
        finally:
            walks.set_thread_count(1)
    assert wides[0] == wides[1]
    wide = run(walks.BLOCK + 1)
    assert [a.tobytes() for a in alone] == [w[:1].tobytes() for w in wide]
    assert [t.tobytes() for t in three] == [w[:3].tobytes() for w in wide]
    if mu is None:
        return   # not a valid measure: its atoms are numerically singular
    # sample_word walks the word's chunks beside a copy of itself
    table, joins[:] = walks._tables([mu.atoms]), []
    for seed in range(3):
        word = mw.sample_word(mw.WalkSampler(mu, seed), _CHUNKED_N)
        words = np.tile(word.indices, (2, 1))
        eyes = walks._entry_major(np.tile(np.eye(mu.dim), (2, 1, 1)))
        [logs], [state] = walks._walk_block(table, [eyes], None, _CHUNKED_N,
                                            lambda lo, hi: words[:, lo:hi])
        product = state[..., 0] / np.linalg.norm(state[..., 0], 2)
        assert word.log_scale == logs[0, 0] and word.matrix.tobytes() == product.tobytes(), seed
    assert joins == [5] * 6


def _moves(lo, ends, letters, chunks=None):
    """The uncut rule: from ``lo`` up to each end, whole chunks when the stretch holds
    two or more (or ``chunks[k]`` of them, as a segment says), then whole steps, then
    single letters; a chunk is the string "chunk", a step its letter count."""
    width = walks._CHUNK_STEPS * letters
    moves = []
    for k, (pos, end) in enumerate(zip([lo] + ends[:-1], ends)):
        whole = (end - pos) // width
        count = chunks[k] if chunks else whole if whole >= 2 else 0
        full, rest = divmod(end - pos - count * width, letters)
        moves += ["chunk"] * count + [letters] * full + [1] * rest
    return moves


@given(st.sampled_from([1, 2, 5, 8, 13, 64, 100, 128, 300]),
       st.sampled_from([1, 2, 5, 8, 33, 64]),
       st.integers(1, 1500).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.integers(1, n), max_size=6, unique=True))))
@example(5, 1, (1000, [600]))
@example(128, 2, (1300, []))
def test_segments_cut_only_between_steps_of_the_uncut_walk(segment, letters, case):
    # a segment holds _SEGMENT letters, or one whole step or chunk, at most, and
    # walks the chunks, steps and letters of the uncut walk
    n, marks = case
    marks = sorted(marks) or [n]
    default, walks._SEGMENT = walks._SEGMENT, segment
    try:
        segments = list(walks._segments(marks, n, letters))
    finally:
        walks._SEGMENT = default
    width = walks._CHUNK_STEPS * letters
    assert [lo for lo, _, _ in segments] == [0] + [ends[-1] for _, ends, _ in segments[:-1]]
    assert segments[-1][1][-1] == n
    assert all(ends[-1] - lo <= max(segment, width if chunks[0] else letters)
               for lo, ends, chunks in segments)
    walked = [move for lo, ends, chunks in segments for move in _moves(lo, ends, letters, chunks)]
    assert walked == _moves(0, marks + [n] * (marks[-1] < n), letters)
    assert sorted({end for _, ends, _ in segments for end in ends} & set(marks)) == marks


@pytest.mark.parametrize("checkpoints, n, message", [
    ([3, 3], 10, "strictly increasing"), ([], 10, "strictly increasing"),
    ([0, 4], 10, r"lie in \[1, n\]"), ([4, 11], 10, r"lie in \[1, n\]"),
    (None, 0, "n >= 1")])
def test_walks_refuse_checkpoints_off_the_walk(free_pair, checkpoints, n, message):
    with pytest.raises(ValueError, match=message):
        walks.vector_walk(free_pair.atoms, free_pair.weights, [1.0, 0.0], n, 2, 1, rng.TAG_WALK,
                          checkpoints=checkpoints)
    with pytest.raises(ValueError, match=message):
        walks.matrix_walk_log_norms({1: free_pair.atoms}, free_pair.weights, n, 2, 1,
                                    rng.TAG_WALK, checkpoints=checkpoints)


def test_no_block_holds_more_than_a_segment_of_words(free_pair, monkeypatch):
    # a walk of any length draws BLOCK rows of _SEGMENT letters at most at once
    shapes = []
    words = rng.replica_words
    monkeypatch.setattr(rng, "replica_words", lambda seed, tag, count, n, *a, **k:
                        shapes.append((count, n)) or words(seed, tag, count, n, *a, **k))
    n = 3 * walks._SEGMENT + 5
    walks.vector_walk(free_pair.atoms, free_pair.weights, [1.0, 0.0], n, 3, 1, rng.TAG_WALK)
    walks.matrix_walk_log_norms({1: free_pair.atoms}, free_pair.weights, n, 3, 1, rng.TAG_WALK)
    assert shapes == ([(3, walks._SEGMENT)] * 3 + [(3, 5)]) * 2
    assert max(count * letters for count, letters in shapes) <= walks.BLOCK * walks._SEGMENT


# the first segment of a 300k-letter scan in dimension 60 under a 2 GB address-space
# limit beyond what the interpreter holds after its imports; 2^18 products of 60 x 60
# entries would ask for 7 GiB
LARGE_SCAN = """
import json, resource, sys
import numpy as np
from matwalk import rng, walks

with open("/proc/self/status") as status:
    held = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (held + 2 * 10**9, held + 2 * 10**9))
d = 60
atoms = np.eye(d) + 0.02 * np.random.default_rng(0).normal(size=(2, d, d))
lo, values, units = next(walks.chunked_walk(atoms, [0.5, 0.5], np.eye(d)[:1], 300_000, 1,
                                            rng.TAG_WALK))
json.dump({"lo": lo, "length": values.shape[1], "units": list(units.shape),
           "chunk": walks.rescale_interval(atoms), "finite": bool(np.isfinite(values).all())},
          sys.stdout)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux /proc")
def test_large_dimension_scan_segments_bound_their_entries():
    proc = subprocess.run([sys.executable, "-c", LARGE_SCAN], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    # 9 x 2^18 / 60^2 = 655 products, in whole chunks of 64 letters
    assert out == {"lo": 0, "length": 640, "units": [1, 640, 60], "chunk": 64, "finite": True}


@pytest.mark.parametrize("d, products", [(1, 1 << 18), (2, 1 << 18), (3, 1 << 18),
                                         (4, 9 * (1 << 18) // 16), (7, 9 * (1 << 18) // 49)])
def test_scan_segments_hold_at_most_the_entries_of_a_3x3_segment(d, products, monkeypatch):
    # dimensions up to 3 keep 2^18 products a segment; larger ones take fewer
    seen = []
    words = rng.replica_words
    monkeypatch.setattr(rng, "replica_words", lambda seed, tag, count, n, *a, **k:
                        seen.append(n) or words(seed, tag, count, n, *a, **k))
    atoms = np.eye(d)[None] * np.array([1.0, -1.0])[:, None, None]
    rows = 3
    next(walks.chunked_walk(atoms, [0.5, 0.5], np.eye(d)[:1].repeat(rows, 0), 10**6, 1,
                            rng.TAG_WALK, units=False))
    assert seen == [products // rows // 64 * 64]


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
@pytest.mark.parametrize("scan_products", [walks._SCAN_PRODUCTS, 200])
def test_trajectory_cocycle_matches_step_loop(measure, scan_products, request, monkeypatch):
    # 1001 steps are no multiple of the chunk; a small scan bound cuts the
    # time axis into several segments
    mu = request.getfixturevalue(measure)
    monkeypatch.setattr(walks, "_SCAN_PRODUCTS", scan_products)
    n_max, seed = 1001, 29
    assert n_max % walks.rescale_interval(mu.atoms) != 0
    start = np.arange(1.0, mu.dim + 1.0)
    traj = walks.trajectory_cocycle(mu.atoms, mu.weights, start, n_max, seed, rng.TAG_WALK,
                                    stream_index=3)
    word = rng.indices_from_uniforms(rng.stream(seed, rng.TAG_WALK, 3).random(n_max),
                                     mu.weights)
    v = start / np.linalg.norm(start)
    acc, want = 0.0, np.empty(n_max)
    for k in range(n_max):
        v = mu.atoms[word[k]] @ v
        acc += np.log(np.linalg.norm(v))
        v /= np.linalg.norm(v)
        want[k] = acc
    assert np.allclose(traj, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
def test_chunked_walk_rows_match_letter_loop(measure, request, monkeypatch):
    # a small scan bound cuts the 301 steps into several segments; the walk
    # continues from the last unit row of each
    mu = request.getfixturevalue(measure)
    monkeypatch.setattr(walks, "_SCAN_PRODUCTS", 200)
    rows, n, seed, first = 3, 301, 31, 2
    starts = np.random.default_rng(5).normal(size=(rows, mu.dim))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    segments = list(walks.chunked_walk(mu.atoms, mu.weights, starts, n, seed, rng.TAG_WALK,
                                       first_replica=first))
    lengths = [values.shape[1] for _, values, _ in segments]
    assert len(segments) > 2
    assert [lo for lo, _, _ in segments] == np.cumsum([0] + lengths[:-1]).tolist()
    assert all(units.shape == values.shape + (mu.dim,) for _, values, units in segments)
    words = rng.replica_words(seed, rng.TAG_WALK, rows, n, mu.weights, first_replica=first)
    values = np.concatenate([v for _, v, _ in segments], axis=1)
    units = np.concatenate([u for _, _, u in segments], axis=1)
    for r in range(rows):
        v, acc = starts[r], 0.0
        for k in range(n):
            v = mu.atoms[words[r, k]] @ v
            acc += np.log(np.linalg.norm(v))
            v /= np.linalg.norm(v)
            assert abs(values[r, k] - acc) <= 1e-12 * max(1.0, abs(acc))
            assert np.abs(units[r, k] - v).max() <= 1e-12


# 10 chunks and 37 letters, then the lengths whose last segment holds one chunk: unpaired,
# that chunk's unit rows read apart from the two-row scan in 94 of the 120 sl3_pair cases
_HEAD_PASS_CASES = [pytest.param(mu, 10, 37, id=mu) for mu in ("free_pair", "sl3_pair")] + [
    pytest.param(mu, 9, tail, id=f"{mu}-9_chunks-{tail}") for mu in ("free_pair", "sl3_pair")
    for tail in range(1, 11)]


@pytest.mark.parametrize("measure, chunks, tail", _HEAD_PASS_CASES)
def test_one_row_head_pass_matches_the_many_row_pass(measure, chunks, tail, request, monkeypatch):
    # one row carries its chunk heads in Python floats, many rows through
    # _product and _norms, in the same order: row 0 of a two-row scan from the
    # same unit row twice must give the one-row scan's bytes.  The scan bound
    # grows with the rows, so both cut the time axis at the same segments.
    mu = request.getfixturevalue(measure)
    chunk = walks.rescale_interval(mu.atoms)
    n, first = chunks * chunk + tail, 5
    start = np.arange(1.0, mu.dim + 1.0)
    start /= np.linalg.norm(start)

    def scan(rows, seed):
        monkeypatch.setattr(walks, "_SCAN_PRODUCTS", 3 * chunk * rows)
        segments = list(walks.chunked_walk(mu.atoms, mu.weights, np.tile(start, (rows, 1)), n,
                                           seed, rng.TAG_WALK, first_replica=first))
        assert len(segments) == 4
        return (np.concatenate([v for _, v, _ in segments], axis=1),
                np.concatenate([u for _, _, u in segments], axis=1))

    for seed in [41, *range(12)]:
        one_values, one_units = scan(1, seed)
        two_values, two_units = scan(2, seed)
        assert one_values.tobytes() == two_values[:1].tobytes(), seed
        assert one_units.tobytes() == two_units[:1].tobytes(), seed


def test_one_row_head_pass_makes_no_numpy_call_per_chunk(free_pair, monkeypatch):
    # per segment a one-row scan forms chunk - 1 prefix products and one
    # read-out product; a numpy head pass would add one product per chunk
    calls = []
    product = walks._product
    monkeypatch.setattr(walks, "_product", lambda *a: calls.append(1) or product(*a))
    n = 200_000
    chunk = walks.rescale_interval(free_pair.atoms)
    segments = -(-n // (walks._SCAN_PRODUCTS // chunk * chunk))
    walks.trajectory_cocycle(free_pair.atoms, free_pair.weights, [1.0, 0.0], n, 7,
                             rng.TAG_WALK)
    assert 0 < len(calls) <= segments * chunk
    assert len(calls) < n // chunk // 10


def _horner_codes(table, words, marks):
    """The codes of ``_LetterTable._steps`` built the plain way: whole-array
    Horner per mark, joined, then transposed to steps x replicas."""
    parts, pos = [], 0
    for end in marks:
        full, rest = divmod(end - pos, table.letters)
        letters = words[:, pos:end - rest].reshape(len(words), full, table.letters)
        codes = letters[:, :, -1].astype(np.uint16)
        for j in range(table.letters - 2, -1, -1):
            codes *= np.uint16(table.n_atoms)
            codes += letters[:, :, j]
        parts += [codes, words[:, end - rest:end] + np.uint16(table.single)]
        pos = end
    return np.ascontiguousarray(np.concatenate(parts, axis=1).T)


def _rotations(n_atoms, growth=0.0):
    angles = np.linspace(0.01, 0.02, n_atoms)
    scale = np.diag([np.exp(growth), np.exp(-growth)])
    return np.array([[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] @ scale for t in angles])


# (atoms, letters per step): bit packing (2, 8), byte Horner, one letter a step, one atom
_CODE_TABLES = {"pair": (_rotations(2), 8), "pair_wild": (_rotations(2, 50.0), 6),
                "three": (_rotations(3), 5), "four": (_rotations(4), 4),
                "nine": (_rotations(9), 2), "twenty": (_rotations(20), 1),
                "one": (_rotations(1), 64)}


@pytest.mark.parametrize("name", list(_CODE_TABLES))
@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_blocked_codes_equal_whole_array_horner(name, block_rows, monkeypatch):
    atoms, letters = _CODE_TABLES[name]
    [table] = walks._tables([atoms])
    assert table.letters == letters
    replicas, n = 7, 3 * letters + 150
    words = np.random.default_rng(2).integers(0, len(atoms), size=(replicas, n)).astype(
        np.uint8 if len(atoms) <= 8 else np.uint16)
    # marks off the grid of whole steps, one a single letter after the last
    marks = [1, letters + 1, 2 * letters + 3, n - 1, n]
    if block_rows is not None:
        monkeypatch.setattr(walks, "_CODE_LETTERS", block_rows * n)
    codes, sizes, read = table._steps(words, marks)
    expected = _horner_codes(table, words, marks)
    assert codes.dtype == np.uint16 and codes.flags.c_contiguous
    assert codes.tolist() == expected.tolist()
    assert len(sizes) == len(read) == len(codes) and sum(read) == len(marks)
    assert sum(sizes) == n


def test_tables_of_one_walk_share_one_code_array(free_pair, monkeypatch):
    calls = []
    steps = walks._LetterTable._steps
    monkeypatch.setattr(walks._LetterTable, "_steps", lambda self, words, marks:
                        calls.append(self.letters) or steps(self, words, marks))
    atoms = free_pair.atoms
    # same letters per step alone: each table walks as it would alone
    sets = {"id": atoms, "twice": 2.0 * atoms, "wild": atoms * np.exp(20.0)}
    assert [walks._tables([a])[0].letters for a in sets.values()] == [8, 8, 8]
    out = walks.matrix_walk_log_norms(sets, free_pair.weights, 300, 5, 4, rng.TAG_WALK,
                                      checkpoints=[7, 200])
    assert calls == [8]
    for lab, a in sets.items():
        alone = walks.matrix_walk_log_norms({lab: a}, free_pair.weights, 300, 5, 4,
                                            rng.TAG_WALK, checkpoints=[7, 200])[lab]
        assert out[lab].tobytes() == alone.tobytes()
    # a table that alone takes 8 letters a step takes 5 beside one that rescales every 5
    sets = {"id": atoms, "steep": atoms * np.exp(58.0)}
    assert [t.letters for t in walks._tables(list(sets.values()))] == [5, 5]
    out = walks.matrix_walk_log_norms(sets, free_pair.weights, 300, 5, 4, rng.TAG_WALK)
    alone = walks.matrix_walk_log_norms({"id": atoms}, free_pair.weights, 300, 5, 4,
                                        rng.TAG_WALK)["id"]
    assert np.allclose(out["id"], alone, rtol=1e-14, atol=0.0)
    # the Cartan walk: one code array per segment and block, for both tables
    calls.clear()
    monkeypatch.setattr(walks, "_SEGMENT", 16)
    monkeypatch.setattr(walks, "BLOCK", 4)
    mw.multidim_clt_cartan(mw.shear_pair_sl3(), n=40, samples=6, seed=3)
    assert calls == [8] * 3 * 2   # 40 letters in segments of 16, 16 and 8; blocks of 4 and 2


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
def test_values_only_scan_keeps_the_values_bytes(measure, request, monkeypatch):
    mu = request.getfixturevalue(measure)
    monkeypatch.setattr(walks, "_SCAN_PRODUCTS", 200)
    for rows in (1, 3):
        starts = np.random.default_rng(rows).normal(size=(rows, mu.dim))
        starts /= np.linalg.norm(starts, axis=1)[:, None]
        args = (mu.atoms, mu.weights, starts, 1001, 31, rng.TAG_WALK)
        full = list(walks.chunked_walk(*args, first_replica=2))
        lean = list(walks.chunked_walk(*args, first_replica=2, units=False))
        assert len(full) == len(lean) > 2
        for (lo, values, units), (lean_lo, lean_values, lean_units) in zip(full, lean):
            assert lo == lean_lo and lean_units is None and units is not None
            assert values.tobytes() == lean_values.tobytes()
