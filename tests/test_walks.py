import ast
from pathlib import Path

import numpy as np
import pytest

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
    logs, state = walks._LetterTable(free_pair.atoms).walk(words[:, skip:], starts.copy(), [n])
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
    found += _blas_uses(src / "stationary.py", {"psi_at_images", "cohomological_residual"})
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


@pytest.mark.parametrize("measure", ["free_pair", "sl3_pair"])
def test_one_row_head_pass_matches_the_many_row_pass(measure, request, monkeypatch):
    # one row carries its chunk heads in Python floats, many rows through
    # _product and _norms, in the same order: row 0 of a two-row scan from the
    # same unit row twice must give the one-row scan's bytes.  The scan bound
    # grows with the rows, so both cut the time axis at the same segments.
    mu = request.getfixturevalue(measure)
    chunk = walks.rescale_interval(mu.atoms)
    n, seed, first = 10 * chunk + 37, 41, 5
    start = np.arange(1.0, mu.dim + 1.0)
    start /= np.linalg.norm(start)

    def scan(rows):
        monkeypatch.setattr(walks, "_SCAN_PRODUCTS", 3 * chunk * rows)
        segments = list(walks.chunked_walk(mu.atoms, mu.weights, np.tile(start, (rows, 1)), n,
                                           seed, rng.TAG_WALK, first_replica=first))
        assert len(segments) == 4
        return (np.concatenate([v for _, v, _ in segments], axis=1),
                np.concatenate([u for _, _, u in segments], axis=1))

    one_values, one_units = scan(1)
    two_values, two_units = scan(2)
    assert one_values.tobytes() == two_values[:1].tobytes()
    assert one_units.tobytes() == two_units[:1].tobytes()


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
