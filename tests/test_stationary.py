import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import matwalk as mw
from matwalk import reports, rng, stationary, walks
from matwalk.stationary import _EVAL_ROWS, _pairings, canonicalize_rows, psi_eval_many
from matwalk.stats import mean_ci_halfwidth

from conftest import gaussian_measure


GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def uniform_circle_cloud(count, dual=False):
    angles = np.pi * np.arange(count) / count
    reps = np.column_stack([np.cos(angles), np.sin(angles)])
    return mw.EmpiricalMeasure(reps=reps, weights=np.full(count, 1.0 / count), dual=dual)


def test_start_cloud_shapes_and_determinism():
    c1 = mw.start_cloud(2, 100)
    c2 = mw.start_cloud(2, 100)
    assert c1.tobytes() == c2.tobytes()
    assert np.linalg.norm(c1, axis=1) == pytest.approx(np.ones(100))
    c3 = mw.start_cloud(3, 500)
    assert c3.shape == (500, 3)
    # spread check on the second-moment matrix (signs are canonical, so the
    # raw mean is biased by construction; directions should still be isotropic)
    second_moment = c3.T @ c3 / 500
    assert np.abs(second_moment - np.eye(3) / 3.0).max() < 0.05


def test_start_cloud_unit_rows_in_every_lattice_dimension():
    for dim in range(3, 13):
        cloud = mw.start_cloud(dim, 997)
        assert cloud.shape == (997, dim)
        assert np.all(np.isfinite(cloud))
        assert np.abs(np.linalg.norm(cloud, axis=1) - 1.0).max() <= 4 * np.finfo(float).eps
        assert cloud.tobytes() == mw.start_cloud(dim, 997).tobytes()
    with pytest.raises(ValueError):
        mw.start_cloud(13, 10)


def test_clouds_compare_and_hash_by_identity():
    reps = mw.start_cloud(2, 5)
    first = mw.EmpiricalMeasure(reps, np.full(5, 0.2))
    second = mw.EmpiricalMeasure(reps, np.full(5, 0.2))
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_stationary_concentrates_for_contracting_diagonal():
    mu = mw.GeneratorMeasure.from_atoms([np.diag([2.0, 0.5])])
    cloud = mw.estimate_stationary(mu, burn_in=200, particles=2000, seed=1)
    # power-iteration oracle: iterating the single atom sends directions to e1
    target = mw.ProjectivePoint([1.0, 0.0])
    dists = np.array([mw.proj_distance(p, target) for p in cloud.points()])
    assert (dists <= 1e-3).mean() >= 0.99


def test_stationary_rotation_equidistributes():
    mu = mw.GeneratorMeasure.from_atoms([rotation(GOLDEN_ANGLE)])
    cloud = mw.estimate_stationary(mu, burn_in=100, particles=10_000, seed=2)
    angles = np.mod(np.arctan2(cloud.reps[:, 1], cloud.reps[:, 0]), np.pi)
    ks = mw.ks_statistic(angles, lambda t: np.clip(t / np.pi, 0.0, 1.0))
    assert ks <= 0.05


def test_stationary_identity_measure_keeps_start_cloud():
    mu = mw.GeneratorMeasure.from_atoms([np.eye(2)])
    cloud = mw.estimate_stationary(mu, burn_in=5, particles=64, seed=3)
    assert cloud.reps == pytest.approx(mw.start_cloud(2, 64), abs=1e-12)


def test_dual_stationary_concentrates_on_top_covector():
    mu = mw.GeneratorMeasure.from_atoms([np.diag([2.0, 0.5])])
    cloud = mw.estimate_dual_stationary(mu, burn_in=200, particles=2000, seed=4)
    assert cloud.dual
    target = mw.DualProjectivePoint([1.0, 0.0])
    dists = [mw.proj_distance(mw.ProjectivePoint(p.rep), mw.ProjectivePoint(target.rep))
             for p in cloud.points()]
    assert np.mean(np.array(dists) <= 1e-3) >= 0.99


def test_dual_cloud_is_adjugate_pushforward_in_dim2(free_pair):
    # in the plane, transposing an atom equals conjugating the inverse atom by
    # a quarter turn and a determinant factor, so the dual walk is the plain
    # walk of the adjugates of the inverted atoms, point by point
    adjugates = []
    for a in mw.check_mu(free_pair).atoms:
        adjugates.append(np.array([[a[1, 1], -a[1, 0]], [-a[0, 1], a[0, 0]]]))
    mirrored = mw.GeneratorMeasure.from_atoms(np.array(adjugates), free_pair.weights)
    dual = mw.estimate_dual_stationary(free_pair, burn_in=60, particles=500, seed=5)
    # same stream family: the dual engine tags its draws differently, so push
    # the same start cloud through explicit words instead
    starts = mw.start_cloud(2, 500)
    finals = walks.cloud_walk(mirrored.atoms, mirrored.weights, starts, 60, 5,
                              rng.TAG_DUAL_CLOUD)
    assert canonicalize_rows(finals) == pytest.approx(dual.reps, abs=1e-10)


def test_cloud_csv_roundtrip(tmp_path):
    cloud = uniform_circle_cloud(10)
    path = tmp_path / "cloud.csv"
    cloud.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "coord_1,coord_2,weight"
    assert len(lines) == 11
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([1.0, 0.0, 0.1])


def test_cloud_csv_is_the_report_writer(tmp_path):
    cloud = mw.EmpiricalMeasure(reps=mw.start_cloud(3, 200), weights=np.full(200, 1 / 200))
    cloud.to_csv(tmp_path / "cloud.csv")
    reports.write_csv(tmp_path / "table.csv", ["coord_1", "coord_2", "coord_3", "weight"],
                      np.column_stack([cloud.reps, cloud.weights]))
    assert (tmp_path / "cloud.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


# --- corrector evaluation ---

def test_psi_dirac_alignment_gives_zero():
    cloud = mw.EmpiricalMeasure(reps=np.array([[1.0, 0.0]]), weights=np.array([1.0]), dual=True)
    psi = mw.PsiFunction(cloud)
    assert mw.psi_eval(psi, mw.ProjectivePoint([1.0, 0.0])) == 0.0


def test_psi_uniform_cloud_matches_quadrature_oracle():
    # oracle: (1/pi) integral of log|cos| over a half turn = -log 2
    psi = mw.PsiFunction(uniform_circle_cloud(100_000, dual=True))
    for v in ([1.0, 0.0], [1.0, 0.3], [0.2, -1.0]):
        assert mw.psi_eval(psi, mw.ProjectivePoint(v)) == pytest.approx(
            -0.6931471805599453, abs=1e-3)


def test_psi_orthogonal_atom_raises():
    cloud = mw.EmpiricalMeasure(reps=np.array([[0.0, 1.0]]), weights=np.array([1.0]), dual=True)
    psi = mw.PsiFunction(cloud)
    with pytest.raises(mw.SingularEvaluationError) as err:
        mw.psi_eval(psi, mw.ProjectivePoint([1.0, 0.0]))
    assert err.value.atom_index == 0


def _thread_runs(fn):
    """``fn()`` at one and at two walk threads."""
    out = []
    for threads in (1, 2):
        walks.set_thread_count(threads)
        try:
            out.append(fn())
        finally:
            walks.set_thread_count(1)
    return out


def test_psi_eval_many_same_bytes_at_any_thread_count(free_pair):
    # more than one 2048-row block and more than one 2048-particle cloud block
    dual = mw.estimate_dual_stationary(free_pair, burn_in=40, particles=4500, seed=2)
    psi = mw.PsiFunction(dual)
    x = np.random.default_rng(3).normal(size=(4200, 2))
    x /= np.linalg.norm(x, axis=1)[:, None]
    one, two = _thread_runs(lambda: psi_eval_many(psi, x))
    assert one.tobytes() == two.tobytes()
    assert np.all(one <= 0.0)


def test_psi_eval_many_stacked_sets_match_separate_calls(free_pair):
    # 1001 rows per set, stacked in one call: every row reads its own value in
    # any batch.  With numpy's bundled OpenBLAS on an x86-64 Xeon, row blocks of
    # 1 to 256 rows (d = 1 to 5, several offsets) matched the same rows of a
    # 2048-row product except one-row blocks (a gemv), which psi pairs beside a
    # copy of themselves.  Against a cloud block of 196 or more particles, 4 to 7
    # mod 8 (not this cloud's 52), and under other BLAS kernels, a row may round
    # by its place in its block (README)
    dual = mw.estimate_dual_stationary(free_pair, burn_in=40, particles=2100, seed=2)
    psi = mw.PsiFunction(dual)
    sets = np.random.default_rng(4).normal(size=(3, 1001, 2))
    sets /= np.linalg.norm(sets, axis=2)[:, :, None]
    stacked = psi_eval_many(psi, sets.reshape(-1, 2))
    separate = np.concatenate([psi_eval_many(psi, s) for s in sets])
    assert stacked.tobytes() == separate.tobytes()


def test_psi_at_one_point_is_its_value_in_any_batch(free_pair):
    # a one-row tile pairs beside a copy of itself; computed alone, 125 of these
    # 300 rows read other bytes than inside the batch
    psi = mw.PsiFunction(mw.estimate_dual_stationary(free_pair, burn_in=40, particles=2100,
                                                     seed=2))
    points = [mw.ProjectivePoint(row) for row in _unit_rows(np.random.default_rng(5), 300, 2)]
    x = np.stack([p.rep for p in points])
    many = psi_eval_many(psi, x)
    alone = [mw.psi_eval(psi, p) for p in points]
    assert np.array(alone).tobytes() == many.tobytes()
    assert psi_eval_many(psi, x[:1]).tobytes() == many[:1].tobytes()


def _unit_rows(gen, rows, dim):
    return canonicalize_rows(gen.normal(size=(rows, dim)))


@pytest.mark.parametrize("particles", [300, 4500])
def test_psi_at_one_point_is_its_value_in_any_batch_at_a_padded_block(free_pair, particles):
    # the last cloud block holds 300 and 404 particles, 4 mod 8: paired unpadded,
    # OpenBLAS rounds a row by its place in its tile there
    psi = mw.PsiFunction(mw.estimate_dual_stationary(free_pair, burn_in=40, particles=particles,
                                                     seed=2))
    points = [mw.ProjectivePoint(row) for row in _unit_rows(np.random.default_rng(5), 300, 2)]
    many = psi_eval_many(psi, np.stack([p.rep for p in points]))
    assert np.array([mw.psi_eval(psi, p) for p in points]).tobytes() == many.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_psi_rows_read_alike_at_every_cloud_size(dim):
    # clouds of 1 to 699 particles: a row reads the same bytes alone, at the start
    # of a batch and five rows later, over two tiles.  Unpadded, 23 of these
    # 1398 cases read other bytes (all of 196 to 599 particles, 4 to 7 mod 8)
    gen = np.random.default_rng(dim)
    x = _unit_rows(gen, _EVAL_ROWS + 6, dim)
    for n in range(1, 700):
        cloud = mw.EmpiricalMeasure(reps=_unit_rows(gen, n, dim), weights=np.full(n, 1.0 / n),
                                    dual=True)
        psi = mw.PsiFunction(cloud)
        many = psi_eval_many(psi, x)
        assert psi_eval_many(psi, x[5:]).tobytes() == many[5:].tobytes(), n
        for i in (0, 13, len(x) - 1):
            assert psi_eval_many(psi, x[i:i + 1]).tobytes() == many[i:i + 1].tobytes(), (n, i)


def _per_block_psi(cloud, x):
    """psi as one 2048 x 2048 product per block of rows, a block of one row
    paired beside a copy of itself, each row adding up its cloud blocks in
    cloud order; a cloud block is padded to whole groups of 8 particles with
    copies of its first ones, whose columns are dropped before the log."""
    out = []
    for lo in range(0, len(x), 2048):
        rows = x[lo:lo + 2048]
        paired = np.concatenate([rows, rows]) if len(rows) == 1 else rows
        total = np.zeros(len(paired))
        for clo in range(0, cloud.size, 2048):
            reps = cloud.reps[clo:clo + 2048]
            padded = np.concatenate([reps] * 8)[:-(-len(reps) // 8) * 8]
            vals = np.abs(paired @ padded.T)[:, :len(reps)]
            vals = np.log(np.minimum(vals, 1.0))
            total = total + np.einsum("ij,j->i", vals, cloud.weights[clo:clo + 2048])
        out.append(total[:len(rows)])
    return np.concatenate(out)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("particles", [1, 2049])
@pytest.mark.parametrize("sets", [1, 3])
def test_psi_eval_many_tiles_are_byte_invisible(dim, particles, sets):
    # tiles of 64 rows read the bytes of a whole 2048-row block, and a call on
    # three stacked sets the bytes of each set's own call
    gen = np.random.default_rng(100 * dim + particles + sets)
    cloud = mw.EmpiricalMeasure(reps=_unit_rows(gen, particles, dim),
                                weights=np.full(particles, 1.0 / particles), dual=True)
    psi = mw.PsiFunction(cloud)
    for rows in (1, 2, _EVAL_ROWS - 1, _EVAL_ROWS + 1, 2 * _EVAL_ROWS + 1,
                 2047, 2048, 2049, 4097):
        x = _unit_rows(gen, sets * rows, dim)
        want = np.concatenate([_per_block_psi(cloud, part) for part in np.split(x, sets)])
        one, two = _thread_runs(lambda: psi_eval_many(psi, x))
        assert one.tobytes() == two.tobytes() == want.tobytes(), rows


@pytest.mark.parametrize("x_rows, message", [
    (np.array([0.6, 0.8]), "shape"),
    (np.array([[0.6, 0.8, 0.0]]), "shape"),
    (np.array([[0.6, 0.8], [np.nan, 1.0]]), "finite"),
    (np.array([[np.inf, 0.0]]), "finite"),
])
def test_psi_eval_many_rejects_malformed_rows(x_rows, message):
    psi = mw.PsiFunction(uniform_circle_cloud(5, dual=True))
    with pytest.raises(ValueError, match=message):
        psi_eval_many(psi, x_rows)


@pytest.mark.parametrize("reps, weights", [
    ([[1.0, 0.0], [np.nan, 1.0]], [0.5, 0.5]),
    ([[1.0, 0.0], [0.0, np.inf]], [0.5, 0.5]),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, np.nan]),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0]),
])
def test_empirical_measure_rejects_non_finite_entries(reps, weights):
    with pytest.raises(ValueError):
        mw.EmpiricalMeasure(reps=np.array(reps), weights=np.array(weights), dual=True)


def test_psi_eval_many_working_memory_is_bounded():
    # 3000 rows against 20k particles: one pairing tile per worker thread, never
    # a whole 2048 x 2048 block (numpy reports its buffers to tracemalloc)
    cloud = mw.EmpiricalMeasure(reps=mw.start_cloud(2, 20000), weights=np.full(20000, 5e-5),
                                dual=True)
    x = _unit_rows(np.random.default_rng(8), 3000, 2)
    walks.set_thread_count(2)
    tracemalloc.start()
    try:
        values = psi_eval_many(mw.PsiFunction(cloud), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        walks.set_thread_count(1)
    assert np.all(values <= 0.0)
    assert peak <= 2 * _EVAL_ROWS * 2048 * 8 + 2_000_000
    assert _EVAL_ROWS * 2048 * 8 <= 2**21   # a tile fits a 2 MB per-core L2


_BLAS_BYTES_SCRIPT = """
import hashlib
import numpy as np
import matwalk as mw
from matwalk import rng, stationary, walks
sl3 = mw.shear_pair_sl3()
sets = {1: sl3.atoms, 2: np.array([mw.exterior_square(a) for a in sl3.atoms])}
logs = walks.matrix_walk_log_norms(sets, sl3.weights, 300, 500, 4, rng.TAG_WALK,
                                   checkpoints=[7, 150])
out = {"matrix": b"".join(logs[k].tobytes() for k in sets)}
pair = mw.free_semigroup_pair()
out["trajectory"] = walks.trajectory_cocycle(pair.atoms, pair.weights, np.array([1.0, 2.0]),
                                             5000, 6, rng.TAG_WALK).tobytes()
psi = mw.PsiFunction(mw.estimate_dual_stationary(pair, burn_in=20, particles=2500, seed=5))
for m in (513, 515):
    out[m] = stationary.psi_eval_many(psi, stationary.start_cloud(2, m)).tobytes()
cloud = mw.EmpiricalMeasure(reps=stationary.start_cloud(2, 20000), weights=np.full(20000, 5e-5))
ys = [mw.DualProjectivePoint(np.array([np.cos(t), np.sin(t)])) for t in (0.1, 1.0, 2.0)]
out["log_regularity"] = np.array([mw.log_regularity_integral(cloud, y, 2.5) for y in ys]).tobytes()
for key, value in out.items():
    print(key, hashlib.sha256(value).hexdigest())
"""


def test_bytes_do_not_depend_on_blas_threads():
    # OpenBLAS splits a gemv or a long dot product over its threads: psi at 513
    # and 515 rows and the log-regularity integral over 20000 particles once
    # summed in another order at its default thread count
    runs = []
    for one_thread in (True, False):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if one_thread:
            env["OPENBLAS_NUM_THREADS"] = "1"
        done = subprocess.run([sys.executable, "-c", _BLAS_BYTES_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(dict(line.split() for line in done.stdout.splitlines()))
    assert sorted(runs[0]) == ["513", "515", "log_regularity", "matrix", "trajectory"]
    assert runs[0] == runs[1]


def _first_singular(row_on_atom_4500, row_on_atom_10):
    """The error of psi at 3000 rows, where the two given rows are orthogonal
    to cloud atoms 4500 and 10 of 5000, at one and at two walk threads."""
    rng_ = np.random.default_rng(5)
    reps = rng_.normal(size=(5000, 2))
    reps[4500], reps[10] = [0.0, 1.0], [1.0, 0.0]
    cloud = mw.EmpiricalMeasure(reps=canonicalize_rows(reps),
                                weights=np.full(5000, 1 / 5000), dual=True)
    x = canonicalize_rows(rng_.normal(size=(3000, 2)))
    x[row_on_atom_4500], x[row_on_atom_10] = [1.0, 0.0], [0.0, 1.0]

    def first_singular():
        with pytest.raises(mw.SingularEvaluationError) as err:
            psi_eval_many(mw.PsiFunction(cloud), x)
        return err.value.atom_index, str(err.value)

    return _thread_runs(first_singular)


def test_psi_singular_pairing_reported_in_scan_order():
    # row 700 meets cloud atom 4500 and row 2500 meets atom 10: the first
    # 2048-row block is scanned over the whole cloud before the second
    one, two = _first_singular(700, 2500)
    assert one == two == (4500, "evaluation point 700 is orthogonal to cloud atom 4500")


def test_psi_singular_pairing_scan_order_inside_one_block():
    # rows 100 and 700 share a 2048-row block: its first cloud block (atom 10)
    # is scanned over all its rows before its third (atom 4500), tiles or not
    one, two = _first_singular(100, 700)
    assert one == two == (10, "evaluation point 700 is orthogonal to cloud atom 10")


def _tile(kind):
    """Evaluation rows and cloud rows whose products make one kind of pairing
    tile; row 5 against cloud row 7 is the pairing that sets the kind."""
    gen = np.random.default_rng(12)
    x, reps = _unit_rows(gen, 70, 3), _unit_rows(gen, 300, 3)
    if kind not in ("mixed", "above_one_negative"):
        x, reps = np.abs(x), np.abs(reps)
    x[5] = [1.0, 0.0, 0.0]
    reps[7] = {"positive": reps[7], "mixed": reps[7],
               "above_one": [1.0 + 2.0**-50, 0.0, 0.0],
               "above_one_negative": [-1.0 - 2.0**-50, 0.0, 0.0],
               "negative_tiny": [-1e-301, 0.6, 0.8],
               "negative_zero": [-0.0, 0.6, 0.8]}[kind]
    return x, reps


@pytest.mark.parametrize("kind", ["positive", "mixed", "above_one", "above_one_negative",
                                  "negative_tiny", "negative_zero"])
def test_pairings_equal_abs_then_clip(kind):
    x, reps = _tile(kind)
    products = x @ reps.T
    least, most = products.min(), products.max()
    assert {"positive": 0.0 < least and most <= 1.0,
            "mixed": least < 0.0 and most <= 1.0,
            "above_one": least > 0.0 and most == 1.0 + 2.0**-50,
            # abs alone lifts this tile past 1
            "above_one_negative": least == -1.0 - 2.0**-50 and most <= 1.0,
            "negative_tiny": least == -1e-301,
            # -0.0 * 1 + 0.6 * 0 + 0.8 * 0: +0.0 once summed from +0.0, as BLAS does here
            "negative_zero": least == 0.0 and products[5, 7] == 0.0}[kind]
    want = np.minimum(np.abs(products), 1.0)
    for out in (None, np.empty_like(products)):
        vals, smallest = _pairings(reps, x, out=out)
        assert out is None or vals is out
        assert vals.tobytes() == want.tobytes()
        assert smallest == want.min()


@pytest.mark.parametrize("kind", ["negative_tiny", "negative_zero"])
def test_a_negative_small_pairing_is_singular(kind):
    # the tile's only small pairing is a negative one: it is found after abs
    x, reps = _tile(kind)
    weights = np.full(len(reps), 1.0 / len(reps))
    psi = mw.PsiFunction(mw.EmpiricalMeasure(reps=reps, weights=weights, dual=True))
    with pytest.raises(mw.SingularEvaluationError,
                       match="evaluation point 5 is orthogonal to cloud atom 7$") as err:
        psi_eval_many(psi, x)
    assert err.value.atom_index == 7
    nu = mw.EmpiricalMeasure(reps=reps, weights=weights)
    assert mw.log_regularity_integral(nu, mw.DualProjectivePoint(x[5]), 2.0) == np.inf
    assert np.isfinite(mw.log_regularity_integral(nu, mw.DualProjectivePoint(x[6]), 2.0))


def test_advance_cloud_continues_each_stream(free_pair):
    dual = mw.estimate_dual_stationary(free_pair, burn_in=30, particles=4500, seed=6)
    one, two = _thread_runs(lambda: mw.advance_cloud(free_pair, dual, 2))
    assert one.reps.tobytes() == two.reps.tobytes()
    assert one.provenance == (6, 32, 4500)
    # the two new steps read draws 30 and 31 of every particle's stream
    u = rng.replica_uniforms(6, rng.TAG_DUAL_CLOUD, dual.size, 32)
    words = rng.indices_from_uniforms(u[:, 30:], free_pair.weights)
    dual_atoms = np.array([a.T for a in free_pair.atoms])
    v = dual.reps.copy()
    for k in range(2):
        v = np.einsum("nij,nj->ni", dual_atoms[words[:, k]], v)
        v /= np.linalg.norm(v, axis=1)[:, None]
    # the letter-table engine groups the products, so the last bit may move
    assert np.allclose(one.reps, canonicalize_rows(v), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("steps", [1, 7, 64, 65])
@pytest.mark.parametrize("estimate", [mw.estimate_stationary, mw.estimate_dual_stationary])
def test_advance_cloud_equals_a_longer_burn_in(free_pair, estimate, steps):
    # an off-by-one in the stream skip would redraw every continued particle
    burn_in = 20
    advanced = mw.advance_cloud(free_pair, estimate(free_pair, burn_in, 300, seed=4), steps)
    direct = estimate(free_pair, burn_in + steps, 300, seed=4)
    assert advanced.provenance == direct.provenance
    assert np.allclose(advanced.reps, direct.reps, rtol=0.0, atol=1e-12)


def test_psi_is_nonpositive(free_pair):
    dual = mw.estimate_dual_stationary(free_pair, burn_in=100, particles=1000, seed=6)
    psi = mw.PsiFunction(dual)
    rng_ = np.random.default_rng(1)
    for _ in range(50):
        assert mw.psi_eval(psi, mw.ProjectivePoint(rng_.normal(size=2))) <= 0.0


def test_markov_apply_examples(free_pair):
    x = mw.ProjectivePoint([1.0, 0.0])
    assert mw.markov_apply(free_pair, lambda _: 3.5, x) == pytest.approx(3.5)
    g = np.array([[1.0, 1.0], [0.0, 1.0]])
    single = mw.GeneratorMeasure.from_atoms([g])
    f = lambda p: float(p.rep[0])
    assert mw.markov_apply(single, f, x) == pytest.approx(f(mw.act(g, x)))
    h = lambda p: float(p.rep[1])
    combo = mw.markov_apply(free_pair, lambda p: 2 * f(p) + 3 * h(p), x)
    assert combo == pytest.approx(
        2 * mw.markov_apply(free_pair, f, x) + 3 * mw.markov_apply(free_pair, h, x),
        abs=1e-12)


def test_residual_vanishes_for_identity_measure():
    mu = mw.GeneratorMeasure.from_atoms([np.eye(2)])
    psi = mw.PsiFunction(uniform_circle_cloud(300, dual=True))
    xs = [mw.ProjectivePoint(v) for v in np.random.default_rng(2).normal(size=(20, 2))]
    res = mw.cohomological_residual(mu, psi, 0.0, xs)
    assert res.max_abs <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", [1, 2, 4])
def test_residual_matches_its_pointwise_definition(d, n_atoms):
    mu = gaussian_measure(d, n_atoms, 10 * d + n_atoms)
    psi = mw.PsiFunction(mw.estimate_dual_stationary(mu, burn_in=20, particles=300, seed=d))
    xs = [mw.ProjectivePoint(v) for v in np.random.default_rng(d).normal(size=(60, d))]
    res = mw.cohomological_residual(mu, psi, 0.3, xs).residuals
    want = [mw.drift(mu, x) - mw.psi_eval(psi, x) + mw.markov_apply(mu, psi, x) - 0.3
            for x in xs]
    assert np.abs(res - want).max() <= 1e-12


def test_residual_is_affine_in_the_rate(free_pair):
    dual = mw.estimate_dual_stationary(free_pair, burn_in=100, particles=2000, seed=7)
    psi = mw.PsiFunction(dual)
    xs = [mw.ProjectivePoint(v) for v in np.random.default_rng(3).normal(size=(10, 2))]
    base = mw.cohomological_residual(free_pair, psi, 0.4, xs)
    shifted = mw.cohomological_residual(free_pair, psi, 0.5, xs)
    assert shifted.residuals == pytest.approx(base.residuals - 0.1, abs=1e-12)


def test_pairing_transport_identity(free_pair):
    # relates the cocycle at x to pairings before and after the move:
    # sigma(g, x) = log delta(x, g*y) - log delta(gx, y) + sigma(g^{-1}, y)
    rng_ = np.random.default_rng(4)
    for _ in range(200):
        g = free_pair.atoms[int(rng_.integers(2))]
        x = mw.ProjectivePoint(rng_.normal(size=2))
        y = mw.DualProjectivePoint(rng_.normal(size=2))
        moved_y = mw.act(np.linalg.inv(g), y)  # covector composed with g
        if mw.delta(x, moved_y) < 1e-6 or mw.delta(mw.act(g, x), y) < 1e-6:
            continue
        lhs = mw.norm_cocycle(g, x)
        rhs = (np.log(mw.delta(x, moved_y)) - np.log(mw.delta(mw.act(g, x), y))
               + mw.norm_cocycle(np.linalg.inv(g), y))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_stationarity_self_consistency(free_pair):
    cloud = mw.estimate_stationary(free_pair, burn_in=400, particles=20_000, seed=8)
    pushed = mw.advance_cloud(free_pair, cloud, steps=1)
    y = mw.DualProjectivePoint([0.8, -0.6])
    i1 = mw.log_regularity_integral(cloud, y, 2.0)
    i2 = mw.log_regularity_integral(pushed, y, 2.0)
    hw1 = mean_ci_halfwidth(np.abs(np.log(np.minimum(np.abs(cloud.reps @ y.rep), 1.0))))
    hw2 = mean_ci_halfwidth(np.abs(np.log(np.minimum(np.abs(pushed.reps @ y.rep), 1.0))))
    assert abs(i1 - i2) <= 3.0 * (hw1 + hw2)
    x = mw.ProjectivePoint([1.0, 0.4])
    dual = mw.estimate_dual_stationary(free_pair, burn_in=400, particles=20_000, seed=9)
    dual_pushed = mw.advance_cloud(free_pair, dual, steps=1)
    p1 = mw.psi_eval(mw.PsiFunction(dual), x)
    p2 = mw.psi_eval(mw.PsiFunction(dual_pushed), x)
    hw = mean_ci_halfwidth(np.log(np.minimum(np.abs(dual.reps @ x.rep), 1.0)))
    assert abs(p1 - p2) <= 3.0 * 2.0 * hw


def test_contraction_pushforward_concentrates(free_pair):
    # a single long word sends a spread cloud close to one direction
    word = mw.sample_word(mw.WalkSampler(free_pair, 11, 0), 500)
    cloud = uniform_circle_cloud(2000)
    pushed = mw.push_cloud(cloud, word.matrix)
    center = mw.principal_direction(pushed)
    dists = np.array([mw.proj_distance(p, center) for p in pushed.points()])
    assert (dists <= 0.01).mean() >= 0.99


@pytest.mark.parametrize("dual", [False, True])
def test_push_cloud_moves_points_as_act_does(dual):
    cloud = mw.EmpiricalMeasure(reps=mw.start_cloud(3, 50), weights=np.full(50, 1 / 50),
                                dual=dual)
    g = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 2.0], [0.5, 0.0, 1.0]])
    pushed = mw.push_cloud(cloud, g)
    assert pushed.dual == dual
    expected = np.stack([mw.act(g, point).rep for point in cloud.points()])
    np.testing.assert_allclose(pushed.reps, expected, rtol=0, atol=1e-12)


def test_log_regularity_examples():
    x = mw.ProjectivePoint([1.0, 0.0])
    aligned = mw.EmpiricalMeasure(reps=x.rep[None], weights=np.array([1.0]))
    assert mw.log_regularity_integral(aligned, mw.DualProjectivePoint([1.0, 0.0]), 2.0) == 0.0
    uni = uniform_circle_cloud(100_000)
    # quadrature oracle: (1/pi) integral of |log|cos|| = log 2
    for f in ([1.0, 0.0], [0.6, 0.8]):
        val = mw.log_regularity_integral(uni, mw.DualProjectivePoint(f), 2.0)
        assert val == pytest.approx(0.6931471805599453, abs=1e-3)
    assert mw.log_regularity_integral(
        aligned, mw.DualProjectivePoint([0.0, 1.0]), 2.0) == np.inf


def test_log_regularity_rejects_bad_order():
    cloud = uniform_circle_cloud(10)
    with pytest.raises(ValueError):
        mw.log_regularity_integral(cloud, mw.DualProjectivePoint([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError, match=r"order p must lie in \(1, 109\.565\]"):
        mw.log_regularity_integral(cloud, mw.DualProjectivePoint([1.0, 0.0]), 109.566)


def test_log_regularity_at_the_largest_order_stays_finite():
    # a pairing just above the floor has |log delta| near 690.8, its largest value
    assert stationary.MAX_ORDER == 109.565
    near = canonicalize_rows(np.array([[2e-300, 1.0], [1.0, 1.0]]))
    cloud = mw.EmpiricalMeasure(near, np.array([0.5, 0.5]))
    value = mw.log_regularity_integral(cloud, mw.DualProjectivePoint([1.0, 0.0]),
                                       stationary.MAX_ORDER)
    assert np.isfinite(value) and value > 1e307


def test_residual_at_one_point_is_its_residual_in_a_batch(sl3_pair):
    # walks.atom_images moves a lone row beside a copy of itself; alone, the log
    # norms of 95 of these 400 unit rows, and 175 residuals, read other bytes.  The
    # cloud's one block has 256 particles: past 195, a block of 4 to 7 mod 8
    # particles takes OpenBLAS kernels that round a row by its place in its tile
    # (README, reproducibility contract)
    psi = mw.PsiFunction(mw.estimate_dual_stationary(sl3_pair, burn_in=20, particles=256, seed=4))
    xs = [mw.ProjectivePoint(row) for row in _unit_rows(np.random.default_rng(6), 400, 3)]
    batch = mw.cohomological_residual(sl3_pair, psi, 0.3, xs).residuals
    alone = [mw.cohomological_residual(sl3_pair, psi, 0.3, [x]).residuals[0] for x in xs]
    assert np.array(alone).tobytes() == batch.tobytes()
