"""Golden artifact manifest: the sha256 of every artifact of every bundled
scenario at seed 11, run at 1 and at 2 threads, and of the float64 bytes of
a few walk outputs no bundled scenario reaches: one-row trajectories in
dimension 2 and 3, long enough to cross a segment of the chunked scan, the
walk-induced martingale sums, a vector walk with checkpoints, matrix walks
that take long stretches as chunks (one with a checkpoint inside a chunked
stretch, one whose chunk joins lose a direction to underflow and walk step by
step), a long ``sample_word`` and a cloud walk with ``skip``.

Artifact bytes are a function of (config, seed) on one machine class: psi
pairs through BLAS gemm, and ``np.log`` dispatches on the CPU's SIMD
extensions.  So the manifest records a runtime fingerprint (the numpy
version, the SIMD extensions numpy finds, the BLAS build and the core whose
kernels the bundled OpenBLAS runs, which ``OPENBLAS_CORETYPE`` overrides), and
the test skips where the fingerprint differs.

A change that moves artifact bytes regenerates the manifest, from the
repository root, with

    PYTHONPATH=src python tests/test_manifest.py

and the diff of ``tests/golden_manifest.json`` names every artifact that
moved.
"""
import ctypes
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import matwalk as mw
from matwalk import rng, walks

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SEED = 11
THREADS = (1, 2)
TRAJECTORY_LETTERS = 270_000   # past the first 2^18-letter segment of a one-row scan
# three chunks of 128 steps of 8 letters and a tail, read inside the long stretch after two
CHUNKED_LETTERS, CHUNKED_MARKS = 3172, [1, 2099, 3172]


def blas_core():
    """The core whose kernels numpy's bundled OpenBLAS runs, from its
    ``scipy_openblas_get_corename64_``; ``None`` where no bundled library exports it."""
    root = Path(np.__file__).parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for lib in sorted(libs):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def fingerprint():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict form
        return {"numpy": np.__version__}
    blas = config["Build Dependencies"]["blas"]
    build = [blas.get(key) for key in ("name", "version", "openblas configuration")]
    return {
        "numpy": np.__version__,
        "simd_found": config["SIMD Extensions"]["found"],
        "blas": build,
        "blas_core": blas_core() or build[-1],
    }


def artifact_hashes(root):
    """sha256 of every artifact of every bundled scenario, run in-process under ``root``."""
    try:
        for threads in THREADS:
            for name, config in sorted(mw.bundled_scenarios().items()):
                mw.run_scenario(config, out_dir=root / f"threads_{threads}" / name,
                                seed=SEED, threads=threads)
    finally:
        walks.set_thread_count(1)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _unit_rows(count, dim):
    rows = np.random.default_rng(SEED).normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def array_hashes():
    """sha256 of the float64 bytes of walk outputs no bundled scenario reaches."""
    pair, sl3 = mw.free_semigroup_pair(), mw.shear_pair_sl3()
    stream = mw.DifferenceStream(kind="walk_induced", seed=SEED, measure=pair,
                                 start=mw.ProjectivePoint([1.0, 0.0]))
    values, finals = walks.vector_walk(sl3.atoms, sl3.weights, _unit_rows(5, 3), 2000, 5, SEED,
                                       rng.TAG_WALK, checkpoints=[1, 7, 64, 65, 999, 2000])
    chunked = walks.matrix_walk_log_norms(
        {r: mw.exterior_power(sl3.atoms, r) for r in (1, 2)}, sl3.weights, CHUNKED_LETTERS, 3,
        SEED, rng.TAG_WALK, checkpoints=CHUNKED_MARKS)
    big = np.diag([1e6, 1e-6])
    reducible = walks.matrix_walk_log_norms({1: np.array([big, np.linalg.inv(big)])},
                                            [0.5, 0.5], 20_001, 5, SEED, rng.TAG_WALK)
    word = mw.sample_word(mw.WalkSampler(sl3, SEED), 5157)
    arrays = {
        "trajectory_cocycle/free_pair": walks.trajectory_cocycle(
            pair.atoms, pair.weights, [1.0, 0.0], TRAJECTORY_LETTERS, SEED, rng.TAG_WALK),
        "trajectory_cocycle/sl3_pair": walks.trajectory_cocycle(
            sl3.atoms, sl3.weights, [1.0, 2.0, 3.0], TRAJECTORY_LETTERS, SEED, rng.TAG_WALK),
        "checkpoint_sums/walk_induced": mw.checkpoint_sums(
            stream, [2**k for k in range(4, 13)], 100),
        "vector_walk/sl3_pair/values": values,
        "vector_walk/sl3_pair/finals": finals,
        "matrix_walk_log_norms/sl3_pair": chunked[1],
        "matrix_walk_log_norms/sl3_pair_wedge": chunked[2],
        "matrix_walk_log_norms/reducible_pair": reducible[1],
        "sample_word/sl3_pair": np.append(word.matrix.ravel(), word.log_scale),
        "cloud_walk/free_pair": walks.cloud_walk(pair.atoms, pair.weights, _unit_rows(7, 2), 500,
                                                 SEED, rng.TAG_CLOUD, skip=300),
    }
    return {name: hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()
            for name, a in arrays.items()}


@pytest.fixture
def manifest():
    recorded = json.loads(MANIFEST.read_text())
    if recorded["fingerprint"] != fingerprint():
        pytest.skip(f"manifest recorded on {recorded['fingerprint']}, "
                    f"this runtime is {fingerprint()}")
    return recorded


def test_bundled_artifacts_match_the_manifest(tmp_path, manifest):
    assert artifact_hashes(tmp_path) == manifest["artifacts"]


def test_walk_arrays_match_the_manifest(manifest):
    assert array_hashes() == manifest["arrays"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = artifact_hashes(Path(tmp))
    arrays = array_hashes()
    MANIFEST.write_text(json.dumps({"fingerprint": fingerprint(), "seed": SEED,
                                    "artifacts": hashes, "arrays": arrays}, indent=1) + "\n")
    print(f"wrote {MANIFEST}: {len(hashes)} artifacts, {len(arrays)} arrays")
