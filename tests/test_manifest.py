"""Golden artifact manifest: the sha256 of every artifact of every bundled
scenario at seed 11, run at 1 and at 2 threads.

Artifact bytes are a function of (config, seed) on one machine class: psi
pairs through BLAS gemm, and ``np.log`` dispatches on the CPU's SIMD
extensions.  So the manifest records a runtime fingerprint (the numpy
version, the SIMD extensions numpy finds, the BLAS build), and the test
skips where the fingerprint differs.

A change that moves artifact bytes regenerates the manifest, from the
repository root, with

    PYTHONPATH=src python tests/test_manifest.py

and the diff of ``tests/golden_manifest.json`` names every artifact that
moved.
"""
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import matwalk as mw
from matwalk import walks

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SEED = 11
THREADS = (1, 2)


def fingerprint():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict form
        return {"numpy": np.__version__}
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "simd_found": config["SIMD Extensions"]["found"],
        "blas": [blas.get(key) for key in ("name", "version", "openblas configuration")],
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


def test_bundled_artifacts_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["fingerprint"] != fingerprint():
        pytest.skip(f"manifest recorded on {manifest['fingerprint']}, "
                    f"this runtime is {fingerprint()}")
    assert artifact_hashes(tmp_path) == manifest["artifacts"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = artifact_hashes(Path(tmp))
    MANIFEST.write_text(json.dumps({"fingerprint": fingerprint(), "seed": SEED,
                                    "artifacts": hashes}, indent=1) + "\n")
    print(f"wrote {MANIFEST}: {len(hashes)} artifacts")
