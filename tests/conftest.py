import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import matwalk as mw

# print_blob: a rare failing example prints the @reproduce_failure line that replays it
settings.register_profile(
    "suite", max_examples=50, deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_this_checkout():
    """Tests that start ``python -m matwalk ...`` import ``src/`` too, with or
    without PYTHONPATH set (pytest's ``pythonpath`` covers this process only)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        yield


@pytest.fixture(scope="session")
def free_pair():
    return mw.free_semigroup_pair()


@pytest.fixture(scope="session")
def scalar_pair():
    return mw.scalar_exponential_pair()


@pytest.fixture(scope="session")
def rotating():
    return mw.rotating_diagonal_measure()


@pytest.fixture(scope="session")
def sl3_pair():
    return mw.shear_pair_sl3()


def random_invertible(rng, d):
    """Rejection-sampled well-conditioned random matrix."""
    while True:
        g = rng.normal(size=(d, d))
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return g


def gaussian_measure(d, n_atoms, seed):
    """Well-conditioned Gaussian atoms with unequal weights."""
    rng = np.random.default_rng(seed)
    atoms = [random_invertible(rng, d) for _ in range(n_atoms)]
    return mw.GeneratorMeasure.from_atoms(atoms, np.arange(1.0, n_atoms + 1.0))
