import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matwalk as mw
from matwalk import rng

from conftest import random_invertible


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_measure_validation():
    with pytest.raises(mw.SingularMatrixError):
        mw.GeneratorMeasure(np.zeros((1, 2, 2)), np.array([1.0]))  # singular atom
    with pytest.raises(ValueError):
        mw.GeneratorMeasure(np.eye(2)[None], np.array([0.5]))  # weights not 1
    mu = mw.GeneratorMeasure.from_atoms([np.eye(2), 2 * np.eye(2)], [3.0, 1.0])
    assert mu.weights == pytest.approx([0.75, 0.25])
    # one error names every singular atom
    atoms = np.array([np.zeros((2, 2)), np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
    with pytest.raises(mw.SingularMatrixError) as exc:
        mw.GeneratorMeasure(atoms, np.full(3, 1.0 / 3.0))
    assert str(exc.value).startswith("atom 0: matrix is numerically singular")
    assert "; atom 2: matrix is numerically singular" in str(exc.value)
    assert "atom 1" not in str(exc.value)


def test_big_n_examples():
    assert mw.big_n(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert mw.big_n(np.diag([np.e**2, np.e**-1])) == pytest.approx(np.e**2, rel=1e-12)
    assert mw.big_n(rotation(1.1)) == pytest.approx(1.0, abs=1e-10)


def test_big_n_inversion_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = rng.normal(size=(3, 3))
        if np.linalg.svd(g, compute_uv=False)[-1] < 1e-6:
            continue
        assert mw.big_n(g) == pytest.approx(mw.big_n(np.linalg.inv(g)), rel=1e-9)


def test_moment_examples():
    assert mw.moment(mw.GeneratorMeasure.from_atoms([np.eye(2)]), 2.0).value == pytest.approx(0.0, abs=1e-20)
    mu = mw.GeneratorMeasure.from_atoms([np.diag([np.e, 1 / np.e]), rotation(0.7)])
    # hand sum: 0.5 * 1^2 + 0.5 * 0^2
    assert mw.moment(mu, 2.0).value == pytest.approx(0.5, abs=1e-12)
    single = mw.GeneratorMeasure.from_atoms([np.diag([np.e**2, np.e**-2])])
    assert mw.moment(single, 1.0).value == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        mw.moment(single, 0.5)


@given(st.integers(0, 2**31 - 1), st.floats(1.0, 4.0), st.floats(1.0, 4.0))
def test_moment_monotone_and_cauchy_schwarz(seed, p, q):
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.uniform(1.0, 2.0, size=3))  # log N(g) >= 1 for all atoms
    atoms = [np.diag([s, 1 / s]) for s in scales]
    mu = mw.GeneratorMeasure.from_atoms(atoms)
    lo, hi = min(p, q), max(p, q)
    assert mw.moment(mu, lo).value <= mw.moment(mu, hi).value + 1e-12
    assert mw.moment(mu, 1.0).value ** 2 <= mw.moment(mu, 2.0).value + 1e-12


def test_check_mu_examples(free_pair):
    single = mw.GeneratorMeasure.from_atoms([np.diag([2.0, 0.5])])
    inv = mw.check_mu(single)
    assert inv.atoms[0] == pytest.approx(np.diag([0.5, 2.0]))
    double = mw.check_mu(mw.check_mu(free_pair))
    assert np.abs(double.atoms - free_pair.atoms).max() <= 1e-12


def test_check_mu_symmetric_measure_is_permutation_equal():
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    mu = mw.GeneratorMeasure.from_atoms([g, np.linalg.inv(g)])
    inv = mw.check_mu(mu)
    assert inv.atoms[0] == pytest.approx(mu.atoms[1], abs=1e-12)
    assert inv.atoms[1] == pytest.approx(mu.atoms[0], abs=1e-12)


# --- word sampling ---

def test_sample_word_zero_length_gives_identity(free_pair):
    out = mw.sample_word(mw.WalkSampler(free_pair, 5, 0), 0)
    assert out.matrix == pytest.approx(np.eye(2))
    assert out.log_scale == 0.0
    assert out.indices.size == 0


def test_deterministic_walk_gives_power():
    g = np.array([[1.0, 1.0], [0.0, 1.0]])
    mu = mw.GeneratorMeasure.from_atoms([g])
    out = mw.sample_word(mw.WalkSampler(mu, 9, 0), 3)
    assert out.product == pytest.approx(np.linalg.matrix_power(g, 3))


def test_same_sampler_same_word(free_pair):
    s = mw.WalkSampler(free_pair, 123, 4)
    w1 = mw.sample_word(s, 40)
    w2 = mw.sample_word(s, 40)
    assert np.array_equal(w1.indices, w2.indices)
    assert w1.matrix.tobytes() == w2.matrix.tobytes()


def test_word_prefix_stability_and_product_continuation(free_pair):
    s = mw.WalkSampler(free_pair, 123, 4)
    head = mw.sample_word(s, 10)
    full = mw.sample_word(s, 16)
    assert np.array_equal(full.indices[:10], head.indices)
    tail = np.eye(2)
    for k in full.indices[10:]:
        tail = free_pair.atoms[int(k)] @ tail
    assert tail @ head.product == pytest.approx(full.product, rel=1e-12)


def test_distinct_streams_differ(free_pair):
    a = mw.sample_word(mw.WalkSampler(free_pair, 123, 0), 64)
    b = mw.sample_word(mw.WalkSampler(free_pair, 123, 1), 64)
    assert not np.array_equal(a.indices, b.indices)


def test_long_words_require_scaled_form(free_pair):
    s = mw.WalkSampler(free_pair, 1, 0)
    out = mw.sample_word(s, 300)
    assert out.log_scale > 0.0
    assert np.all(np.isfinite(out.matrix))
    long = mw.sample_word(mw.WalkSampler(free_pair, 2, 0), 2000)
    assert np.linalg.norm(long.matrix, 2) == pytest.approx(1.0, abs=1e-14)
    assert long.log_scale > 700.0
    with pytest.raises(OverflowError):
        long.product


@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_sampler_word_reads_its_own_stream(free_pair, n):
    s = mw.WalkSampler(free_pair, 17, 6)
    u = rng.stream(17, rng.TAG_SAMPLER, 6).random(n)
    assert s.word(n).tobytes() == rng.indices_from_uniforms(u, free_pair.weights).tobytes()


def _word_measure(n_atoms):
    rng_ = np.random.default_rng(70 + n_atoms)
    return mw.GeneratorMeasure.from_atoms([random_invertible(rng_, 2) for _ in range(n_atoms)])


@pytest.mark.parametrize("n_atoms", [1, 2, 4, 20])
@pytest.mark.parametrize("n", [1, 8, 9, 64])
def test_sample_word_product_matches_letter_product(n_atoms, n):
    # 8 and 64 are whole table steps for two and one atoms, 9 is not
    mu = _word_measure(n_atoms)
    out = mw.sample_word(mw.WalkSampler(mu, 3, 1), n)
    want = np.eye(2)
    for k in out.indices:
        want = mu.atoms[int(k)] @ want
    assert np.abs(out.product - want).max() <= 1e-12 * np.abs(want).max()
    assert np.linalg.norm(out.matrix, 2) == pytest.approx(1.0, abs=1e-14)
    assert out.log_scale == pytest.approx(np.log(np.linalg.norm(want, 2)), rel=1e-12, abs=1e-12)


# --- proximality certificate ---

def test_proximality_certificate_immediate_for_split_diagonal():
    mu = mw.GeneratorMeasure.from_atoms([np.diag([2.0, 0.5])])
    assert mw.proximality_certificate(mu) == [0]


def test_proximality_certificate_absent_for_rotations():
    mu = mw.GeneratorMeasure.from_atoms([rotation(0.9), rotation(2.0)])
    assert mw.proximality_certificate(mu, max_len=4) is None


def test_proximality_certificate_word_of_length_two(free_pair):
    word = mw.proximality_certificate(free_pair)
    assert word is not None and len(word) == 2
    prod = np.eye(2)
    for k in word:
        prod = free_pair.atoms[k] @ prod
    moduli = np.sort(np.abs(np.linalg.eigvals(prod)))[::-1]
    # eigensolver oracle: dominant eigenvalue (3 + sqrt 5) / 2 of the mixed product
    assert moduli[0] == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, rel=1e-12)
    assert moduli[0] > moduli[1] * (1 + 1e-6)
