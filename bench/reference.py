"""Reference computations the benchmark checks matwalk's outputs against.

Nothing here imports matwalk.  The walker is written from the stream
contract stated in the package README:

* replica ``r`` of tag family ``tag`` under ``seed`` reads the Philox stream
  keyed by ``(seed, tag << 44 | r)``;
* a uniform ``u`` picks the first atom whose cumulative weight exceeds it,
  atoms taken in their listed order;
* products are renormalised after every step and never multiplied out raw.

The corrector is recomputed as a direct sum over the whole cloud, and the
growth rate of a single matrix from its eigenvalues.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
CANONICAL_ZERO = 1e-12


def stream_uniforms(seed, tag, index, count):
    """The first ``count`` uniforms of stream ``index`` of family ``tag``."""
    key = np.array([seed & _MASK, (tag << 44) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def words(seed, tag, indices, n, weights):
    """Atom indices, one row per replica index, by inverse CDF in atom order."""
    cdf = np.cumsum(np.asarray(weights, dtype=float))[:-1]
    rows = [stream_uniforms(seed, tag, int(r), n) for r in indices]
    return np.searchsorted(cdf, np.array(rows).reshape(len(rows), n), side="right")


def canonical(rows):
    """Unit rows whose first coordinate above the zero threshold is positive."""
    rows = np.array(rows, dtype=float, ndmin=2)
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    for row in rows:
        lead = row[np.abs(row) > CANONICAL_ZERO][0]
        if lead < 0.0:
            row *= -1.0
    return rows


def vector_walk(atoms, word_rows, starts, checkpoints=None):
    """``log |b_n ... b_1 v|`` per row and the final unit rows.

    ``starts`` holds one unit row per word row.  With checkpoints, the log
    norms are read after each listed step count.
    """
    atoms = np.asarray(atoms, dtype=float)
    v = np.array(starts, dtype=float, ndmin=2)
    acc = np.zeros(len(v))
    n = word_rows.shape[1]
    marks = set(checkpoints or [n])
    out = []
    for k in range(n):
        v = np.einsum("rij,rj->ri", atoms[word_rows[:, k]], v)
        norms = np.linalg.norm(v, axis=1)
        acc += np.log(norms)
        v /= norms[:, None]
        if k + 1 in marks:
            out.append(acc.copy())
    return np.column_stack(out), v


def product_log_norms(atoms, word_rows, checkpoints=None):
    """``log |b_k ... b_1|`` (operator norm) per row at each checkpoint."""
    atoms = np.asarray(atoms, dtype=float)
    m = atoms.shape[1]
    p = np.tile(np.eye(m), (len(word_rows), 1, 1))
    acc = np.zeros(len(word_rows))
    n = word_rows.shape[1]
    marks = set(checkpoints or [n])
    out = []
    for k in range(n):
        p = atoms[word_rows[:, k]] @ p
        scale = np.abs(p).max(axis=(1, 2))
        acc += np.log(scale)
        p /= scale[:, None, None]
        if k + 1 in marks:
            out.append(acc + np.log(np.linalg.norm(p, ord=2, axis=(1, 2))))
    return np.column_stack(out)


def extreme_log_singular_values(atoms, word_rows):
    """``(log s_max, log s_min)`` of each product ``b_n ... b_1``.

    The smallest singular value is read as ``-log |(b_n ... b_1)^-1|`` from a
    second renormalised product of the inverse atoms in reverse order, since
    a single scaled product cannot resolve singular values that far apart.
    """
    top = product_log_norms(atoms, word_rows)[:, -1]
    inverses = np.linalg.inv(np.asarray(atoms, dtype=float))
    m = inverses.shape[1]
    q = np.tile(np.eye(m), (len(word_rows), 1, 1))
    acc = np.zeros(len(word_rows))
    for k in range(word_rows.shape[1]):
        q = q @ inverses[word_rows[:, k]]
        scale = np.abs(q).max(axis=(1, 2))
        acc += np.log(scale)
        q /= scale[:, None, None]
    bottom = -(acc + np.log(np.linalg.norm(q, ord=2, axis=(1, 2))))
    return top, bottom


def trajectory_sums(atoms, word, start):
    """Running cocycle values ``S_1, ..., S_n`` along one word, in plain floats."""
    mats = [np.asarray(a, dtype=float).tolist() for a in atoms]
    v = [float(c) for c in start]
    norm = math.sqrt(sum(c * c for c in v))
    v = [c / norm for c in v]
    out = np.empty(len(word))
    acc = 0.0
    for k, i in enumerate(word.tolist()):
        a = mats[i]
        w = [sum(row[j] * v[j] for j in range(len(v))) for row in a]
        norm = math.sqrt(sum(c * c for c in w))
        acc += math.log(norm)
        v = [c / norm for c in w]
        out[k] = acc
    return out


def centered_walk_sums(atoms, weights, word_rows, start, checkpoints):
    """Sums of ``log |a v| - sum_b w_b log |b v|`` along each word row."""
    atoms = np.asarray(atoms, dtype=float)
    v = np.tile(np.asarray(start, dtype=float) / np.linalg.norm(start), (len(word_rows), 1))
    sums = np.zeros(len(word_rows))
    marks = set(checkpoints)
    out = []
    for k in range(word_rows.shape[1]):
        logs = np.array([np.log(np.linalg.norm(v @ a.T, axis=1)) for a in atoms])
        chosen = word_rows[:, k]
        sums += logs[chosen, np.arange(len(v))] - np.asarray(weights) @ logs
        v = np.einsum("rij,rj->ri", atoms[chosen], v)
        v /= np.linalg.norm(v, axis=1)[:, None]
        if k + 1 in marks:
            out.append(sums.copy())
    return np.column_stack(out)


def half_circle_start(index, count):
    """Start direction ``index`` of a planar cloud of ``count`` particles."""
    angle = math.pi * index / count
    return canonical([math.cos(angle), math.sin(angle)])[0]


def psi(cloud_rows, x_rows):
    """``mean_j log min(|<y_j, x>|, 1)`` over the whole equal-weight cloud."""
    return np.array([
        np.log(np.minimum(np.abs(cloud_rows @ x), 1.0)).mean() for x in np.atleast_2d(x_rows)
    ])


def residual(atoms, weights, cloud_rows, rate, x_rows):
    """``drift(x) - psi(x) + sum_a w_a psi(a x) - rate`` by direct sums."""
    x_rows = np.atleast_2d(x_rows)
    out = -psi(cloud_rows, x_rows) - rate
    for a, w in zip(np.asarray(atoms, dtype=float), weights):
        moved = x_rows @ a.T
        norms = np.linalg.norm(moved, axis=1)
        out += w * (np.log(norms) + psi(cloud_rows, moved / norms[:, None]))
    return out


def log_spectral_radius(matrix):
    return float(np.log(np.max(np.abs(np.linalg.eigvals(matrix)))))


def lattice_walk_cdf(n):
    """CDF of ``S_n / sqrt(n)`` for the symmetric +-1 walk, as (points, values)."""
    k = np.arange(n + 1)
    log_pmf = (np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                         for j in k]) - n * math.log(2.0))
    return (2 * k - n) / math.sqrt(n), np.cumsum(np.exp(log_pmf))


def ks_against_steps(sample, points, cdf):
    """Uniform distance between a sample ECDF and a step CDF given at its jumps."""
    sample = np.sort(np.asarray(sample, dtype=float))
    grid = np.concatenate([points, sample])
    emp_right = np.searchsorted(sample, grid, side="right") / sample.size
    emp_left = np.searchsorted(sample, grid, side="left") / sample.size
    idx = np.searchsorted(points, grid, side="right") - 1
    ref_right = np.where(idx >= 0, cdf[np.maximum(idx, 0)], 0.0)
    idx_left = np.searchsorted(points, grid, side="left") - 1
    ref_left = np.where(idx_left >= 0, cdf[np.maximum(idx_left, 0)], 0.0)
    return float(max(np.abs(emp_right - ref_right).max(), np.abs(emp_left - ref_left).max()))


def ks_two_sample(a, b):
    """Uniform distance between the ECDFs of two samples."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, grid, side="right") / a.size
                        - np.searchsorted(b, grid, side="right") / b.size).max())


def normal_cdf(t, mean=0.0, var=1.0):
    """Gaussian CDF from ``math.erf``, elementwise."""
    z = (np.asarray(t, dtype=float) - mean) / math.sqrt(2.0 * var)
    return 0.5 * (1.0 + np.vectorize(math.erf)(z))


def folded_normal_cdf(t, var=1.0):
    """CDF of ``|Z|`` for a centered Gaussian ``Z``, elementwise."""
    t = np.asarray(t, dtype=float)
    return np.where(t < 0.0, 0.0, 2.0 * normal_cdf(np.maximum(t, 0.0), 0.0, var) - 1.0)


def ks_continuous(sample, cdf):
    """Uniform distance between a sample ECDF and a continuous CDF callable."""
    sample = np.sort(np.asarray(sample, dtype=float))
    ref = cdf(sample)
    k = np.arange(1, sample.size + 1) / sample.size
    return float(max(np.abs(k - ref).max(), np.abs(k - 1.0 / sample.size - ref).max()))


def ks_fitted_normal(sample):
    """KS distance to the Gaussian with the sample's mean and unbiased variance."""
    sample = np.asarray(sample, dtype=float)
    mean, var = sample.mean(), sample.var(ddof=1)
    return ks_continuous(sample, lambda t: normal_cdf(t, mean, var))
