"""Empirical stationary measures, the explicit corrector, and log-regularity.

Stationary measures are particle clouds of equal positive weights, obtained
from independent trajectories (one stream per particle), never from a single
ergodic orbit: independent replicas give clean confidence intervals and
parallelize freely.  The corrector is the empirical object

    psi(x) = sum_j w_j log delta(x, y_j)

over a dual-cloud estimate; evaluation is always this exact finite sum, with
no smoothing.  Pairings below ``DELTA_FLOOR`` are treated as exact zeros
(the log of a denormal is meaningless downstream).

``_pairings`` owns the pairing rule ``delta = min(|<f, v>|, 1)`` for psi and
the log-regularity integral, and skips ``abs`` and the clip on a tile where
they would change no value, as on every tile the corrector variance of a
positive-cone measure forms.  psi pairs a one-row tile beside a copy of
itself, by the rule for a batch of one (``walks``), and a cloud block in whole
groups of 8 particles, so a row reads its value in any batch.
"""

import sys
import threading
from dataclasses import dataclass
from math import floor, inf, log

import numpy as np

from . import reports, rng, walks
from .errors import SingularEvaluationError
from .linalg import (DualProjectivePoint, ProjectivePoint, act, canonicalize_rows,
                     check_unit_rows)
from .stats import ndtri

DELTA_FLOOR = 1e-300
# The largest order p of the log-regularity integral, rounded down to 1e-3: a
# pairing above DELTA_FLOOR has |log delta| < -log DELTA_FLOOR, so its power
# |log delta|^(p - 1) is finite while p - 1 <= log(DBL_MAX) / log(-log DELTA_FLOOR).
MAX_ORDER = floor(1000.0 * (1.0 + log(sys.float_info.max) / log(-log(DELTA_FLOOR)))) / 1000.0
DEFAULT_BURN_IN = 500
DEFAULT_PARTICLES = 100_000
# one irrational lattice step sqrt(prime) per coordinate of the start cloud
_START_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_START_DIMENSION = len(_START_PRIMES)
_EVAL_CHUNK = 2048   # particles per cloud block: a row adds up its blocks in cloud order
# rows per pairing tile, psi's unit of work: a tile against a cloud block is 1 MB
_EVAL_ROWS = 64
# a cloud block is paired in whole groups of 8 particles, the cloud padded with copies of
# its first ones: numpy's bundled OpenBLAS (x86-64 Xeon) rounds a pairing by its row's place
# in the tile when a block of 196-599 particles ends 4 to 7 past a multiple of 8
_PARTICLE_GROUP = 8


def start_cloud(dim, count):
    """Deterministic low-discrepancy start directions (no RNG stream used).

    Dimension 2 uses equispaced angles on the half-circle; higher dimensions
    map a Kronecker lattice through the inverse Gaussian CDF and normalize.
    """
    if count < 1:
        raise ValueError("need at least one particle")
    if dim == 1:
        return np.ones((count, 1))
    if dim == 2:
        angles = np.pi * np.arange(count) / count
        return canonicalize_rows(np.column_stack([np.cos(angles), np.sin(angles)]))
    if dim > MAX_START_DIMENSION:
        raise ValueError(f"start cloud supports dimension <= {MAX_START_DIMENSION}")
    steps = np.sqrt(np.array(_START_PRIMES[:dim], dtype=float))
    lattice = np.outer(np.arange(1, count + 1), steps) % 1.0
    gauss = ndtri(np.clip(lattice, 1e-12, 1.0 - 1e-12))
    return canonicalize_rows(gauss)


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class EmpiricalMeasure:
    """Particle cloud on projective space or on its dual: at least one finite unit row
    (``linalg.check_unit_rows``), with positive weights summing to 1 (``ValueError`` else)."""

    reps: np.ndarray      # (N, d) canonical unit rows
    weights: np.ndarray   # (N,) positive, sums to 1
    dual: bool = False
    provenance: tuple = (0, 0, 0)  # (seed, burn_in, particle_count)

    def __post_init__(self):
        reps = np.asarray(self.reps, dtype=float)
        reps = check_unit_rows(reps, reps.shape[-1] if reps.ndim else 1, "reps")
        weights = np.asarray(self.weights, dtype=float)
        if reps.shape[0] < 1:
            raise ValueError("cloud needs at least one particle")
        if weights.shape != (reps.shape[0],) or not np.all(weights > 0.0):
            raise ValueError("one positive weight per particle required")
        if abs(float(weights.sum()) - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        reps.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self):
        return self.reps.shape[0]

    @property
    def dim(self):
        return self.reps.shape[1]

    def points(self):
        cls = DualProjectivePoint if self.dual else ProjectivePoint
        for row in self.reps:
            yield cls(row)

    def to_csv(self, path):
        """One row per particle: coordinates then weight."""
        reports._write_table(path, [f"coord_{i + 1}" for i in range(self.dim)] + ["weight"],
                             np.column_stack([self.reps, self.weights]).tolist())


def _equal_weight_cloud(rows, dual, seed, burn_in):
    n = rows.shape[0]
    return EmpiricalMeasure(
        reps=canonicalize_rows(rows),
        weights=np.full(n, 1.0 / n),
        dual=dual,
        provenance=(seed, burn_in, n),
    )


def _walk_cloud(mu, dual, starts, seed, skip, steps):
    """Walk every start row ``steps`` steps from draw ``skip`` of its stream;
    dual particles move by the transposed atoms (``estimate_dual_stationary``)."""
    atoms = np.array([a.T for a in mu.atoms]) if dual else mu.atoms
    tag = rng.TAG_DUAL_CLOUD if dual else rng.TAG_CLOUD
    finals = walks.cloud_walk(atoms, mu.weights, starts, steps, seed, tag, skip=skip)
    return _equal_weight_cloud(finals, dual, seed, skip + steps)


def estimate_stationary(mu, burn_in=DEFAULT_BURN_IN, particles=DEFAULT_PARTICLES, seed=0):
    """Forward-walk cloud: particle k is ``b_k,burn_in ... b_k,1 x_k``.

    Trajectories start from the deterministic spread cloud and are driven by
    independent per-particle streams, so the estimate is reproducible and its
    particles are i.i.d. draws of the burn-in distribution.
    """
    if burn_in < 1 or particles < 1:
        raise ValueError("burn_in and particles must be >= 1")
    return _walk_cloud(mu, False, start_cloud(mu.dim, particles), seed, 0, burn_in)


def estimate_dual_stationary(mu, burn_in=DEFAULT_BURN_IN, particles=DEFAULT_PARTICLES, seed=0):
    """Cloud for the inverted walk acting on hyperplane covectors.

    A step of the inverted walk draws ``h = g^{-1}`` and moves a covector by
    ``f -> f o h^{-1} = f o g``, i.e. coordinate vectors move by the
    transposed atoms of the original measure.
    """
    if burn_in < 1 or particles < 1:
        raise ValueError("burn_in and particles must be >= 1")
    return _walk_cloud(mu, True, start_cloud(mu.dim, particles), seed, 0, burn_in)


def advance_cloud(mu, cloud, steps=1):
    """Push every particle ``steps >= 1`` more steps, continuing its own stream.

    ``ValueError`` for a ``cloud`` of another dimension than ``mu``, or for other ``steps``."""
    if cloud.dim != mu.dim:
        raise ValueError(f"cloud has dimension {cloud.dim}, the measure {mu.dim}")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    seed, burn_in, _ = cloud.provenance
    return _walk_cloud(mu, cloud.dual, cloud.reps, seed, burn_in, steps)


def push_cloud(cloud, g):
    """Pushforward of the whole cloud by a single matrix, each point moved as by ``act``."""
    g = np.asarray(g, dtype=float)
    rows = np.linalg.solve(g.T, cloud.reps.T).T if cloud.dual else cloud.reps @ g.T
    return EmpiricalMeasure(
        reps=canonicalize_rows(rows),
        weights=cloud.weights.copy(),
        dual=cloud.dual,
        provenance=cloud.provenance,
    )


def principal_direction(cloud):
    """Top eigenvector of the weighted second-moment matrix of the cloud."""
    m = (cloud.reps * cloud.weights[:, None]).T @ cloud.reps
    _, vecs = np.linalg.eigh(m)
    cls = DualProjectivePoint if cloud.dual else ProjectivePoint
    return cls(vecs[:, -1])


@dataclass(frozen=True)
class PsiFunction:
    """The corrector as an integral against an empirical dual cloud."""

    dual_cloud: EmpiricalMeasure

    def __post_init__(self):
        if not self.dual_cloud.dual:
            raise ValueError("corrector needs a dual-space cloud")

    def __call__(self, x):
        return psi_eval(self, x)


def _pairings(reps, x_rows, out=None):
    """|<f_j, v_i>| for cloud rows f_j against unit rows v_i, clipped to <= 1,
    and the smallest of them.

    The tile's range is read first, so ``abs`` and the clip run only where they
    change a value: ``abs`` when some pairing is at or below ``DELTA_FLOOR``
    (above it every pairing is positive), the clip when some pairing is above 1.
    """
    out = np.matmul(x_rows, reps.T, out=out)
    least, most = out.min(), out.max()
    if least <= DELTA_FLOOR:
        np.abs(out, out=out)
        most = max(most, -least)
        least = out.min()
    if most > 1.0:
        np.minimum(out, 1.0, out=out)
        least = min(least, 1.0)
    return out, least


def _whole_groups(reps):
    """Cloud rows ``reps`` padded to whole groups of ``_PARTICLE_GROUP`` with copies of the first."""
    pad = np.resize(reps, (-len(reps) % _PARTICLE_GROUP, reps.shape[1]))
    return np.concatenate([reps, pad])


def _check_lines(xs, dim, what):
    """The points of ``xs``, read once into a list: ``TypeError`` unless every one lies in
    projective space, not its dual, and ``ValueError`` naming ``what`` when there is none or
    one is not of dimension ``dim``."""
    xs = list(xs)
    if not all(isinstance(x, ProjectivePoint) and not isinstance(x, DualProjectivePoint)
               for x in xs):
        raise TypeError("corrector is evaluated at points of projective space")
    if len(xs) == 0 or any(x.dim != dim for x in xs):
        raise ValueError(f"{what} must be one or more points of dimension {dim}")
    return xs


def _check_psi(psi, dim):
    """Raise ``ValueError`` naming ``psi`` unless its dual cloud has dimension ``dim``."""
    if psi.dual_cloud.dim != dim:
        raise ValueError(f"psi has dimension {psi.dual_cloud.dim}, the measure {dim}")


def psi_eval(psi, x):
    """Exact finite sum ``sum_j w_j log delta(x, y_j)``; always <= 0."""
    _check_lines([x], psi.dual_cloud.dim, "x")
    return float(psi_eval_many(psi, x.rep[None, :])[0])


def psi_eval_many(psi, x_rows):
    """Vectorized corrector evaluation at zero or more unit rows (``linalg.check_unit_rows``).

    The rows are cut into tiles of 64, the one unit of work: the tiles are
    spread over the walk threads, and each pairs its rows with every cloud
    block of 2048 particles in cloud order, adding up the blocks' weighted
    sums as it goes, so the values do not depend on the thread count and a
    worker thread holds one 1 MB pairing buffer whatever the cloud size. A
    one-row tile is paired beside a copy of itself (the rule for a batch of
    one in ``walks``), and the cloud is padded once, before any tile, to whole
    groups of ``_PARTICLE_GROUP`` particles with copies of its first ones, whose
    columns are dropped before the log, so a row alone reads the value it reads
    in a batch (README: a BLAS limit).  Its blocks are slices of that array.
    """
    cloud = psi.dual_cloud
    x_rows = check_unit_rows(x_rows, cloud.dim, "x_rows")
    grouped = _whole_groups(cloud.reps)
    blocks = [(clo, grouped[clo:clo + _EVAL_CHUNK], cloud.weights[clo:clo + _EVAL_CHUNK])
              for clo in range(0, cloud.size, _EVAL_CHUNK)]
    per_thread = threading.local()   # one pairing buffer per worker thread

    def tile_sum(a):
        rows = x_rows[a:a + _EVAL_ROWS]
        tile = walks._paired(rows, 0)
        if not hasattr(per_thread, "buf"):
            per_thread.buf = np.empty(min(max(len(x_rows), 2), _EVAL_ROWS) * len(blocks[0][1]))
        total = np.zeros(len(tile))
        for clo, reps, weights in blocks:
            padded = per_thread.buf[:len(tile) * len(reps)].reshape(len(tile), len(reps))
            least = _pairings(reps, tile, out=padded)[1]
            vals = padded[:, :len(weights)]   # the copies' columns are dropped before the log
            if least <= DELTA_FLOOR:
                i, j = np.argwhere(vals <= DELTA_FLOOR)[0]
                raise SingularEvaluationError(
                    f"evaluation point {a + i} is orthogonal to cloud atom {clo + j}",
                    atom_index=int(clo + j),
                )
            np.log(vals, out=vals)
            # einsum, not BLAS: weighted sums over the cloud do not depend on BLAS threads
            total += np.einsum("ij,j->i", vals, weights)
        return total[:len(rows)]

    # serial or threaded, _run_blocks raises the first failure in task order
    tiles = walks._run_blocks(tile_sum, [(a,) for a in range(0, len(x_rows), _EVAL_ROWS)])
    return np.concatenate([np.zeros(0)] + tiles)


def markov_apply(mu, f, x):
    """One averaging step: ``sum_i w_i f(g_i x)`` (exact finite sum)."""
    return float(sum(w * f(act(a, x)) for a, w in zip(mu.atoms, mu.weights)))


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class ResidualReport:
    residuals: np.ndarray
    mean_abs: float
    max_abs: float


def cohomological_residual(mu, psi, lambda1, xs):
    """Pointwise defect of the corrector equation.

    For each test point: ``r(x) = drift(x) - psi(x) + (P psi)(x) - lambda1``.
    With the exact stationary dual measure this vanishes identically; with an
    empirical cloud it shrinks as the cloud grows.  ``ValueError`` when ``xs`` is
    empty or ``xs`` or ``psi`` is not of the dimension of ``mu``.
    """
    xs = _check_lines(xs, mu.dim, "xs")
    _check_psi(psi, mu.dim)
    x_rows = np.stack([x.rep for x in xs])
    log_norms, images = walks.atom_images(mu.atoms, x_rows)
    points = np.concatenate([x_rows[None], images])   # x, then every a x
    psi_at = psi_eval_many(psi, points.reshape(-1, mu.dim)).reshape(points.shape[:2])
    res = (walks.atom_average(mu.weights, log_norms) - psi_at[0]
           + walks.atom_average(mu.weights, psi_at[1:]) - lambda1)
    return ResidualReport(
        residuals=res,
        mean_abs=float(np.abs(res).mean()),
        max_abs=float(np.abs(res).max()),
    )


def log_regularity_integral(nu, y, p):
    """``sum_i w_i |log delta(x_i, y)|^(p-1)``; ``inf`` when an atom sits on y.

    Finiteness of this integral (uniformly in ``y``) is the regularity the
    corrector construction rests on; ``inf`` is a value here, not an error.
    An order above ``MAX_ORDER`` could overflow a finite term, and is refused.
    """
    if not 1.0 < p <= MAX_ORDER:
        raise ValueError(f"order p must lie in (1, {MAX_ORDER:g}]")
    if nu.dual or not isinstance(y, DualProjectivePoint):
        raise TypeError("expected a primal cloud and a dual test point")
    if y.dim != nu.dim:
        raise ValueError(f"y has dimension {y.dim}, the cloud nu {nu.dim}")
    vals, least = _pairings(nu.reps, y.rep[None, :])
    if least <= DELTA_FLOOR:
        return inf
    return float(np.einsum("i,i->", np.abs(np.log(vals[0])) ** (p - 1.0), nu.weights))
