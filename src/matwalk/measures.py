"""Finitely supported driving measures and i.i.d. word sampling.

A measure is a list of invertible atoms with positive weights summing to one.
Finite support keeps every moment finite and makes drift and averaging
operators exact finite sums.  Word sampling is reproducible bit for bit:
a sampler is a value ``(measure, master_seed, stream_index)`` and the word it
produces is a pure function of that value and the length.
"""

from dataclasses import dataclass

import numpy as np

from . import rng, walks
from .errors import SingularMatrixError
from .linalg import check_group_element

EIG_GAP_TOL = 1e-6       # relative modulus gap certifying a dominant eigenvalue
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorMeasure:
    """Finitely supported probability measure on the invertible matrices."""

    atoms: np.ndarray    # shape (A, d, d)
    weights: np.ndarray  # shape (A,), positive, sums to 1

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 3 or atoms.shape[1] != atoms.shape[2]:
            raise ValueError(f"atoms must have shape (A, d, d), got {atoms.shape}")
        if weights.shape != (atoms.shape[0],):
            raise ValueError("one weight per atom required")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        singular = []
        for i, a in enumerate(atoms):
            try:
                check_group_element(a)
            except SingularMatrixError as exc:
                singular.append(f"atom {i}: {exc}")
            except ValueError as exc:
                raise ValueError(f"atom {i}: {exc}") from exc
        if singular:  # name every singular atom at once
            raise SingularMatrixError("; ".join(singular))
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_atoms(cls, mats, weights=None):
        """Build a measure, defaulting to equal weights, renormalizing the sum."""
        mats = np.asarray(mats, dtype=float)
        if weights is None:
            weights = np.full(len(mats), 1.0 / len(mats))
        weights = np.asarray(weights, dtype=float)
        return cls(mats, weights / weights.sum())

    @property
    def dim(self):
        return self.atoms.shape[1]

    @property
    def n_atoms(self):
        return self.atoms.shape[0]


def big_n(g):
    """Size gauge ``max(|g|, |g^{-1}|)`` in operator norm; always >= 1."""
    g = np.asarray(g, dtype=float)
    s = np.linalg.svd(g, compute_uv=False)
    if s[-1] <= 0.0:
        raise SingularMatrixError("size gauge undefined for singular matrices")
    return float(max(s[0], 1.0 / s[-1]))


@dataclass(frozen=True)
class MomentReport:
    p: float
    value: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("moment cannot be negative")


def moment(mu, p):
    """Exact p-th moment of the size gauge: sum of w_i (log N(g_i))^p."""
    if p < 1.0:
        raise ValueError("moment order must be >= 1")
    logs = np.array([np.log(big_n(a)) for a in mu.atoms])
    return MomentReport(p=p, value=float(np.dot(mu.weights, logs**p)))


def check_mu(mu):
    """Image of the measure under matrix inversion, with the same weights."""
    inverses = np.array([np.linalg.inv(a) for a in mu.atoms])
    return GeneratorMeasure(inverses, mu.weights.copy())


@dataclass(frozen=True)
class WordSample:
    """A sampled word and its left product ``b_n ... b_1`` in scaled form:
    ``matrix`` has operator norm 1 and ``log_scale`` is the log operator norm
    of the product."""

    indices: np.ndarray
    matrix: np.ndarray
    log_scale: float = 0.0

    @property
    def product(self):
        """The raw product; unavailable when the scale would overflow."""
        if abs(self.log_scale) > 700.0:
            raise OverflowError("product magnitude exceeds double range; use (matrix, log_scale)")
        return self.matrix * np.exp(self.log_scale)


@dataclass(frozen=True)
class WalkSampler:
    """Deterministic word source: replica ``stream_index`` of an experiment."""

    measure: GeneratorMeasure
    master_seed: int
    stream_index: int = 0

    def word(self, n):
        """First ``n`` atom indices of this stream (prefix-stable in n)."""
        if n < 0:
            raise ValueError("word length must be nonnegative")
        return rng.replica_words(self.master_seed, rng.TAG_SAMPLER, 1, n, self.measure.weights,
                                 first_replica=self.stream_index)[0]


def sample_word(sampler, n):
    """Sample ``n`` i.i.d. letters and their left product ``b_n ... b_1``.

    The product comes from the letter-table engine of ``walks`` in scaled
    form, so words of any length are safe; ``n = 0`` gives the identity.
    """
    indices = sampler.word(n)
    d = sampler.measure.dim
    if n == 0:
        return WordSample(indices=indices, matrix=np.eye(d))
    table = walks._LetterTable(sampler.measure.atoms)
    logs, state = table.walk(indices[None], np.eye(d)[None], [n])
    matrix = state[0] / np.linalg.norm(state[0], 2)
    return WordSample(indices=indices, matrix=matrix, log_scale=float(logs[0, 0]))


def _has_dominant_simple_eigenvalue(mat):
    moduli = np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]
    if moduli[0] <= 0.0:
        return False
    return (moduli[0] - moduli[1]) / moduli[0] > EIG_GAP_TOL


def proximality_certificate(mu, max_len=6):
    """Search short words for one whose product has a dominant simple eigenvalue.

    Breadth first over word length, lexicographic within a length; the word is
    returned as the list of successive letter indices (first letter applied
    first).  ``None`` means no certificate up to ``max_len`` and is
    inconclusive, not a refutation.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    d = mu.dim
    frontier = [((), np.eye(d))]
    for _ in range(max_len):
        new_frontier = []
        for word, prod in frontier:
            for i, atom in enumerate(mu.atoms):
                # letter appended to the walk acts on the left
                nxt = (word + (i,), atom @ prod)
                if _has_dominant_simple_eigenvalue(nxt[1]):
                    return list(nxt[0])
                new_frontier.append(nxt)
        frontier = new_frontier
    return None


# --- measure catalogue used by the bundled scenarios and the test suite ---

def free_semigroup_pair():
    """Two unipotent shears generating a free semigroup of positive matrices.

    Proximal (a length-2 word already has a dominant simple eigenvalue) and
    strongly irreducible; the workhorse planar example.
    """
    return GeneratorMeasure.from_atoms([
        [[1.0, 1.0], [0.0, 1.0]],
        [[1.0, 0.0], [1.0, 1.0]],
    ])


def rotating_diagonal_measure(x=1.0):
    """Quarter-turn/diagonal mixture whose products stay rotation-diagonal.

    Atoms are ``r^e * diag(exp(s), exp(-s))`` with ``e`` in {0, 1} and
    ``s = +-x`` all equiprobable, ``r`` the rotation by a quarter turn.  The
    action is irreducible but preserves the pair of coordinate axes, so it is
    not strongly irreducible: the top exponent vanishes and the normalized
    log norm converges to a folded (not a plain) Gaussian law.
    """
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    diag_plus = np.diag([np.exp(x), np.exp(-x)])
    diag_minus = np.diag([np.exp(-x), np.exp(x)])
    atoms = [diag_plus, diag_minus, rot @ diag_plus, rot @ diag_minus]
    return GeneratorMeasure.from_atoms(atoms)


def scalar_exponential_pair():
    """Dimension-one walk with atoms exp(+-1): the classical +-1 random walk."""
    return GeneratorMeasure.from_atoms([[[np.e]], [[1.0 / np.e]]])


def shear_pair_sl3():
    """A generic-looking pair of unimodular 3x3 shears with simple spectrum."""
    upper = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0],
    ])
    return GeneratorMeasure.from_atoms([upper, upper.T])
