"""Deterministic dense linear algebra for the matrix-walk laboratory.

Group elements are plain float64 arrays validated by :func:`check_group_element`.
Points of projective space and of its dual are stored as canonical unit
representatives: Euclidean norm one, first coordinate above the zero threshold
made positive.  With that convention equality and hashing of points are exact
byte comparisons.  This module owns that sign rule: points, rows of point
clouds (``canonicalize_rows``) and the columns of ``k`` in a Cartan triple all
apply it through one helper.  It owns the normalisation too: a caller-given
direction (a point, a trajectory or martingale start) becomes its unit row
through ``_canonical_unit``, which refuses a zero or non-finite vector by a
``ValueError`` naming the argument.  Every such vector and every cloud row is
first scaled by an exact power of two (``_prescaled``), so no square overflows
or underflows, and a row whose squares are normal numbers keeps the plain
quotient's bytes.

The field is the reals with Euclidean norms throughout; configurations asking
for anything else are rejected at load time.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import DegenerateGapError, DimensionError, SingularMatrixError

SINGULAR_TOL = 1e-12   # relative: smallest singular value vs operator norm
GAP_TOL = 1e-9         # first_gap above 1 - GAP_TOL means no density point
CANONICAL_ZERO = 1e-12  # coordinate threshold for the canonical sign rule
UNIT_ROUNDING = 1e-9   # a unit row's norm may differ from 1 by this much
_MINOR_ENTRIES = 1 << 24  # gathered minor entries per determinant call (128 MB), or one matrix's


def check_group_element(g):
    """Validate a square matrix as an invertible group element.

    Returns a float64 copy.  Raises ``SingularMatrixError`` when the smallest
    singular value is below ``SINGULAR_TOL`` times the largest, and
    ``ValueError`` on non-square or non-finite input, or when the largest
    singular value overflows the float range.
    """
    g = np.array(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    s = np.linalg.svd(g, compute_uv=False)
    if not np.isfinite(s[0]):
        raise ValueError("the largest singular value overflows the float range")
    if s[0] == 0.0 or s[-1] <= SINGULAR_TOL * s[0]:
        ratio = s[-1] / s[0] if s[0] > 0.0 else 0.0
        raise SingularMatrixError(
            f"matrix is numerically singular (sigma_min/sigma_max = {ratio:.3e})"
        )
    return g


def check_unit_rows(rows, dim, what, count=None):
    """A stack of points as a float64 ``(N, dim)`` array, ``N == count`` when given, or with a
    count one row ``(dim,)`` for a start shared by all, checked and returned as a one-row stack:
    one ``ValueError`` naming ``what`` unless every row has norm 1 within ``UNIT_ROUNDING``,
    which a non-finite entry has not (walk and scan starts, cloud particles, psi rows), or for
    entries that do not form a float array.  Entries are bounded before they are squared, so a
    huge one is refused, not overflowed."""
    want = f"{what} must be finite unit rows of shape ({'N' if count is None else count}, {dim})"
    try:
        rows = np.asarray(rows, dtype=float)
    except ValueError:   # a ragged stack, or an entry that is no number
        raise ValueError(f"{want}, got entries that do not form a float array") from None
    shape = rows.shape
    if count is not None and rows.ndim == 1:
        rows, count = rows[None], 1
    if rows.ndim != 2 or rows.shape[1] != dim or count not in (None, len(rows)) or not (
            np.abs(rows) <= 2.0).all() or not (
            abs(np.linalg.norm(rows, axis=1) - 1.0) <= UNIT_ROUNDING).all():
        raise ValueError(f"{want}, got shape {shape}")
    return rows


def _canonical_signs(rows):
    """The canonical sign rule: per row of ``rows`` ``(N, d)``, -1 when its first
    entry above ``CANONICAL_ZERO`` in absolute value is negative, else +1."""
    above = np.abs(rows) > CANONICAL_ZERO
    lead = rows[np.arange(len(rows)), np.argmax(above, axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)


def _prescaled(v):
    """``v`` with each row (its last axis) scaled by the exact power of two that takes its
    largest entry into [1/2, 1): no square overflows, a tiny row keeps its direction, and
    the row's unit row is unchanged where no square is subnormal."""
    # each row's largest entry, column by column: numpy's max along a short axis is slow
    return np.ldexp(v, -np.frexp(reduce(np.maximum, np.abs(v).T, 0.0))[1][..., None])


def canonicalize_rows(v):
    """Unit-normalize rows, each ``_prescaled`` first, and apply the canonical sign rule to each."""
    v = _prescaled(np.asarray(v, dtype=float))
    v = v / np.linalg.norm(v, axis=1)[:, None]
    return v * _canonical_signs(v)[:, None] + 0.0  # clear any -0.0


def _canonical_unit(v, what="representative", dim=None):
    """The one normaliser of a single direction: ``v`` as its read-only canonical unit row,
    or a ``ValueError`` naming ``what`` unless it is a nonzero finite vector, of ``dim``
    entries when given (points, trajectory and walk-induced martingale starts)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or dim not in (None, v.size):
        raise ValueError(f"{what} must be a vector" + (f" of dimension {dim}" if dim else ""))
    v = _prescaled(v)
    norm = np.linalg.norm(v)
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError(f"{what} must be a nonzero finite vector")
    v = v / norm
    v = v * _canonical_signs(v[None])[0] + 0.0  # no -0.0: equal rays hash equally
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A line in R^d, stored as its canonical unit representative."""

    rep: np.ndarray

    def __init__(self, rep):
        object.__setattr__(self, "rep", _canonical_unit(rep))

    @property
    def dim(self):
        return self.rep.shape[0]

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.rep.shape == other.rep.shape
            and self.rep.tobytes() == other.rep.tobytes()
        )

    def __hash__(self):
        return hash((type(self).__name__, self.rep.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}({np.array2string(self.rep, precision=6)})"


class DualProjectivePoint(ProjectivePoint):
    """A hyperplane in R^d, stored via the canonical unit covector killing it."""


def act(g, point):
    """Projective action of a group element on a point.

    On lines this is ``v -> g v``; on dual points it is the contragredient
    ``f -> f o g^{-1}``, so the pairing ``delta`` transforms consistently.
    """
    g = np.asarray(g, dtype=float)
    if isinstance(point, DualProjectivePoint):
        w = np.linalg.solve(g.T, point.rep)
        return DualProjectivePoint(w)
    if isinstance(point, ProjectivePoint):
        return ProjectivePoint(g @ point.rep)
    raise TypeError(f"cannot act on {type(point).__name__}")


def operator_norm(g):
    """Largest singular value."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(g, compute_uv=False)[0])


def exterior_power(g, r):
    """Matrix of the induced action on the r-th exterior power, for one matrix
    ``(d, d)`` or a stack ``(..., d, d)``.

    Basis: ``e_{i1} ^ ... ^ e_{ir}`` with ``i1 < ... < ir`` in lexicographic
    order, which is orthonormal for the induced inner product.  Entries are
    the r x r minors of ``g``, from one batched determinant over the gathered
    blocks of as many matrices as ``_MINOR_ENTRIES`` holds; ``r = 1`` is a
    copy, as a 1 x 1 determinant turns ``-0.0`` into ``0.0``.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    if not 1 <= r <= d:
        raise DimensionError(f"exterior power {r} undefined for dimension {d}")
    if r == 1:
        return g.copy()
    idx = np.array(list(combinations(range(d), r)))
    flat = g.reshape(-1, d, d)
    per = max(1, _MINOR_ENTRIES // (len(idx) * r) ** 2)
    # block (a, b) of a matrix holds its rows idx[a] and columns idx[b]
    minors = [np.linalg.det(flat[i:i + per][:, idx[:, None, :, None], idx[None, :, None, :]])
              for i in range(0, len(flat), per)]
    return np.concatenate(minors).reshape(g.shape[:-2] + minors[0].shape[1:])


def exterior_square(g):
    """Induced action on wedge-squares; requires dimension at least 2."""
    return exterior_power(g, 2)


def atom_growth(atoms, r=1):
    """How far one letter of an atom moves a log norm on its ``r``-th exterior power.

    ``atoms`` is one matrix (a float is returned) or a stack ``(..., d, d)``
    (an array), read by one batched SVD.  The growth is ``max(|sum of the top r
    log singular values|, |sum of the bottom r|)``, for ``r = 1`` the atom's own
    ``max(|log s_max|, |log s_min|)``.  A walk refuses an atom whose growth on
    the walk it runs is above ``walks.MAX_ATOM_GROWTH``.
    """
    logs = np.log(np.linalg.svd(np.asarray(atoms, dtype=float), compute_uv=False))
    growth = np.maximum(np.abs(logs[..., :r].sum(-1)), np.abs(logs[..., -r:].sum(-1)))
    return float(growth) if growth.ndim == 0 else growth


def wedge_norm(v, w):
    """Euclidean norm of ``v ^ w`` (unnormalized representatives)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    outer = np.outer(v, w)
    return float(np.linalg.norm(outer - outer.T) / np.sqrt(2.0))


def proj_distance(x, x2):
    """Distance between two lines: ``|v ^ v'|`` on unit representatives."""
    if x.dim != x2.dim:
        raise DimensionError("points live in different dimensions")
    return min(1.0, wedge_norm(x.rep, x2.rep))


def delta(x, y):
    """Pairing ``|f(v)|`` on unit representatives.

    Vanishes exactly when the line ``x`` lies inside the hyperplane ``y``;
    equals the distance from ``x`` to that hyperplane.
    """
    if not isinstance(y, DualProjectivePoint) or isinstance(x, DualProjectivePoint):
        raise TypeError("delta pairs a ProjectivePoint with a DualProjectivePoint")
    if x.dim != y.dim:
        raise DimensionError("point and covector live in different dimensions")
    return min(1.0, abs(float(np.dot(x.rep, y.rep))))


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class CartanTriple:
    """Decomposition ``g = k diag(a) l`` with orthogonal ``k``, ``l``.

    Singular values ``a`` are sorted nonincreasing; the sign ambiguity is
    resolved by making the first above-threshold entry of each column of
    ``k`` positive, so the triple is a deterministic function of ``g``.
    """

    k: np.ndarray
    a: np.ndarray
    l: np.ndarray

    def matrix(self):
        return self.k @ np.diag(self.a) @ self.l


def cartan(g):
    """Singular value decomposition as a deterministic Cartan triple."""
    g = check_group_element(g)
    u, s, vh = np.linalg.svd(g)
    signs = _canonical_signs(u.T)
    u, vh = u * signs, vh * signs[:, None]
    for arr in (u, s, vh):
        arr.setflags(write=False)
    return CartanTriple(k=u, a=s, l=vh)


def first_gap(g):
    """Ratio of the second to the first singular value, in (0, 1]."""
    g = check_group_element(g)
    if g.shape[0] < 2:
        raise DimensionError("first gap needs dimension >= 2")
    s = np.linalg.svd(g, compute_uv=False)
    return float(s[1] / s[0])


def density_points(g):
    """Attracting direction of ``g`` and repelling hyperplane of its transpose.

    Reads the top left/right singular directions off the Cartan triple.
    Raises ``DegenerateGapError`` when the top singular value is not
    sufficiently separated for the directions to be well defined.
    """
    gap = first_gap(g)
    if gap > 1.0 - GAP_TOL:
        raise DegenerateGapError(
            f"first gap {gap} too close to 1; no dominant singular direction"
        )
    triple = cartan(g)
    x_att = ProjectivePoint(triple.k[:, 0])
    y_rep = DualProjectivePoint(triple.l[0, :])
    return x_att, y_rep
