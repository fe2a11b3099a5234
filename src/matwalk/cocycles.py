"""Cocycles over projective space and the unimodular projection maps.

The scalar norm cocycle is ``sigma(g, x) = log |g v|`` for a unit vector ``v``
spanning ``x``; it adds along products, ``sigma(g h, x) = sigma(g, h x) +
sigma(h, x)``, which is what lets long walks accumulate it one step at a time
without ever forming the product matrix.  On dual points the same formula is
applied to the contragredient action ``f -> f o g^{-1}``.

For unimodular matrices three vector-valued projections are provided: the
sorted log singular values, the log diagonal of the orthogonal-triangular
factorization against a flag, and the sorted log eigenvalue moduli.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotUnimodularError
from .linalg import DualProjectivePoint, ProjectivePoint, atom_growth, check_group_element

DET_TOL = 1e-8          # |det - 1| accepted (input is then rescaled to det 1)
FLAG_ORTHO_TOL = 1e-10


def norm_cocycle(g, x):
    """Log stretch of the unit representative of ``x`` under ``g``.

    Accepts a line or a dual point; dual points move by ``f -> f o g^{-1}``.
    """
    g = check_group_element(g)
    if isinstance(x, DualProjectivePoint):
        return float(np.log(np.linalg.norm(np.linalg.solve(g.T, x.rep))))
    return float(np.log(np.linalg.norm(g @ x.rep)))


def sup_norm(g):
    """Largest absolute cocycle value over all points: ``log max(|g|, |g^-1|)``.

    The cocycle ranges over ``[-log|g^{-1}|, log|g|]``, so the sup of its
    absolute value is the log of the size gauge: the growth
    ``max(|log s_max|, |log s_min|)`` of ``linalg.atom_growth``.
    """
    return atom_growth(check_group_element(g))


def drift(mu, x):
    """Expected one-step increase of the cocycle at ``x``: an exact finite sum."""
    return float(sum(w * norm_cocycle(a, x) for a, w in zip(mu.atoms, mu.weights)))


def multinorm_cocycle(gs, xs):
    """Coordinatewise norm cocycle for a tuple of elements and points."""
    if len(gs) != len(xs):
        raise ValueError(f"got {len(gs)} matrices but {len(xs)} points")
    return np.array([norm_cocycle(g, x) for g, x in zip(gs, xs)])


def check_determinant(g):
    """``det g`` of a square matrix; NotUnimodularError unless ``|det g - 1| <= DET_TOL``.

    ``det g`` is formed only once ``log |det g|`` (``slogdet``, which cannot
    overflow) is below 1: a determinant past the float range is named by its log.
    """
    sign, log_abs = np.linalg.slogdet(g)
    if not abs(log_abs) < 1.0:
        raise NotUnimodularError(f"determinant {sign:g} x e^{log_abs:.6g} is not 1 within "
                                 f"{DET_TOL}")
    det = float(np.linalg.det(g))
    if abs(det - 1.0) > DET_TOL:
        raise NotUnimodularError(f"determinant {det!r} is not 1 within {DET_TOL}")
    return det


def ensure_unimodular(g):
    """Validate ``|det g - 1| <= DET_TOL`` and rescale to determinant exactly 1."""
    g = check_group_element(g)
    return g / check_determinant(g) ** (1.0 / g.shape[0])


def cartan_projection(g):
    """Sorted log singular values; the coordinates sum to zero."""
    g = ensure_unimodular(g)
    s = np.linalg.svd(g, compute_uv=False)
    return np.log(s)


def cartan_partial_sums(g):
    """Cumulative sums of the projection: entry i is ``log`` of the norm of
    the induced action on the (i+1)-th exterior power."""
    return np.cumsum(cartan_projection(g))


def jordan_projection(g):
    """Sorted log eigenvalue moduli: the per-power growth rate of the
    singular-value projection along ``g, g^2, g^3, ...``"""
    g = ensure_unimodular(g)
    moduli = np.sort(np.abs(np.linalg.eigvals(g)))[::-1]
    return np.log(moduli)


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class FlagPoint:
    """A complete flag, encoded by an orthogonal matrix whose leading columns
    span the nested subspaces."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError("flag basis must be a square matrix")
        err = np.abs(basis.T @ basis - np.eye(basis.shape[0])).max()
        if err > FLAG_ORTHO_TOL:
            raise ValueError(f"flag basis is not orthogonal (deviation {err:.2e})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def standard(cls, dim):
        return cls(np.eye(dim))

    @property
    def dim(self):
        return self.basis.shape[0]

    def line(self):
        """The one-dimensional piece of the flag."""
        return ProjectivePoint(self.basis[:, 0])


def _positive_qr(m):
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs[None, :], r * signs[:, None]


def iwasawa_cocycle(g, x):
    """Log diagonal of the triangular factor of ``g k`` for the flag ``x = kP``.

    Coordinate ``i`` is the log norm of the map induced by ``g`` between the
    successive quotient lines of the flag; the coordinates sum to zero for
    unimodular ``g`` and add along products when the flag is moved too.
    """
    g = ensure_unimodular(g)
    if g.shape[0] != x.dim:
        raise DimensionError("element and flag dimensions differ")
    _, r = _positive_qr(g @ x.basis)
    return np.log(np.diag(r))


def flag_apply(g, x):
    """Image flag: the orthogonal factor of ``g k``."""
    g = ensure_unimodular(g)
    q, _ = _positive_qr(g @ x.basis)
    return FlagPoint(q)
