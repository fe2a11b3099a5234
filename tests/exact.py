"""Exact products of integer atoms: the oracle for the float walk engines.

Integer matrices multiply exactly in Python ints.  A float start vector is an
exact dyadic rational, so it is taken as ints times a power of two.  A log norm
is read from the correctly rounded quotient of the exact squared norms at the mark
and at the start, a rounding or two of the value; a log operator norm is read from
one float SVD of the exact product scaled by a power of two.  The images of
one letter are read in 40-digit decimals.
"""

import decimal
import math
from fractions import Fraction

import numpy as np

# log 2 as a high part with 32 trailing zero bits and a low part (fdlibm's split), so
# that k * LN2_HI is exact and k log 2 is read to double precision for any shift k
LN2_HI, LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
EPS = np.finfo(float).eps


def integer_atoms(atoms):
    """``atoms`` as lists of Python int rows; refuses an entry that is not an integer."""
    atoms = np.asarray(atoms, dtype=float)
    if not np.array_equal(atoms, np.round(atoms)):
        raise ValueError("exact products need integer atoms")
    return [[[int(x) for x in row] for row in atom] for atom in atoms]


def log_ratio(a, b):
    """``log(a / b)`` of two positive ints, from Python's correctly rounded quotient; when
    the quotient leaves the range of normal doubles, from that of ``a`` and ``b`` shifted
    to a quotient near 1, plus the shift times ``log 2``."""
    shift = a.bit_length() - b.bit_length()
    if abs(shift) < 1000:
        return math.log(a / b)
    a, b = (a, b << shift) if shift > 0 else (a << -shift, b)
    return shift * LN2_HI + (math.log(a / b) + shift * LN2_LO)


def log_int(n):
    """``log n`` of a positive int."""
    return log_ratio(n, 1)


def _dyadic(row):
    """A float row as ints ``v`` and a power of two ``scale``: ``row = v / scale``."""
    scale = max(Fraction(float(x)).denominator for x in row)
    return [int(Fraction(float(x)) * scale) for x in row], scale


def _times(atom, v):
    return [sum(a * x for a, x in zip(row, v)) for row in atom]


def vector_logs(atoms, word, start, marks):
    """``log |b_k ... b_1 x| - log |x|`` at every step count ``k`` of ``marks``,
    for the letters ``word`` and a float start row ``x``."""
    atoms = integer_atoms(atoms)
    v, _ = _dyadic(start)
    base, out, marks = sum(x * x for x in v), [], set(marks)
    for k, letter in enumerate(word, 1):
        v = _times(atoms[letter], v)
        if k in marks:
            out.append(log_ratio(sum(x * x for x in v), base) / 2)
    return np.array(out)


def images(atoms, x):
    """``log |a x|`` and the unit row ``a x / |a x|`` for every atom ``a`` and a float
    row ``x``, read from the exact image in 40 digits and rounded once to floats."""
    v, scale = _dyadic(x)
    logs, units = [], []
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for atom in integer_atoms(atoms):
            image = _times(atom, v)
            norm = decimal.Decimal(sum(y * y for y in image)).sqrt()
            logs.append(float((norm / scale).ln()))
            units.append([float(decimal.Decimal(y) / norm) for y in image])
    return np.array(logs), np.array(units)


def operator_log_norm(matrix):
    """``log`` of the top singular value of an int matrix: one float SVD of the
    matrix scaled by ``2^-shift`` so that its largest entry keeps 60 bits."""
    shift = max(0, max(abs(x).bit_length() for row in matrix for x in row) - 60)
    scaled = np.array([[float(x >> shift) for x in row] for row in matrix])
    return shift * LN2_HI + (math.log(np.linalg.svd(scaled, compute_uv=False)[0])
                             + shift * LN2_LO)


def matrix_logs(atoms, word, marks):
    """``log |b_k ... b_1|`` (operator norm) at every step count ``k`` of ``marks``."""
    atoms = integer_atoms(atoms)
    product = [[int(i == j) for j in range(len(atoms[0]))] for i in range(len(atoms[0]))]
    out, marks = [], set(marks)
    for k, letter in enumerate(word, 1):
        columns = [_times(atoms[letter], column) for column in zip(*product)]
        product = [list(row) for row in zip(*columns)]
        if k in marks:
            out.append(operator_log_norm(product))
    return np.array(out)


def budget(n, values):
    """The error a walk of ``n`` letters may carry: ``n eps max(1, max |value|)``."""
    return n * EPS * max(1.0, float(np.max(np.abs(values))))
