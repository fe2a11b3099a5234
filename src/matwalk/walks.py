"""Vectorized random-walk engines over letter tables and chunked prefix products.

Long products are never multiplied out.  Replica walks step through a
*letter table*: the products of ``L`` consecutive atoms, one row per word of
``L`` letters, so a single gather and a single batched product advance every
replica by ``L`` letters.  ``L`` is the largest value with ``A^L <= 256`` for
``A`` atoms and ``L <= rescale_interval(atoms)``, so a table row never holds
a product of more letters than a scaled state may absorb.  States are
rescaled at least every ``rescale_interval`` letters (Benettin, Galgani,
Giorgilli and Strelcyn, Meccanica 15, 1980); scalar cocycle values add up
the logs of the scales, and log operator norms of products are read off
scaled matrix states.  Entries of a scaled state stay far from overflow, so
walks of any length are safe.

A single trajectory is read at every step from chunked prefix products: the
word is cut into chunks of ``rescale_interval`` letters, the running product
inside every chunk is formed for all chunks at once, one sequential pass
carries the unit vector from chunk head to chunk head, and one batched
product gives the cocycle value after every letter (a blocked prefix scan,
Blelloch, "Prefix sums and their applications", 1990).  For one row the
head pass runs in Python floats (``_one_row_heads``), in the order of the
einsums it replaces, and is checked bitwise against the many-row pass.

States and letter tables are *entry-major*, replicas last: vectors ``(d, N)``,
matrices ``(d, d, N)``.  Every batched product is then ``d`` entry-wise
multiply-adds over contiguous length-``N`` arrays (``_product``), never a
BLAS call, which would run one tiny gemm per replica.  The layout stays
inside this module: every function other modules call takes and returns
points as replica rows ``(N, d)``.

The average over atoms ``sum_a w_a f(a x)`` behind the drift, the corrector
equation and the corrected variance takes its images from ``atom_images``
and adds them up in atom order in ``atom_average``.

``measures.sample_word`` reads its scaled product off the same letter
table.  Every word comes from ``rng.replica_words``: replica ``r`` reads stream
``r``, from letter ``skip`` on, so results are a pure function of
``(measure, seed, tag)`` and a walk can continue where an earlier one
stopped.  Replicas are split into fixed blocks.  Vector-walk blocks run in
order on the calling thread; matrix-walk blocks are spread over a pool of
worker threads, which changes wall time only.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import rng

BLOCK = 4096    # replicas per scheduling block (fixed: part of no contract,
                # results do not depend on it, only wall time does)
_TABLE_ROWS = 256        # letter-table size bound: codes stay small integers
_SCAN_PRODUCTS = 1 << 18  # letter-replica products a chunked scan holds at once
_HEAD_BLOCK = 512         # chunk ends a one-row head pass holds as Python floats at once
_THREADS = 1
# below log(DBL_MAX) / 2 ~ 354.9, past which one letter overflows a unit state's squared norm
MAX_ATOM_GROWTH = 350.0


def set_thread_count(k):
    """Worker threads for matrix-walk and psi blocks; affects wall time only."""
    global _THREADS
    _THREADS = max(1, int(k))


def _blocks(total):
    return [(start, min(BLOCK, total - start)) for start in range(0, total, BLOCK)]


def _run_blocks(fn, blocks):
    if _THREADS <= 1 or len(blocks) <= 1:
        return [fn(*b) for b in blocks]
    with ThreadPoolExecutor(max_workers=_THREADS) as pool:
        return list(pool.map(lambda b: fn(*b), blocks))


def rescale_interval(atoms):
    """Steps between rescalings so scaled entries stay far from overflow.

    Raises ``ValueError`` for an atom whose growth ``max(|log s_max|, |log s_min|)``
    is above ``MAX_ATOM_GROWTH``: one letter would take a unit state out of range.
    """
    growth = 0.0
    for i, a in enumerate(atoms):
        s = np.linalg.svd(a, compute_uv=False)
        g = max(abs(np.log(s[0])), abs(np.log(s[-1])))
        if g > MAX_ATOM_GROWTH:
            raise ValueError(f"atom {i} has growth max(|log s_max|, |log s_min|) = {g:.1f}, "
                             f"above {MAX_ATOM_GROWTH:g}: a scaled state would overflow")
        growth = max(growth, g)
    if growth <= 0.0:
        return 64
    return int(np.clip(300.0 / growth, 1, 64))


def letters_per_step(n_atoms, interval):
    """Letters per table step: the largest ``L <= interval`` with ``A^L <= 256``."""
    letters = 1
    while letters < interval and n_atoms ** (letters + 1) <= _TABLE_ROWS:
        letters += 1
    return letters


def _checkpoint_array(checkpoints, n):
    if checkpoints is None:
        return None
    cps = np.asarray(checkpoints, dtype=int)
    if cps.ndim != 1 or len(cps) == 0 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError("checkpoints must lie in [1, n]")
    return cps


def _marks(cps, n):
    """Step counts at which a walk is read: the checkpoints, then ``n``."""
    if n < 1:
        raise ValueError("a walk needs n >= 1 steps")
    if cps is None:
        return [n]
    return [int(c) for c in cps] + ([n] if cps[-1] < n else [])


def _entry_major(stack):
    """``(N, ...)`` stack -> contiguous ``(..., N)`` copy."""
    return np.moveaxis(stack, 0, -1).copy()


def _norms(state):
    """Euclidean (Frobenius) norm of every replica of an entry-major state."""
    flat = state.reshape(-1, state.shape[-1])
    return np.sqrt(np.einsum("in,in->n", flat, flat))


def _product(left, right, out):
    """The step kernel: ``left @ right`` for every replica, written to ``out``.

    ``left`` is ``(..., d, d, N)``; ``right`` holds vectors ``(..., d, N)``
    when it has one axis fewer, else matrices ``(..., d, d, N)``.  numpy's own
    einsum loop adds up ``left[i, j] * right[j]`` in ``j`` order; it calls no BLAS.
    """
    if right.ndim == left.ndim - 1:
        return np.einsum("...ijn,...jn->...in", left, right, out=out)
    return np.einsum("...ijn,...jkn->...ikn", left, right, out=out)


def atom_images(atoms, x_rows):
    """``log |a x|`` ``(A, N)`` and unit image rows ``a x / |a x|`` ``(A, N, d)`` for
    every atom ``a`` and unit row ``x`` of ``x_rows`` ``(N, d)``, in one product on
    a contiguous entry-major copy, as einsum may round a strided operand differently."""
    units = _entry_major(np.asarray(x_rows, dtype=float))
    moved = _product(np.asarray(atoms, dtype=float)[..., None], units[None],
                     np.empty((len(atoms),) + units.shape))
    norms = np.sqrt(np.einsum("ain,ain->an", moved, moved))
    return np.log(norms), np.moveaxis(moved / norms[:, None], 1, 2)


def atom_average(weights, values):
    """``sum_a weights[a] * values[a]``, added atom by atom in atom order."""
    return sum((w * v for w, v in zip(weights, values)), np.zeros(values.shape[1:]))


class _LetterTable:
    """The step engine of the replica walks for one set of atoms.

    Row ``sum_j l_j A^j`` of ``rows`` holds ``a_{l_(L-1)} ... a_{l_0}`` (letter
    ``l_0`` acts first).  When ``L > 1``, row ``A^L + l`` holds the single atom
    ``a_l``; single letters finish the stretch up to each read-out, so a
    checkpoint reads exactly the product of its own letters.  ``rows`` is
    entry-major, ``(d, d, table rows)``.
    """

    def __init__(self, atoms):
        atoms = np.asarray(atoms, dtype=float)
        self.n_atoms = len(atoms)
        self.dim = atoms.shape[1]
        self.interval = rescale_interval(atoms)
        self.letters = letters_per_step(self.n_atoms, self.interval)
        singles = _entry_major(atoms)
        rows = singles
        for _ in range(1, self.letters):
            # row l R + r is a_l times row r
            left = np.repeat(singles, rows.shape[-1], axis=2)
            rows = _product(left, np.tile(rows, self.n_atoms), np.empty_like(left))
        self.single = rows.shape[-1] if self.letters > 1 else 0
        self.rows = np.concatenate([rows, singles], axis=2) if self.letters > 1 else rows

    def _steps(self, words, marks):
        """Table rows of every step (steps x replicas), and per step whether to
        rescale before it and whether to read after it.

        Up to each mark the walk takes whole table steps, then single letters.
        """
        parts, rescale, read = [], [], []
        since = pos = 0
        for end in marks:
            full, rest = divmod(end - pos, self.letters)
            letters = words[:, pos:end - rest].reshape(len(words), full, self.letters)
            # Horner: codes < A^L <= 256, so no step overflows
            codes = letters[:, :, -1].astype(np.uint16)
            for j in range(self.letters - 2, -1, -1):
                codes *= np.uint16(self.n_atoms)
                codes += letters[:, :, j]
            parts += [codes, words[:, end - rest:end] + np.uint16(self.single)]
            for step in [self.letters] * full + [1] * rest:
                rescale.append(since + step > self.interval)
                since = step if rescale[-1] else since + step
                read.append(False)
            read[-1] = True
            pos = end
        return np.ascontiguousarray(np.concatenate(parts, axis=1).T), rescale, read

    def walk(self, words, state, marks):
        """Push ``state`` (rows ``(count, d)`` or matrices ``(count, m, m)``)
        through the rows of ``words``; log norms at each mark, and the final
        scaled state in the same layout.  Vectors read their Euclidean norm,
        matrices their operator norm.  The steps run on an entry-major copy.
        """
        codes, rescale, read = self._steps(words, marks)
        vector = state.ndim == 2
        state = _entry_major(state)
        spare = np.empty_like(state)
        gathered = np.empty((self.dim, self.dim, state.shape[-1]))
        acc = np.zeros(state.shape[-1])
        logs = []
        for step, code in enumerate(codes):
            if rescale[step]:
                scale = _norms(state)
                acc += np.log(scale)
                state /= scale
            # codes are in range; "wrap" takes numpy's faster gather loop
            self.rows.take(code, axis=2, out=gathered, mode="wrap")
            state, spare = _product(gathered, state, spare), state
            if read[step]:
                top = (_norms(state) if vector else
                       np.linalg.svd(np.moveaxis(state, -1, 0), compute_uv=False)[:, 0])
                logs.append(acc + np.log(top))
        return np.column_stack(logs), np.ascontiguousarray(np.moveaxis(state, -1, 0))


def vector_walk(atoms, weights, start, n, replicas, seed, tag, checkpoints=None, skip=0):
    """Cocycle values ``log |b_n ... b_1 v| / |v|`` for every replica.

    ``start`` is a unit row (shared) or an array of per-replica unit rows.
    The letters are ``skip, ..., skip + n - 1`` of each replica's stream.
    Returns ``(values, final_units)``; with checkpoints, ``values`` has one
    column per checkpoint (the last one need not be ``n``).  Blocks run in
    order on the calling thread: a vector step is too short a numpy call
    for worker threads to gain on it.
    """
    table = _LetterTable(atoms)
    start = np.asarray(start, dtype=float)
    shared_start = start.ndim == 1
    cps = _checkpoint_array(checkpoints, n)
    marks = _marks(cps, n)

    def run_block(first, count):
        words = rng.replica_words(seed, tag, count, n, weights, first_replica=first, skip=skip)
        v = np.tile(start, (count, 1)) if shared_start else start[first:first + count].copy()
        logs, v = table.walk(words, v, marks)
        values = logs[:, 0] if cps is None else logs[:, :len(cps)]
        return values, v / np.linalg.norm(v, axis=1)[:, None]

    parts = [run_block(*b) for b in _blocks(replicas)]
    values = np.concatenate([p[0] for p in parts])
    finals = np.concatenate([p[1] for p in parts])
    return values, finals


def matrix_walk_log_norms(atom_sets, weights, n, replicas, seed, tag, checkpoints=None):
    """Log operator norms of walk products for several induced atom sets.

    ``atom_sets`` maps a label to the (A, m, m) matrices of one induced action
    (identity, wedge square, ...).  All actions consume the same sampled words,
    so e.g. ``log |P|`` and ``log |P^^2|`` refer to the same product ``P``.
    Returns label -> (replicas,) array, or (replicas, n_checkpoints).
    """
    tables = {lab: _LetterTable(atoms) for lab, atoms in atom_sets.items()}
    cps = _checkpoint_array(checkpoints, n)
    marks = _marks(cps, n)

    def run_block(first, count):
        words = rng.replica_words(seed, tag, count, n, weights, first_replica=first)
        out = {}
        for lab, table in tables.items():
            eye = np.tile(np.eye(table.dim), (count, 1, 1))
            logs, _ = table.walk(words, eye, marks)
            out[lab] = logs[:, 0] if cps is None else logs[:, :len(cps)]
        return out

    parts = _run_blocks(run_block, _blocks(replicas))
    return {lab: np.concatenate([p[lab] for p in parts]) for lab in tables}


def cloud_walk(atoms, weights, starts, n, seed, tag, skip=0):
    """Push every start row through letters ``skip, ..., skip + n - 1`` of its
    own stream; returns unit rows."""
    _, finals = vector_walk(atoms, weights, starts, n, len(starts), seed, tag, skip=skip)
    return finals


def _one_row_heads(ends, heads):
    """Fill ``heads`` ``(d, k + 1)``, whose column 0 holds a unit row, with the
    unit rows at the chunk heads of one walk, in Python floats.

    ``ends`` ``(d, d, k)`` holds the products of chunks ``0, ..., k - 1``.
    Each ``P h`` adds ``p[i][j] * h[j]`` to 0.0 in ``j`` order and each norm
    the squares in order, as the einsums of ``_product`` and ``_norms`` do, so
    the bytes equal those of the many-row pass, at a fraction of a numpy call
    per chunk.  Chunks are read, and heads written, a block at a time.
    """
    head = heads[:, 0].tolist()
    for lo in range(0, ends.shape[-1], _HEAD_BLOCK):
        block = []
        for p in np.moveaxis(ends[..., lo:lo + _HEAD_BLOCK], -1, 0).tolist():
            moved = []
            for row in p:
                acc = 0.0
                for a, b in zip(row, head):
                    acc += a * b
                moved.append(acc)
            square = 0.0
            for x in moved:
                square += x * x
            norm = math.sqrt(square)
            head = [x / norm for x in moved]
            block.append(head)
        heads[:, lo + 1:lo + 1 + len(block)] = np.array(block).T


def chunked_walk(atoms, weights, starts, n, seed, tag, first_replica=0):
    """Cocycle values and positions after every letter, by chunked prefix products.

    Row ``r`` walks stream ``first_replica + r`` from the unit row
    ``starts[r]``.  The time axis is taken in segments of whole chunks that
    hold about ``2^18`` letter-replica products (at least one chunk per row);
    each segment yields ``(lo, values, units)``, where ``values[r, k]`` is
    ``log |b_(lo+k+1) ... b_1 x_r|`` and ``units[r, k]`` the unit row of that
    vector.
    """
    atoms = np.asarray(atoms, dtype=float)
    d = atoms.shape[1]
    chunk = rescale_interval(atoms)
    # code A pads the last chunk
    padded = _entry_major(np.concatenate([atoms, np.eye(d)[None]]))
    u = np.array(starts, dtype=float)
    rows = len(u)
    base = np.zeros(rows)
    segment = max(chunk, _SCAN_PRODUCTS // rows // chunk * chunk)
    for lo in range(0, n, segment):
        length = min(segment, n - lo)
        heads_per_row = -(-length // chunk)
        count = rows * heads_per_row
        codes = np.full((rows, heads_per_row * chunk), len(atoms), dtype=np.uint16)
        codes[:, :length] = rng.replica_words(seed, tag, rows, length, weights,
                                              first_replica=first_replica, skip=lo)
        # product p = k rows + r holds chunk k of row r
        codes = np.ascontiguousarray(codes.reshape(rows, heads_per_row, chunk).T)
        codes = codes.reshape(chunk, count)
        # prefix products inside every chunk, all chunks at once
        prods = np.empty((chunk, d, d, count))
        gathered = np.empty((d, d, count))
        padded.take(codes[0], axis=2, out=prods[0], mode="wrap")
        for j in range(1, chunk):
            padded.take(codes[j], axis=2, out=gathered, mode="wrap")
            _product(gathered, prods[j - 1], prods[j])
        # the unit vector at every chunk head, one chunk at a time
        heads = np.empty((d, heads_per_row, rows))
        heads[:, 0] = u.T
        if rows == 1:
            _one_row_heads(prods[-1, ..., :-1], heads[..., 0])
        else:
            for k in range(1, heads_per_row):
                head = _product(prods[-1, ..., (k - 1) * rows:k * rows], heads[:, k - 1],
                                heads[:, k])
                head /= _norms(head)
        vecs = _product(prods, heads.reshape(1, d, count), np.empty((chunk, d, count)))
        norms = np.sqrt(np.einsum("cin,cin->cn", vecs, vecs))
        logs = np.log(norms).reshape(chunk, heads_per_row, rows)
        at_heads = np.zeros((heads_per_row, rows))
        np.cumsum(logs[-1, :-1], axis=0, out=at_heads[1:])
        values = (logs + (base + at_heads)[None]).T.reshape(rows, -1)[:, :length]
        vecs /= norms[:, None]
        units = vecs.reshape(chunk, d, heads_per_row, rows).transpose(3, 2, 0, 1)
        units = units.reshape(rows, -1, d)[:, :length]
        base = values[:, -1]
        u = units[:, -1]
        yield lo, values, units


def trajectory_cocycle(atoms, weights, start, n_max, seed, tag, stream_index=0):
    """Running cocycle values ``S_1, ..., S_{n_max}`` along a single walk."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.shape[1] == 1:
        # in dimension one the cocycle is a plain sum of log |a|: no state to rescale
        word = rng.replica_words(seed, tag, 1, n_max, weights, first_replica=stream_index)[0]
        increments = np.log(np.abs(atoms[:, 0, 0]))[word]
        return np.cumsum(increments)
    v = np.asarray(start, dtype=float)
    out = np.empty(n_max)
    for lo, values, _ in chunked_walk(atoms, weights, (v / np.linalg.norm(v))[None], n_max,
                                      seed, tag, first_replica=stream_index):
        out[lo:lo + values.shape[1]] = values[0]
    return out
