"""Vectorized random-walk engines over letter tables and chunked prefix products.

Long products are never multiplied out.  Replica walks step through a
*letter table*: the products of ``L`` consecutive atoms, one row per word of
``L`` letters, so a single gather and a single batched product advance every
replica by ``L`` letters.  ``L`` is the largest value with ``A^L <= 256`` for
``A`` atoms and ``L <= rescale_interval`` of every table of the walk, so no
row holds a product of more letters than a scaled state may absorb.  States are
rescaled at least every ``rescale_interval`` letters (Benettin, Galgani,
Giorgilli and Strelcyn, Meccanica 15, 1980); scalar cocycle values add up
the logs of the scales, and log operator norms of products are read off
scaled matrix states.  Entries of a scaled state stay far from overflow, so
walks of any length are safe.

The operator norm of an ``m x m`` state is read elementwise per replica
(``_operator_norms``): ``|s|`` for ``m = 1``, the closed form
``(hypot(a + d, c - b) + hypot(a - d, c + b)) / 2`` of ``[[a, b], [c, d]]``
for ``m = 2``, and the top value of a batched LAPACK SVD for ``m >= 3``.

A step's table row is its *code* ``sum_j l_j A^j``.  ``_LetterTable._steps``
builds the codes of a block of rows of words about ``2^18`` letters at a time
(``_CODE_LETTERS``), so the block stays in cache, and writes them straight
into the step-major ``uint16`` array the steps read: eight letters of a pair
of atoms are one byte (``np.packbits``), other whole steps take a Horner
scheme in bytes (codes stay below ``A^L <= 256``), steps of one letter copy
it, and a single atom has code 0 only.  The tables of a walk share one code array.

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
inside this module: every public function takes and returns points as
replica rows ``(N, d)``.

The average over atoms ``sum_a w_a f(a x)`` behind the drift, the corrector
equation and the corrected variance takes its images from ``atom_images``
and adds them up in atom order in ``atom_average``.

``measures.sample_word`` walks in the same block body (``_walk_block``).
Every word comes from ``rng.replica_words``: replica ``r`` reads stream ``r``,
from letter ``skip`` on, so results are a pure function of ``(measure, seed,
tag)`` and a walk can continue where an earlier one stopped.  Replicas walk in
blocks of ``BLOCK`` whatever the walk's length or thread count, and a block
takes its words ``_SEGMENT`` letters per row at a time, cut between two whole
steps (or chunks) of the uncut walk, so a walk of any length bounds its working
set and reads the uncut walk's values.  Vector-walk blocks run in order on the
calling thread; matrix-walk blocks run on a pool of worker threads (wall time only).

A matrix walk takes each long stretch between two read-outs side by side: a
stretch of two or more whole chunks of ``_CHUNK_STEPS`` table steps walks every
chunk of a segment from the identity at once, chunk ``c`` of replica ``r`` one
column, so one gather and one product advance every chunk of every replica by a
step, and a walk of a few replicas makes a fraction of the numpy calls.  The chunk
products are then multiplied onto the carried state in order, each followed by a
normalisation; the stretch's last steps and single letters take the step path.
Which steps form chunks depends on the marks and ``n`` alone, and a segment ends
only between two chunks, so every value depends on the words, the marks and
``n`` alone: not on the replicas beside it, the blocks, ``_SEGMENT`` or the
thread count.  A vector walk takes every step on its own, as a chunk product
would cost ``d`` times its work per step.

One rule for a batch of one (``_paired``): numpy's einsum and OpenBLAS round a
batch of one replica, row or column apart from the same item computed beside
others, so a batch of one is computed beside a copy of itself and the copy's
result is dropped.  A block's lone replica, a scan's lone chunk, ``atom_images``
of one row and a one-row pairing tile of ``stationary.psi_eval_many`` follow it,
so a value computed alone reads the bytes it reads beside others.
"""

import bisect
import math

import numpy as np

from . import rng
from .linalg import atom_growth

BLOCK = 4096    # replicas per block: no byte depends on it, as a lone replica walks paired
_SEGMENT = 1 << 13       # letters per row a block draws at once: 32 MB of words at BLOCK rows
# table steps per chunk of a long matrix-walk stretch (module docstring): a stretch needs two
# whole chunks, 256 steps, which no bundled scenario reaches; 128 steps of at most 64
# letters fit one segment, and a join costs a few numpy calls against 128 steps
_CHUNK_STEPS = 128
_TABLE_ROWS = 256        # letter-table size bound: codes stay small integers
_CODE_LETTERS = 1 << 18   # word letters read per block of table codes: 256 kB stays in cache
_SCAN_PRODUCTS = 1 << 18  # letter-replica products a chunked scan holds at once
_HEAD_BLOCK = 512         # chunk ends a one-row head pass holds as Python floats at once
_THREADS = 1
# below log(DBL_MAX) / 2 ~ 354.9, past which one letter overflows a unit state's squared norm
MAX_ATOM_GROWTH = 350.0
# a joined chunk state whose squared norm is below the least normal double 2^-1022 lost the
# state's direction to underflow, or would read its norm imprecisely: it walks the chunk's steps
_JOIN_FLOOR = 2.0 ** -511
# relative: the growth of the matrices a walk steps with (an exterior power, a transpose)
# rounds apart from the sums of the atom's log singular values that validation reads
GROWTH_ROUNDING = 1e-9


def set_thread_count(k):
    """Worker threads for matrix-walk and psi blocks; affects wall time only."""
    global _THREADS
    _THREADS = max(1, int(k))


def _blocks(total):
    """``(first, count)`` blocks of ``BLOCK`` replicas."""
    return [(first, min(BLOCK, total - first)) for first in range(0, total, BLOCK)]


def _paired(batch, axis):
    """``batch`` beside a copy of itself along ``axis`` when that axis holds one item,
    else ``batch``: the rule for a batch of one (module docstring)."""
    return np.concatenate([batch, batch], axis) if batch.shape[axis] == 1 else batch


def _run_blocks(fn, blocks):
    if _THREADS <= 1 or len(blocks) <= 1:
        return [fn(*b) for b in blocks]
    # imported on first use: a cold start needs no pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=_THREADS) as pool:
        return list(pool.map(lambda b: fn(*b), blocks))


def rescale_interval(atoms):
    """Steps between rescalings so scaled entries stay far from overflow.

    Raises ``ValueError`` for the first atom whose growth ``max(|log s_max|,
    |log s_min|)`` (``linalg.atom_growth``) is above ``MAX_ATOM_GROWTH`` by more
    than ``GROWTH_ROUNDING``: one letter would take a unit state out of range.
    """
    growth = atom_growth(atoms)
    past = np.flatnonzero(growth > MAX_ATOM_GROWTH * (1.0 + GROWTH_ROUNDING))
    if past.size:
        i = past[0]
        raise ValueError(f"atom {i} has growth max(|log s_max|, |log s_min|) = {growth[i]:.1f}, "
                         f"above {MAX_ATOM_GROWTH:g}: a scaled state would overflow")
    top = growth.max()
    if top <= 0.0:
        return 64
    return int(np.clip(300.0 / top, 1, 64))


def letters_per_step(n_atoms, interval):
    """Letters per table step: the largest ``L <= interval`` with ``A^L <= 256``."""
    letters = 1
    while letters < interval and n_atoms ** (letters + 1) <= _TABLE_ROWS:
        letters += 1
    return letters


def _marks(checkpoints, n):
    """Step counts at which a walk of ``n`` steps is read: the checkpoints, or ``n``."""
    cps = np.asarray([n] if checkpoints is None else checkpoints, dtype=int)
    if cps.ndim != 1 or len(cps) == 0 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError("checkpoints must lie in [1, n]" if checkpoints is not None
                         else "a walk needs n >= 1 steps")
    return cps.tolist()


def _chunk_end(first, stop, width):
    """End of the chunks of the stretch ``[first, stop)`` of the uncut walk: its whole chunks
    of ``width`` letters when it holds two or more, else ``first`` (no chunk)."""
    count = (stop - first) // width
    return first + count * width if count >= 2 else first


def _segments(marks, n, letters):
    """``(lo, ends, chunks)`` per segment of a walk of ``n`` letters read at ``marks``: from
    ``lo`` the segment walks to each end as to a mark, and its piece that ends at
    ``ends[k]`` starts with ``chunks[k]`` whole chunks.  The uncut walk takes, in each
    stretch up to a mark or ``n``, whole chunks of ``_CHUNK_STEPS`` steps when the
    stretch holds two or more, then whole steps, then single letters.  A segment holds
    ``_SEGMENT`` letters, or one whole chunk or step, at most, and ends at ``n`` or
    between two chunks, steps or letters of the uncut walk."""
    stops = marks + [n] if marks[-1] < n else marks
    width = _CHUNK_STEPS * letters
    firsts = [0] + stops       # firsts[k] starts the stretch up to stops[k]
    tops = [_chunk_end(first, stop, width) for first, stop in zip(firsts, stops)]
    lo = i = 0
    while lo < n:
        # stops[i] ends the stretch that holds lo
        limit = min(lo + max(_SEGMENT, width if lo < tops[i] else letters), n)
        j = bisect.bisect_right(stops, limit, i)
        if j == len(stops):
            cut = limit    # = n
        elif limit < tops[j]:
            cut = firsts[j] + (limit - firsts[j]) // width * width
        else:
            whole = tops[j] + (stops[j] - tops[j]) // letters * letters
            cut = limit if limit >= whole else tops[j] + (limit - tops[j]) // letters * letters
        ends = stops[i:j] + [cut] * (cut > firsts[j])
        yield lo, ends, [max(0, min(end, tops[k]) - pos) // width
                         for k, pos, end in zip(range(i, j + 1), [lo] + ends[:-1], ends)]
        lo, i = cut, j


def _entry_major(stack):
    """``(N, ...)`` stack -> contiguous ``(..., N)`` copy."""
    return np.moveaxis(stack, 0, -1).copy()


def _norms(state):
    """Euclidean (Frobenius) norm of every replica of an entry-major state."""
    flat = state.reshape(-1, state.shape[-1])
    return np.sqrt(np.einsum("in,in->n", flat, flat))


def _operator_norms(state):
    """Top singular value of every replica of an entry-major ``(m, m, N)`` state.

    ``m = 1`` reads ``|s|``, bitwise what LAPACK's SVD returns.  ``m = 2`` reads
    ``(hypot(a + d, c - b) + hypot(a - d, c + b)) / 2``, the half sum of
    ``s_max + s_min`` and ``s_max - s_min``, on the four contiguous entry rows:
    within 2 ulps of the exact value, where LAPACK's ``dgesdd`` is off by up to
    about 8.  Larger ``m`` take the batched SVD.
    """
    m = state.shape[0]
    if m == 1:
        return np.abs(state[0, 0])
    if m == 2:
        (a, b), (c, d) = state
        return (np.hypot(a + d, c - b) + np.hypot(a - d, c + b)) / 2
    return np.linalg.svd(np.moveaxis(state, -1, 0), compute_uv=False)[:, 0]


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
    count = len(x_rows)
    units = _entry_major(_paired(np.asarray(x_rows, dtype=float), 0))
    moved = _product(np.asarray(atoms, dtype=float)[..., None], units[None],
                     np.empty((len(atoms),) + units.shape))
    norms = np.sqrt(np.einsum("ain,ain->an", moved, moved))
    return np.log(norms[:, :count]), np.moveaxis(moved / norms[:, None], 1, 2)[:, :count]


def atom_average(weights, values):
    """``sum_a weights[a] * values[a]``, added atom by atom in atom order."""
    return sum((w * v for w, v in zip(weights, values)), np.zeros(values.shape[1:]))


class _LetterTable:
    """The step engine of the replica walks for one set of atoms.

    Row ``sum_j l_j A^j`` of ``rows`` holds ``a_{l_(L-1)} ... a_{l_0}`` (letter
    ``l_0`` acts first).  When ``L > 1``, row ``A^L + l`` holds the single atom
    ``a_l``; single letters finish the stretch up to each read-out, so a
    checkpoint reads exactly the product of its own letters.  ``rows`` is
    entry-major, ``(d, d, table rows)``.  States are rescaled at least every
    ``interval`` letters; ``L = letters`` is at most ``interval``.
    """

    def __init__(self, atoms, interval, letters):
        singles = _entry_major(np.asarray(atoms, dtype=float))
        self.dim, self.n_atoms = singles.shape[1:]
        self.interval, self.letters = interval, letters
        rows = singles
        for _ in range(1, self.letters):
            # row l R + r is a_l times row r
            if self.n_atoms == 1:
                left, right = singles, rows
            else:
                left = np.repeat(singles, rows.shape[-1], axis=2)
                right = np.tile(rows, self.n_atoms)
            rows = _product(left, right, np.empty_like(left))
        self.single = rows.shape[-1] if self.letters > 1 else 0
        self.rows = np.concatenate([rows, singles], axis=2) if self.letters > 1 else rows

    def _full_codes(self, letters, out):
        """Codes of whole table steps: ``letters`` ``(rows, k L)`` -> ``out`` ``(k, rows)``."""
        width = self.letters
        if self.n_atoms == 1:
            out[...] = 0
        elif width == 1:
            out[...] = letters.T
        elif self.n_atoms == 2 and width == 8:
            # the code of eight binary letters is their byte, letter 0 in bit 0
            out[...] = np.packbits(letters, axis=1, bitorder="little").T
        else:
            # Horner in bytes, step-major: codes < A^L <= 256, so no step overflows
            steps = letters.reshape(len(letters), -1, width).transpose(1, 0, 2)
            codes = np.empty(steps.shape[:2], dtype=np.uint8)
            np.copyto(codes, steps[..., -1], casting="unsafe")
            for j in range(width - 2, -1, -1):
                codes *= np.uint8(self.n_atoms)
                np.add(codes, steps[..., j], out=codes, casting="unsafe")
            out[...] = codes

    def _steps(self, words, marks):
        """Table rows of every step (steps x replicas), and per step its letters
        and whether to read after it.

        Up to each mark the walk takes whole table steps, then single letters.
        Codes are built a block of about ``_CODE_LETTERS`` letters of rows at
        a time and written straight into the step-major array.
        """
        segments, sizes, read = [], [], []
        for pos, end in zip([0] + marks[:-1], marks):
            full, rest = divmod(end - pos, self.letters)
            segments.append((len(sizes), full, pos, pos + full * self.letters, end))
            sizes += [self.letters] * full + [1] * rest
            read += [False] * (full + rest - 1) + [True]
        codes = np.empty((len(sizes), len(words)), dtype=np.uint16)
        rows = max(1, _CODE_LETTERS // words.shape[1])
        for lo in range(0, len(words), rows):
            block, out = words[lo:lo + rows], codes[:, lo:lo + rows]
            for step, full, start, tail, end in segments:
                self._full_codes(block[:, start:tail], out[step:step + full])
                step += full
                np.add(block[:, tail:end].T, np.uint16(self.single),
                       out=out[step:step + end - tail])
        return codes, sizes, read

    def _chunk_walk(self, codes, start=None):
        """Walk the columns of ``codes`` (steps x K) from ``start`` ``(d, d, K)``, a scaled
        state, or from the identity; returns the scaled product and the logs of its scales.
        A column rescales before a step that would take it past ``interval`` letters since
        its start or its last rescale, as the walk does."""
        state = self.rows.take(codes[0], axis=2, mode="wrap")
        if start is not None:
            state = _product(state, start, np.empty_like(state))
        spare, gathered = np.empty_like(state), np.empty_like(state)
        scales = np.zeros(state.shape[-1])
        every = self.interval // self.letters
        for j in range(1, len(codes)):
            if j % every == 0:
                _rescale(state, scales)
            self.rows.take(codes[j], axis=2, out=gathered, mode="wrap")
            state, spare = _product(gathered, state, spare), state
        return state, scales

    def _join_chunks(self, codes, state, acc):
        """Walk ``state`` ``(d, d, N)``, normalised or the walk's start, through whole
        chunks: ``codes`` holds their ``count x _CHUNK_STEPS`` steps x ``N``.  Returns
        the state normalised, with its logs added to ``acc``.

        The chunks walk side by side from the identity (``_chunk_walk``), chunk ``c``
        of column ``r`` in column ``c N + r``, a group of at most ``max(BLOCK, N)``
        columns at a time, so no group holds more states than a full block; as each
        chunk starts from the identity, the grouping changes no byte.  Their products
        are multiplied onto the state in order, with a normalisation after each.  A
        chunk product may lose a direction to underflow (ROADMAP item 2): a column
        whose joined norm is below ``_JOIN_FLOOR`` walks that chunk's steps instead."""
        width = state.shape[-1]
        run = codes.reshape(-1, _CHUNK_STEPS, width)
        chunk, spare = np.empty_like(state), np.empty_like(state)
        group = max(1, BLOCK // width)
        for lo in range(0, len(run), group):
            steps = np.ascontiguousarray(run[lo:lo + group].transpose(1, 0, 2))
            steps = steps.reshape(_CHUNK_STEPS, -1)
            products, scales = self._chunk_walk(steps)
            for first in range(0, steps.shape[1], width):
                # a contiguous copy: einsum may round a strided operand differently
                np.copyto(chunk, products[..., first:first + width])
                joined = _product(chunk, state, spare)
                logs = scales[first:first + width]
                lost = _norms(joined) < _JOIN_FLOOR
                if lost.any():
                    lost, logs = np.flatnonzero(lost), logs.copy()
                    redo, redo_logs = self._chunk_walk(_paired(steps[:, first + lost], 1),
                                                       _paired(state[..., lost], -1))
                    joined[..., lost], logs[lost] = redo[..., :lost.size], redo_logs[:lost.size]
                acc += logs
                _rescale(joined, acc)
                state, spare = joined, state
        return state


def _tables(atom_sets):
    """One letter table per set of atoms of a walk, at one step size: the least that
    their own rescale intervals allow, so one code array serves them all."""
    intervals = [rescale_interval(atoms) for atoms in atom_sets]
    letters = letters_per_step(len(atom_sets[0]), min(intervals))
    return [_LetterTable(a, interval, letters) for a, interval in zip(atom_sets, intervals)]


def _rescale(state, acc):
    """Divide every replica of ``state`` by its norm and add the norm's log to ``acc``."""
    scale = _norms(state)
    acc += np.log(scale)
    state /= scale


def _walk_block(tables, states, checkpoints, n, words):
    """Walk one block's entry-major state per table ``n`` letters, drawn a segment at a
    time by ``words(lo, hi)``; returns per table the log norms at the checkpoints (or
    ``n``), Euclidean for vectors and operator norms for matrices, and the scaled state.
    A matrix state takes the chunks ``_segments`` names through
    ``_LetterTable._join_chunks``; a vector state takes their steps one by one."""
    marks, count = _marks(checkpoints, n), states[0].shape[-1]
    states = [_paired(state, -1) for state in states]
    width, letters = states[0].shape[-1], tables[0].letters
    logs, since = [[] for _ in tables], [0] * len(tables)
    accs = [np.zeros(width) for _ in tables]
    for lo, ends, chunks in _segments(marks, n, letters):
        codes, sizes, read = tables[0]._steps(_paired(words(lo, ends[-1]), 0),
                                              [e - lo for e in ends])
        read[-1] = ends[-1] in marks   # a cut is walked to as to a mark, and not read
        runs, step = [], 0             # the steps [first, last) of every run of chunks
        for pos, end, k in zip([lo] + ends[:-1], ends, chunks):
            if k and states[0].ndim == 3:
                runs.append((step, step + k * _CHUNK_STEPS))
            step += sum(divmod(end - pos, letters))
        for t, table in enumerate(tables):
            state, acc, vector = states[t], accs[t], states[t].ndim == 2
            spare = np.empty_like(state)
            gathered = np.empty((table.dim, table.dim, width))
            step = 0
            for first, last in runs + [(len(codes), len(codes))]:
                for j in range(step, first):
                    if since[t] + sizes[j] > table.interval:
                        _rescale(state, acc)
                        since[t] = 0
                    since[t] += sizes[j]
                    # codes are in range; "wrap" takes numpy's faster gather loop
                    table.rows.take(codes[j], axis=2, out=gathered, mode="wrap")
                    state, spare = _product(gathered, state, spare), state
                    if read[j]:
                        top = _norms(state) if vector else _operator_norms(state)
                        logs[t].append(acc + np.log(top))
                if first < last:
                    # a chunk takes the state past any interval; a state just joined is
                    # not rescaled again, so a segment cut between chunks changes no byte
                    if since[t]:
                        _rescale(state, acc)
                    state = table._join_chunks(codes[first:last], state, acc)
                    spare, since[t] = np.empty_like(state), 0
                    if read[last - 1]:
                        logs[t].append(acc + np.log(_operator_norms(state)))
                step = last
            states[t] = state
    return [np.column_stack(t_logs)[:count] for t_logs in logs], [s[..., :count] for s in states]


def vector_walk(atoms, weights, start, n, replicas, seed, tag, checkpoints=None, skip=0):
    """Cocycle values ``log |b_n ... b_1 v| / |v|`` for every replica.

    ``start`` is a unit row (shared) or an array of per-replica unit rows.
    The letters are ``skip, ..., skip + n - 1`` of each replica's stream.
    Returns ``(values, final_units)``; with checkpoints, ``values`` has one
    column per checkpoint (the last one need not be ``n``).  Blocks run in
    order on the calling thread: their words come from a per-replica draw
    loop that holds the interpreter lock, so worker threads gain nothing.
    """
    tables = _tables([atoms])
    start = np.asarray(start, dtype=float)

    def run_block(first, count):
        rows = np.tile(start, (count, 1)) if start.ndim == 1 else start[first:first + count]
        [logs], [state] = _walk_block(tables, [_entry_major(rows)], checkpoints, n, lambda lo, hi: (
            rng.replica_words(seed, tag, count, hi - lo, weights, first, skip + lo)))
        v = np.ascontiguousarray(np.moveaxis(state, -1, 0))
        return logs[:, 0] if checkpoints is None else logs, v / np.linalg.norm(v, axis=1)[:, None]

    parts = [run_block(*b) for b in _blocks(replicas)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def matrix_walk_log_norms(atom_sets, weights, n, replicas, seed, tag, checkpoints=None):
    """Log operator norms of walk products for several induced atom sets.

    ``atom_sets`` maps a label to the (A, m, m) matrices of one induced action
    (identity, wedge square, ...).  All actions consume the same sampled words,
    so e.g. ``log |P|`` and ``log |P^^2|`` refer to the same product ``P``.
    Returns label -> (replicas,) array, or (replicas, n_checkpoints).
    """
    tables = _tables(list(atom_sets.values()))

    def run_block(first, count):
        eyes = [_entry_major(np.tile(np.eye(table.dim), (count, 1, 1))) for table in tables]
        logs, _ = _walk_block(tables, eyes, checkpoints, n, lambda lo, hi: rng.replica_words(
            seed, tag, count, hi - lo, weights, first, lo))
        return [t_logs[:, 0] if checkpoints is None else t_logs for t_logs in logs]

    parts = _run_blocks(run_block, _blocks(replicas))
    return {lab: np.concatenate([p[t] for p in parts]) for t, lab in enumerate(atom_sets)}


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


def chunked_walk(atoms, weights, starts, n, seed, tag, first_replica=0, units=True):
    """Cocycle values and positions after every letter, by chunked prefix products.

    Row ``r`` walks stream ``first_replica + r`` from the unit row
    ``starts[r]``.  The time axis is taken in segments of whole chunks that
    hold about ``2^18`` letter-replica products, and in dimension ``d >= 4``
    about ``9 x 2^18 / d^2``, so no segment holds more matrix entries than a
    ``3 x 3`` one (at least one chunk per row);
    each segment yields ``(lo, values, units)``, where ``values[r, k]`` is
    ``log |b_(lo+k+1) ... b_1 x_r|`` and ``units[r, k]`` the unit row of that
    vector.  With ``units=False`` only the last unit row of a segment is
    formed, to carry the walk on, and ``None`` is yielded in place of units.
    """
    atoms = np.asarray(atoms, dtype=float)
    d = atoms.shape[1]
    chunk = rescale_interval(atoms)
    # code A pads the last chunk
    padded = _entry_major(np.concatenate([atoms, np.eye(d)[None]]))
    u = np.array(starts, dtype=float)
    rows = len(u)
    base = np.zeros(rows)
    products = min(_SCAN_PRODUCTS, 9 * _SCAN_PRODUCTS // (d * d))
    segment = max(chunk, products // rows // chunk * chunk)
    for lo in range(0, n, segment):
        length = min(segment, n - lo)
        heads_per_row = -(-length // chunk)
        count = rows * heads_per_row
        codes = np.full((rows, heads_per_row * chunk), len(atoms), dtype=np.uint16)
        codes[:, :length] = rng.replica_words(seed, tag, rows, length, weights,
                                              first_replica=first_replica, skip=lo)
        # product p = k rows + r holds chunk k of row r
        codes = np.ascontiguousarray(codes.reshape(rows, heads_per_row, chunk).T)
        codes = _paired(codes.reshape(chunk, count), 1)
        # prefix products inside every chunk, all chunks at once
        prods = np.empty((chunk, d, d, codes.shape[1]))
        gathered = np.empty(prods.shape[1:])
        padded.take(codes[0], axis=2, out=prods[0], mode="wrap")
        for j in range(1, chunk):
            padded.take(codes[j], axis=2, out=gathered, mode="wrap")
            _product(gathered, prods[j - 1], prods[j])
        # the unit vector at every chunk head, one chunk at a time
        heads = np.empty((d, heads_per_row, rows))
        heads[:, 0] = u.T
        if rows == 1:
            _one_row_heads(prods[-1, ..., :heads_per_row - 1], heads[..., 0])
        else:
            for k in range(1, heads_per_row):
                head = _product(prods[-1, ..., (k - 1) * rows:k * rows], heads[:, k - 1],
                                heads[:, k])
                head /= _norms(head)
        vecs = _product(prods, _paired(heads.reshape(1, d, count), 2),
                        np.empty((chunk, d, prods.shape[-1])))
        norms = np.sqrt(np.einsum("cin,cin->cn", vecs, vecs))
        vecs, norms = vecs[..., :count], norms[:, :count]
        logs = np.log(norms).reshape(chunk, heads_per_row, rows)
        at_heads = np.zeros((heads_per_row, rows))
        np.cumsum(logs[-1, :-1], axis=0, out=at_heads[1:])
        values = (logs + (base + at_heads)[None]).T.reshape(rows, -1)[:, :length]
        base = values[:, -1]
        if units:
            vecs /= norms[:, None]
            seg_units = vecs.reshape(chunk, d, heads_per_row, rows).transpose(3, 2, 0, 1)
            seg_units = seg_units.reshape(rows, -1, d)[:, :length]
            u = seg_units[:, -1]
        else:
            # the unit rows after the last letter: position c of chunk k
            k, c = divmod(length - 1, chunk)
            last = slice(k * rows, (k + 1) * rows)
            seg_units, u = None, (vecs[c, :, last] / norms[c, last]).T
        yield lo, values, seg_units


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
                                      seed, tag, first_replica=stream_index, units=False):
        out[lo:lo + values.shape[1]] = values[0]
    return out
