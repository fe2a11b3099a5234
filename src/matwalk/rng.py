"""Counter-based random streams with deterministic splitting.

Every random draw in the package comes from a Philox bit generator keyed by
``(master_seed, (tag << 44) | index)``.  Philox is counter based, so distinct
keys give statistically independent streams, and a stream is fully determined
by its key: replica ``r`` of an experiment always uses ``index = r`` no matter
how work is scheduled across worker threads.  Tags keep the streams of
different sub-experiments (main walk, exponent calibration run, dual-cloud
run, ...) disjoint under one master seed.

Every draw goes through ``replica_words`` or ``replica_uniforms``, with two
exceptions: the scalar martingale streams draw exact block sums from one
stream per block of replicas (``martingales.checkpoint_sums``), and the
runner draws its test points from one stream.

A stream can also be entered part way: ``replica_uniforms(..., skip=k)``
returns draws ``k, k + 1, ...`` of every replica stream without drawing the
first ``k``.  Philox makes four 64-bit outputs per counter value, so the skip
starts the counter at ``k // 4`` (as ``Philox.advance(k // 4)`` would from
zero) and discards ``k % 4`` draws; the result equals the columns ``k:`` of
a draw from the start of each stream (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).

How a block is drawn does not change its bytes.  ``replica_uniforms`` has
one draw engine, which yields numpy's own raw Philox4x64-10 outputs on two
paths; ``raw=True`` returns them as they are, and otherwise each sub-block
becomes its uniforms ``(word >> 11) * 2**-53`` in place.  Rows of more than
``_SHORT_ROW`` (24) draws re-key the calling thread's one Philox generator
(made on its first long row) for every replica through the public ``state``
setter, given a state dict of plain Python ints in which only the second
key word changes (numpy array fields cost the setter more than the draw of
a short row), and read ``random_raw``.  Re-keying costs about 1.5 us
per replica, so shorter rows (one uniform per particle in
``advance_cloud``, one per replica in ``brown_triangular_check``) are
evaluated in numpy for all keys at once, ``2**14`` counters at a time: ten
rounds of the two 64-bit mul-hi products (multipliers
``0xD2E7470EE14C6C93`` and ``0xCA5A826395121157``, taken on 32-bit halves)
with the key bumped by ``0x9E3779B97F4A7C15`` and ``0xBB67AE8584CAA73B``
between rounds.  numpy steps the 256-bit counter before each block of four
outputs, so draw ``k`` of a stream is word ``k % 4`` of counter
``k // 4 + 1``.  Both paths give the same bytes.  The vectorised form pays
about 50 ns per draw against numpy's 5-7, so the two cost the same at rows
of about 30 draws (2-vCPU Xeon, numpy 2.4), and the threshold sits below.

``replica_words`` fills its word array one sub-block of rows at a time, about
``2**16`` draws each (one row when a row is longer); each sub-block is drawn
by one ``replica_uniforms(..., raw=True)`` call, so every stream and draw is
still counted there.  Letters come from the raw outputs by exact integer
thresholds (``_letter_rule``): a uniform is at or past the cdf entry ``c``
exactly when its output is at or past ``ceil(c * 2**53) << 11``, so the
words equal those ``indices_from_uniforms`` maps from the uniforms, and no
float uniform is formed.  For ``2**b`` equal weights the letter is the top
``b`` bits; otherwise up to ``_COMPARE_ATOMS`` (80) atoms take one compare
per threshold and more take a binary search.  Words of more than eight
atoms are ``uint16``.  No array of a whole block's outputs exists at once.
Stream indices run over ``[0, 2**44)``; a block reaching past either end raises
``ValueError``, since a larger index would carry into the tag bits and read
another family.  A master seed outside ``[0, 2**64)`` or a skip that is not
an integer raises ``ValueError`` too, where it would otherwise alias a seed
modulo ``2**64`` or be truncated.
"""

import math
import numbers
import threading

import numpy as np

# Tag registry.  Values are arbitrary but frozen: changing them changes every
# sampled byte of every experiment.  A retired value is never given to another
# family, so no new stream can repeat the bytes of an old one.
TAG_SAMPLER = 0       # user-facing word samplers
TAG_WALK = 1          # main trajectory / sample draws
TAG_LYAPUNOV = 2      # exponent runs: the calibration, and the top pair of exponents
TAG_CLOUD = 3         # stationary-measure particle trajectories
TAG_DUAL_CLOUD = 4    # dual-cloud particle trajectories
TAG_MARTINGALE = 5    # scalar difference streams
TAG_SECOND_WALK = 6   # second start point / second independent sample set
# 7: retired; it drew a second set of words for the wedge-square walk of pair
#    estimates, which now walk the wedge square on the words of TAG_LYAPUNOV
TAG_TEST_POINTS = 8   # deterministic auxiliary point draws

_per_thread = threading.local()   # holds each thread's re-keyed Philox
_MAX_INDEX = 1 << 44
_MASK64 = (1 << 64) - 1
_SUB_BLOCK_UNIFORMS = 1 << 16   # draws per sub-block of ``replica_words`` and of long rows
_SHORT_ROW = 24                 # longest row drawn by ``_philox_rows``
_PHILOX_COUNTERS = 1 << 14      # counters per sub-block of ``_philox_rows``
# Philox4x64 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_HALF, _LOW = np.uint64(32), np.uint64(0xFFFFFFFF)
_DROPPED_BITS = np.uint64(11)   # a uniform keeps the top 53 bits of its output
# letters of up to this many atoms take one compare per cdf entry, of more a
# binary search, the cheaper per letter from about 88 atoms on (2-vCPU Xeon, numpy 2.4)
_COMPARE_ATOMS = 80


def _seed(master_seed):
    if not (isinstance(master_seed, numbers.Integral) and 0 <= master_seed <= _MASK64):
        raise ValueError(f"master seed must be an integer in [0, 2**64): {master_seed!r}")
    return int(master_seed)


def stream(master_seed, tag, index=0):
    """Generator for substream ``index`` of the ``tag`` family under a seed."""
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([_seed(master_seed), (tag << 44) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _thread_philox():
    """This thread's Philox for re-keyed rows, made on its first long row.

    Matrix-walk blocks draw on the worker threads, so each thread keeps its
    own; every row sets the whole state before it draws, so no state passes
    from one row or call to the next.  Made once, since the constructor seeds
    a ``SeedSequence`` from the operating system's entropy (about 11 us).
    """
    bits = getattr(_per_thread, "philox", None)
    if bits is None:
        bits = _per_thread.philox = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    return bits


def _mulhilo(m, x):
    """High and low words of ``m * x`` for a constant ``m``, on 32-bit halves."""
    mh, ml = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    hi, xl = x >> _HALF, x & _LOW
    t = xl * ml
    t >>= _HALF
    t += hi * ml
    u = xl * mh
    u += t & _LOW
    t >>= _HALF
    u >>= _HALF
    hi *= mh
    hi += t
    hi += u
    return hi, x * np.uint64(m)


def _philox_rows(seed, keys, skip, count):
    """Raw outputs ``skip, ..., skip + count - 1`` of the streams keyed ``(seed, k)``
    for every ``k`` in ``keys``: Philox4x64-10 evaluated for all keys at once."""
    block, discard = divmod(skip, 4)
    # numpy steps the counter before each block of four outputs, so draw
    # ``k`` is word ``k % 4`` of counter ``k // 4 + 1``
    counters = range(block + 1, block + 1 + (discard + count + 3) // 4)
    c0, c1, c2, c3 = (np.array([(c >> 64 * w) & _MASK64 for c in counters], dtype=np.uint64)
                      for w in range(4))
    k1 = keys[:, None]
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k1 = k1 + np.uint64(_PHILOX_W[1])
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), -1)
    return words[:, discard:discard + count]


def replica_uniforms(master_seed, tag, replicas, count, first_replica=0, skip=0, raw=False):
    """Uniforms for a block of replica streams, one row per replica.

    Row ``i`` holds uniforms ``skip, ..., skip + count - 1`` of the stream
    ``(master_seed, tag, first_replica + i)``, so the result is independent of
    how replicas are grouped into blocks.  With ``raw=True`` the rows hold
    the raw 64-bit outputs (``uint64``) whose uniforms those are.  Rows are
    drawn, and converted, a sub-block at a time: rows of at most
    ``_SHORT_ROW`` draws for all keys at once, ``_PHILOX_COUNTERS`` counters
    at a time; longer rows about ``_SUB_BLOCK_UNIFORMS`` draws at a time from
    one bit generator, re-keyed and its counter reset for every replica.
    The seed must lie in ``[0, 2**64)`` and ``skip`` be a non-negative
    integer.
    """
    seed = _seed(master_seed)
    if not isinstance(skip, numbers.Integral):
        raise ValueError(f"skip must be an integer number of draws: {skip!r}")
    if skip < 0:
        raise ValueError(f"cannot skip a negative number of draws: {skip}")
    if not (0 <= first_replica and first_replica + replicas <= _MAX_INDEX):
        raise ValueError(f"replica streams {first_replica} to {first_replica + replicas - 1} "
                         f"are outside the stream index range [0, 2**44)")
    out = np.empty((replicas, count), dtype=np.uint64 if raw else float)
    words = out.view(np.uint64)   # raw outputs first, converted in place unless ``raw``
    first = (tag << 44) | int(first_replica)
    skip = int(skip)
    block, discard = divmod(skip, 4)
    short = count <= _SHORT_ROW
    if short:
        rows = max(1, _PHILOX_COUNTERS // max(1, (discard + count + 3) // 4))
    else:
        rows = max(1, _SUB_BLOCK_UNIFORMS // count)
        bits = _thread_philox()
        key = [seed, 0]
        # the 256-bit counter as it stands after ``block`` blocks of four
        # draws, with the output buffer empty
        state = {"bit_generator": "Philox",
                 "state": {"counter": [(block >> (64 * k)) & _MASK64 for k in range(4)],
                           "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for lo in range(0, replicas, rows):
        part = words[lo:lo + rows]
        indices = range(first + lo, first + lo + len(part))
        if short:
            part[:] = _philox_rows(seed, np.arange(indices.start, indices.stop,
                                                   dtype=np.uint64), skip, count)
        else:
            for i, index in enumerate(indices):
                key[1] = index
                bits.state = state
                part[i] = bits.random_raw(discard + count)[discard:]
        if not raw:
            part >>= _DROPPED_BITS
            np.multiply(part, 2.0**-53, out=out[lo:lo + rows])
    return out


def indices_from_uniforms(u, weights):
    """Map uniforms to atom indices by inverse CDF over a fixed atom order."""
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0  # guard rounding in the last bin
    return np.searchsorted(cdf, u, side="right").astype(
        np.uint8 if len(weights) <= 8 else np.uint16)


def _letter_rule(weights):
    """How ``replica_words`` maps raw outputs to letters, equal to the float rule.

    A uniform ``(w >> 11) * 2**-53`` is at or past ``cdf_k`` exactly when
    ``w >= t_k = ceil(cdf_k * 2**53) << 11`` (``cdf_k * 2**53`` scales by a
    power of two, so it is exact); a threshold of ``2**64`` or more is never
    reached, and left out.  Returns the thresholds as ``uint64``, or, for
    ``2**b`` equal weights, the shift ``s = 64 - b`` that gives the letter
    ``w >> s``.
    """
    cdf = np.cumsum(weights)[:-1].tolist()
    marks = [max(0, math.ceil(c * 2.0**53)) << 11 for c in cdf]
    thresholds = np.array([t for t in marks if t <= _MASK64], dtype=np.uint64)
    bits = len(weights).bit_length() - 1
    if len(weights) > 1 and marks == [(k + 1) << (64 - bits) for k in range(len(cdf))]:
        return np.uint64(64 - bits)
    return thresholds


def _letters(words, rule, out):
    """Write the letters of raw outputs ``words`` into ``out`` by ``_letter_rule``."""
    if rule.ndim == 0:
        np.right_shift(words, rule, out=out, casting="unsafe")
    elif len(rule) < _COMPARE_ATOMS:
        # a pass per threshold is linear in the atom count, a binary search is not
        out[...] = 0
        for t in rule:
            out += words >= t
    else:
        out[...] = np.searchsorted(rule, words, side="right")


def replica_words(master_seed, tag, replicas, n_steps, weights, first_replica=0, skip=0):
    """Atom-index words for a block of replicas (one word per row), from letter ``skip`` on.

    Equal, dtype included, to ``indices_from_uniforms(replica_uniforms(...),
    weights)`` on the whole block, drawn one sub-block of rows at a time as
    raw outputs and mapped by integer thresholds (``_letter_rule``).
    """
    # the dtype ``indices_from_uniforms`` gives
    words = np.empty((replicas, n_steps), dtype=np.uint8 if len(weights) <= 8 else np.uint16)
    rule = _letter_rule(weights)
    rows = max(1, _SUB_BLOCK_UNIFORMS // max(n_steps, 1))
    for lo in range(0, replicas, rows):
        count = min(rows, replicas - lo)
        raw = replica_uniforms(master_seed, tag, count, n_steps, first_replica + lo, skip,
                               raw=True)
        _letters(raw, rule, words[lo:lo + count])
    return words
