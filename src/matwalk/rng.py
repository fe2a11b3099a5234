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

How a block is drawn does not change its bytes.  ``replica_uniforms`` re-keys
one Philox per replica through the public ``state`` setter, given a state
dict of plain Python ints in which only the second key word changes (numpy
array fields cost the setter more than the draw of a short row).
``replica_words`` fills its word array one sub-block of rows at a time, about
``2**16`` uniforms each (one row when a row is longer); each sub-block is
drawn by one ``replica_uniforms`` call, so every stream and uniform drawn is
still counted there, and mapped by ``indices_from_uniforms``.  The float64
uniforms of a whole block never exist at once, and the words equal those
mapped from one ``replica_uniforms`` call for the block.  Stream indices run
over ``[0, 2**44)``; a block reaching past either end raises ``ValueError``,
since a larger index would carry into the tag bits and read another family.
"""

import numpy as np

# Tag registry.  Values are arbitrary but frozen: changing them changes every
# sampled byte of every experiment.
TAG_SAMPLER = 0       # user-facing word samplers
TAG_WALK = 1          # main trajectory / sample draws
TAG_LYAPUNOV = 2      # independent exponent-calibration run
TAG_CLOUD = 3         # stationary-measure particle trajectories
TAG_DUAL_CLOUD = 4    # dual-cloud particle trajectories
TAG_MARTINGALE = 5    # scalar difference streams
TAG_SECOND_WALK = 6   # second start point / second independent sample set
TAG_EXTERIOR = 7      # exterior-square walk inside pair estimates
TAG_TEST_POINTS = 8   # deterministic auxiliary point draws

_MAX_INDEX = 1 << 44
_MASK64 = (1 << 64) - 1
_SUB_BLOCK_UNIFORMS = 1 << 16   # uniforms per sub-block of ``replica_words``


def stream(master_seed, tag, index=0):
    """Generator for substream ``index`` of the ``tag`` family under a seed."""
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"stream index out of range: {index}")
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(master_seed & _MASK64)
    key[1] = np.uint64((tag << 44) | index)
    return np.random.Generator(np.random.Philox(key=key))


def replica_uniforms(master_seed, tag, replicas, count, first_replica=0, skip=0):
    """Uniforms for a block of replica streams, one row per replica.

    Row ``i`` holds uniforms ``skip, ..., skip + count - 1`` of the stream
    ``(master_seed, tag, first_replica + i)``, so the result is independent of
    how replicas are grouped into blocks.  One bit generator serves the whole
    block: it is re-keyed and its counter reset for every replica.
    """
    if skip < 0:
        raise ValueError(f"cannot skip a negative number of draws: {skip}")
    if not (0 <= first_replica and first_replica + replicas <= _MAX_INDEX):
        raise ValueError(f"replica streams {first_replica} to {first_replica + replicas - 1} "
                         f"are outside the stream index range [0, 2**44)")
    out = np.empty((replicas, count))
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    block, discard = divmod(int(skip), 4)
    key = [int(master_seed) & _MASK64, 0]
    # the 256-bit counter as it stands after ``block`` blocks of four draws,
    # with the output buffer empty
    state = {"bit_generator": "Philox",
             "state": {"counter": [(block >> (64 * k)) & _MASK64 for k in range(4)],
                       "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    first = (tag << 44) | int(first_replica)
    for index, row in zip(range(first, first + replicas), out):
        key[1] = index
        bits.state = state
        if discard:
            gen.random(discard)
        gen.random(out=row)
    return out


def indices_from_uniforms(u, weights):
    """Map uniforms to atom indices by inverse CDF over a fixed atom order."""
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0  # guard rounding in the last bin
    if len(weights) == 1:
        return np.zeros(u.shape, dtype=np.uint8)
    if len(weights) <= 8:
        idx = np.zeros(u.shape, dtype=np.uint8)
        for c in cdf[:-1]:
            idx += (u >= c)
        return idx
    return np.searchsorted(cdf, u, side="right").astype(np.uint16)


def replica_words(master_seed, tag, replicas, n_steps, weights, first_replica=0, skip=0):
    """Atom-index words for a block of replicas (one word per row), from letter ``skip`` on.

    Equal, dtype included, to ``indices_from_uniforms(replica_uniforms(...),
    weights)`` on the whole block, drawn one sub-block of rows at a time.
    """
    # the dtype ``indices_from_uniforms`` gives
    words = np.empty((replicas, n_steps), dtype=np.uint8 if len(weights) <= 8 else np.uint16)
    rows = max(1, _SUB_BLOCK_UNIFORMS // max(n_steps, 1))
    for lo in range(0, replicas, rows):
        count = min(rows, replicas - lo)
        u = replica_uniforms(master_seed, tag, count, n_steps, first_replica + lo, skip)
        words[lo:lo + count] = indices_from_uniforms(u, weights)
    return words
