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


def stream(master_seed, tag, index=0):
    """Generator for substream ``index`` of the ``tag`` family under a seed."""
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"stream index out of range: {index}")
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
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
    out = np.empty((replicas, count))
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    key[0] = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
    # the 256-bit counter as it stands after skip // 4 blocks of four draws
    state["state"]["counter"][:] = [(skip // 4 >> (64 * k)) & 0xFFFFFFFFFFFFFFFF
                                    for k in range(4)]
    for i in range(replicas):
        key[1] = np.uint64((tag << 44) | (first_replica + i))
        bits.state = state
        if skip % 4:
            gen.random(skip % 4)
        gen.random(out=out[i])
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
    """Atom-index words for a block of replicas (one word per row), from letter ``skip`` on."""
    u = replica_uniforms(master_seed, tag, replicas, n_steps, first_replica, skip)
    return indices_from_uniforms(u, weights)
