import tracemalloc

import numpy as np
import pytest

import matwalk as mw
from matwalk import rng

_LAST = (1 << 44) - 1   # the largest stream index


def _weights(atoms):
    return np.arange(1, atoms + 1) / (atoms * (atoms + 1) / 2)


@pytest.mark.parametrize("first, replicas", [(_LAST, 2), (-1, 2), (-3, 3), (1 << 44, 1)])
def test_replica_streams_outside_the_index_range_are_refused(first, replicas):
    # at 2**44 the index would carry into the tag bits and read another family
    with pytest.raises(ValueError, match="stream index range"):
        rng.replica_uniforms(1, rng.TAG_SAMPLER, replicas, 3, first_replica=first)
    with pytest.raises(ValueError, match="stream index range"):
        rng.replica_words(1, rng.TAG_SAMPLER, replicas, 3, [0.5, 0.5], first_replica=first)


def test_last_stream_index_is_its_own_stream():
    block = rng.replica_uniforms(1, rng.TAG_SAMPLER, 2, 3, first_replica=_LAST - 1)
    assert block[1].tobytes() == rng.stream(1, rng.TAG_SAMPLER, _LAST).random(3).tobytes()
    assert block[1].tobytes() != rng.stream(1, rng.TAG_WALK, 0).random(3).tobytes()


def test_sampler_stream_index_is_range_checked(free_pair):
    last = mw.WalkSampler(free_pair, 5, _LAST).word(4)
    u = rng.stream(5, rng.TAG_SAMPLER, _LAST).random(4)
    assert last.tobytes() == rng.indices_from_uniforms(u, free_pair.weights).tobytes()
    for index in (1 << 44, -1):
        with pytest.raises(ValueError, match="stream index range"):
            mw.WalkSampler(free_pair, 5, index).word(4)


@pytest.mark.parametrize("seed, replicas, n, atoms, first, skip", [
    (7, 1000, 100, 2, 0, 0),            # 655 rows per sub-block: a part block at the end
    (7, 1000, 100, 4, 40, 3),
    (7, 3, 70001, 2, 0, 0),             # rows longer than a sub-block: one row each
    (7, 3, 70001, 9, 2, 5),
    (9, 777, 1, 2, 5, 501),
    (9, 20, 1, 1, 0, 501),
    (9, 300, 17, 9, 0, 4),              # uint16 letters
    (9, 300, 17, 20, 11, 0),
    (2**64 - 1, 40, 33, 2, 1, 2**66 + 3),   # the counter carries into its second word
    (2**64 - 1, 40, 33, 9, 1, 2**66),
    (3, 0, 5, 2, 0, 0),
    (3, 2, 0, 2, 0, 0),
])
@pytest.mark.parametrize("sub_block", [rng._SUB_BLOCK_UNIFORMS, 50])
def test_replica_words_equal_the_whole_block_mapping(monkeypatch, seed, replicas, n, atoms,
                                                     first, skip, sub_block):
    weights = _weights(atoms)
    u = rng.replica_uniforms(seed, rng.TAG_CLOUD, replicas, n, first_replica=first, skip=skip)
    expected = rng.indices_from_uniforms(u, weights)
    monkeypatch.setattr(rng, "_SUB_BLOCK_UNIFORMS", sub_block)
    words = rng.replica_words(seed, rng.TAG_CLOUD, replicas, n, weights,
                              first_replica=first, skip=skip)
    assert words.dtype == expected.dtype == (np.uint8 if atoms <= 8 else np.uint16)
    assert words.shape == (replicas, n)
    assert words.tobytes() == expected.tobytes()


@pytest.mark.parametrize("skip", [2**66, 2**66 + 3, 2**64 * 4 - 1])
def test_skip_past_the_first_counter_word_matches_advance(skip):
    seed, index = 2**64 - 1, 12
    gen = rng.stream(seed, rng.TAG_CLOUD, index)
    gen.bit_generator.advance(skip // 4)
    gen.random(skip % 4)
    row = rng.replica_uniforms(seed, rng.TAG_CLOUD, 1, 9, first_replica=index, skip=skip)[0]
    assert row.tobytes() == gen.random(9).tobytes()


def test_replica_words_never_hold_the_block_of_uniforms():
    # 2000 x 4000 float64 uniforms alone would take 64 MB; numpy reports its
    # buffers to tracemalloc
    tracemalloc.start()
    try:
        words = rng.replica_words(11, rng.TAG_WALK, 2000, 4000, _weights(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.nbytes == 8_000_000
    assert peak < 16_000_000


@pytest.mark.parametrize("replicas, n", [(2000, 300), (3, 70001), (70, 1)])
def test_replica_words_draw_every_stream_once_through_replica_uniforms(monkeypatch,
                                                                       replicas, n):
    calls = []
    draw = rng.replica_uniforms

    def counting(master_seed, tag, replicas, count, first_replica=0, skip=0):
        calls.append((replicas, count))
        return draw(master_seed, tag, replicas, count, first_replica, skip)

    monkeypatch.setattr(rng, "replica_uniforms", counting)
    rng.replica_words(4, rng.TAG_WALK, replicas, n, [0.5, 0.5], first_replica=9, skip=2)
    assert sum(r for r, _ in calls) == replicas
    assert sum(r * c for r, c in calls) == replicas * n
    assert all(r * c <= max(rng._SUB_BLOCK_UNIFORMS, n) for r, c in calls)
