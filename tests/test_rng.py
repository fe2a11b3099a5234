import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import matwalk as mw
from matwalk import rng, walks

_LAST = (1 << 44) - 1   # the largest stream index


def _weights(atoms):
    return np.arange(1, atoms + 1) / (atoms * (atoms + 1) / 2)


def test_tag_families_are_distinct_and_never_reuse_a_retired_value():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(set(tags.values())) == len(tags)
    assert 7 not in tags.values()   # the retired wedge-square walk family


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

    def counting(master_seed, tag, replicas, count, first_replica=0, skip=0, raw=False):
        calls.append((replicas, count))
        return draw(master_seed, tag, replicas, count, first_replica, skip, raw=raw)

    monkeypatch.setattr(rng, "replica_uniforms", counting)
    rng.replica_words(4, rng.TAG_WALK, replicas, n, [0.5, 0.5], first_replica=9, skip=2)
    assert sum(r for r, _ in calls) == replicas
    assert sum(r * c for r, c in calls) == replicas * n
    assert all(r * c <= max(rng._SUB_BLOCK_UNIFORMS, n) for r, c in calls)


def _philox_reference(seed, tag, replicas, count, first=0, skip=0):
    """Uniforms ``skip, ..., skip + count - 1`` of every stream from numpy's Philox."""
    out = np.empty((replicas, count))
    for i in range(replicas):
        bits = np.random.Philox(key=np.array([seed, (tag << 44) | (first + i)], dtype=np.uint64))
        bits.advance(skip // 4)
        gen = np.random.Generator(bits)
        gen.random(skip % 4)
        out[i] = gen.random(count)
    return out


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest(), a.shape, a.dtype


SHORT_AND_LONG_ROWS = [
    (9, 20000, 1, 0, 500),                      # two sub-blocks of counters
    (2**64 - 1, 100, 13, 0, 0),
    (9, 7, 9, 0, 3),
    (9, 4096, 1, 0, 1001),
    (9, 50, 16, 12345, 0),
    (9, 30, 5, 3, 2**66 + 5),                   # the counter's third word
    (9, 30, 7, 3, (2**64 - 1) * 4 + 2),         # the first word carries
    (9, 0, 3, 0, 0),
    (9, 3, 0, 0, 6),
    (9, 2, 5, _LAST - 1, 7),
    (0, 40, rng._SHORT_ROW, 1, 3),
    (0, 40, rng._SHORT_ROW + 1, 1, 3),
    (5, 20, 64, 0, 2),
]


@pytest.mark.parametrize("seed, replicas, count, first, skip", SHORT_AND_LONG_ROWS)
def test_replica_uniforms_equal_numpy_philox(seed, replicas, count, first, skip):
    block = rng.replica_uniforms(seed, rng.TAG_CLOUD, replicas, count, first, skip)
    expected = _philox_reference(seed, rng.TAG_CLOUD, replicas, count, first, skip)
    assert _digest(block) == _digest(expected)


def _in_threads(fns):
    """``fn()`` for every ``fn``, each on its own thread started at once."""
    results = [None] * len(fns)

    def run(i):
        results[i] = fns[i]()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(fns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    return results


def test_a_draw_on_a_worker_thread_leaves_this_threads_next_block_unchanged():
    # each thread re-keys its own Philox, and every row sets the whole state
    rng.replica_uniforms(9, rng.TAG_WALK, 3, 40, 0, 5)
    mine = rng._thread_philox()
    [(block, theirs)] = _in_threads([lambda: (rng.replica_uniforms(4, rng.TAG_CLOUD, 2, 30, 7, 2),
                                              rng._thread_philox())])
    assert theirs is not mine and rng._thread_philox() is mine
    assert _digest(block) == _digest(_philox_reference(4, rng.TAG_CLOUD, 2, 30, 7, 2))
    following = rng.replica_uniforms(9, rng.TAG_WALK, 3, 40, 3, 5)
    assert _digest(following) == _digest(_philox_reference(9, rng.TAG_WALK, 3, 40, 3, 5))


def test_long_rows_drawn_on_many_threads_at_once_equal_numpy_philox():
    # more threads than cores, switching every microsecond: a generator shared
    # between threads would be re-keyed by one thread while another draws
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        blocks = _in_threads([lambda s=s: [rng.replica_uniforms(s, rng.TAG_WALK, 4, 30, 4 * k, 1)
                                           for k in range(25)] for s in range(6)])
    finally:
        sys.setswitchinterval(interval)
    for s, drawn in enumerate(blocks):
        want = _philox_reference(s, rng.TAG_WALK, 100, 30, 0, 1)
        assert _digest(np.concatenate(drawn)) == _digest(want), s


@pytest.mark.parametrize("count", [1, 6, rng._SHORT_ROW])
def test_short_rows_in_many_sub_blocks_equal_numpy_philox(monkeypatch, count):
    monkeypatch.setattr(rng, "_PHILOX_COUNTERS", 5)
    block = rng.replica_uniforms(3, rng.TAG_WALK, 23, count, 40, 2)
    assert _digest(block) == _digest(_philox_reference(3, rng.TAG_WALK, 23, count, 40, 2))


def test_one_draw_rows_take_the_short_row_path(monkeypatch, free_pair):
    dual = mw.estimate_dual_stationary(free_pair, burn_in=3, particles=20_000, seed=6)
    drawn = {"streams": 0, "short": 0}
    draw, short = rng.replica_uniforms, rng._philox_rows

    def counting(master_seed, tag, replicas, count, first_replica=0, skip=0, raw=False):
        drawn["streams"] += replicas
        return draw(master_seed, tag, replicas, count, first_replica, skip, raw=raw)

    def counting_short(seed, keys, skip, count):
        drawn["short"] += len(keys)
        return short(seed, keys, skip, count)

    monkeypatch.setattr(rng, "replica_uniforms", counting)
    monkeypatch.setattr(rng, "_philox_rows", counting_short)
    mw.advance_cloud(free_pair, dual)
    assert drawn == {"streams": 20_000, "short": 20_000}
    mw.brown_triangular_check(mw.TriangularArraySpec(kind="iid_gaussian", row_sizes=(10,),
                                                     replicas=30_000, seed=8))
    assert drawn == {"streams": 50_000, "short": 50_000}


def test_short_rows_draw_in_bounded_memory():
    tracemalloc.start()
    try:
        block = rng.replica_uniforms(11, rng.TAG_MARTINGALE, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output and a few sub-blocks of counters; a key per replica held at
    # once would be another 8 MB
    assert block.nbytes == 8_000_000
    assert peak <= 8_000_000 + 4_000_000


@pytest.mark.parametrize("count", [1, rng._SHORT_ROW + 1])
@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.0, "3"])
def test_seeds_outside_the_key_range_are_refused(seed, count):
    # 2**64 would alias seed 0 and -1 seed 2**64 - 1
    with pytest.raises(ValueError, match="master seed"):
        rng.replica_uniforms(seed, rng.TAG_WALK, 2, count)
    with pytest.raises(ValueError, match="master seed"):
        rng.stream(seed, rng.TAG_WALK)


@pytest.mark.parametrize("count", [1, rng._SHORT_ROW + 1])
def test_seeds_at_both_ends_of_the_key_range_are_their_own(count):
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        block = rng.replica_uniforms(seed, rng.TAG_WALK, 2, count, skip=np.int64(5))
        expected = _philox_reference(int(seed), rng.TAG_WALK, 2, count, skip=5)
        assert block.tobytes() == expected.tobytes()
        assert rng.stream(seed, rng.TAG_WALK, 1).random(count).tobytes() == \
            _philox_reference(int(seed), rng.TAG_WALK, 1, count, first=1).tobytes()


@pytest.mark.parametrize("count", [1, rng._SHORT_ROW + 1])
@pytest.mark.parametrize("skip", [2.5, 2.0, "2"])
def test_skips_that_are_not_integers_are_refused(skip, count):
    with pytest.raises(ValueError, match="skip"):
        rng.replica_uniforms(1, rng.TAG_WALK, 2, count, skip=skip)


def test_library_seed_range_is_checked(free_pair):
    with pytest.raises(ValueError, match="master seed"):
        mw.lyapunov_top(free_pair, n=5, replicas=2, seed=2**64)


@pytest.mark.parametrize("atoms", [1, 2, 3, 8, 9, rng._COMPARE_ATOMS, rng._COMPARE_ATOMS + 1])
def test_letters_at_and_below_every_cdf_entry(atoms):
    weights = _weights(atoms)
    cdf = np.cumsum(weights)
    below = np.nextafter(cdf, 0.0)
    at = cdf[:-1]                   # uniforms are below 1, the last entry
    u = np.concatenate([[0.0], at, below])
    expected = np.concatenate([[0], np.arange(1, atoms), np.arange(atoms)])
    letters = rng.indices_from_uniforms(u.reshape(1, -1), weights)
    assert letters.dtype == (np.uint8 if atoms <= 8 else np.uint16)
    assert letters.shape == (1, len(u))
    assert letters[0].tolist() == expected.tolist()


LETTER_WEIGHTS = {f"{a}{kind}": w for a in (1, 2, 3, 4, 8, 9, 20, 100) for kind, w in [
    ("equal", np.full(a, 1.0 / a)), ("ramp", _weights(a))]}
LETTER_WEIGHTS.update(
    tiny=np.array([1e-300, 0.5, 0.5 - 1e-300]),
    tiny_last=np.array([0.75, 0.25, 1e-300]),     # cdf entry 1 is 1.0: never reached
    thirds=np.array([1.0, 1.0, 1.0]) / 3.0,
    tiny_many=np.array([1e-300] * 8 + [1.0 - 8e-300]),
)


@pytest.mark.parametrize("name", list(LETTER_WEIGHTS))
def test_raw_letters_equal_the_float_rule_at_every_cdf_entry(name):
    weights = LETTER_WEIGHTS[name]
    cdf = np.cumsum(weights)
    # the raw outputs whose uniforms are the last below, and the first at or
    # above, every cdf entry, each with its neighbours
    first = np.ceil(cdf * 2.0**53).astype(object)
    grid = {int(m) + k for m in first for k in (-2, -1, 0, 1) if 0 <= int(m) + k < 2**53}
    words = sorted({(m << 11) + low for m in grid | {0, 2**53 - 1}
                    for low in (0, 1, 2**10, 2**11 - 1)})
    words = np.array(words, dtype=np.uint64).reshape(1, -1)
    expected = rng.indices_from_uniforms((words >> np.uint64(11)) * 2.0**-53, weights)
    letters = np.empty_like(expected)
    rng._letters(words, rng._letter_rule(weights), letters)
    assert letters.tolist() == expected.tolist()
    assert letters.max() < len(weights)


@pytest.mark.parametrize("atoms, shift", [(2, 63), (4, 62), (8, 61), (16, 60), (1, None),
                                          (3, None), (20, None)])
def test_equal_power_of_two_weights_take_a_shift(atoms, shift):
    rule = rng._letter_rule(np.full(atoms, 1.0 / atoms))
    assert (int(rule) if rule.ndim == 0 else None) == shift


@pytest.mark.parametrize("name", ["2equal", "4equal", "3ramp", "9ramp", "20equal", "100ramp",
                                  "tiny"])
def test_replica_words_equal_the_float_rule_on_drawn_uniforms(name):
    weights = LETTER_WEIGHTS[name]
    for count, skip in [(5, 3), (700, 1)]:     # the short and the re-keyed rows
        u = rng.replica_uniforms(2, rng.TAG_WALK, 40, count, first_replica=6, skip=skip)
        words = rng.replica_words(2, rng.TAG_WALK, 40, count, weights, first_replica=6,
                                  skip=skip)
        assert words.tobytes() == rng.indices_from_uniforms(u, weights).tobytes()


@pytest.mark.parametrize("count", [1, rng._SHORT_ROW, rng._SHORT_ROW + 1, 300])
def test_raw_rows_are_the_words_behind_the_uniforms(count):
    raw = rng.replica_uniforms(8, rng.TAG_CLOUD, 9, count, first_replica=2, skip=5, raw=True)
    u = rng.replica_uniforms(8, rng.TAG_CLOUD, 9, count, first_replica=2, skip=5)
    assert raw.dtype == np.uint64 and raw.shape == u.shape
    assert ((raw >> np.uint64(11)) * 2.0**-53).tobytes() == u.tobytes()
    bits = np.random.Philox(key=np.array([8, (rng.TAG_CLOUD << 44) | 4], dtype=np.uint64))
    bits.advance(1)
    assert raw[2].tolist() == bits.random_raw(1 + count)[1:].tolist()


@pytest.mark.parametrize("n_atoms, letters", [(2, 8), (3, 5), (4, 4), (20, 1)])
def test_table_codes_are_the_base_a_words(n_atoms, letters):
    angles = np.linspace(0.01, 0.02, n_atoms)
    atoms = [[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in angles]
    [table] = walks._tables([atoms])
    assert table.letters == letters
    n = 3 * letters + 2                       # off the grid of whole table steps
    words = np.random.default_rng(1).integers(0, n_atoms, size=(5, n)).astype(
        np.uint8 if n_atoms <= 8 else np.uint16)
    for lo, hi in [(0, letters + 1), (letters + 1, n)]:    # the pieces up to two marks
        codes, _ = table._piece_codes(words[:, lo:hi])
        expected = []
        full, rest = divmod(hi - lo, letters)
        for k in range(full):
            step = words[:, lo + k * letters:lo + (k + 1) * letters]
            expected.append(sum(step[:, j].astype(int) * n_atoms**j for j in range(letters)))
        expected += [words[:, hi - rest + j].astype(int) + table.single for j in range(rest)]
        assert codes.dtype == np.uint16
        assert codes.tolist() == np.array(expected).tolist()
