"""Batched substream draws against NumPy's own Philox and Generator."""

import math

import numpy as np
import pytest

from ostbc_lab import _substreams
from ostbc_lab._substreams import draw_block, draw_trial, trial_rng
from ostbc_lab.codes import RSQRT2, builtin_code_ids, get_code
from ostbc_lab.constellation import get_constellation
from ostbc_lab.sim import _block_trials, _draw_dims, _noise_scale

CODES_M = [("g2", 1), ("g3", 2), ("g4", 1), ("h3", 1)]


def raw_key(seed, point, trial):
    return np.array([seed, (point << 32) | trial], dtype=np.uint64)


# -- raw words ---------------------------------------------------------------

@pytest.mark.parametrize("seed,point,trial", [
    (0, 0, 0),
    (2 ** 63, 0, 0),
    (2 ** 64 - 1, 0, 0),
    (0, 2 ** 32 - 1, 0),
    (0, 0, 2 ** 32 - 1),
    (2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1),
    (2026, 7, 12345),
])
def test_philox_words_match_random_raw(seed, point, trial):
    # rounds 0-1 are taken in closed form from the seed and each block's
    # counter; at seed 2**64 - 1 the key bump wraps
    key1 = (point << 32) | trial
    for nblocks in (1, 2, 5, 14):
        for keys in ([key1, key1 ^ 1], [key1]):
            got = _substreams.philox_words(seed, keys, nblocks)
            assert got.shape == (len(keys), 4 * nblocks)
            for row, k in zip(got, keys):
                want = np.random.Philox(
                    key=np.array([seed, k], dtype=np.uint64)) \
                    .random_raw(4 * nblocks)
                np.testing.assert_array_equal(row, want)


@pytest.mark.parametrize("seed,point,trial", [
    (0, 0, 2 ** 32),
    (0, 2 ** 32, 0),
    (0, -1, 0),
    (0, 0, -1),
    (-1, 0, 0),
    (2 ** 64, 0, 0),
])
def test_trial_rng_rejects_keys_outside_the_key_space(seed, point, trial):
    # (0, 0, 2**32) would alias (0, 1, 0), and a negative field would
    # raise OverflowError from NumPy
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*"):
        trial_rng(seed, point, trial)


@pytest.mark.parametrize("seed,point,trials", [
    (5, 0, [2 ** 32]),
    (5, 0, [3, -1]),
    (5, 2 ** 32, [0]),
    (5, -1, []),
    (-1, 0, [0]),
    (2 ** 64, 0, []),
])
def test_draw_block_rejects_keys_outside_the_key_space(seed, point, trials):
    # trial 2**32 of point 0 would alias trial 0 of point 1; the other keys
    # would raise OverflowError from NumPy or wrap in the seed arithmetic
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*"):
        draw_block(seed, point, trials, 4, 2, 4, 4)


def test_trial_rng_key_space_edges():
    top = trial_rng(2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1)
    want = np.random.Philox(key=raw_key(2 ** 64 - 1, 2 ** 32 - 1,
                                        2 ** 32 - 1))
    np.testing.assert_array_equal(top.bit_generator.random_raw(8),
                                  want.random_raw(8))


# -- ziggurat tables ---------------------------------------------------------

FILL = 1 << 63   # a fast zero in layer 0; as a uniform, 0.5


def normal_from_word(word):
    """One standard_normal drawn with `word` at the head of the buffer:
    (value, words consumed)."""
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    state["buffer"] = np.array([word, FILL, FILL, FILL], dtype=np.uint64)
    state["buffer_pos"] = 0
    bitgen.state = state
    value = np.random.Generator(bitgen).standard_normal()
    return value, bitgen.state["buffer_pos"]


def test_ziggurat_tables_match_live_generator():
    wi, ki = _substreams._WI, _substreams._KI
    assert wi.shape == ki.shape == (256,)
    assert ki[1] == 0  # layer 1 is always slow
    for idx in range(256):
        # rabs = 1 gives wi itself (layer 1 through an accepted wedge)
        value, _ = normal_from_word(idx | 1 << 9)
        assert value == wi[idx], idx
        # the fast path ends exactly at ki: one word below, more at ki
        if ki[idx]:
            _, used = normal_from_word(idx | (int(ki[idx]) - 1) << 9)
            assert used == 1, idx
        _, used = normal_from_word(idx | int(ki[idx]) << 9)
        assert used >= 2, idx


# -- batched draws -----------------------------------------------------------

SEED = 2026
# Trials of point 0 whose first channel normal takes each ziggurat path; the
# tails: bit 17 clear, bit 17 set, and a first uniform pair rejected.
PATHS = {"fast": 0, "accept": 35, "reject": 96, "tail": 1996,
         "tail-minus": 6054, "tail-reject": 227750, "adjacent": 4700,
         "tail-past": 366108, "short": 95232}
# The code and M whose rows "tail-past" and "short" overrun: the last noise
# normal is a tail whose uniforms run past the words ``draw`` reads, or a
# fast word one past them.
PAST = ("g3", 2)


def words_consumed(rng):
    """Raw words a Philox generator has handed out so far."""
    state = rng.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def first_normal_path(trial):
    """The path of the first normal on the trial's substream, read from the
    live generator (words consumed) and its first raw words."""
    key = raw_key(SEED, 0, trial)
    words = np.random.Philox(key=key).random_raw(2)
    idx = (words & 0xFF).astype(np.intp)
    slow = (words >> 9) & ((1 << 52) - 1) >= _substreams._KI[idx]
    gen = np.random.Generator(np.random.Philox(key=key))
    gen.standard_normal()
    used = words_consumed(gen)
    if used == 1:
        return "fast"
    if idx[0] == 0:
        if used > 3:
            return "tail-reject"
        return "tail-minus" if words[0] >> 17 & 1 else "tail"
    if slow[1]:
        return "adjacent"
    return "accept" if used == 2 else "reject"


def last_noise_normal(trial, cid, m):
    """The last noise normal of the trial against the words ``draw`` reads
    per trial: (its first raw word, that word's index, the words consumed
    after it, the words read)."""
    code = get_code(cid)
    n_h, n_noise = 2 * code.n * m, 2 * m * code.t
    gen = trial_rng(SEED, 0, trial)
    gen.standard_normal(n_h)
    gen.integers(0, 16, code.k)
    gen.standard_normal(n_noise - 1)
    first = words_consumed(gen)
    gen.standard_normal()
    word = np.random.Philox(key=raw_key(SEED, 0, trial)) \
        .random_raw(first + 1)[first]
    return (int(word), first, words_consumed(gen),
            _substreams.words_per_trial(n_h, code.k, n_noise))


def test_path_keys_hit_their_paths():
    for path, trial in PATHS.items():
        if path == "tail-past":
            word, first, end, width = last_noise_normal(trial, *PAST)
            slow = (word >> 9) & ((1 << 52) - 1) >= _substreams._KI[0]
            assert word & 0xFF == 0 and slow
            assert first < width < end == first + 3
        elif path == "short":
            _, first, end, width = last_noise_normal(trial, *PAST)
            assert first == width and end == width + 1
        else:
            assert first_normal_path(trial) == path


@pytest.mark.parametrize("snr", [0.0, 12.0, math.inf])
@pytest.mark.parametrize("mod", ["4qam", "16qam"])
@pytest.mark.parametrize("cid,m", CODES_M + [("g3", 1), ("h3", 2)])
def test_chunk_draws_equal_per_trial_generator(monkeypatch, cid, m, mod,
                                               snr):
    code, size = get_code(cid), get_constellation(mod).size
    scale = _noise_scale(snr)
    n_h, n_noise = 2 * code.n * m, 2 * m * code.t
    trials = np.concatenate([np.arange(100), list(PATHS.values())])
    # tails are decoded in the batch; only rows that overrun fall back
    ok = _substreams.draw(SEED, 0, trials, n_h, code.k, size, n_noise)[3]
    fallback = ({PATHS["tail-past"], PATHS["short"]} if (cid, m) == PAST
                else set())
    assert {int(t) for t in trials[~ok]} == fallback
    # a wider band sends wedge near-ties to the per-trial redraw too; at
    # 2**-10 no g2 row of these falls back yet
    monkeypatch.setattr(_substreams, "_BAND", 2.0 ** -8)
    ok = _substreams.draw(SEED, 0, trials, n_h, code.k, size, n_noise)[3]
    assert not ok[:100].all()
    h, sym, noise, redraws = draw_block(SEED, 0, trials, n_h, code.k, size,
                                        n_noise)
    assert redraws == 0
    # the sweep scales the whole block after the fallback rows are redrawn
    h *= RSQRT2
    noise *= scale
    for i, t in enumerate(trials):
        want = draw_trial(trial_rng(SEED, 0, int(t)), n_h, code.k, size,
                          n_noise)
        np.testing.assert_array_equal(h[i], want[0] * RSQRT2)
        np.testing.assert_array_equal(sym[i], want[1])
        np.testing.assert_array_equal(noise[i], want[2] * scale)


def test_tail_keys_decode_like_the_generator():
    # every key of seed 7 among the first 200,000 with a tail word (layer 0,
    # slow) among its first 8 words, drawn as 8 channel normals
    trials = np.arange(200_000)
    words = _substreams.philox_words(7, trials, 2)[:, :8]
    rabs = (words >> 9) & ((1 << 52) - 1)
    tails = trials[((words & 0xFF == 0) & (rabs >= _substreams._KI[0]))
                   .any(axis=1)]
    assert len(tails) == 420
    h, _, _, ok = _substreams.draw(7, 0, tails, 8, 0, 1, 0)
    assert ok.all()
    for row, t in zip(h, tails):
        np.testing.assert_array_equal(
            row, trial_rng(7, 0, int(t)).standard_normal(8))


@pytest.mark.parametrize("slow", [False, True], ids=["no-slow", "all-slow"])
@pytest.mark.parametrize("cid,m", CODES_M)
def test_blocks_of_one_path_equal_per_trial_generator(cid, m, slow):
    # a block whose rows are all sliced, and one whose rows are all parsed:
    # a trial holds a slow word among its leading words iff the generator
    # takes more than n_h + ceil(K/2) + n_noise words for its draws
    code, size = get_code(cid), 16
    n_h, n_noise = 2 * code.n * m, 2 * m * code.t
    lead = n_h + (code.k + 1) // 2 + n_noise
    trials, want = [], []
    for t in range(2000):
        rng = trial_rng(SEED, 0, t)
        draws = (rng.standard_normal(n_h), rng.integers(0, size, code.k),
                 rng.standard_normal(n_noise))
        if (words_consumed(rng) > lead) == slow:
            trials.append(t)
            want.append(draws)
        if len(trials) == 48:
            break
    assert len(trials) == 48
    h, sym, noise, ok = _substreams.draw(SEED, 0, trials, n_h, code.k, size,
                                         n_noise)
    # every trial without a slow word is ok; of the others, only near-ties
    # and overlong runs fall back
    assert ok.all() if not slow else ok.mean() > 0.5
    for i in np.flatnonzero(ok):
        np.testing.assert_array_equal(h[i], want[i][0])
        np.testing.assert_array_equal(sym[i], want[i][1])
        np.testing.assert_array_equal(noise[i], want[i][2])


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
def test_draw_block_at_the_top_seed_equals_per_trial_generator(cid, m):
    # a whole sweep block at seed 2**64 - 1, where rounds 0-1's key bump
    # and the seed's product wrap
    code, size, seed = get_code(cid), 16, 2 ** 64 - 1
    n_h, k, n_noise = _draw_dims(code, m)
    trials = np.arange(2 ** 32 - _block_trials(code, m), 2 ** 32)
    h, sym, noise, redraws = draw_block(seed, 9, trials, n_h, k, size,
                                        n_noise)
    assert redraws == 0
    for i, t in enumerate(trials):
        want = draw_trial(trial_rng(seed, 9, int(t)), n_h, k, size, n_noise)
        np.testing.assert_array_equal(h[i], want[0])
        np.testing.assert_array_equal(sym[i], want[1])
        np.testing.assert_array_equal(noise[i], want[2])


def test_draw_rejects_sizes_off_the_lemire_path():
    with pytest.raises(ValueError):
        _substreams.draw(0, 0, np.arange(4), 4, 2, 9, 8)


@pytest.mark.slow
def test_batched_draws_match_generator_over_a_million_keys():
    # 2**18 trials per code, over four SNR points of one seed
    per_code, block = 2 ** 18, 4096
    for cid, m in CODES_M:
        code = get_code(cid)
        n_h, n_noise = 2 * code.n * m, 2 * m * code.t
        fallbacks = 0
        for start in range(0, per_code, block):
            point, first = divmod(start, 2 ** 16)
            trials = np.arange(first, first + block)
            h, sym, noise, ok = _substreams.draw(7, point, trials, n_h,
                                                 code.k, 16, n_noise)
            fallbacks += int(np.sum(~ok))
            for i in np.flatnonzero(ok):
                rng = trial_rng(7, point, int(trials[i]))
                assert np.array_equal(h[i], rng.standard_normal(n_h))
                assert np.array_equal(sym[i], rng.integers(0, 16, code.k))
                assert np.array_equal(noise[i], rng.standard_normal(n_noise))
        rate = fallbacks / per_code
        print(f"{cid} m={m}: {per_code} keys, fallback rate {rate:.4%}")
        assert rate < 1e-4
