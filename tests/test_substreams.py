"""Batched substream draws against NumPy's own Philox and Generator."""

import math

import numpy as np
import pytest

from ostbc_lab import _substreams
from ostbc_lab.codes import get_code
from ostbc_lab.constellation import get_constellation
from ostbc_lab.sim import _draw_chunk, _draw_trial, _noise_scale, _trial_rng

CODES_M = [("g2", 1), ("g3", 2), ("g4", 1), ("h3", 1)]


def raw_key(seed, point, trial):
    return np.array([seed, (point << 32) | trial], dtype=np.uint64)


# -- raw words ---------------------------------------------------------------

@pytest.mark.parametrize("seed,point,trial", [
    (0, 0, 0),
    (2 ** 64 - 1, 0, 0),
    (0, 2 ** 32 - 1, 0),
    (0, 0, 2 ** 32 - 1),
    (2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1),
    (2026, 7, 12345),
])
def test_philox_words_match_random_raw(seed, point, trial):
    key1 = (point << 32) | trial
    got = _substreams.philox_words(seed, [key1, key1 ^ 1], 5)
    for row, k in zip(got, (key1, key1 ^ 1)):
        want = np.random.Philox(key=np.array([seed, k], dtype=np.uint64)) \
            .random_raw(20)
        np.testing.assert_array_equal(row, want)


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
# Trials of point 0 whose first channel normal takes each ziggurat path.
PATHS = {"fast": 0, "accept": 35, "reject": 96, "tail": 1996,
         "adjacent": 4700}


def first_normal_path(trial):
    """The path of the first normal on the trial's substream, read from the
    live generator (words consumed) and its first raw word."""
    key = raw_key(SEED, 0, trial)
    words = np.random.Philox(key=key).random_raw(2)
    idx = (words & 0xFF).astype(np.intp)
    slow = (words >> 9) & ((1 << 52) - 1) >= _substreams._KI[idx]
    gen = np.random.Generator(np.random.Philox(key=key))
    gen.standard_normal()
    used = gen.bit_generator.state["buffer_pos"]
    if used == 1:
        return "fast"
    if idx[0] == 0:
        return "tail"
    if slow[1]:
        return "adjacent"
    return "accept" if used == 2 else "reject"


def test_path_keys_hit_their_paths():
    for path, trial in PATHS.items():
        assert first_normal_path(trial) == path


@pytest.mark.parametrize("snr", [0.0, 12.0, math.inf])
@pytest.mark.parametrize("mod", ["4qam", "16qam"])
@pytest.mark.parametrize("cid,m", CODES_M + [("g3", 1), ("h3", 2)])
def test_chunk_draws_equal_per_trial_generator(cid, m, mod, snr):
    code, size = get_code(cid), get_constellation(mod).size
    scale = _noise_scale(snr)
    trials = np.concatenate([np.arange(100), list(PATHS.values())])
    _, _, _, ok = _substreams.draw(SEED, 0, trials, 2 * code.n * m, code.k,
                                   size, 2 * m * code.t)
    fallback = {PATHS["tail"]}
    assert {int(t) for t in trials[~ok]} >= fallback
    assert ok[-len(PATHS):].tolist() == [t not in fallback
                                         for t in PATHS.values()]
    h, sym, noise, redraws = _draw_chunk(code, m, size, scale, SEED, 0,
                                         trials)
    assert redraws == 0
    for i, t in enumerate(trials):
        want = _draw_trial(_trial_rng(SEED, 0, int(t)), code.n, m, code.t,
                           code.k, size, scale)
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
                rng = _trial_rng(7, point, int(trials[i]))
                assert np.array_equal(h[i], rng.standard_normal(n_h))
                assert np.array_equal(sym[i], rng.integers(0, 16, code.k))
                assert np.array_equal(noise[i], rng.standard_normal(n_noise))
        rate = fallbacks / per_code
        print(f"{cid} m={m}: {per_code} keys, fallback rate {rate:.4%}")
        assert rate < 0.03
