import concurrent.futures
import json
import math
import multiprocessing
import os
import signal
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from fresh_python import run_python
from ostbc_lab import _substreams, sim
from ostbc_lab.codes import get_code
from ostbc_lab.constellation import get_constellation
from ostbc_lab.sim import (
    _CHUNK,
    DECODER_NAMES,
    SCHEMA,
    SimConfig,
    ber_to_csv,
    ber_to_json,
    resolve_workers,
    run_ber,
    run_trial,
    sample_channel,
)

# A wedge near-tie band wide enough that some trials of every fallback test
# below leave the batched draw and are redrawn per trial; since ziggurat
# tails are decoded in the batch, only near-ties and overlong rows do.
WIDE_BAND = 2.0 ** -12


def substream(seed, point, trial):
    # the documented per-trial keying: (seed, point << 32 | trial)
    key = np.array([seed, (point << 32) | trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# -- channel sampling --------------------------------------------------------

def test_channel_statistics():
    rng = np.random.default_rng(5)
    hs = np.array([sample_channel(2, 2, rng) for _ in range(20000)])
    assert hs.shape == (20000, 2, 2)
    # complex entries are CN(0,1): each real dimension Normal(0, 1/2)
    hs = hs.view(float)
    assert abs(float(hs.mean())) < 0.02
    assert 0.95 < float(2.0 * hs.var()) < 1.05


def test_channel_sampling_reproducible():
    a = sample_channel(3, 2, np.random.default_rng(123))
    b = sample_channel(3, 2, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)


# -- single trials -----------------------------------------------------------

@pytest.mark.parametrize("cid", ["g2", "h3"])
def test_noise_free_trial_is_exact(cid):
    for t in range(20):
        tr = run_trial(cid, "16qam", math.inf, substream(9, 0, t),
                       decoders="all")
        assert set(tr.decoded) == set(DECODER_NAMES)
        assert tr.agreement
        for dec in tr.decoded.values():
            np.testing.assert_array_equal(dec.indices, tr.sent)


def test_noisy_trial_decoders_agree():
    for t in range(50):
        tr = run_trial("g4", "4qam", 10.0, substream(41, 0, t),
                       decoders="all", m=2)
        assert tr.agreement
        assert tr.redraws == 0


@pytest.mark.parametrize("kw,match", [
    ({"snr_db": math.nan}, r"snr_db values must be finite or \+inf"),
    ({"snr_db": -math.inf}, r"snr_db values must be finite or \+inf"),
    ({"decoders": ()}, "decoders must be nonempty"),
    ({"m": 1.5}, "^m must be an integer$"),
    ({"m": "2"}, "^m must be an integer$"),
    ({"snr_db": -4000.0}, r"snr_db values must be finite or \+inf"),
    ({"decoders": ("all", "bogus")}, r"^unknown decoders \['bogus'\]"),
    ({"decoders": ("lattice", "lattice")}, "^decoders must not repeat"),
    ({"decoders": ("all", "all")}, "^decoders must not repeat"),
    # True would run at 1 dB; the others would fail with a TypeError that
    # names no argument
    ({"snr_db": True}, "^snr_db must hold real numbers in dB, got True$"),
    ({"snr_db": np.True_}, "^snr_db must hold real numbers in dB"),
    ({"snr_db": "3"}, "^snr_db must hold real numbers in dB, got '3'$"),
    ({"snr_db": None}, "^snr_db must hold real numbers in dB, got None$"),
    ({"snr_db": 1 + 0j}, r"^snr_db must hold real numbers in dB, got \(1\+0j\)$"),
], ids=["nan-snr", "-inf-snr", "no-decoders", "float-m", "str-m",
        "overflowing-snr", "unknown-next-to-all", "repeated-decoder",
        "repeated-all", "bool-snr", "numpy-bool-snr", "str-snr", "none-snr",
        "complex-snr"])
def test_run_trial_rejects(kw, match):
    # without the checks a NaN soft output quantizes to the top index
    # silently, no decoder fails with an IndexError, and a float m fails
    # inside NumPy with a message that names no argument
    kw = {"snr_db": 0.0, **kw}
    with pytest.raises(ValueError, match=match):
        run_trial("g2", "4qam", rng=substream(1, 0, 0), **kw)


def test_noise_scale_values():
    # N0 = 10**(-snr/10) stops being a finite float below about -3082.5 dB;
    # every SNR above that keeps its value
    assert sim._noise_scale(math.inf) == 0.0
    for snr in (-3082.0, -20.0, -1.5, 0.0, 3.0, 6.5, 12.0, 400.0, 1e308):
        assert sim._noise_scale(snr) == math.sqrt(10.0 ** (-snr / 10.0) / 2.0)
    for snr in (-3083.0, -1e308, math.nan, -math.inf):
        with pytest.raises(ValueError,
                           match=r"snr_db values must be finite or \+inf"):
            sim._noise_scale(snr)


# Calls on an empty channel vector, which the all-zero redraw would retry
# forever; each runs in a child process under a timeout, so that a
# regression fails instead of hanging the suite.
EMPTY_CHANNEL_CALLS = {
    "run_trial-m0": ("from ostbc_lab.sim import run_trial; "
                     "run_trial('g2', '4qam', 0.0, "
                     "np.random.default_rng(0), m=0)", "m must be >= 1"),
    "draw_trial-n_h0": ("from ostbc_lab._substreams import draw_trial; "
                        "draw_trial(np.random.default_rng(0), 0, 2, 4, 4)",
                        "n_h must be >= 1"),
}


@pytest.mark.parametrize("call", EMPTY_CHANNEL_CALLS)
def test_empty_channel_is_rejected_not_redrawn_forever(call):
    code, message = EMPTY_CHANNEL_CALLS[call]
    proc = run_python("-c", f"import numpy as np; {code}", timeout=30)
    assert proc.returncode == 1
    assert f"ValueError: {message}" in proc.stderr


# -- configuration -----------------------------------------------------------

def test_config_normalization(monkeypatch):
    cfg = SimConfig(code="g2", constellation="4qam", snr_db=[0, 6],
                    trials=10, seed=1, decoders="all")
    assert cfg.snr_db == (0.0, 6.0)
    assert cfg.decoders == DECODER_NAMES
    single = SimConfig(code="g2", constellation="4qam", snr_db=(3,),
                       trials=1, seed=0, decoders="trace")
    assert single.decoders == ("trace",)
    # NumPy integers are stored as int, so the config serializes
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    typed = SimConfig(code="g2", constellation="4qam", snr_db=(0.0,),
                      trials=np.int64(5), seed=np.uint64(5), m=np.int32(1))
    assert [type(v) for v in (typed.trials, typed.seed, typed.m)] == [int] * 3
    doc = json.loads(ber_to_json(run_ber(typed)))
    assert (doc["config"]["trials"], doc["config"]["seed"]) == (5, 5)


@pytest.mark.parametrize("kw", [
    {"snr_db": ()},
    {"trials": 0},
    {"seed": -1},
    {"seed": 2 ** 64},
    {"m": 0},
    {"decoders": ("lattice", "viterbi")},
    {"snr_db": (math.nan,)},
    {"snr_db": (0.0, -math.inf)},
    {"snr_db": (0.0, -4000.0)},
    {"trials": 2 ** 32},
    {"code": "g5"},
    {"constellation": "8psk"},
    {"snr_db": range(2 ** 32)},
    {"seed": 1.5},
    {"trials": 200.0},
    {"m": 1.5},
    # run_ber would fail with an IndexError, in a pool worker when there
    # are several
    {"decoders": ()},
    # every name is checked before "all" is expanded, and none may repeat
    {"decoders": ("all", "bogus")},
    {"decoders": ("bogus", "all")},
    {"decoders": ("lattice", "lattice")},
    {"decoders": ("lattice", "all", "lattice")},
])
def test_config_rejects(kw):
    base = dict(code="g2", constellation="4qam", snr_db=(0.0,),
                trials=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(**{**base, **kw})


@pytest.mark.parametrize("kw, match", [
    # a string would be read as one SNR per character, and an unsized
    # value failed with a TypeError that named no field
    ({"snr_db": "12"}, "^snr_db must be a sequence of SNRs in dB, got '12'$"),
    ({"snr_db": b"12"}, "^snr_db must be a sequence"),
    ({"snr_db": 6.0}, "^snr_db must be a sequence of SNRs in dB, got 6.0$"),
    ({"snr_db": np.float64(6.0)}, "^snr_db must be a sequence"),
    ({"snr_db": np.array(6.0)}, "^snr_db must be a sequence"),
    # each element must be a real number: float() read "12" as 12 dB and
    # True as 1 dB, and failed on the rest without naming snr_db
    ({"snr_db": ("12",)}, "^snr_db must hold real numbers in dB, got '12'$"),
    ({"snr_db": (True,)}, "^snr_db must hold real numbers in dB, got True$"),
    ({"snr_db": (0.0, np.True_)}, "^snr_db must hold real numbers in dB, "
                                  "got np.True_$"),
    ({"snr_db": ("x",)}, "^snr_db must hold real numbers in dB, got 'x'$"),
    ({"snr_db": (None,)}, "^snr_db must hold real numbers in dB, got None$"),
    ({"snr_db": (1 + 0j,)}, r"^snr_db must hold real numbers in dB, "
                            r"got \(1\+0j\)$"),
    # the trial count is checked before it is checked as a substream key
    ({"trials": -5}, "^trials must be >= 1$"),
    ({"trials": 0, "seed": -1}, "^trials must be >= 1$"),
], ids=["str-snr", "bytes-snr", "float-snr", "numpy-float-snr",
        "0d-array-snr", "str-element", "bool-element", "numpy-bool-element",
        "word-element", "none-element", "complex-element", "negative-trials",
        "zero-trials-bad-seed"])
def test_config_rejection_names_the_field(kw, match):
    base = dict(code="g2", constellation="4qam", snr_db=(0.0,),
                trials=10, seed=0)
    with pytest.raises(ValueError, match=match):
        SimConfig(**{**base, **kw})


def test_config_accepts_real_snr_elements():
    # NumPy's integer and float scalars are real numbers; all become floats.
    # They are checked before that, and N0 of -400 dB, 1e40, is no float16
    cfg = SimConfig(code="g2", constellation="4qam",
                    snr_db=(3, np.int64(6), np.float32(0.5), np.float64(9.0),
                            np.float16(-400.0)),
                    trials=10, seed=0)
    assert cfg.snr_db == (3.0, 6.0, 0.5, 9.0, -400.0)
    assert all(type(s) is float for s in cfg.snr_db)


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("OSTBC_LAB_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("OSTBC_LAB_THREADS", "0")
    assert resolve_workers() >= 1
    monkeypatch.setenv("OSTBC_LAB_THREADS", "-2")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.setenv("OSTBC_LAB_THREADS", "many")
    with pytest.raises(ValueError):
        resolve_workers()


# -- sweeps ------------------------------------------------------------------

def test_run_ber_deterministic(monkeypatch):
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    cfg = SimConfig(code="g2", constellation="16qam", snr_db=(4.0, 10.0),
                    trials=150, seed=77)
    a, b = run_ber(cfg), run_ber(cfg)
    assert ber_to_json(a) == ber_to_json(b)
    assert ber_to_csv(a) == ber_to_csv(b)


@pytest.mark.parametrize("decoders", [("lattice",), ("all",)],
                         ids=["lattice", "all"])
def test_sweep_decomposes_into_trials(monkeypatch, decoders):
    # the chunked sweep must give exactly the error totals of per-trial
    # decoding on the documented substreams, across draw block and chunk
    # boundaries, with some trials redrawn off the batched draw: a wider
    # band sends wedge near-ties there
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    monkeypatch.setattr(_substreams, "_BAND", WIDE_BAND)
    code, const = get_code("g2"), get_constellation("4qam")
    # one whole draw block and a clipped second one
    cfg = SimConfig(code="g2", constellation="4qam", snr_db=(0.0,),
                    trials=sim._block_trials(code, 1) + 300, seed=2024,
                    decoders=decoders)
    ok = _substreams.draw(cfg.seed, 0, np.arange(cfg.trials), 2 * code.n,
                          code.k, const.size, 2 * code.t)[3]
    assert not ok.all()
    point = run_ber(cfg).points[0]
    sym = bits = 0
    for t in range(cfg.trials):
        tr = run_trial(code, const, 0.0, substream(cfg.seed, 0, t), decoders)
        assert tr.agreement
        sent, got = tr.sent, tr.decoded["lattice"].indices
        re_bad = sent[0::2] != got[0::2]
        im_bad = sent[1::2] != got[1::2]
        sym += int(np.sum(re_bad | im_bad))
        g = const.gray
        bits += int(np.sum(np.bitwise_count(g[sent] ^ g[got])))
    assert point.sym_errors == sym
    assert point.bit_errors == bits
    assert point.disagreements == 0
    assert point.sym_errors > 0  # 0 dB actually exercises the counter


@pytest.mark.parametrize("draw", [96, 128, 1000])
def test_sweep_independent_of_draw_block(monkeypatch, draw):
    # 1100 trials cross several draw blocks and decode chunks of every
    # size here, and some g3 m=2 trials, wedge near-ties under a wider
    # band, fall back to a per-trial redraw
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    monkeypatch.setattr(_substreams, "_BAND", WIDE_BAND)
    cfg = SimConfig(code="g3", constellation="16qam", snr_db=(0.0,),
                    trials=1100, seed=31, m=2)
    code = get_code("g3")
    ok = _substreams.draw(cfg.seed, 0, np.arange(cfg.trials), 2 * code.n * 2,
                          code.k, 16, 2 * 2 * code.t)[3]
    assert not ok.all()
    default = ber_to_json(run_ber(cfg))
    # the word budget of `draw` g3 m=2 trials (56 words each)
    monkeypatch.setattr(sim, "_DRAW_WORDS", draw * 56)
    assert sim._block_trials(code, 2) == draw
    assert ber_to_json(run_ber(cfg)) == default


@pytest.mark.parametrize("cid", ["g2", "g3", "g4", "h3"])
@pytest.mark.parametrize("m", [1, 2])
def test_draw_block_fits_word_budget(cid, m):
    # a block holds at least one trial and no more words than the budget,
    # so no code draws more at once than g3 m=2, which sets the budget
    code = get_code(cid)
    block = sim._block_trials(code, m)
    words = _substreams.words_per_trial(2 * code.n * m, code.k,
                                        2 * m * code.t)
    assert block >= 1
    assert block * words <= sim._DRAW_WORDS
    assert (block + 1) * words > sim._DRAW_WORDS
    if (cid, m) == ("g3", 2):
        assert (words, block) == (56, 512)


def test_draw_block_of_one_trial_when_budget_is_small(monkeypatch):
    monkeypatch.setattr(sim, "_DRAW_WORDS", 1)
    assert sim._block_trials(get_code("g4"), 2) == 1


@pytest.mark.parametrize("chunk", [1, 37, 512, "block"])
@pytest.mark.parametrize("cfg", [
    SimConfig(code="g3", constellation="16qam", snr_db=(0.0,), trials=1100,
              seed=31, m=2),
    SimConfig(code="g2", constellation="4qam", snr_db=(0.0, 6.0), trials=300,
              seed=2024, decoders=("all",)),
    SimConfig(code="g4", constellation="4qam", snr_db=(0.0,), trials=900,
              seed=7, decoders=("all",)),
], ids=["g3m2-lattice", "g2-all", "g4-all"])
def test_sweep_independent_of_decode_chunk(monkeypatch, cfg, chunk):
    # the decode chunk bounds memory only: Hc, the transmit product and the
    # matched filters run per chunk, everything else per draw block.  With
    # no float budget a chunk is exactly `_CHUNK` trials; "block" decodes
    # each draw block (796 trials for g4) in one chunk
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    default = ber_to_json(run_ber(cfg))
    code = get_code(cfg.code)
    if chunk == "block":
        chunk = sim._block_trials(code, cfg.m)
    monkeypatch.setattr(sim, "_DECODE_FLOATS", 0)
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    assert sim._chunk_trials(code, get_constellation(cfg.constellation),
                             cfg.m, cfg.decoders) == chunk
    assert ber_to_json(run_ber(cfg)) == default


@pytest.mark.parametrize("cid, m, mod, decoders, want", [
    ("g3", 2, "16qam", "lattice", 128),
    ("g2", 1, "4qam", "lattice", 2048),
    ("h3", 1, "4qam", "lattice", 682),
    ("g4", 1, "4qam", "lattice", 256),
    ("g2", 1, "4qam", "all", 1638),
    ("h3", 1, "4qam", "all", 682),
    ("g4", 1, "4qam", "all", 256),
    ("g2", 1, "16qam", "exhaustive", 512),
    ("g3", 1, "16qam", "all", 128),
    ("g4", 1, "16qam", "all", 128),
    ("h3", 1, "16qam", "exhaustive", 128),
])
def test_decode_chunk_sizes(cid, m, mod, decoders, want):
    # a chunk holds `_DECODE_FLOATS` floats of its largest per-trial array,
    # at least `_CHUNK` trials: Hc (2MT x 2K), or with the search selected
    # its [G | r] (g2 4qam: 4 x 5) or its (dv + 2) x L**dv factor (g2
    # 16qam: 4 x 16; g3, g4 16qam: 6 x 256, under the floor)
    assert sim._chunk_trials(get_code(cid), get_constellation(mod), m,
                             sim._decoder_names(decoders)) == want


def test_lattice_decode_peak_within_g3m2_block():
    # one whole draw block per built-in code, drawn and decoded
    # lattice-only, peaks within 1.1x the g3 M=2 block that sets both
    # budgets: larger chunks of smaller arrays cost no more memory
    peaks = {}
    for cid, m in [("g2", 1), ("h3", 1), ("g4", 1), ("g3", 2)]:
        code = get_code(cid)
        block = sim._block_trials(code, m)
        cfg = SimConfig(code=cid, constellation="16qam", snr_db=(0.0,),
                        trials=block, seed=3, m=m)
        # the first call fills the per-code caches
        sim._simulate_block(cfg, 0, 0, block)
        tracemalloc.start()
        try:
            sim._simulate_block(cfg, 0, 0, block)
            peaks[cid] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for cid in ("g2", "h3", "g4"):
        assert peaks[cid] <= 1.1 * peaks["g3"], (cid, peaks)
    # and the g3 M=2 block itself stays near 1 MiB: Philox's round buffers
    # hold one key row, not two, and no arrays of their own for rounds 0-1
    assert peaks["g3"] <= 1.05 * 2 ** 20, peaks


def test_noise_free_sweep_is_error_free(monkeypatch):
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    cfg = SimConfig(code="g3", constellation="16qam", snr_db=(math.inf,),
                    trials=100, seed=5)
    res = run_ber(cfg)
    assert res.points[0].sym_errors == 0
    assert res.points[0].ser == 0.0
    assert res.points[0].ber == 0.0
    # inf snr serializes as the non-standard but parseable Infinity token
    doc = json.loads(ber_to_json(res))
    assert doc["points"][0]["snr_db"] == math.inf


def test_all_decoders_sweep_agreement(monkeypatch):
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    # g4 16qam searches 4**8 = 65536 candidates per trial exhaustively
    for code, mod, snr, trials in (("g2", "4qam", 8.0, 50),
                                   ("g4", "16qam", 6.0, 1000)):
        cfg = SimConfig(code=code, constellation=mod, snr_db=(snr,),
                        trials=trials, seed=3, decoders=("all",))
        res = run_ber(cfg)
        assert res.agreement == 1.0
        assert res.points[0].disagreements == 0


# (sym_errors, bit_errors) at 0 dB and 6 dB; 500 trials, seed 2026, m=1.
# Any change to the substreams, the transmit model or a decision shows here.
FROZEN_TOTALS = {
    ("g2", "4qam"): [(228, 241), (45, 47)],
    ("g2", "16qam"): [(652, 982), (377, 459)],
    ("g3", "4qam"): [(127, 136), (8, 8)],
    ("g3", "16qam"): [(852, 1051), (230, 248)],
    ("g4", "4qam"): [(51, 52), (1, 1)],
    ("g4", "16qam"): [(658, 767), (121, 125)],
    ("h3", "4qam"): [(207, 224), (21, 21)],
    ("h3", "16qam"): [(871, 1183), (371, 422)],
}


@pytest.mark.parametrize("cid,mod", sorted(FROZEN_TOTALS))
def test_sweep_totals_frozen(monkeypatch, cid, mod):
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    decoder_sets = [("lattice",), ("all",)] if mod == "4qam" else [("lattice",)]
    for decoders in decoder_sets:
        cfg = SimConfig(code=cid, constellation=mod, snr_db=(0.0, 6.0),
                        trials=500, seed=2026, decoders=decoders)
        points = run_ber(cfg).points
        assert [(p.sym_errors, p.bit_errors) for p in points] \
            == FROZEN_TOTALS[cid, mod]
        assert all(p.disagreements == 0 for p in points)


def test_worker_count_does_not_change_results(monkeypatch):
    cfg = SimConfig(code="h3", constellation="4qam", snr_db=(2.0, 8.0),
                    trials=120, seed=9)
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    serial = ber_to_json(run_ber(cfg))
    monkeypatch.setenv("OSTBC_LAB_THREADS", "2")
    parallel = ber_to_json(run_ber(cfg))
    assert serial == parallel


def test_worker_count_is_capped():
    # the arithmetic alone, on counts no test could run: no task list is
    # built and no process is started
    big = 2 ** 32 - 1
    assert sim._worker_count(100000, big, big, 2) == 2
    assert sim._worker_count(100000, big, big, 64) == 64
    assert sim._worker_count(3, big, big, 64) == 3
    assert sim._worker_count(8, 1, sim._TASK, 64) == 1
    assert sim._worker_count(8, 1, 2 * sim._TASK + 1, 64) == 3
    assert sim._worker_count(8, 2, 1, 64) == 2
    # a task need not hold whole draw blocks: g2's 1433-trial blocks
    # straddle every task boundary, its last block in each task clipped
    assert sim._TASK % sim._block_trials(get_code("g2"), 1)
    assert 1 <= sim._usable_cpus() <= (os.cpu_count() or 1)


def test_all_cores_means_usable_cpus(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 5)
    monkeypatch.setenv("OSTBC_LAB_THREADS", "0")
    assert resolve_workers() == 5


@pytest.fixture(scope="module")
def multi_task_sweep():
    # one g3 m=2 point over three tasks, the last one partial, with some
    # trials, wedge near-ties under a wider band, on the per-trial fallback
    # path
    code = get_code("g3")
    cfg = SimConfig(code="g3", constellation="16qam", snr_db=(0.0,),
                    trials=2 * sim._TASK + 1100, seed=47, m=2)
    assert cfg.trials % sim._TASK
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_substreams, "_BAND", WIDE_BAND)
        ok = _substreams.draw(cfg.seed, 0, np.arange(cfg.trials),
                              2 * code.n * 2, code.k, 16, 2 * 2 * code.t)[3]
        assert not ok.all()
        mp.delenv("OSTBC_LAB_THREADS", raising=False)
        return cfg, ber_to_json(run_ber(cfg))


@pytest.mark.parametrize("task", [None, 300], ids=["default-task", "task300"])
@pytest.mark.parametrize("threads", [None, "1", "2", "3"],
                         ids=["unset", "1", "2", "3"])
def test_sweep_independent_of_worker_count(monkeypatch, multi_task_sweep,
                                           no_live_pool, threads, task):
    # a task size off the decode chunk grid splits chunks across workers;
    # the CPU count is raised so "3" runs three workers on any host.  The
    # pool forks after the band is widened, so workers redraw near-ties too
    cfg, serial = multi_task_sweep
    monkeypatch.setattr(_substreams, "_BAND", WIDE_BAND)
    if threads is None:
        monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("OSTBC_LAB_THREADS", threads)
    if task is not None:
        assert task % _CHUNK
        monkeypatch.setattr(sim, "_TASK", task)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    assert ber_to_json(run_ber(cfg)) == serial


def pool_pids():
    return {p.pid for p in multiprocessing.active_children()}


def assert_exited(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# two one-task points
H3_TWO_POINTS = SimConfig(code="h3", constellation="4qam", snr_db=(2.0, 8.0),
                          trials=120, seed=9)


@pytest.fixture
def two_workers(monkeypatch, no_live_pool):
    # the CPU count is raised so "2" runs two workers on any host
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("OSTBC_LAB_THREADS", "2")


def test_pool_outlives_the_sweep(monkeypatch, two_workers):
    # the h3 4qam all sweep of tests/test_cli.py's worker-count sweeps at 2,
    # 1 and 2 workers: the one-worker sweep leaves the pool alone, and the
    # third sweep reuses the first one's workers
    cfg = SimConfig(code="h3", constellation="4qam", snr_db=(0.0, 6.0),
                    trials=9000, seed=5, decoders=("all",))
    files, pids = [], []
    for threads in ("2", "1", "2"):
        monkeypatch.setenv("OSTBC_LAB_THREADS", threads)
        files.append(ber_to_json(run_ber(cfg)))
        pids.append(pool_pids())
    assert len(pids[0]) == 2
    assert pids[0] == pids[1] == pids[2]
    assert files[0] == files[1] == files[2]


def test_pool_is_replaced_when_its_size_changes(monkeypatch, two_workers):
    run_ber(H3_TWO_POINTS)
    old = pool_pids()
    assert len(old) == 2
    monkeypatch.setenv("OSTBC_LAB_THREADS", "3")
    run_ber(SimConfig(code="h3", constellation="4qam",
                      snr_db=(2.0, 8.0, 14.0), trials=120, seed=9))
    new = pool_pids()
    assert len(new) == 3
    assert not new & old
    assert_exited(old)


def test_broken_pool_is_dropped(monkeypatch, two_workers):
    # eight tasks, more than the window holds
    cfg = SimConfig(code="g2", constellation="4qam", snr_db=(0.0, 6.0),
                    trials=2000, seed=12)
    monkeypatch.setattr(sim, "_TASK", 500)
    run_ber(cfg)
    victim, *_ = pids = pool_pids()
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while victim in pool_pids():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        run_ber(cfg)
    assert sim._POOL == [None, 0]
    parallel = ber_to_json(run_ber(cfg))
    assert not pool_pids() & pids
    monkeypatch.delenv("OSTBC_LAB_THREADS")
    assert parallel == ber_to_json(run_ber(cfg))


def test_pool_workers_exit_with_the_interpreter():
    proc = run_python(
        "-c",
        "import multiprocessing, os\n"
        "from ostbc_lab import sim\n"
        "sim._usable_cpus = lambda: 2\n"
        "os.environ['OSTBC_LAB_THREADS'] = '2'\n"
        "sim.run_ber(sim.SimConfig(code='h3', constellation='4qam', "
        "snr_db=(2.0, 8.0), trials=120, seed=9))\n"
        "print(*(p.pid for p in multiprocessing.active_children()))\n",
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    assert_exited(pids)


def test_one_worker_sweep_loads_no_pool_machinery():
    # _pool imports the process pool when a sweep first needs one
    proc = run_python(
        "-c",
        "import os, sys\n"
        "os.environ['OSTBC_LAB_THREADS'] = '1'\n"
        "import ostbc_lab\n"
        "ostbc_lab.run_ber(ostbc_lab.SimConfig(code='g3', m=2, "
        "constellation='4qam', snr_db=(2.0, 8.0), trials=300, seed=9))\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules])\n",
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class _InlinePool:
    """Stands in for ProcessPoolExecutor: runs each task when it is
    submitted and counts the futures submitted but not yet read."""

    made = []

    def __init__(self, max_workers):
        self.workers = max_workers
        self.submitted = 0
        self.reads = []
        self.peak_unread = 0
        self.made.append(self)

    def submit(self, fn, *args):
        index, value = self.submitted, fn(*args)
        self.submitted += 1
        self.peak_unread = max(self.peak_unread,
                               self.submitted - len(self.reads))
        pool = self

        class Future:
            def result(self):
                pool.reads.append(index)
                return value

        return Future()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pool_is_fed_from_a_bounded_window(monkeypatch, no_live_pool):
    cfg = SimConfig(code="g2", constellation="4qam", snr_db=(0.0, 6.0),
                    trials=1000, seed=12)
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    serial = ber_to_json(run_ber(cfg))
    monkeypatch.setattr(sim, "_TASK", 50)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)
    monkeypatch.setattr(_InlinePool, "made", [])
    monkeypatch.setenv("OSTBC_LAB_THREADS", "2")
    assert ber_to_json(run_ber(cfg)) == serial
    (pool,) = _InlinePool.made
    assert pool.workers == 2
    assert pool.submitted == 2 * 1000 // 50
    # every future is read, in submission order, with at most two per
    # worker outstanding
    assert pool.reads == list(range(pool.submitted))
    assert pool.peak_unread == 2 * pool.workers


# -- serialization -----------------------------------------------------------

@pytest.fixture(scope="module")
def small_result():
    cfg = SimConfig(code="g4", constellation="4qam", snr_db=(6.0, 12.0),
                    trials=80, seed=17)
    return run_ber(cfg)


def test_json_document(small_result):
    doc = json.loads(ber_to_json(small_result))
    assert doc["schema"] == SCHEMA
    assert doc["rng"] == "philox"
    assert doc["config"]["code"] == "g4"
    assert doc["config"]["seed"] == 17
    assert len(doc["points"]) == 2
    # ber_to_json writes every field of the records: a field added to one
    # changes the ostbc-lab/1 file, and must be a decision about the schema
    assert doc.keys() == {"agreement", "config", "points", "rng", "schema",
                          "snr_convention"}
    assert doc["config"].keys() == {"code", "constellation", "snr_db",
                                    "trials", "seed", "m", "decoders"}
    k = get_code("g4").k
    for p in doc["points"]:
        assert p.keys() == {"snr_db", "trials", "sym_errors", "bit_errors",
                            "ser", "ber", "redraws", "disagreements"}
        assert p["ser"] == p["sym_errors"] / (p["trials"] * k)
        assert p["ber"] == p["bit_errors"] / (p["trials"] * k * 2)


def test_csv_document(small_result):
    text = ber_to_csv(small_result)
    lines = text.splitlines()
    assert lines[0] == f"# schema: {SCHEMA}"
    assert lines[1] == "snr_db,trials,sym_errors,bit_errors,ser,ber"
    assert len(lines) == 2 + len(small_result.points)
    for ln, p in zip(lines[2:], small_result.points):
        fields = ln.split(",")
        assert float(fields[0]) == p.snr_db
        assert int(fields[2]) == p.sym_errors
        assert float(fields[4]) == p.ser
