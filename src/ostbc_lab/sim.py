"""Seeded Monte-Carlo harness: channel sampling, trials, and error sweeps.

Model per trial: s drawn uniformly from the constellation, H and the noise
with i.i.d. CN(0,1) / CN(0,N0) entries, and the received block formed in the
real lattice domain as ycheck = Hc x + vcheck.  SNR is per-receive-antenna
E_s/N_0 in dB with unit average transmit-symbol energy, so N0 = 10^(-snr/10)
and each real noise dimension has variance N0/2.  snr = inf runs the
noise-free model (the noise draw still happens, keeping streams aligned).

Determinism: each trial draws its channel, symbol indices and noise from
its own counter-keyed substream (``_substreams``), so results are
independent of chunking, worker count, and trial interleaving.  The sweep
draws a block of trials at a time with ``_substreams.draw_block``, and
``run_trial`` draws its one trial from the generator it is given with
``_substreams.draw_trial``; both hand the standard-normal draws to
``_run_batch``, the one place the SNR convention is applied: it scales the
channel by 1/sqrt(2) and the noise by sqrt(N0/2).  A draw block holds as
many trials as fit in ``_DRAW_WORDS`` raw Philox words (``_block_trials``,
at least one): each NumPy call of the draw has a fixed cost whatever its
size, and the words set the draw's peak memory, so a code that takes few
words per trial draws more trials per call for the same memory (g3 at M=2,
56 words a trial, draws 512; g2 at M=1, 20 words, draws 1433).  Each draw
block is transmitted and decoded by one call: Hc, the transmit product, the
matched filters and the exhaustive search run a decode chunk at a time
(``_chunk_trials``), since Hc (B x 2MT x 2K), the evaluation and
matched-filter arrays and the exhaustive search's per-trial [G | r] and
factor arrays set peak memory (``decoders._SLICE`` bounds only the search's
metric array).  The decode pays a fixed cost per NumPy call as well, so a
chunk holds as many trials as keep its largest per-trial array within
``_DECODE_FLOATS`` floats, and at least ``_CHUNK``: g3 at M=2 (Hc 32 x 8)
decodes 128 trials a chunk, g2 (Hc 4 x 4) 2048, more than its block, and a
16qam search on g3, g4 or h3 stays at 128.  The symbol to component
mapping, sigma, the scaling and quantization, the agreement check and the
error count run once per draw block, on small (B, 2K) arrays, so their
fixed cost per NumPy call is spread over the whole block.  The error count
compares integer component indices.  ``run_trial`` transmits and decodes
through the same function, a batch of one.

Workers: a sweep is cut into (point, block) tasks of ``_TASK`` trials, the
last task of each point clipped, and so is the last draw block of each
task.  A task returns one counter record, an int64 array of (symbol
errors, bit errors, redraws, disagreements), and a point's result is the
sum of its tasks' records, so one-point runs spread over workers as well as
many-point runs.
``OSTBC_LAB_THREADS`` asks for workers; the sweep uses no more than it has
tasks or than the CPUs the process may run on.  One worker runs the tasks in
this process; more run them in a process pool fed from a window of
2 x workers tasks, read back in task order.  Since every trial's draws are
keyed by the trial alone and the counters are integer sums, results are
byte-identical whatever the worker count and task size.  The task size is
large enough that a task's pickling and pool hand-off stay small against its
decode work, and small enough that a few tasks per worker even out the load
when the trial count does not divide evenly.

The pool (``_pool``) is made by the first sweep that needs more than one
worker and kept for later sweeps, which then skip starting, warming up and
joining processes.  A sweep that needs another worker count shuts it down
and makes one of the new size, since a larger pool would run on more CPUs
than were asked for; one-worker sweeps leave it idle.  A sweep that ends by
an exception (a worker killed, an interrupt) drops the pool and its queued
tasks, so the next sweep starts on fresh workers; the workers left at exit
are joined by ``concurrent.futures``.  Its process pool, and with it
``multiprocessing``, is imported by the first sweep that needs a pool.  The
workers hold this module's state as it was when the pool was made.  That is
safe: a task reads only its pickled ``SimConfig`` and the immutable built-in
codes and constellations, and no result depends on ``_DRAW_WORDS``,
``_DECODE_FLOATS``, ``_CHUNK`` or ``_TASK``.

Error counting uses the first selected decoder; any further selected
decoders are run in the same batch and compared, with disagreements counted
(an agreement below 100% is a bug surface, not a statistic).  JSON output
may contain the non-standard Infinity token when snr = inf is simulated.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _substreams
from .codes import RSQRT2, _integer, get_code
from .constellation import get_constellation, quantize_indices
from .decoders import (
    MATCHED_FILTERS,
    DecodedMessage,
    _search_floats,
    exhaustive_indices,
)
from .lattice import (
    _antenna_count,
    build_symbolic_lattice,
    channel_sigma,
    evaluate_lattice_batch,
    interleave,
    unvectorize,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "SimConfig",
    "TrialResult",
    "PointResult",
    "BerResult",
    "DECODER_NAMES",
    "SCHEMA",
    "sample_channel",
    "run_trial",
    "run_ber",
    "ber_to_json",
    "ber_to_csv",
    "resolve_workers",
]

SCHEMA = "ostbc-lab/1"
DECODER_NAMES = (*MATCHED_FILTERS, "exhaustive")
# Floats of a decode chunk's largest per-trial array, over all its trials:
# 128 trials of g3 at M=2, whose Hc is 32 x 8 (see above).
_DECODE_FLOATS = 128 * 256
# The fewest trials per decode chunk.
_CHUNK = 128
# Raw Philox words per draw block, whose trials are drawn, quantized and
# counted together: 512 trials of g3 at M=2, the most words per trial of the
# built-in codes (see above).
_DRAW_WORDS = 512 * 56
# Trials per (point, block) task, the unit of work a pool worker takes.
_TASK = 8192
# The live process pool and its worker count; [None, 0] before the first
# sweep that needs one.
_POOL = [None, 0]


def _decoder_names(decoders) -> tuple[str, ...]:
    """One decoder name or several, each known and given once, with "all"
    selecting every route."""
    if isinstance(decoders, str):
        decoders = (decoders,)
    choices = DECODER_NAMES + ("all",)
    if not decoders:
        raise ValueError(f"decoders must be nonempty; pick from {choices}")
    bad = [d for d in decoders if d not in choices]
    if bad:
        raise ValueError(f"unknown decoders {bad}; pick from {choices}")
    if len(set(decoders)) < len(decoders):
        raise ValueError(f"decoders must not repeat a name; got "
                         f"{list(decoders)}")
    return DECODER_NAMES if "all" in decoders else tuple(decoders)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run; results are a pure function
    of this object."""

    code: str
    constellation: str
    snr_db: tuple[float, ...]
    trials: int
    seed: int
    m: int = 1
    decoders: tuple[str, ...] = ("lattice",)

    def __post_init__(self):
        get_code(self.code)
        get_constellation(self.constellation)
        for field in ("trials", "seed"):
            object.__setattr__(self, field, _integer(field, getattr(self, field)))
        object.__setattr__(self, "m", _antenna_count(self.m))
        try:
            points = len(self.snr_db)
        except TypeError:
            points = None
        # a string is a sequence too, of characters
        if points is None or isinstance(self.snr_db, (str, bytes)):
            raise ValueError(f"snr_db must be a sequence of SNRs in dB, "
                             f"got {self.snr_db!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # every trial's substream key (seed, point << 32 | trial) must fit:
        # the point and trial counts are checked as keys, before any point
        # is copied
        _substreams.check_key(self.seed, points, self.trials)
        for snr in self.snr_db:
            _noise_scale(snr)
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "decoders", _decoder_names(self.decoders))
        if not self.snr_db:
            raise ValueError("snr_db must be nonempty")


@dataclass(frozen=True)
class TrialResult:
    """One trial: what was sent and what each selected decoder returned."""

    sent: np.ndarray          # (2K,) component alphabet indices
    decoded: dict[str, DecodedMessage]
    agreement: bool
    redraws: int


@dataclass(frozen=True)
class PointResult:
    snr_db: float
    trials: int
    sym_errors: int
    bit_errors: int
    ser: float
    ber: float
    redraws: int
    disagreements: int


@dataclass(frozen=True)
class BerResult:
    config: SimConfig
    rng: str
    points: tuple[PointResult, ...]

    @property
    def agreement(self) -> float:
        total = sum(p.trials for p in self.points)
        bad = sum(p.disagreements for p in self.points)
        return 1.0 - bad / total


def sample_channel(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the (n, m) channel matrix H with i.i.d. CN(0,1) entries (Re, Im
    each Normal(0, 1/2)), from 2nm normals in ``vectorize_received`` order."""
    return unvectorize(rng.standard_normal(2 * n * m) * RSQRT2, n)


def _noise_scale(snr_db: float) -> float:
    """sqrt(N0 / 2) with N0 = 10**(-snr_db/10), 0.0 at +inf: the one SNR
    check.  Values that are not real numbers, bools included, NaN, -inf and
    SNRs whose N0 is not finite (below about -3082.5 dB) raise ValueError."""
    # bool is an int to Python, and float() would parse a string
    if not isinstance(snr_db, numbers.Real) or isinstance(snr_db, bool):
        raise ValueError(f"snr_db must hold real numbers in dB, "
                         f"got {snr_db!r}")
    if snr_db == math.inf:
        return 0.0
    try:
        n0 = 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        n0 = math.inf
    if not math.isfinite(n0):
        raise ValueError(f"snr_db values must be finite or +inf, with a "
                         f"finite N0 = 10**(-snr/10); got {snr_db!r}")
    return math.sqrt(n0 / 2.0)


def _chunk_trials(code, const, m: int, decoders) -> int:
    """Trials per decode chunk: as many as keep the chunk's largest
    per-trial array within `_DECODE_FLOATS` floats, at least `_CHUNK`.

    That array is Hc (2MT x 2K) or, with the exhaustive search selected,
    the larger of the search's own (``decoders._search_floats``).
    """
    dims = 2 * code.k
    per_trial = 2 * m * code.t * dims
    if "exhaustive" in decoders:
        per_trial = max(per_trial, _search_floats(dims, const.levels))
    return max(_CHUNK, _DECODE_FLOATS // per_trial)


def _run_batch(code, const, m, h, sent, noise, scale, decoders):
    """Transmit and decode one trial per row of the drawn (h, sent, noise).

    The one place the SNR convention is applied: the standard-normal draws
    are scaled in place, the channel by 1/sqrt(2) and the noise by `scale`
    (``_noise_scale``).  Hc, the transmit product, the matched filters and
    the exhaustive search run `_chunk_trials` rows at a time; the component
    mapping, sigma, the division by sigma and quantization and the
    agreement check run once on the whole batch.
    Returns (sent component indices (B, 2K), decoded indices (B, 2K) per
    decoder name, per-trial agreement of every decoder with the first (B,)).
    """
    h *= RSQRT2
    noise *= scale
    lat = build_symbolic_lattice(code, m)
    # symbol index = Re component index * levels + Im component index
    comp = interleave(*np.divmod(sent, const.levels))
    x = const.component_alphabet[comp]
    # matched-filter outputs, replaced by their decisions after the chunks
    decoded = {name: np.empty(comp.shape, dtype=np.intp
                              if name == "exhaustive" else float)
               for name in decoders}
    chunk = _chunk_trials(code, const, m, decoders)
    for lo in range(0, len(h), chunk):
        rows = slice(lo, lo + chunk)
        hc = evaluate_lattice_batch(lat, h[rows])
        yv = np.einsum("bpj,bj->bp", hc, x[rows]) + noise[rows]
        for name, out in decoded.items():
            if name == "exhaustive":
                out[rows] = exhaustive_indices(hc, yv, const)[0]
            else:
                out[rows] = MATCHED_FILTERS[name](code, h[rows], hc, yv)
    sigma = channel_sigma(code, h)[:, None]
    for name, z in decoded.items():
        if name != "exhaustive":
            z /= sigma
            decoded[name] = quantize_indices(z, const.component_alphabet)
    first = decoded[decoders[0]]
    agree = np.ones(len(h), dtype=bool)
    for idx in decoded.values():
        agree &= np.all(idx == first, axis=1)
    return comp, decoded, agree


def run_trial(code, constellation, snr_db: float, rng: np.random.Generator,
              decoders=("lattice",), m: int = 1) -> TrialResult:
    """One end-to-end trial on a caller-provided substream.

    code and constellation may be ids or resolved objects.  The draws come
    from `rng` one by one; transmit and decode are a batch of one through
    the function the sweep runs on each chunk, so a sweep decomposes exactly
    into these trials.  SNR, m and decoders are checked as ``SimConfig``
    checks them.
    """
    m = _antenna_count(m)
    scale = _noise_scale(snr_db)
    decoders = _decoder_names(decoders)
    code = get_code(code) if isinstance(code, str) else code
    const = get_constellation(constellation) \
        if isinstance(constellation, str) else constellation
    n_h, k, n_noise = _draw_dims(code, m)
    h, sym, noise, redraws = _substreams.draw_trial(rng, n_h, k, const.size,
                                                    n_noise)
    comp, decoded, agree = _run_batch(code, const, m, h[None], sym[None],
                                      noise[None], scale, decoders)
    return TrialResult(
        sent=comp[0],
        decoded={name: DecodedMessage.from_indices(idx[0], const)
                 for name, idx in decoded.items()},
        agreement=bool(agree[0]), redraws=redraws)


def _count_errors(sent_comp, dec_comp, gray):
    """Symbol and bit error totals for (B, 2K) component index arrays."""
    # a symbol is wrong when its Re or its Im component index is
    wrong = sent_comp != dec_comp
    sym_err = np.count_nonzero(wrong[:, 0::2] | wrong[:, 1::2])
    bits = np.bitwise_count(gray[sent_comp] ^ gray[dec_comp])
    return int(sym_err), int(np.sum(bits))


def _draw_dims(code, m: int) -> tuple[int, int, int]:
    """(channel normals, symbol indices, noise normals) of one trial."""
    return 2 * code.n * m, code.k, 2 * m * code.t


def _block_trials(code, m: int) -> int:
    """Trials per draw block: as many as fit in `_DRAW_WORDS` words, at
    least one."""
    return max(1, _DRAW_WORDS
               // _substreams.words_per_trial(*_draw_dims(code, m)))


def _simulate_block(config: SimConfig, point: int, start: int,
                    stop: int) -> np.ndarray:
    """Sweep trials [start, stop) of one SNR point a draw block
    (``_block_trials``) at a time, the last one clipped, running every
    selected decoder on each draw block.

    Returns the counter record, an int64 array of (symbol errors, bit
    errors, redraws, disagreements), which adds up over the blocks of a
    point.
    """
    code = get_code(config.code)
    const = get_constellation(config.constellation)
    scale = _noise_scale(config.snr_db[point])
    n_h, k, n_noise = _draw_dims(code, config.m)
    block = _block_trials(code, config.m)
    counters = np.zeros(4, dtype=np.int64)
    for lo in range(start, stop, block):
        trials = np.arange(lo, min(lo + block, stop))
        h, sym, noise, redraws = _substreams.draw_block(
            config.seed, point, trials, n_h, k, const.size, n_noise)
        comp, decoded, agree = _run_batch(code, const, config.m, h, sym,
                                          noise, scale, config.decoders)
        counters += (*_count_errors(comp, decoded[config.decoders[0]],
                                    const.gray),
                     redraws, np.count_nonzero(~agree))
    return counters


def _point_result(config: SimConfig, point: int, counters) -> PointResult:
    sym_errors, bit_errors, redraws, disagreements = map(int, counters)
    code = get_code(config.code)
    const = get_constellation(config.constellation)
    n_sym = config.trials * code.k
    n_bit = n_sym * const.bits_per_symbol
    if sym_errors > n_sym:
        raise AssertionError("more symbol errors than symbols")
    return PointResult(snr_db=config.snr_db[point], trials=config.trials,
                       sym_errors=sym_errors, bit_errors=bit_errors,
                       ser=sym_errors / n_sym, ber=bit_errors / n_bit,
                       redraws=redraws, disagreements=disagreements)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolve_workers() -> int:
    """Worker count from OSTBC_LAB_THREADS: unset -> 1, 0 -> every CPU the
    process may use."""
    raw = os.environ.get("OSTBC_LAB_THREADS", "").strip()
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(
            f"OSTBC_LAB_THREADS must be an integer, got {raw!r}") from None
    if count < 0:
        raise ValueError("OSTBC_LAB_THREADS must be >= 0")
    return count if count else _usable_cpus()


def _worker_count(threads: int, points: int, trials: int, cpus: int) -> int:
    """Processes for a sweep of `points` x `trials`: no more than asked
    for, than its (point, block) tasks, or than the usable CPUs."""
    tasks = points * -(-trials // _TASK)
    return min(threads, tasks, cpus)


def _tasks(config: SimConfig):
    """(point, start, stop) of every task: points in order, each cut into
    `_TASK`-trial blocks, the last one clipped."""
    for point in range(len(config.snr_db)):
        for start in range(0, config.trials, _TASK):
            yield point, start, min(start + _TASK, config.trials)


def _pool(workers: int) -> ProcessPoolExecutor:
    """The process pool of `workers` workers, kept from sweep to sweep; a
    pool of another size is shut down and replaced."""
    # imported here: one-worker sweeps never load the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    pool, size = _POOL
    if size != workers:
        if pool is not None:
            pool.shutdown(wait=True)
        _POOL[:] = ProcessPoolExecutor(max_workers=workers), workers
    return _POOL[0]


def _task_counters(config: SimConfig, workers: int):
    """(point, counters) of every task, in task order.

    One worker runs the tasks here, in this process.  More workers get them
    from a window of at most 2 x workers submitted tasks, whose results are
    read in submission order, so the parent holds a bounded number of
    futures however many tasks the sweep has.
    """
    if workers == 1:
        for point, start, stop in _tasks(config):
            yield point, _simulate_block(config, point, start, stop)
        return
    pool = _pool(workers)
    window = deque()
    try:
        for point, start, stop in _tasks(config):
            window.append((point, pool.submit(_simulate_block, config,
                                              point, start, stop)))
            if len(window) == 2 * workers:
                done_point, future = window.popleft()
                yield done_point, future.result()
        for done_point, future in window:
            yield done_point, future.result()
    except BaseException:
        # a broken pool, an interrupt or a closed sweep: drop the pool and
        # its queued tasks, so the next sweep starts on fresh workers
        if _POOL[0] is pool:
            _POOL[:] = None, 0
        pool.shutdown(wait=False, cancel_futures=True)
        raise


def run_ber(config: SimConfig) -> BerResult:
    """Sweep all SNR points; deterministic for a given config, regardless
    of worker count."""
    workers = _worker_count(resolve_workers(), len(config.snr_db),
                            config.trials, _usable_cpus())
    totals = np.zeros((len(config.snr_db), 4), dtype=np.int64)
    for point, counters in _task_counters(config, workers):
        totals[point] += counters
    return BerResult(config=config, rng="philox", points=tuple(
        _point_result(config, p, c) for p, c in enumerate(totals)))


def ber_to_json(result: BerResult) -> str:
    """The ``ostbc-lab/1`` document: every field of the result, its config
    and its points, plus the schema tag, the overall agreement and the SNR
    convention, with sorted keys."""
    doc = {**asdict(result), "schema": SCHEMA, "agreement": result.agreement,
           "snr_convention": "per-receive-antenna Es/N0, unit symbol energy"}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def ber_to_csv(result: BerResult) -> str:
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["snr_db", "trials", "sym_errors", "bit_errors",
                     "ser", "ber"])
    for p in result.points:
        writer.writerow([f"{p.snr_db:.17g}", p.trials, p.sym_errors,
                         p.bit_errors, f"{p.ser:.17g}", f"{p.ber:.17g}"])
    return buf.getvalue()
