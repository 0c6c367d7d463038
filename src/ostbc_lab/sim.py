"""Seeded Monte-Carlo harness: channel sampling, trials, and error sweeps.

Model per trial: s drawn uniformly from the constellation, H and the noise
with i.i.d. CN(0,1) / CN(0,N0) entries, and the received block formed in the
real lattice domain as ycheck = Hc x + vcheck.  SNR is per-receive-antenna
E_s/N_0 in dB with unit average transmit-symbol energy, so N0 = 10^(-snr/10)
and each real noise dimension has variance N0/2.  snr = inf runs the
noise-free model (the noise draw still happens, keeping streams aligned).

Determinism: every trial owns a Philox substream keyed by
(seed, point_index << 32 | trial_index) with a fixed draw order (channel,
symbol indices, noise), so results are independent of chunking, worker
count, and trial interleaving.  The sweep draws a whole chunk's substreams
at once (``_substreams``: vectorized Philox4x64-10, the ziggurat's fast and
wedge paths, Lemire symbol indices), bit for bit equal to drawing each trial
from its own ``Generator(Philox(key))``; the few trials that need the
ziggurat tail, sit on a rounding tie, or draw an all-zero channel are redrawn
that way.  ``run_trial`` draws its one trial from the generator it is given
and runs the same transmit and decode function as the sweep, so a sweep
decomposes exactly into per-trial draws.

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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _substreams
from .codes import RSQRT2, get_code
from .constellation import get_constellation, quantize_indices
from .decoders import (
    MATCHED_FILTERS,
    DecodedMessage,
    exhaustive_indices,
)
from .lattice import (
    ChannelRealization,
    build_symbolic_lattice,
    channel_sigma,
    deinterleave,
    evaluate_lattice_batch,
    interleave,
)

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
DECODER_NAMES = ("lattice", "trace", "f", "fprime", "exhaustive")
# Trials decoded together; bounds the per-chunk arrays of every decoder set.
_CHUNK = 128


def _decoder_names(decoders) -> tuple[str, ...]:
    """One decoder name or several, with "all" selecting every route."""
    if isinstance(decoders, str):
        decoders = (decoders,)
    if "all" in decoders:
        return DECODER_NAMES
    bad = [d for d in decoders if d not in DECODER_NAMES]
    if bad:
        raise ValueError(f"unknown decoders {bad}; pick from "
                         f"{DECODER_NAMES + ('all',)}")
    return tuple(decoders)


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
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "decoders", _decoder_names(self.decoders))
        if not self.snr_db:
            raise ValueError("snr_db must be nonempty")
        if any(math.isnan(s) or s == -math.inf for s in self.snr_db):
            raise ValueError("snr_db values must be finite or +inf")
        # the substream key is (point << 32) | trial
        if not 1 <= self.trials < 2 ** 32:
            raise ValueError("trials must be in [1, 2**32)")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.m < 1:
            raise ValueError("m must be >= 1")


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


def sample_channel(n: int, m: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw H with i.i.d. CN(0,1) entries (Re, Im each Normal(0, 1/2))."""
    h = rng.standard_normal(2 * n * m) * RSQRT2
    return ChannelRealization.from_h(h, n, m)


def _noise_scale(snr_db: float) -> float:
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)


def _trial_rng(seed: int, point: int, trial: int) -> np.random.Generator:
    key = np.array([seed, (point << 32) | trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_trial(rng, n, m, t, k, size, scale):
    """Fixed-order draws: channel, symbol indices, noise.

    Returns (h, symbol indices, real noise vector, redraws).  An all-zero
    channel draw (never seen in practice) is redrawn within the substream.
    """
    h = rng.standard_normal(2 * n * m) * RSQRT2
    redraws = 0
    while not h.any():
        h = rng.standard_normal(2 * n * m) * RSQRT2
        redraws += 1
    sym = rng.integers(0, size, k)
    noise = rng.standard_normal(2 * m * t) * scale
    return h, sym, noise, redraws


def _draw_chunk(code, m, size, scale, seed, point, trials):
    """Draws of trials `trials` of `point`: (h (B, 2NM), symbol indices
    (B, K), noise (B, 2MT), redraws), each row equal to `_draw_trial` on the
    trial's own substream.

    The batched draw covers most trials; the rest are redrawn here.
    """
    h, sym, noise, ok = _substreams.draw(
        seed, point, trials, 2 * code.n * m, code.k, size, 2 * m * code.t)
    h *= RSQRT2
    noise *= scale
    redraws = 0
    for i in np.flatnonzero(~ok):
        h[i], sym[i], noise[i], r = _draw_trial(
            _trial_rng(seed, point, int(trials[i])), code.n, m, code.t,
            code.k, size, scale)
        redraws += r
    return h, sym, noise, redraws


def _run_batch(code, const, m, h, sent, noise, decoders):
    """Transmit and decode one trial per row of the drawn (h, sent, noise).

    Returns (sent component indices (B, 2K), decoded indices (B, 2K) per
    decoder name, per-trial agreement of every decoder with the first (B,)).
    """
    # symbol index = Re component index * levels + Im component index
    comp = interleave(*np.divmod(sent, const.levels))
    x = const.component_alphabet[comp]
    hc = evaluate_lattice_batch(build_symbolic_lattice(code, m), h)
    sigma = channel_sigma(code, h)
    yv = np.einsum("bpj,bj->bp", hc, x) + noise
    decoded = {}
    for name in decoders:
        if name == "exhaustive":
            decoded[name] = exhaustive_indices(hc, yv, const)[0]
        else:
            z = MATCHED_FILTERS[name](code, h, hc, yv) / sigma[:, None]
            decoded[name] = quantize_indices(z, const.component_alphabet)
    first = decoded[decoders[0]]
    agree = np.all([np.all(d == first, axis=1) for d in decoded.values()],
                   axis=0)
    return comp, decoded, agree


def run_trial(code, constellation, snr_db: float, rng: np.random.Generator,
              decoders=("lattice",), m: int = 1) -> TrialResult:
    """One end-to-end trial on a caller-provided substream.

    code and constellation may be ids or resolved objects.  The draws come
    from `rng` one by one; transmit and decode are a batch of one through
    the function the sweep runs on each chunk, so a sweep decomposes exactly
    into these trials.
    """
    code = get_code(code) if isinstance(code, str) else code
    const = get_constellation(constellation) \
        if isinstance(constellation, str) else constellation
    h, sym, noise, redraws = _draw_trial(
        rng, code.n, m, code.t, code.k, const.size, _noise_scale(snr_db))
    comp, decoded, agree = _run_batch(code, const, m, h[None], sym[None],
                                      noise[None], _decoder_names(decoders))
    return TrialResult(
        sent=comp[0],
        decoded={name: DecodedMessage.from_indices(idx[0], const)
                 for name, idx in decoded.items()},
        agreement=bool(agree[0]), redraws=redraws)


def _count_errors(sent_comp, dec_comp, gray):
    """Symbol and bit error totals for (..., 2K) component index arrays."""
    # a symbol is wrong when its (Re, Im) index pair is
    sym_err = int(np.sum(deinterleave(sent_comp) != deinterleave(dec_comp)))
    bits = np.bitwise_count(gray[sent_comp] ^ gray[dec_comp])
    return sym_err, int(np.sum(bits))


def _simulate_point(config: SimConfig, point: int) -> PointResult:
    """Sweep one SNR point chunk by chunk, running every selected decoder."""
    code = get_code(config.code)
    const = get_constellation(config.constellation)
    scale = _noise_scale(config.snr_db[point])
    sym_errors = bit_errors = redraws = disagreements = 0
    for start in range(0, config.trials, _CHUNK):
        trials = np.arange(start, min(start + _CHUNK, config.trials))
        h, sym, noise, r = _draw_chunk(code, config.m, const.size, scale,
                                       config.seed, point, trials)
        comp, decoded, agree = _run_batch(code, const, config.m, h, sym,
                                          noise, config.decoders)
        se, be = _count_errors(comp, decoded[config.decoders[0]], const.gray)
        sym_errors += se
        bit_errors += be
        redraws += r
        disagreements += int(np.sum(~agree))
    n_sym = config.trials * code.k
    n_bit = n_sym * const.bits_per_symbol
    if sym_errors > n_sym:
        raise AssertionError("more symbol errors than symbols")
    return PointResult(snr_db=config.snr_db[point], trials=config.trials,
                       sym_errors=sym_errors, bit_errors=bit_errors,
                       ser=sym_errors / n_sym, ber=bit_errors / n_bit,
                       redraws=redraws, disagreements=disagreements)


def resolve_workers() -> int:
    """Worker count from OSTBC_LAB_THREADS: unset -> 1, 0 -> all cores."""
    raw = os.environ.get("OSTBC_LAB_THREADS", "").strip()
    if not raw:
        return 1
    count = int(raw)
    if count < 0:
        raise ValueError("OSTBC_LAB_THREADS must be >= 0")
    return count if count else (os.cpu_count() or 1)


def run_ber(config: SimConfig) -> BerResult:
    """Sweep all SNR points; deterministic for a given config, regardless
    of worker count."""
    npoints = len(config.snr_db)
    workers = min(resolve_workers(), npoints)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_simulate_point, [config] * npoints,
                                   range(npoints)))
    else:
        points = [_simulate_point(config, p) for p in range(npoints)]
    return BerResult(config=config, rng="philox", points=tuple(points))


def ber_to_json(result: BerResult) -> str:
    doc = {
        "schema": SCHEMA,
        "config": {
            "code": result.config.code,
            "constellation": result.config.constellation,
            "snr_db": list(result.config.snr_db),
            "trials": result.config.trials,
            "seed": result.config.seed,
            "m": result.config.m,
            "decoders": list(result.config.decoders),
        },
        "rng": result.rng,
        "snr_convention": "per-receive-antenna Es/N0, unit symbol energy",
        "agreement": result.agreement,
        "points": [{
            "snr_db": p.snr_db,
            "trials": p.trials,
            "sym_errors": p.sym_errors,
            "bit_errors": p.bit_errors,
            "ser": p.ser,
            "ber": p.ber,
            "redraws": p.redraws,
            "disagreements": p.disagreements,
        } for p in result.points],
    }
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
