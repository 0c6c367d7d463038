"""The four workloads: seeded inputs, the timed call, and its output checks.

Every workload is a closed loop: the benchmark issues one call, waits for it,
checks its output outside the timed region, then issues the next.  Calls come
in rounds of fixed composition (one call per code/constellation slot), and a
run always ends on a whole round, so the mix of calls is the same in every
run and only the seeded inputs differ.

Sweep inputs are drawn from a finite pool (each slot's SNR comes from a fixed
grid) so that every possible ``ber_to_json`` output has a digest recorded in
``reference.json``; ``python3 bench/run.py --record`` rebuilds that file
from the library at the current commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
import time
import zlib
from collections import Counter

import numpy as np

from ostbc_lab import sim
from ostbc_lab.codes import RSQRT2, get_code
from ostbc_lab.constellation import get_constellation
from ostbc_lab.lattice import build_symbolic_lattice, evaluate_lattice_batch
from ostbc_lab.schedule import LEVELS, count_ops, execute_schedule, \
    generate_schedule

from metrics import SCHEDULE_PAIRS

SNR_GRID = tuple(float(s) for s in range(13))

# The paper's frozen operation counts, (code, m, level) -> (RM, RA).
PAPER_COUNTS = {
    ("g2", 1, 0): (28, 15), ("g2", 1, 1): (28, 15), ("g2", 1, 2): (28, 15),
    ("g3", 2, 1): (217, 195), ("g3", 2, 2): (121, 195),
    ("g4", 1, 1): (149, 127), ("g4", 1, 2): (85, 127),
    ("h3", 1, 2): (54, 47),
}


def _resolve(pairs, constellations) -> dict:
    """Look up codes and constellations and build the symbolic lattices,
    timing each step (cold in a fresh interpreter)."""
    start = time.perf_counter()
    codes = [(get_code(cid), m) for cid, m in pairs]
    looked_up = time.perf_counter()
    for name in constellations:
        get_constellation(name)
    resolved = time.perf_counter()
    for code, m in codes:
        build_symbolic_lattice(code, m)
    return {"codes.get_code_s": looked_up - start,
            "constellation.get_s": resolved - looked_up,
            "lattice.symbolic_build_s": time.perf_counter() - resolved}


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def sweep_key(cfg: sim.SimConfig) -> str:
    snrs = ",".join(f"{s:g}" for s in cfg.snr_db)
    return (f"{cfg.code}/m{cfg.m}/{cfg.constellation}/"
            f"{'+'.join(cfg.decoders)}/snr={snrs}/n={cfg.trials}"
            f"/seed={cfg.seed}")


def _config(code, m, const, snrs, trials, decoders):
    # The simulation seed is fixed per pool entry, so each entry has one
    # recorded output; the benchmark seed picks entries.
    base = f"{code}/m{m}/{const}/{'+'.join(decoders)}/{snrs}/{trials}"
    return sim.SimConfig(code=code, constellation=const, snr_db=snrs,
                         trials=trials, seed=zlib.crc32(base.encode()), m=m,
                         decoders=decoders)


class Sweep:
    """Closed-loop ``run_ber`` calls; one call per slot in each round.

    A slot is (code, m, constellation, shape); a shape is (SNR tuples to
    choose from, trials per point).
    """

    top_span = "sim.run_ber"

    def __init__(self, name, threads, slots, decoders=("lattice",)):
        self.name = name
        self.threads = threads
        self.slots = slots
        self.decoders = decoders
        self.pairs = sorted({(code, m) for code, m, _, _ in slots})
        self.constellations = sorted({const for _, _, const, _ in slots})

    def prepare(self, rng: random.Random) -> dict:
        return _resolve(self.pairs, self.constellations)

    def round(self, rng: random.Random) -> list:
        return [_config(code, m, const, rng.choice(snrs), trials,
                        self.decoders)
                for code, m, const, (snrs, trials) in self.slots]

    def pool(self) -> list:
        return [_config(code, m, const, s, trials, self.decoders)
                for code, m, const, (snrs, trials) in self.slots
                for s in snrs]

    def run(self, cfg, tracer=None):
        return sim.run_ber(cfg)

    @staticmethod
    def trials(cfg, result) -> int:
        return cfg.trials * len(cfg.snr_db)

    def check(self, cfg, result, reference) -> tuple[int, list[str]]:
        """One operation per call; returns (operations, problems)."""
        key = sweep_key(cfg)
        problems = []
        digest = hashlib.sha256(sim.ber_to_json(result).encode()).hexdigest()
        want = reference["sweeps"].get(key)
        if want is None:
            problems.append("no reference digest recorded")
        elif digest != want:
            problems.append(f"ber_to_json digest {digest[:16]} != "
                            f"reference {want[:16]}")
        k = get_code(cfg.code).k
        for p in result.points:
            if p.trials != cfg.trials:
                problems.append(f"point {p.snr_db}: {p.trials} trials")
            if p.sym_errors > p.trials * k:
                problems.append(f"point {p.snr_db}: sym_errors > trials*K")
            if p.sym_errors > p.bit_errors:
                problems.append(f"point {p.snr_db}: sym_errors > bit_errors")
        if result.agreement != 1.0:
            problems.append(f"agreement {result.agreement}")
        return 1, [f"{self.name} {key}: {'; '.join(problems)}"] \
            if problems else []

    def stats(self, cfg, result) -> Counter:
        """Exact per-call counts for the per-layer metrics."""
        chunk = getattr(sim, "_CHUNK", None)
        batched = cfg.decoders == ("lattice",) and chunk
        trials = sum(p.trials for p in result.points)
        return Counter({
            "sim.trials": trials,
            "sim.chunks": sum(math.ceil(p.trials / chunk)
                              for p in result.points) if batched else 0,
            "sim.redraws": sum(p.redraws for p in result.points),
            "sim.pool_workers": min(sim.resolve_workers(), len(cfg.snr_db)),
            "agreeing_trials": trials - sum(p.disagreements
                                            for p in result.points),
        })


_CODES_M = (("g2", 1), ("g3", 2), ("g4", 1), ("h3", 1))
_ONE_CHUNK = (tuple((s,) for s in SNR_GRID), 8192)
_FOUR_CHUNKS = (tuple((s,) for s in SNR_GRID[::2]), 4 * 8192)
_TWO_BY_TWO = (tuple((s, s + 6.0) for s in SNR_GRID[:7]), 2 * 8192)
_CROSS = (tuple((s,) for s in SNR_GRID), 1000)


class CompileExec:
    """Compile every code x m x level, then execute each on a seeded batch.

    One call is one round: 24 ``generate_schedule`` calls followed by 24
    ``execute_schedule`` calls, each on a batch of BATCH trials.
    """

    name = "compile-exec"
    threads = None
    top_span = "schedule.round"
    BATCH = 4096

    def __init__(self):
        self.pairs = SCHEDULE_PAIRS
        self.batches = None

    def prepare(self, rng: random.Random) -> dict:
        """Resolve codes and lattices, then draw the (h, ycheck) batches.

        The reference output of each batch is the batched lattice matched
        filter z = Hc^T ycheck / sigma.
        """
        times = _resolve(self.pairs, ["16qam"])
        gen = np.random.default_rng(rng.getrandbits(64))
        alphabet = get_constellation("16qam").component_alphabet
        self.batches = []
        for cid, m in self.pairs:
            code = get_code(cid)
            h = gen.standard_normal((self.BATCH, 2 * code.n * m)) * RSQRT2
            x = alphabet[gen.integers(0, alphabet.size,
                                      (self.BATCH, 2 * code.k))]
            hc = evaluate_lattice_batch(build_symbolic_lattice(code, m), h)
            noise = gen.standard_normal((self.BATCH, 2 * m * code.t)) * 0.3
            y = np.einsum("bpj,bj->bp", hc, x) + noise
            z = np.einsum("bpj,bp->bj", hc, y) \
                / (code.c * np.sum(h * h, axis=1))[:, None]
            self.batches.append((code, m, h, y, z))
        return times

    def round(self, rng: random.Random) -> list:
        return [self.batches]

    def pool(self) -> list:
        return []

    def run(self, batches, tracer=None):
        start = time.perf_counter()
        scheds = []
        for code, m, _, _, _ in batches:
            for level in LEVELS:
                with _span(tracer, "schedule.generate_schedule"):
                    scheds.append(generate_schedule(code, m, level))
        compiled = time.perf_counter()
        outs = []
        for i, sched in enumerate(scheds):
            _, _, h, y, _ = batches[i // len(LEVELS)]
            with _span(tracer, f"schedule.execute_schedule.L{sched.level}"):
                outs.append(execute_schedule(sched, h, y))
        return {"scheds": scheds, "outs": outs,
                "compile_s": compiled - start,
                "exec_s": time.perf_counter() - compiled}

    def trials(self, batches, result) -> int:
        return len(result["outs"]) * self.BATCH

    def check(self, batches, result, reference) -> tuple[int, list[str]]:
        problems = []
        for i, (sched, out) in enumerate(zip(result["scheds"],
                                             result["outs"])):
            code, m, _, _, z = batches[i // len(LEVELS)]
            where = f"{self.name} {code.id} m={m} L{sched.level}"
            key = (code.id, m, sched.level)
            count = tuple(count_ops(sched))
            want = tuple(reference["counts"].get("/".join(map(str, key)), ()))
            if count != want or count != PAPER_COUNTS.get(key, count):
                problems.append(f"{where}: count {count} != {want}")
            if out.shape != z.shape or not np.allclose(out, z, rtol=1e-9,
                                                       atol=1e-9):
                problems.append(f"{where}: execute_schedule differs from "
                                f"the lattice matched filter")
        return 2 * len(result["scheds"]), problems

    def stats(self, batches, result) -> Counter:
        out = Counter()
        for sched in result["scheds"]:
            entries = sum(s.kind == "entry" for s in sched.slots)
            rm, ra = count_ops(sched)
            name = f"{sched.code_id}m{sched.m}.L{sched.level}"
            out["schedule.ops_emitted"] += len(sched.ops)
            out[f"exec_trials.L{sched.level}"] += self.BATCH
            out["schedule.exec_bytes_computed"] += \
                8 * self.BATCH * (len(sched.ops) + entries)
            out[f"schedule.rm.{name}"] += rm
            out[f"schedule.ra.{name}"] += ra
        return out


WORKLOADS = {
    "sweep-lattice": Sweep(
        "sweep-lattice", None,
        [(c, m, q, _ONE_CHUNK) for c, m in _CODES_M for q in ("4qam", "16qam")]),
    # Shapes alternate so each code and each constellation meets both the
    # one-point (pool capped at one worker) and the two-point shape.
    "sweep-parallel": Sweep(
        "sweep-parallel", "2",
        [(c, m, q, shape) for (c, m), pair in zip(
            _CODES_M, ((_FOUR_CHUNKS, _TWO_BY_TWO), (_TWO_BY_TWO, _FOUR_CHUNKS),
                       (_FOUR_CHUNKS, _TWO_BY_TWO), (_TWO_BY_TWO, _FOUR_CHUNKS)))
         for q, shape in zip(("4qam", "16qam"), pair)]),
    "crosscheck-all": Sweep(
        "crosscheck-all", None,
        [(c, 1, "4qam", _CROSS) for c in ("g2", "h3", "g4")], ("all",)),
    "compile-exec": CompileExec(),
}


def record() -> dict:
    """Recompute every reference from the library, serially."""
    sweeps = {}
    for wl in WORKLOADS.values():
        for cfg in wl.pool():
            sweeps[sweep_key(cfg)] = hashlib.sha256(
                sim.ber_to_json(sim.run_ber(cfg)).encode()).hexdigest()
    counts = {}
    for cid, m in SCHEDULE_PAIRS:
        for level in LEVELS:
            sched = generate_schedule(get_code(cid), m, level)
            counts[f"{cid}/{m}/{level}"] = list(count_ops(sched))
    for key, want in PAPER_COUNTS.items():
        if tuple(counts["/".join(map(str, key))]) != want:
            raise AssertionError(f"{key}: count differs from the paper")
    return {"sweeps": sweeps, "counts": counts}
