"""ostbc-lab benchmark: closed-loop workloads over the library's public calls.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-lattice --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15
    python3 bench/run.py --record        # rebuild bench/reference.json

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, including the
tracing overhead.  Both check every output outside the timed region.  A
summary goes to stdout, and the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  A full record of the run
(environment, every sample, unscaled wall times) and, for traced runs, the
spans are written under ``.bench_out/``.  See bench/README.md for the metric
definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
WORKLOAD_NAMES = ("sweep-lattice", "sweep-parallel", "crosscheck-all",
                  "compile-exec")
THREADS_VAR = "OSTBC_LAB_THREADS"
# Enough untraced calls that the tail sample (ten calls beyond it) sits at or
# above the median.
MIN_CALLS = 21
# Seconds the calibration kernel takes on a quiet 2-vCPU Intel Xeon (family
# 6, model 207) KVM guest; scaled times are in seconds of a host that fast.
CAL_REF_S = 0.015


def calibrate() -> float:
    """Time a fixed kernel shaped like the library's hot paths.

    On a shared host the speed of one vCPU drifts by up to 2.5x within
    minutes (the same 1000-trial crosscheck call took 0.32 s to 0.83 s), and
    the drift is invisible in steal time.  Each timed call and each set-up
    is preceded by this kernel, and its wall time is scaled by CAL_REF_S /
    (median kernel time of the nearest nine), which removes most of the
    drift from run-to-run comparisons.
    """
    import numpy as np
    start = time.perf_counter()
    ones = np.ones((8, 4))
    vec = np.linspace(0.0, 1.0, 4096)
    acc = 0.0
    for i in range(400):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([i, 7], dtype=np.uint64)))
        acc += gen.standard_normal(8).sum() + gen.integers(0, 16, 4).sum()
        acc += float(np.einsum("ij,j->i", ones, ones[0])[0])
        acc += float((vec * 1.5 + vec)[i])
        acc += sum(j * 0.5 for j in range(40))
    return time.perf_counter() - start


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="timed seconds; a run ends on a whole round with "
                    f"at least {MIN_CALLS} untraced calls (0: one round)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-reps", type=int, default=None,
                    help="fresh-interpreter set-ups (default 5, traced 2)")
    ap.add_argument("--reference", type=Path, default=REFERENCE)
    ap.add_argument("--probe", action="store_true",
                    help=argparse.SUPPRESS)  # one set-up, run in a child
    ap.add_argument("--record", action="store_true",
                    help="recompute bench/reference.json from the library")
    args = ap.parse_args(argv)
    if not (args.record or args.workload):
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    return args


def _set_threads(threads):
    if threads is None:
        os.environ.pop(THREADS_VAR, None)
    else:
        os.environ[THREADS_VAR] = threads


def _rng(name, seed):
    return random.Random(f"{name}/{seed}")


def probe(name, seed, reference_path):
    """One set-up in this fresh interpreter: print its phases as JSON."""
    start = time.perf_counter()
    import workloads
    phases = {"setup.import_s": time.perf_counter() - start}
    wl = workloads.WORKLOADS[name]
    rng = _rng(name, seed)
    phases.update(wl.prepare(rng))
    start = time.perf_counter()
    reference = json.loads(reference_path.read_text())
    call = wl.round(rng)[0]
    ops, problems = wl.check(call, wl.run(call), reference)
    phases["setup.warmup_s"] = time.perf_counter() - start
    print(json.dumps({"ops": ops, "problems": problems, "phases": phases}),
          flush=True)
    return 0


def _run_probe(name, seed, reference_path):
    """Time a fresh interpreter from start to its first checked result."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload",
           name, "--seed", str(seed), "--reference", str(reference_path)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.communicate(timeout=170)
    try:
        report = json.loads(line)
    except ValueError:
        report = {"ops": 1, "problems": [f"set-up probe exited "
                                         f"{proc.returncode} without a result"],
                  "phases": {}}
    return wall, report


def environment(threads):
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ostbc_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            THREADS_VAR: threads}


class Samples:
    """Timed calls of one kind: wall seconds, kernel seconds, trials."""

    WINDOW = 9      # calibrations per scale factor

    def __init__(self):
        self.wall, self.calib, self.trials = [], [], 0

    def add(self, wall, calib, trials):
        self.wall.append(wall)
        self.calib.append(calib)
        self.trials += trials

    @property
    def scaled(self):
        """Wall times scaled by the median of the WINDOW calibrations
        nearest each call; one kernel time alone varies by about 30%."""
        n, k = len(self.calib), self.WINDOW
        out = []
        for i, wall in enumerate(self.wall):
            lo = max(0, min(i - k // 2, n - k))
            out.append(wall * CAL_REF_S
                       / statistics.median(self.calib[lo:lo + k]))
        return out

    def rate(self, scaled=True):
        return self.trials / sum(self.scaled if scaled else self.wall)

    def tail(self, scaled=True):
        """Sample with exactly ten larger ones: (value, percentile, n)."""
        ordered = sorted(self.scaled if scaled else self.wall)
        n = len(ordered)
        i = n - 11 if n > 10 else n - 1
        return ordered[i], 100.0 * (i + 1) / n, n


def _child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _layers(spans, stats, calls):
    """Per-layer metrics from the traced calls; means per top-level call."""
    from tracing import span_totals
    from metrics import PER_LAYER
    incl, self_ns, count = span_totals(spans)
    per = 1.0 / max(calls, 1)
    sec = 1e-9 * per

    def ratio(num, den):
        return num / den if den else 0.0

    sim_self = self_ns["sim.run_ber"] + self_ns["sim.run_trial"]
    exec_ns = [incl[f"schedule.execute_schedule.L{lv}"] for lv in range(3)]
    gen = "schedule.generate_schedule"
    m = {
        "sim.run_ber_s": incl["sim.run_ber"] * sec,
        "sim.self_s": sim_self * sec,
        "sim.self_frac": ratio(sim_self, incl["sim.run_ber"]),
        "sim.run_trial_self_s": self_ns["sim.run_trial"] * sec,
        "sim.pool_util": ratio(stats["pool_cpu_s"], stats["pool_capacity_s"]),
        "decoders.agreement": ratio(stats["agreeing_trials"],
                                    stats["sim.trials"])
        if stats["sim.trials"] else 1.0,
        "schedule.schedules_per_s": ratio(count[gen], incl[gen] * 1e-9),
        "schedule.exec_s": sum(exec_ns) * sec,
        "schedule.decodes_per_s": ratio(
            sum(stats[f"exec_trials.L{lv}"] for lv in range(3)),
            sum(exec_ns) * 1e-9),
        "trace.spans": len(spans) * per,
    }
    for metric, span in (
            ("lattice.eval", "lattice.evaluate_lattice_batch"),
            ("lattice.build_F", "lattice.build_F"),
            ("constellation.quantize", "constellation.quantize_indices"),
            ("decoders.trace", "decoders.decode_trace"),
            ("decoders.f", "decoders.decode_F"),
            ("decoders.fprime", "decoders.decode_Fprime"),
            ("decoders.exhaustive", "decoders.exhaustive_ml"),
            ("schedule.compile", gen)):
        m[f"{metric}_s"] = self_ns[span] * sec
        m[f"{metric}_calls"] = count[span] * per
    for lv in range(3):
        m[f"schedule.exec_ns_per_trial.L{lv}"] = \
            ratio(exec_ns[lv], stats[f"exec_trials.L{lv}"])
    for name, *_ in PER_LAYER:
        if name not in m and name in stats:
            m[name] = stats[name] * per
    return m


def run_workload(name, seed, seconds, trace, reps, reference_path):
    import workloads
    from ostbc_lab import decoders, lattice, sim
    from tracing import Tracer, write_spans
    from metrics import END_TO_END, PER_LAYER, SUMMARY, UNITS

    wl = workloads.WORKLOADS[name]
    _set_threads(wl.threads)
    reference = json.loads(reference_path.read_text())
    rng = _rng(name, seed)
    wl.prepare(rng)
    problems = []
    attempted = 0

    def checked(call, result):
        nonlocal attempted
        ops, bad = wl.check(call, result, reference)
        attempted += ops
        problems.extend(bad)

    first = wl.round(rng)[0]
    checked(first, wl.run(first))           # warm-up, untimed

    tracer = Tracer() if trace else None
    modules = {"sim": sim, "decoders": decoders}
    cache = lattice.build_symbolic_lattice.cache_info
    plain, traced = Samples(), Samples()
    phase_s = Counter()                     # compile-exec's own split
    stats = Counter()
    rounds = 0
    while True:
        is_traced = trace and rounds % 2 == 1
        for call in wl.round(rng):
            calib = calibrate()
            if is_traced:
                tracer.call_id += 1
                cpu0, info0 = _child_cpu(), cache()
                with tracer.installed(modules):
                    start = time.perf_counter()
                    with tracer.span(wl.top_span):
                        result = wl.run(call, tracer)
                    dur = time.perf_counter() - start
                info1, cpu = cache(), _child_cpu() - cpu0
                per_call = wl.stats(call, result)
                per_call["lattice.symbolic_hits"] = info1.hits - info0.hits
                per_call["lattice.symbolic_misses"] = \
                    info1.misses - info0.misses
                per_call["sim.child_cpu_s"] = cpu
                if per_call["sim.pool_workers"] > 1:
                    per_call["pool_cpu_s"] = cpu
                    per_call["pool_capacity_s"] = \
                        dur * per_call["sim.pool_workers"]
                stats.update(per_call)
            else:
                start = time.perf_counter()
                result = wl.run(call)
                dur = time.perf_counter() - start
                if isinstance(result, dict):
                    phase_s.update(compile_s=result["compile_s"],
                                   exec_s=result["exec_s"],
                                   compiles=len(result["scheds"]))
            (traced if is_traced else plain).add(
                dur, calib, wl.trials(call, result))
            checked(call, result)
            del result
        rounds += 1
        if trace and rounds % 2:
            continue
        elapsed = sum(plain.wall) + sum(traced.wall)
        if seconds == 0 or (elapsed >= seconds and
                            (trace or len(plain.wall) >= MIN_CALLS)):
            break

    # Pool children are the only children so far; probes come after.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    setups, phases = Samples(), []
    for _ in range(reps):
        calib = calibrate()
        wall, report = _run_probe(name, seed, reference_path)
        setups.add(wall, calib, 0)
        phases.append(report["phases"])
        attempted += report["ops"]
        problems.extend(f"set-up: {p}" for p in report["problems"])

    failed = len(problems)
    tail, pct, n = plain.tail()
    e2e = {
        "trials_per_s": plain.rate(),
        "call_s_p50": statistics.median(plain.scaled),
        "call_s_tail": tail,
        "setup_s": statistics.median(setups.scaled) if reps else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "failed_frac": failed / max(attempted, 1),
    }
    wall_tail = plain.tail(scaled=False)[0]
    notes = {
        "trials_per_s": f"unscaled {plain.rate(scaled=False):.6g}",
        "call_s_p50": f"n={n}, unscaled "
                      f"{statistics.median(plain.wall):.6g}",
        "call_s_tail": f"p{pct:.1f} of n={n}, unscaled {wall_tail:.6g}",
        "setup_s": f"median of {reps} fresh interpreters"
                   + (f", unscaled {statistics.median(setups.wall):.6g}"
                      if reps else ""),
        "failed_frac": f"{failed} of {attempted} operations",
    }
    if phase_s["compiles"]:
        # Not scaled: the calibration brackets whole rounds, not phases.
        e2e["decodes_per_s"] = plain.trials / phase_s["exec_s"]
        e2e["schedules_per_s"] = phase_s["compiles"] / phase_s["compile_s"]

    if trace:
        layer = _layers(tracer.spans, stats + tracer.counts,
                        len(traced.wall))
        layer["trace.trials_per_s_delta"] = traced.rate() - plain.rate()
        for key in phases[0] if phases else ():
            layer[key] = statistics.median(p.get(key, 0.0) for p in phases)
        layer["host.calib_s"] = statistics.median(plain.calib + traced.calib)
        metrics = {k: layer.get(k, 0.0) for k, *_ in PER_LAYER}
    else:
        metrics = {k: e2e[k] for k, *_ in END_TO_END}

    env = environment(wl.threads)
    print(f"workload={name} seed={seed} trace={trace} rounds={rounds} "
          f"calls={len(plain.wall) + len(traced.wall)}")
    print("env: " + json.dumps(env, sort_keys=True))
    for key in SUMMARY:
        value = e2e.get(key)
        shown = "n/a (compile-exec only)" if value is None \
            else f"{value:.6g} {UNITS[key]}"
        print(f"  {key:<16} {shown}"
              + (f"  ({notes[key]})" if key in notes else ""))
    if trace:
        for key, *_ in PER_LAYER:
            print(f"  {key:<40} {metrics[key]:.6g} {UNITS[key]}")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "rounds": rounds,
              "end_to_end": e2e, "notes": notes, "metrics": metrics,
              "samples": {"call_wall_s": plain.wall,
                          "call_scaled_s": plain.scaled,
                          "traced_call_wall_s": traced.wall,
                          "calib_s": plain.calib,
                          "setup_wall_s": setups.wall,
                          "setup_scaled_s": setups.scaled},
              "setup_phases": phases, "problems": problems}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        write_spans(tracer.spans, OUT / f"spans-{stem}.jsonl.gz")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own interpreter, so memory peaks stay apart."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", str(args.reference)]
        if args.setup_reps is not None:
            cmd += ["--setup-reps", str(args.setup_reps)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT,
                                          timeout=900).returncode)
    return worst


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "ostbc_lab" / "__init__.py").is_file():
        print(f"bench: no ostbc_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        _set_threads(None)
        import workloads
        REFERENCE.write_text(json.dumps(workloads.record(), indent=1,
                                        sort_keys=True) + "\n")
        return 0
    if args.probe:
        return probe(args.workload, args.seed, args.reference)
    if args.workload == "all":
        return run_all(args)
    reps = args.setup_reps if args.setup_reps is not None \
        else (2 if args.trace else 5)
    return run_workload(args.workload, args.seed, args.seconds, args.trace,
                        reps, args.reference)


if __name__ == "__main__":
    sys.exit(main())
