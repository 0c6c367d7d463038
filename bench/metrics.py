"""Metric tables of the benchmark: name, unit, direction, and what it moves.

``END_TO_END`` metrics come from an untraced run (``--trace 0``), measured on
every workload.  ``PER_LAYER`` metrics come from a traced run (``--trace 1``);
the last field names the end-to-end metric and workload each one should move,
written down before any optimisation is measured.  BENCHMARK.json at the repo
root lists the same names, units and directions.

Times in END_TO_END are scaled to a reference host speed (see
``run.calibrate``); per-layer times are unscaled wall times.

Per-layer times (``*_s``) and counts are means per top-level call (one
``run_ber``, or one compile-and-execute round), taken over the traced calls of
the run, so they repeat across run lengths.  Fractions and rates are over the
whole traced part of the run.
"""

END_TO_END = [
    ("trials_per_s", "1/s", "higher",
     "trials completed per scaled second over the timed calls; compile-exec "
     "counts trials decoded by execute_schedule, compile time included"),
    ("call_s_p50", "s", "lower", "median scaled time of one top-level call"),
    ("call_s_tail", "s", "lower",
     "scaled time of the call with exactly ten slower calls beyond it"),
    ("setup_s", "s", "lower",
     "median scaled time for a fresh interpreter to reach the workload's "
     "first checked result (import, codes, constellations, cold symbolic "
     "lattice, one warm-up call)"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident memory of the benchmark process plus the largest peak "
     "of its pool children"),
]

_SWEEPS = "trials_per_s on sweep-lattice"
_CROSS = "trials_per_s on crosscheck-all"
_PAR = "trials_per_s on sweep-parallel"
_SCHED = "schedules_per_s (schedule.schedules_per_s) on compile-exec"
_DEC = "decodes_per_s (schedule.decodes_per_s) on compile-exec"
_SETUP = "setup_s on every workload"

PER_LAYER = [
    ("sim.run_ber_s", "s", "lower", _SWEEPS),
    ("sim.self_s", "s", "lower", _SWEEPS),
    ("sim.self_frac", "frac", "lower", _SWEEPS),
    ("sim.run_trial_self_s", "s", "lower", _CROSS),
    ("sim.trials", "count", "higher", _SWEEPS),
    ("sim.chunks", "count", "lower", _PAR),
    ("sim.redraws", "count", "lower", _SWEEPS),
    ("sim.pool_workers", "count", "higher", _PAR),
    ("sim.child_cpu_s", "s", "lower", _PAR),
    ("sim.pool_util", "frac", "higher", _PAR),
    ("lattice.eval_s", "s", "lower", _SWEEPS),
    ("lattice.eval_calls", "count", "lower", _SWEEPS),
    ("lattice.terms_evaluated", "count", "lower", _SWEEPS),
    ("lattice.build_F_s", "s", "lower", _CROSS),
    ("lattice.build_F_calls", "count", "lower", _CROSS),
    ("lattice.symbolic_hits", "count", "lower", _SCHED),
    ("lattice.symbolic_misses", "count", "lower", _SETUP),
    ("lattice.symbolic_build_s", "s", "lower", _SETUP),
    ("constellation.quantize_s", "s", "lower",
     "trials_per_s on sweep-lattice and crosscheck-all (predicted: within "
     "noise, under 1% today)"),
    ("constellation.quantize_calls", "count", "lower", _CROSS),
    ("constellation.components_quantized", "count", "higher", _SWEEPS),
    ("constellation.get_s", "s", "lower", _SETUP),
    ("codes.get_code_s", "s", "lower", _SETUP),
    ("decoders.trace_s", "s", "lower", _CROSS),
    ("decoders.trace_calls", "count", "lower", _CROSS),
    ("decoders.f_s", "s", "lower", _CROSS),
    ("decoders.f_calls", "count", "lower", _CROSS),
    ("decoders.fprime_s", "s", "lower", _CROSS),
    ("decoders.fprime_calls", "count", "lower", _CROSS),
    ("decoders.exhaustive_s", "s", "lower", _CROSS),
    ("decoders.exhaustive_calls", "count", "lower", _CROSS),
    ("decoders.exhaustive_candidates", "count", "lower", _CROSS),
    ("decoders.agreement", "frac", "higher", _CROSS),
    ("schedule.compile_s", "s", "lower", _SCHED),
    ("schedule.compile_calls", "count", "higher", _SCHED),
    ("schedule.ops_emitted", "count", "lower", _SCHED),
    ("schedule.schedules_per_s", "1/s", "higher", _SCHED),
    ("schedule.exec_s", "s", "lower", _DEC),
    ("schedule.decodes_per_s", "1/s", "higher", _DEC),
    ("schedule.exec_ns_per_trial.L0", "ns", "lower", _DEC),
    ("schedule.exec_ns_per_trial.L1", "ns", "lower", _DEC),
    ("schedule.exec_ns_per_trial.L2", "ns", "lower", _DEC),
    ("schedule.exec_bytes_computed", "B", "lower", _DEC),
    ("setup.import_s", "s", "lower", _SETUP),
    ("setup.warmup_s", "s", "lower", _SETUP),
    ("trace.trials_per_s_delta", "1/s", "higher",
     "none: traced minus untraced trials_per_s, the tracing overhead"),
    ("trace.spans", "count", "lower",
     "none: spans recorded per top-level call"),
    ("host.calib_s", "s", "lower",
     "none: median time of the calibration kernel, the host's speed"),
]

# RM/RA of every compiled schedule, next to exec_ns_per_trial.
SCHEDULE_PAIRS = [(cid, m) for cid in ("g2", "g3", "g4", "h3") for m in (1, 2)]
LEVELS = (0, 1, 2)
for _kind in ("rm", "ra"):
    for _cid, _m in SCHEDULE_PAIRS:
        for _level in LEVELS:
            PER_LAYER.append((f"schedule.{_kind}.{_cid}m{_m}.L{_level}",
                              "count", "lower", _DEC))

# The eight figures the summary prints; the last three are not end-to-end
# metrics of BENCHMARK.json because they do not apply to, or are zero on,
# some workloads.
SUMMARY = ("trials_per_s", "call_s_p50", "call_s_tail", "decodes_per_s",
           "schedules_per_s", "setup_s", "peak_rss_mb", "failed_frac")
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS.update(decodes_per_s="1/s", schedules_per_s="1/s", failed_frac="frac")
