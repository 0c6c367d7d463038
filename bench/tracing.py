"""In-memory spans recorded around the calls into each ostbc_lab module.

A span is (name, start_ns, end_ns, parent, call_id): parent is the index of
the enclosing span (-1 at top level) and call_id numbers the benchmark's
top-level calls.  Spans come from wrappers installed on the module attributes
that ``sim`` and ``decoders`` look up at call time; the wrappers are removed
when the ``installed`` block exits.  Pool children forked by ``run_ber``
inherit the wrappers, but their spans stay in the child's memory and are
never seen here, so pool work shows up only as ``sim`` self time and in the
``sim.pool_*`` metrics.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np


def _terms(counts, sym, h):
    counts["lattice.terms_evaluated"] += h.shape[0] * len(sym.scatter()[0])


def _components(counts, z, alphabet):
    counts["constellation.components_quantized"] += np.size(z)


def _candidates(counts, lat, ycheck, constellation):
    counts["decoders.exhaustive_candidates"] += \
        constellation.levels ** lat.hcheck.shape[1]


# (module, attribute, span name, counter)
PATCHES = (
    ("sim", "run_trial", "sim.run_trial", None),
    ("sim", "evaluate_lattice_batch", "lattice.evaluate_lattice_batch", _terms),
    ("sim", "quantize_indices", "constellation.quantize_indices", _components),
    ("decoders", "quantize_indices", "constellation.quantize_indices",
     _components),
    ("decoders", "build_F", "lattice.build_F", None),
    ("sim", "decode_trace", "decoders.decode_trace", None),
    ("sim", "decode_F", "decoders.decode_F", None),
    ("sim", "decode_Fprime", "decoders.decode_Fprime", None),
    ("sim", "exhaustive_ml", "decoders.exhaustive_ml", _candidates),
)


class Tracer:
    """Collects spans and counts; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.call_id = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.call_id)

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.call_id)
                if counter is not None:
                    counter(self.counts, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Patch PATCHES onto `modules` (short name -> module); restore after.

        An attribute the library no longer has is skipped with a note on
        stderr, and the metrics fed by it read zero.
        """
        saved = []
        try:
            for mod_name, attr, span_name, counter in PATCHES:
                mod = modules[mod_name]
                original = getattr(mod, attr, None)
                if original is None:
                    print(f"trace: {mod.__name__}.{attr} not found, "
                          f"{span_name} unmeasured", file=sys.stderr)
                    continue
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span_name, original, counter))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def span_totals(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: inclusive ns, self ns (minus child spans), and calls."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl, self_ns, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        incl[name] += end - start
        self_ns[name] += end - start - child[i]
        calls[name] += 1
    return incl, self_ns, calls


def write_spans(spans, path) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent, call_id."""
    import gzip
    import json
    with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")
