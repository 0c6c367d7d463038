"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

1. A one-round run of each workload, untraced and traced, emits exactly the
   metrics BENCHMARK.json lists, with their units, prints all eight summary
   metrics, and reports failed_frac = 0.
2. On the traced sweep-lattice run the layer self times add up to the
   run_ber span.
3. With a corrupted reference every workload reports failed > 0, which
   proves the output checks are live.
4. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

No timing is asserted.  Scratch files go under .bench_out/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SUMMARY = ("trials_per_s", "call_s_p50", "call_s_tail", "decodes_per_s",
           "schedules_per_s", "setup_s", "peak_rss_mb", "failed_frac")


def bench(cwd, *args):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines):
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name in names:
        for trace in (0, 1):
            code, lines = bench(ROOT, "--workload", name, "--seed", "3",
                                "--seconds", "0", "--trace", str(trace),
                                "--setup-reps", "1")
            res = result(lines)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            tag = f"{name} trace={trace}"
            expect(code == 0 and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{tag}: correct, failed 0")
            expect(got == wanted[trace], f"{tag}: metric names and units")
            expect(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in res["metrics"].values()),
                   f"{tag}: finite values")
            text = "\n".join(lines)
            expect(all(f"  {k} " in text for k in SUMMARY)
                   and "failed_frac      0 frac" in text,
                   f"{tag}: summary prints all eight metrics, failed_frac 0")
            if trace and name == "sweep-lattice":
                m = {k: v["value"] for k, v in res["metrics"].items()}
                parts = m["sim.self_s"] + m["lattice.eval_s"] \
                    + m["constellation.quantize_s"] + m["lattice.build_F_s"] \
                    + sum(m[f"decoders.{r}_s"]
                          for r in ("trace", "f", "fprime", "exhaustive"))
                expect(math.isclose(parts, m["sim.run_ber_s"], rel_tol=1e-9),
                       f"{tag}: sim self + child spans == run_ber span")

    OUT.mkdir(exist_ok=True)
    ref = json.loads((BENCH / "reference.json").read_text())
    ref["sweeps"] = {k: "0" * 64 for k in ref["sweeps"]}
    ref["counts"]["g2/1/0"] = [29, 15]
    bad = OUT / "corrupt-reference.json"
    bad.write_text(json.dumps(ref))
    for name in names:
        code, lines = bench(ROOT, "--workload", name, "--seed", "3",
                            "--seconds", "0", "--setup-reps", "1",
                            "--reference", str(bad))
        res = result(lines)
        expect(code != 0 and not res["correct"] and res["failed"] > 0,
               f"{name}: corrupted reference raises failed_frac "
               f"({res['failed']}/{res['attempted']})")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(bare, "--workload", names[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    expect(code != 0 and not any(ln.startswith("{") for ln in lines),
           "without the sources: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
