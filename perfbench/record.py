#!/usr/bin/env python3
"""Record the physics fingerprint or the baseline of the xifrac benchmark.

Usage (from the root of a checkout):
    python3 perfbench/record.py fingerprint
    python3 perfbench/record.py baseline

``fingerprint`` runs every workload at seed 0 and writes
``perfbench/fingerprint.json``, the recorded values the gate compares with.
``baseline`` runs every workload once per seed 1-10 for ``run_seconds``
(from ``BENCHMARK.json``) with tracing off, then once traced and once
untraced at seed 0, and writes ``perfbench/baseline.json``:
per metric the median, quartiles and their spread (IQR / median), the
per-layer table, the exact counts, the tracing overhead (traced minus
untraced fastest window at seed 0, both in plain seconds) and the machine
it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SEEDS = list(range(1, 11))
# Counts that repeat exactly on the direct path.
EXACT = ("fem.factor_calls", "fem.lu_fill", "driver.stag_iters",
         "driver.sweeps", "mesh.cells_final", "output.write_bytes")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        (json.loads(l.split(" ", 1)[1]) for l in lines
         if l.startswith("fingerprint ")), None)
    result["environment"] = next(
        (json.loads(l.split(" ", 1)[1]) for l in lines
         if l.startswith("environment ")), None)
    # Fastest window in plain seconds (traced runs are never scaled).
    result["unscaled_wall_s"] = min(
        (float(l.split()[1]) for l in lines if l.startswith("window ")),
        default=None)
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}"
                     for k, v in result["metrics"].items()
                     if trace == 0 or k in EXACT), flush=True)
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None,
            "n": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("fingerprint", "baseline"))
    args = ap.parse_args()

    if args.what == "fingerprint":
        prints = {w: bench(w, 0, 1, 0)["fingerprint"] for w in WORKLOADS}
        (HERE / "fingerprint.json").write_text(json.dumps(prints, indent=2)
                                               + "\n")
        return 0

    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench_spec["run_seconds"]
    out = {"machine": {"cpu": cpu_model(), "nproc": os.cpu_count()},
           "seeds": SEEDS, "run_seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        runs = [bench(w, s, seconds, 0) for s in SEEDS]
        untraced0 = bench(w, 0, seconds, 0)
        traced0 = bench(w, 0, seconds, 1)
        out["environment"] = untraced0["environment"]
        layer = {k: v["value"] for k, v in traced0["metrics"].items()}
        out["workloads"][w] = {
            "all_correct": all(r["correct"] for r in runs + [untraced0, traced0]),
            "failed_frac": sum(r["failed"] for r in runs)
                           / sum(r["attempted"] for r in runs),
            "end_to_end": {
                m["name"]: spread([r["metrics"][m["name"]]["value"] for r in runs])
                for m in bench_spec["end_to_end"]},
            "seed0_untraced": {k: v["value"]
                               for k, v in untraced0["metrics"].items()},
            "per_layer_seed0": layer,
            "exact_counts_seed0": {k: layer[k] for k in EXACT},
            "tracing_overhead_s": layer["trace.wall_s"]
                                  - untraced0["unscaled_wall_s"],
            "fingerprint_seed0": untraced0["fingerprint"],
        }
        (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
