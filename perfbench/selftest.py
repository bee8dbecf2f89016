"""Self-test of the benchmark's counters and declarations.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload it makes two traced runs of the same seed and checks that

* every deterministic counter (tracer.DETERMINISTIC) repeats exactly,
* every counter the workload exercises is nonzero and every predicted zero
  holds (workloads.WORKLOADS[...].exercises / .bypasses),
* every traced and untraced op passed its output checks,

and that BENCHMARK.json declares exactly the metrics run.py reports.
Exits 1 on any mismatch.  Takes about three minutes on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
import tracer
from workloads import WORKLOADS


def declared_metrics_match() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"end_to_end declared {e2e}, reported {run.END_TO_END}")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != tracer.LAYER_UNITS:
        problems.append("per_layer declarations differ from tracer.LAYER_UNITS: "
                        f"{sorted(set(layer.items()) ^ set(tracer.LAYER_UNITS.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("declared workloads differ from workloads.WORKLOADS")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=sorted(WORKLOADS),
                    choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)

    problems = declared_metrics_match()
    for name in args.workload:
        ns = argparse.Namespace(workload=name, seed=args.seed)
        passes = []
        for k in range(2):
            run_dir = run.WORK / f"selftest-{name}-{args.seed}-{k}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            try:
                values, runs, info = run.per_layer(ns, run_dir,
                                                   time.perf_counter() + 600.0)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            problems += [f"{name}: {v}" for v in info["violations"]]
            problems += [f"{name}: {r.op.id} failed: {r.reasons}"
                         for r in runs if r.reasons]
            passes.append(values)
        for key in tracer.DETERMINISTIC:
            a, b = passes[0][key], passes[1][key]
            if a != b:
                problems.append(f"{name}: {key} differs between runs: {a} vs {b}")
        print(f"{name}: " + ", ".join(f"{k}={passes[0][k]}" for k in tracer.DETERMINISTIC
                                     if passes[0][k]))
    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
