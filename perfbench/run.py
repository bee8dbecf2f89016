"""Cold-CLI benchmark for branchedham.

    python3 perfbench/run.py --workload {portrait,scan,deform} --seed N \\
        --seconds S --trace {0,1}

Runs from any working directory against the package in ``src/`` of the
checkout that holds this file; nothing needs to be installed or built.

``--trace 0`` (end-to-end): generates configs from the seed and runs them
as a closed loop with one client and one child process at a time: each op
spawns ``branchedham <command> --config <file> --out <dir>`` (the
console-script entry point, ``branchedham.cli.main``) and the next op starts
when it has exited.  A cold ``import branchedham.cli`` probe follows every
op (at least ``SETUP_PROBES`` in all).  New patterns of ops start until
``--seconds`` have passed.  Every op's output is then checked; see
checks.py.

``--trace 1`` (per layer): runs the first pattern of ops of the seed
twice each, once through perfbench/tracer.py and once plainly, and reports
per-layer totals over the traced ops plus the tracing overhead (traced minus
untraced median op time).  The op list is fixed rather than timed so that
the counts repeat exactly for a seed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it give every metric with its
unit and sample count, ``fail_frac``, every failed op with its config and
reason, and a record of the machine.  Exits 2 without a result when the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import oracle
import tracer
from workloads import SCAN_COMBOS, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 15
# Ops take up to ~5 s on a 2-vCPU Xeon; the cap keeps a hung op from pushing
# a run past its 180 s limit.
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0

CLI_ENTRY = "import sys; from branchedham.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import branchedham.cli; "
                "dt = time.perf_counter() - t; import branchedham; "
                "print(repr(dt)); print(branchedham.__file__)")

END_TO_END = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class OpRun:
    op: Op
    seconds: float
    returncode: int
    rss_mb: float
    out_dir: Path
    stderr_tail: str
    traced: bool = False
    reasons: list | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path, timeout: float) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS MB).

    The child is reaped with os.wait4 for its own rusage; a timer kills it
    if it outlives `timeout`.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=fh,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def probe_import() -> float:
    """Seconds to import branchedham.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True, timeout=60,
                         check=True).stdout.split("\n")
    if not Path(out[1]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"branchedham imported from {out[1]}, not {SRC}")
    return float(out[0])


def run_op(op: Op, run_dir: Path, traced: bool, deadline: float) -> OpRun:
    tag = ("t_" if traced else "u_") + op.id
    cfg_path = run_dir / f"{tag}.json"
    cfg_path.write_text(json.dumps(op.config, indent=1) + "\n")
    out_dir = run_dir / tag
    cli_args = [op.command, "--config", str(cfg_path), "--out", str(out_dir)]
    if traced:
        argv = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                str(run_dir / f"{tag}.trace.json")] + cli_args
    else:
        argv = [sys.executable, "-c", CLI_ENTRY] + cli_args
    log = run_dir / f"{tag}.stderr"
    timeout = max(5.0, min(OP_TIMEOUT_S, deadline - time.perf_counter()))
    seconds, code, rss = spawn(argv, log, timeout)
    tail = log.read_text(errors="replace").strip().splitlines()[-3:]
    return OpRun(op, seconds, code, rss, out_dir, " | ".join(tail), traced)


def check_runs(workload: str, runs: list[OpRun]) -> None:
    """Fill in run.reasons for every op; [] means it passed."""
    for r in runs:
        r.reasons = checks.check_common(r.out_dir, r.returncode, r.stderr_tail)
    ok = [r for r in runs if not r.reasons]
    if workload == "portrait":
        for r in ok:
            r.reasons += checks.guarded(checks.check_portrait, r.op, r.out_dir)
    elif workload == "deform":
        for r in ok:
            r.reasons += checks.guarded(checks.check_deform, r.op, r.out_dir)
    elif workload == "scan":
        top = max(r.op.config["e_max"] for r in runs) + 0.5
        ref = oracle.partner_levels(SCAN_COMBOS, top)
        for r in ok:
            r.reasons += checks.guarded(checks.check_scan, r.op, r.out_dir, ref)


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(args, run_dir: Path, deadline: float) -> tuple[dict, list[OpRun], dict]:
    # On a shared machine CPU speed can drift over seconds, so the import
    # probes are spread over the run, one after each op, rather than bunched
    # at the start.  Probe time is kept out of the ops' batch time.
    probe_import()          # writes bytecode caches in a fresh checkout; not counted
    setup = []
    runs = []
    stop = time.perf_counter() + args.seconds
    wl = WORKLOADS[args.workload]
    for op in wl.generate(args.seed):
        # whole patterns only, so every run holds the workload's full mix
        if len(runs) % wl.pattern == 0 and runs and time.perf_counter() >= stop:
            break
        runs.append(run_op(op, run_dir, traced=False, deadline=deadline))
        setup.append(probe_import())
    while len(setup) < SETUP_PROBES:
        setup.append(probe_import())
    batch_s = sum(r.seconds for r in runs)
    check_runs(args.workload, runs)
    passed = sum(1 for r in runs if not r.reasons)
    values = {
        "op_s_p50": median([r.seconds for r in runs]),
        "ops_per_s": passed / batch_s,
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "setup_s": median(setup),
    }
    samples = {"op_s_p50": len(runs), "ops_per_s": len(runs),
               "peak_rss_mb": len(runs), "setup_s": len(setup)}
    extra = {"batch_s": batch_s, "setup_probes_s": setup,
             "op_s": [round(r.seconds, 6) for r in runs]}
    return values, runs, {"samples": samples, **extra}


def per_layer(args, run_dir: Path, deadline: float) -> tuple[dict, list[OpRun], dict]:
    wl = WORKLOADS[args.workload]
    probe_import()                       # compile bytecode before timing anything
    gen = wl.generate(args.seed)
    ops = [next(gen) for _ in range(wl.pattern)]
    runs = []
    for i, op in enumerate(ops):
        # alternate which side goes first so slow drift cancels
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            runs.append(run_op(op, run_dir, traced, deadline))
    check_runs(args.workload, runs)
    traces = []
    for r in runs:
        path = run_dir / f"t_{r.op.id}.trace.json"
        if r.traced and path.is_file():
            trace = json.loads(path.read_text())
            trace["op"] = r.op.id
            files = [p for p in r.out_dir.iterdir() if p.is_file()]
            trace["counts"]["io.files"] = len(files)
            # run_report.json carries the op's wall time, so its length varies
            trace["counts"]["io.bytes"] = sum(p.stat().st_size for p in files
                                              if p.name != "run_report.json")
            traces.append(trace)
    values = tracer.layer_metrics(traces)
    traced_s = [r.seconds for r in runs if r.traced]
    plain_s = [r.seconds for r in runs if not r.traced]
    values["trace.ops"] = len(traces)
    values["trace.overhead_s"] = median(traced_s) - median(plain_s)
    violations = [f"{name} = {values[name]} on {wl.name}, predicted nonzero"
                  for name in wl.exercises if not values[name]]
    violations += [f"{name} = {values[name]} on {wl.name}, predicted zero"
                   for name in wl.bypasses if values[name]]
    samples = {name: len(traces) for name in values}
    samples["trace.overhead_s"] = len(runs)
    return values, runs, {"samples": samples, "violations": violations,
                          "traced_op_s": traced_s, "untraced_op_s": plain_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "branchedham" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'branchedham'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            values, runs, info = per_layer(args, run_dir, deadline)
            units = tracer.LAYER_UNITS
        else:
            values, runs, info = end_to_end(args, run_dir, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                # another run is still using it

    failed = [r for r in runs if r.reasons]
    violations = info.pop("violations", [])
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]:6s} n={info['samples'][name]}")
    print(f"{'fail_frac':40s} {len(failed) / len(runs):14.6g} {'ratio':6s} "
          f"n={len(runs)} ({len(failed)} failed)")
    for r in failed:
        print(f"FAILED {r.op.id}{' (traced)' if r.traced else ''}: "
              f"{'; '.join(r.reasons)}\n  config: {json.dumps(r.op.config)}")
    for v in violations:
        print(f"PREDICTION FAILED: {v}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": len(runs), "failed": len(failed),
              "fail_frac": len(failed) / len(runs), **machine_record(), **info}
    print("record " + json.dumps(record))
    result = {
        "correct": not failed and not violations,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
