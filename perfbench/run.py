#!/usr/bin/env python3
"""Build and run the wsnlink benchmark.

    python3 perfbench/run.py --workload campaign|contention|serve \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
benchmark program `wsnbench` (perfbench/CMakeLists.txt, which compiles the
program from src/) under $CARGO_TARGET_DIR, default `.bench_build`; later
runs only rebuild what changed. The wsnbench report is reduced to the metric
set that BENCHMARK.json names: its `end_to_end` metrics with `--trace 0`,
its `per_layer` metrics with `--trace 1`. Every other figure the run
measured is printed above the last line, which is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without that line, when the build fails, the run fails, a
metric BENCHMARK.json names is missing or an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; the build may take longer on a first run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    out = build_dir() / "wsnbench-cmake"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if done.returncode != 0:
                log.flush()
                tail = Path(log_path).read_text(errors="replace")[-3000:]
                # A failed configure leaves a cache that would skip it next time.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"build failed (log {log_path}):\n{tail}")
    binary = out / "wsnbench"
    if not binary.exists():
        fail("build produced no wsnbench binary")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, spec


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="pool width (default: nproc - 1)")
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0,
                        help="self-test sizes")
    parser.add_argument("--report", default="",
                        help="also write the full wsnbench report here")
    args = parser.parse_args()

    started = time.monotonic()
    want, spec = expected_metrics(args.trace)
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has "
             f"{sorted(workloads)}", 2)
    binary = build()

    run_dir = build_dir() / f"run-{os.getpid()}"
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tiny", str(args.tiny),
               "--work-dir", str(run_dir)]
    if args.threads > 0:
        command += ["--threads", str(args.threads)]
    if args.trace:
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.trace.json")]
    budget = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, 60))
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("run timed out")
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"wsnbench exited with {done.returncode}")
    report = json.loads(lines[-1])
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n")

    measured = report["metrics"]
    missing = [n for n in want if n not in measured]
    wrong_unit = [n for n in want
                  if n in measured and measured[n]["unit"] != want[n]]
    if missing or wrong_unit:
        fail(f"report lacks {missing} or has other units for {wrong_unit}", 4)

    for name in sorted(measured):
        if name not in want:
            print(f"  {name} = {measured[name]['value']:.6g} "
                  f"{measured[name]['unit']}")
    for key, value in sorted(report["notes"].items()):
        print(f"  {key}: {value}")
    for failure in report["check_failures"]:
        print(f"  CHECK FAILED: {failure}")
    print(f"  ops_attempted = {report['attempted']}")
    print(f"  ops_failed = {report['failed']}")
    for name in want:
        print(f"{name} = {measured[name]['value']:.6g} {want[name]}")
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: {"value": measured[n]["value"], "unit": want[n]}
                    for n in want},
    }))
    sys.exit(0 if report["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
