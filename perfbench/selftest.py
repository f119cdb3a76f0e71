#!/usr/bin/env python3
"""Self-test of the wsnlink benchmark at a tiny size.

    python3 perfbench/selftest.py [--seconds 2]

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs perfbench/run.py at self-test sizes and checks that:

  * an untraced run reports exactly the `end_to_end` names, a traced run
    exactly the `per_layer` names, each with its unit, and every output
    check passes;
  * the exact counts repeat bit-for-bit across two traced runs and across
    pool width 1 and the default width;
  * a second seed yields the same metric names and passes every check;
  * the contention rows are identical between an untraced and a traced
    run, and the campaign CSV is identical across pool widths.

Exits 1 on the first failed expectation.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counts that must repeat bit-for-bit. They come from the counters the
# program returns (or from the input schedule), never from a clock.
EXACT = [
    "sim.events_per_packet", "sim.cancel_ratio",
    "mac.tries_per_packet", "mac.ack_ratio", "mac.cca_busy_per_attempt",
    "link.queue_drop_ratio", "phy.bytes_per_packet", "app.delivery_ratio",
    "channel.medium.frames", "channel.medium.collision_ratio",
    "channel.medium.capture_ratio", "core.opt.space_size",
    "serve.cache.hit_ratio",
]
# Bytes written per campaign config depend on which rows the intermediate
# checkpoints hold, i.e. on completion order: exact at pool width 1 only.
WIDTH_ONE_EXACT = ["experiment.write_bytes_per_config"]


def run(workload, seed, trace, seconds, threads, out_dir, tag):
    report = out_dir / f"{workload}-{tag}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--tiny", "1", "--report", str(report)]
    if threads:
        command += ["--threads", str(threads)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"selftest: {workload} {tag}: run.py exited "
                 f"{done.returncode}\n{done.stdout}")
    return json.loads(lines[-1]), json.loads(report.read_text())


def expect(ok, message):
    if not ok:
        sys.exit(f"selftest: FAILED: {message}")
    print(f"  ok  {message}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)

    for workload in (w["name"] for w in spec["workloads"]):
        print(f"{workload}:")
        s = args.seconds
        line0, full0 = run(workload, 1, 0, s, 0, out_dir, "untraced")
        line1, full1 = run(workload, 1, 1, s, 0, out_dir, "traced")
        line2, full2 = run(workload, 1, 1, s, 0, out_dir, "traced-again")
        line3, full3 = run(workload, 1, 1, s, 1, out_dir, "traced-width1")
        line4, full4 = run(workload, 1, 1, s, 1, out_dir, "traced-width1-again")
        line5, _ = run(workload, 2, 0, s, 0, out_dir, "seed2")
        line6, _ = run(workload, 2, 1, s, 0, out_dir, "seed2-traced")

        for line, names, what in ((line0, e2e, "untraced"),
                                  (line1, per_layer, "traced"),
                                  (line5, e2e, "seed 2 untraced"),
                                  (line6, per_layer, "seed 2 traced")):
            units = {n: m["unit"] for n, m in line["metrics"].items()}
            expect(units == names,
                   f"{what} run reports exactly the BENCHMARK.json names and units")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{what} run passes every output check")

        def values(full, names):
            return {n: full["metrics"][n]["value"] for n in names}

        expect(values(full1, EXACT) == values(full2, EXACT),
               "exact counts repeat across two traced runs")
        expect(values(full1, EXACT) == values(full3, EXACT),
               "exact counts repeat across pool width 1 and the default width")
        expect(values(full3, WIDTH_ONE_EXACT) == values(full4, WIDTH_ONE_EXACT),
               "write bytes per config repeat across two width-1 runs")
        if workload == "campaign":
            digests = {f["notes"]["campaign.csv_digest"]
                       for f in (full0, full1, full3)}
            expect(len(digests) == 1, "campaign CSV identical across pool widths")
        if workload == "contention":
            expect(full0["notes"]["contention.rows_digest"]
                   == full1["notes"]["contention.rows_digest"],
                   "contention rows identical between untraced and traced runs")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
