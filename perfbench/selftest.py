#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny scale (about two minutes).

    python3 perfbench/selftest.py

Run from the repository root. Checks that
  * every workload prints every metric BENCHMARK.json names, with its unit,
    in the untraced and the traced run, and passes its correctness checks;
  * each workload's output digest is the same at --threads 1 and 4 (on
    serve_mix the thread count reaches only the runner, not the server,
    whose router workers always run one thread each);
  * an open-loop request stalled in the server charges the stall to every
    request due while it lasted (latency counts from the due time);
  * the workloads isolate layers as designed, by exact counts:
    sim.instructions is 0 on serve_mix and csv_ingest,
    sim.workloads_per_distinct is 1 on cold_builtin and > 1 on job_drain,
    ingest.chunks > 0 on csv_ingest.
Exits non-zero on the first failed check.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.02"
SECONDS = "2"


def run(workload, trace, threads=4, seed=7, extra=()):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
               "--trace", str(trace), "--threads", str(threads), "--scale", SCALE,
               *extra]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=600)
    if completed.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {completed.returncode}\n"
                 f"{completed.stderr[-3000:]}")
    lines = completed.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def note(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line
    sys.exit(f"FAIL: no '{prefix}' line in output")


def check(condition, what):
    if not condition:
        sys.exit(f"FAIL: {what}")
    print(f"ok   {what}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    layer = {}
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, trace)
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload} trace={trace} passes its checks")
            wrong = [m["name"] for m in spec[key]
                     if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            check(not wrong, f"{workload} trace={trace} prints all {len(spec[key])} "
                             f"{key} metrics with their units (missing: {wrong})")
            check(set(result["metrics"]) == {m["name"] for m in spec[key]},
                  f"{workload} trace={trace} prints no other metric")
            if trace:
                layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}

        digests = [note(run(workload, 0, threads=t)[0], "digest") for t in (1, 4)]
        check(digests[0] == digests[1], f"{workload} digest equal at 1 and 4 threads")

    stall_ms = 600
    lines, _ = run("serve_mix", 0, extra=("--stall-ms", str(stall_ms), "--stall-at", "5"))
    detail = note(lines, "detail serve")
    max_latency = float(re.search(r"max_latency_ms=([0-9.]+)", detail).group(1))
    charged = int(re.search(r"over_half_stall=([0-9]+)", detail).group(1))
    check(max_latency >= stall_ms, "a stalled request's latency includes the stall")
    # At 10 requests/s, about 6 requests fall due during a 600 ms stall; at
    # least the first half of them wait more than half the stall.
    check(charged >= 3, "requests due during the stall are charged its wait")

    check(layer["serve_mix"]["sim.instructions"] == 0, "sim.instructions == 0 on serve_mix")
    check(layer["csv_ingest"]["sim.instructions"] == 0, "sim.instructions == 0 on csv_ingest")
    check(layer["cold_builtin"]["sim.workloads_per_distinct"] == 1.0,
          "sim.workloads_per_distinct == 1 on cold_builtin")
    check(layer["job_drain"]["sim.workloads_per_distinct"] > 1.0,
          "sim.workloads_per_distinct > 1 on job_drain")
    check(layer["csv_ingest"]["ingest.chunks"] > 0, "ingest.chunks > 0 on csv_ingest")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
