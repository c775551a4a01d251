#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the program's
libraries and the benchmark runner from source into .bench_build/ (Release);
later calls only re-check it. The runner's last stdout line is the
JSON result; the exit code is non-zero when the build fails or any
correctness check fails. See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold_builtin", "serve_mix", "job_drain", "csv_ingest")
RUNNER_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    """Configures and builds the runner (both no-ops when up to date);
    returns its path."""
    subprocess.run(
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "perfbench_runner"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench_runner"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int,
                        help="program thread count (outputs must not depend on it); "
                             "default 1 for job_drain, else up to 4")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; the self-tests use a tiny scale")
    parser.add_argument("--stall-ms", type=int, default=0,
                        help="self-test seam: the server stalls on one request")
    parser.add_argument("--stall-at", type=int, default=0)
    args = parser.parse_args()
    if args.threads is None:
        # job_drain runs its jobs one step at a time and each step's
        # parallel parts are small, so at 4 threads its rate follows
        # whichever shared core is slowest: on a 4-vCPU shared host it
        # moved about twice as much between runs as at 1 thread.
        args.threads = 1 if args.workload == "job_drain" else min(4, os.cpu_count() or 1)

    root = Path(__file__).resolve().parent.parent
    bench_build = root / ".bench_build"
    try:
        runner = build(root, bench_build / "perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3

    command = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(args.threads), "--scale", str(args.scale),
               "--stall-ms", str(args.stall_ms), "--stall-at", str(args.stall_at),
               "--work-dir", str(bench_build / "work")]
    # The runner runs in its own process group, so a timeout stops the
    # serve_mix server child and its workers too.
    process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print("perfbench: runner timed out", file=sys.stderr)
        return 4
    sys.stdout.write(output)
    sys.stdout.flush()
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
