#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload paper_grid|large_cg|serve_mix \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The first run configures and builds
benchmark/CMakeLists.txt (the library from src/ plus the pstab_bench binary)
into $CARGO_TARGET_DIR (default .bench_build); later runs only check that
the build is current.  pstab_bench runs with PSTAB_THREADS = the CPUs this
process may use; it fixes every other PSTAB_* knob itself.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; pstab_bench checks that it
carries every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1, or fails without printing it.  See
benchmark/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "large_cg", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then bring pstab_bench up to date; logs go to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pstab_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(build_dir, "pstab_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own smoke test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "cmake")
    binary = build(build_dir)

    env = dict(os.environ)
    env["PSTAB_THREADS"] = str(len(os.sched_getaffinity(0)))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--digests", os.path.join(HERE, "digests.txt"),
           "--spec", os.path.join(ROOT, "BENCHMARK.json")]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)  # no result line on stdout on failure
        fail(f"pstab_bench exited with {proc.returncode}", 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of pstab_bench output is not JSON", 4)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
