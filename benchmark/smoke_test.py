#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs (a few seconds each).

    python3 benchmark/smoke_test.py

For every workload, with --smoke (size caps 32 / 2000, so every workload
finishes in seconds):
  * --trace 0 prints every end-to-end metric of BENCHMARK.json with its
    unit, and ok_frac is 1 (fail_frac 0) with correct = true;
  * --trace 1 prints every per-layer metric with its unit, also correct;
and the serve_mix schedule is a pure function of the seed: the same seed
gives the same schedule digest, another seed a different one.  run.py
already refuses a run whose metric set differs from BENCHMARK.json; this
test checks it independently.  Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build() and the workload list)


def check(cond, msg):
    if not cond:
        print(f"smoke_test: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run_workload(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "5", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    check(proc.returncode == 0, f"{workload} trace={trace} exited "
          f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in run.WORKLOADS:
            res = run_workload(workload, trace)
            tag = f"{workload} trace={trace}"
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(res)}")
            check(res["correct"] is True and res["failed"] == 0,
                  f"{tag}: {res['failed']} of {res['attempted']} failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: metrics differ from BENCHMARK.json")
            if trace == 0:
                check(res["metrics"]["ok_frac"]["value"] == 1.0,
                      f"{tag}: ok_frac {res['metrics']['ok_frac']['value']}")
            print(f"smoke_test: ok {tag} ({res['attempted']} ops)")

    # Same seed, same serve_mix schedule; another seed, another schedule.
    build_dir = os.path.join(
        run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "cmake")
    binary = run.build(build_dir)

    def schedule(seed):
        out = subprocess.run(
            [binary, "--workload", "serve_mix", "--seed", str(seed),
             "--seconds", "26", "--trace", "0", "--print-schedule"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        return [l for l in out.splitlines() if l.startswith("schedule ")][0]

    a, b, c = schedule(11), schedule(11), schedule(12)
    check(a == b, f"serve_mix schedule differs for one seed: {a} / {b}")
    check(a != c, "serve_mix schedule does not depend on the seed")
    print(f"smoke_test: ok serve_mix schedule ({a})")


if __name__ == "__main__":
    main()
