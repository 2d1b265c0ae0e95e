#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload long_serial|short_batched|fleet_open \
        --seed N --seconds S --trace 0|1 [--plant-bad-hash]

The build goes to .bench_build/cmake at the repo root (Release; the
first run configures and builds, later runs only check it is current).
Run artifacts -- the binary's report, the Chrome traces of a traced run
and the fleet daemons' logs -- go to .bench_build/runs/<run>/.  The last
line of stdout is the result JSON; build output goes to stderr.  The
exit status is the binary's: 0 when every result matched its reference.
See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("long_serial", "short_batched", "fleet_open")
TARGETS = ("perfbench", "parse_serverd", "parse_router", "parsec_analyze_cli")
RUN_TIMEOUT_S = 175

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no PARSEC sources under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-bad-hash", action="store_true",
                    help="corrupt one reference hash; the run must fail")
    args = ap.parse_args()

    build()
    run = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(ROOT, ".bench_build", "runs", run)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(BUILD, "parsec"), "--out-dir", out_dir]
    if args.plant_bad_hash:
        cmd.append("--plant-bad-hash")
    # Own process group: on a timeout the binary and every fleet daemon
    # it spawned go down together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{run} did not finish within {RUN_TIMEOUT_S} s")
    try:  # daemons a crashed binary could not stop
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
