#!/usr/bin/env python3
"""Builds and runs the qsmt end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload oneshot-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's libraries plus the driver) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls rebuild
incrementally. Build output goes to standard error, so the last line of
standard output is the driver's JSON result. The program's thread budget
is fixed here: one OpenMP thread per solving thread (README, "Thread
budget").
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OMP_THREADS = "1"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "qsmt-perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write(
            "perfbench: %s has no src/; run from a full checkout\n" % ROOT)
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "qsmt_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "qsmt_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.stderr.write("perfbench: build failed: %s\n" % error)
        return 2
    env = dict(os.environ, OMP_NUM_THREADS=OMP_THREADS, OMP_DYNAMIC="false")
    env.pop("QSMT_TELEMETRY", None)  # Timed runs keep telemetry off.
    command = [binary, "--selftest"] if args.selftest else [
        binary, "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace]
    sys.stdout.flush()
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
