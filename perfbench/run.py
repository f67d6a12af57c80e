#!/usr/bin/env python3
"""Build the ORWL end-to-end benchmark (Release) and run one workload.

    python3 perfbench/run.py --workload stencil|pipeline|graph|remote \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest    # the output checks' own tests

The library and the benchmark are built from this checkout's sources into
perfbench/.build (incrementally; the first build takes about a minute).
Build output goes to stderr; the benchmark's stdout is passed through, so
its last line is the JSON result. The traced run (--trace 1) writes its
spans and per-layer metrics under perfbench/out.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, "out")


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                   + targets, stdout=sys.stderr, check=True)


def main(argv):
    selftest = argv == ["--selftest"]
    try:
        build(["perfbench_checks_test"] if selftest else ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_checks_test")]
                              ).returncode
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    # setup_s counts from here: exec, loading and static initialisation of
    # the benchmark are part of its cold set-up. CLOCK_MONOTONIC is the
    # clock of the binary's std::chrono::steady_clock.
    start = str(time.monotonic_ns())
    os.execv(binary, [binary] + argv + ["--out", OUT, "--start-ns", start])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
