#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the pfci library from ./src together
with the workload driver (perfbench/driver.cc) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
driver with the given arguments. The driver's last stdout line is the JSON
result; build output goes to stderr. Exits non-zero, without a result, when
the build fails (for example when ./src is missing), and with the driver's
status otherwise (non-zero when any result differs from its reference).
A traced run (--trace 1) also writes the driver's spans, one JSON object a
line, to $CARGO_TARGET_DIR/perfbench/spans.jsonl.

    python3 perfbench/run.py --test

builds and runs the benchmark's own tests (metric math and the correctness
gate's failure path) through ctest.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    """Configures (once) and builds the driver; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 2
    if argv == ["--test"]:
        return subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"]).returncode
    driver = os.path.join(out, "perfbench_driver")
    extra = []
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        # The traced run also leaves its driver-side spans for inspection.
        extra = ["--spans-out", os.path.join(out, "spans.jsonl")]
    return subprocess.run([driver] + argv + extra).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
