#!/usr/bin/env python3
"""Smoke test of the sigprof profiler: profiles mine_cli on a small
generated dataset and checks that the report names a pfci:: function.

Usage: smoke.py SIGPROF_SO DATAGEN MINE_CLI WORKDIR
"""

import os
import subprocess
import sys


def main():
    so, datagen, mine_cli, workdir = sys.argv[1:5]
    os.makedirs(workdir, exist_ok=True)
    data = os.path.join(workdir, "sigprof_smoke.utd")
    profile = os.path.join(workdir, "sigprof_smoke.prof")
    subprocess.run([datagen, "quest", data, "--transactions=3000",
                    "--items=40", "--avg-len=10", "--seed=3"], check=True,
                   stdout=subprocess.DEVNULL)
    env = dict(os.environ, LD_PRELOAD=so, SIGPROF_OUT=profile)
    # Naive checks every PFI with the sampler: about half a CPU second,
    # a hundred or more samples at the kernel's tick rate.
    subprocess.run([mine_cli, data, "120", "0.3", "--threads=1",
                    "--algo=naive", "--epsilon=0.1", "--delta=0.1"],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    report = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "report.py"),
         profile, "--top", "40"],
        check=True, capture_output=True, text=True).stdout
    print(report)
    if "pfci::" not in report:
        print("FAIL: no pfci:: function in the profile", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
