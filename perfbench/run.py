#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cov-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --calibrate --seed 7     # rewrite perfbench/targets.json

The last line of standard output is the JSON result of the run. Build
output and progress go to standard error.
"""

import os
import signal
import subprocess
import sys
import time

BENCH_EXE = "_build/default/perfbench/perfbench.exe"
CFTCG_EXE = "_build/default/bin/cftcg_cli.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def reap_group(pgid, deadline=20.0):
    """Stop whatever is left of the process group and wait until it is gone."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        end = time.monotonic() + deadline / 2
        while time.monotonic() < end:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def main():
    # The program is built from the checkout this script runs in; a
    # directory holding only the benchmark has nothing to build.
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout")
    # Keep every file the build and the run write inside the checkout.
    scratch = os.path.abspath(".perfbench_run")
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.join(scratch, "tmp"),
               XDG_CACHE_HOME=os.path.join(scratch, "cache"))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + BENCH_EXE[len("_build/default/"):],
         "./" + CFTCG_EXE[len("_build/default/"):]],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    cmd = [BENCH_EXE] + sys.argv[1:]
    proc = subprocess.Popen(cmd, start_new_session=True, env=env)
    try:
        code = proc.wait()
    except BaseException:
        reap_group(proc.pid)
        proc.wait()
        raise
    reap_group(proc.pid)
    sys.exit(code)


if __name__ == "__main__":
    main()
