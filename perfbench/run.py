#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and ends with one JSON result line. Without --workload it
runs every workload in turn with the other flags and exits nonzero if any
run failed or any reply failed its check. Run it from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["ide-bundled", "batch-100k", "reload-10k"]
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def build():
    cmd = dune() + ["build", "--root", ".", "./perfbench/main.exe", "./bin/prospector_cli.exe"]
    # build output goes to stderr: stdout must end with the result line
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def correct(args):
    """Run one workload, echoing its output; true if it finished and every check passed."""
    p = subprocess.run([MAIN] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode == 0 and json.loads(lines[-1])["correct"]
    except (IndexError, ValueError, KeyError):
        return False


def main():
    args = sys.argv[1:]
    build()
    if args == ["--build-only"]:
        return
    if "--workload" in args:
        sys.exit(subprocess.run([MAIN] + args).returncode)
    failed = [w for w in WORKLOADS if not correct(["--workload", w] + args)]
    if failed:
        sys.exit("perfbench: failed checks on " + ", ".join(failed))


if __name__ == "__main__":
    main()
