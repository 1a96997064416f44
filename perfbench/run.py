#!/usr/bin/env python3
"""braidsim end-to-end benchmark: build from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 10 --trace 0

Builds the benchmark and the `braidsim` binary with dune into
.bench_build/, runs perfbench.exe, and passes its output through; the
last stdout line is the result JSON. Everything it writes stays under
.bench_build/.

    python3 perfbench/run.py --regen --seed N

recomputes the stored expected outputs of workload seed N
(perfbench/expected/seed-N.json), including the full-simulation IPCs the
sampled workload's error is measured against.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD = ".bench_build"
WORK = os.path.join(BUILD, "perfbench")
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
BRAIDSIM = os.path.join(BUILD, "default", "bin", "main.exe")
EXPECTED = os.path.join("perfbench", "expected")
WORKLOADS = ["cold-run", "sweep", "sampled", "serve"]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD, "--profile", "release",
           "./perfbench/perfbench.exe", "./bin/main.exe"]
    # dune's output goes to stderr: stdout carries only the benchmark's
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--regen", action="store_true")
    a = ap.parse_args()
    if not a.regen and a.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of a braid checkout")
    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [EXE, "--seed", str(a.seed), "--expected", EXPECTED, "--work", WORK]
    if a.regen:
        cmd.append("--regen")
    else:
        cmd += ["--workload", a.workload, "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--braidsim", BRAIDSIM]
    # own process group, so a timeout takes the serve daemon down too
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = p.wait(timeout=None if a.regen else 170)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit("perfbench: timed out")
    sys.exit(rc)


if __name__ == "__main__":
    main()
