#!/usr/bin/env python3
"""Build the parcfl CLI and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload batch-dq --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); sockets, logs and traces go to .bench_run. The last
line of standard output is the JSON result printed by perfbench/bench.ml.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("batch-dq", "serve-cs", "routed-ci")
SOURCES = ("dune-project", "lib", "bin/parcfl_cli.ml", "perfbench/bench.ml", "perfbench/dune")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def commit():
    """The checked-out commit, when the checkout is a git work tree."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def build(build_dir):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
           "./perfbench/bench.exe", "./bin/parcfl_cli.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        return fail("not a parcfl checkout (missing " + ", ".join(missing) + ")")
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        return fail("--workload, --seed, --seconds and --trace are required")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return fail("build failed")
    bench = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    if args.self_test:
        return subprocess.run([bench, "--self-test"]).returncode
    cli = os.path.abspath(os.path.join(build_dir, "default", "bin", "parcfl_cli.exe"))
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--rundir", ".bench_run", "--commit", commit()]
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        # the benchmark stops its own servers when it is told to stop
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
