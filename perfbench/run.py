#!/usr/bin/env python3
"""Build and run one workload of the whole-pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--perturb]

Run from the root of a source checkout.  The script builds
perfbench/bench.exe and bin/mimdloop.exe from source with dune into the
build directory named by $CARGO_TARGET_DIR (default .bench_build), then
runs the workload.  The last line of standard output is the result
object; the exit code is non-zero when a check failed or nothing could
be built.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["exec-ewf-domains", "exec-ewf-sockets", "compile-batch", "serve-mix"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for provenance."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="skew the parallel runs' initial memory; every run must then fail")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    missing = [p for p in ["dune-project", "lib", "bin", "examples/loops", "perfbench/dune"]
               if not os.path.exists(p)]
    if missing:
        log("not a source checkout, missing: " + ", ".join(missing))
        return 2

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(build, "xdg-cache")))
    cmd = ["dune", "build", "--root", ".", "--build-dir", build, "--profile", "release",
           "--cache=disabled", "./perfbench/bench.exe", "./bin/mimdloop.exe"]
    try:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 2
    if built.returncode != 0:
        log("build failed with code %d" % built.returncode)
        return 2

    out_dir = os.path.join(build, "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    exe = [os.path.join(build, "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mimdloop", os.path.join(build, "default", "bin", "mimdloop.exe"),
           "--out", out_dir, "--commit", commit(root), "--source-digest", source_digest(root)]
    if args.perturb:
        exe.append("--perturb")
    sys.stdout.flush()
    # Own process group, so a run that overstays is stopped with every
    # process it started (service children, forked workers).
    proc = subprocess.Popen(exe, env=env, start_new_session=True)

    def stop_group(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_group)
    signal.signal(signal.SIGINT, stop_group)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
