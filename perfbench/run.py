#!/usr/bin/env python3
"""Build and run the ATS benchmark.

    python3 perfbench/run.py --workload sweep|replay|serve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds this directory's CMake package (the repository's libraries plus the
`perfbench` binary, optimised) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload.  Build output goes to
stderr; stdout carries the binary's host record, sample counts and, as its
last line, the JSON result.  With --trace 1 the span log is kept in
<build dir>/spans/.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    def step(cmd):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(bdir, "Makefile")):
        step(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", bdir, "-j", jobs,
          "--target", "perfbench", "perfbench_selftest"])


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def short_path(path):
    """Relative to the checkout root when inside it: the service's Unix
    socket lives under the work dir and socket paths are short."""
    rel = os.path.relpath(path, ROOT)
    return path if rel.startswith("..") else rel


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["sweep", "replay", "serve"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    # A terminated run still removes its work dir and stops the binary.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bdir = build_dir()
    build(bdir)
    if args.self_test:
        res = subprocess.run(["ctest", "--test-dir", bdir, "--output-on-failure"],
                             cwd=ROOT, stdout=sys.stderr, timeout=600)
        sys.exit(res.returncode)

    work = os.path.join(bdir, f"run-{os.getpid()}")
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", short_path(work), "--git-sha", git_sha()]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        # subprocess.run kills and reaps the binary on timeout or signal.
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=175)
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        fail(f"perfbench exited with code {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result")
    if set(result) != RESULT_KEYS:
        fail("perfbench result has the wrong keys")
    sys.stdout.write(res.stdout)


if __name__ == "__main__":
    main()
