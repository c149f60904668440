#!/usr/bin/env python3
"""Build and run the ssmt repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-baseline --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the ssmt library from
src/) into $CARGO_TARGET_DIR or .bench_build, then runs
ssmt_perfbench. Every line it prints is passed through; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Extra arguments after the four standard ones (--tiny) are
passed to ssmt_perfbench unchanged.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def revision():
    """The git revision, or a marker when the tree is not a git checkout."""
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "not-a-git-checkout"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "not-a-git-checkout"


def build(out):
    """Configure and build ssmt_perfbench; exit non-zero without a result
    line when that fails (for example when src/ is missing)."""
    binary = os.path.join(out, "ssmt_perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if cfg.returncode != 0:
            sys.stderr.write(cfg.stderr)
            # A failed configure leaves a cache that would make the next
            # run skip configuring.
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    made = subprocess.run(
        ["cmake", "--build", out, "--target", "ssmt_perfbench", "-j", jobs],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if made.returncode != 0 or not os.path.exists(binary):
        sys.stderr.write(made.stderr)
        sys.exit("perfbench: build failed")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--revision", revision()]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-s%d.json" % (args.workload, args.seed))]
    try:
        code = subprocess.run(cmd + extra).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
