#!/usr/bin/env python3
"""Builds and runs the whole-farm benchmark.

Usage (from the repository root):

    python3 farmbench/run.py --workload boot|steady|churn \
        --seed N --seconds S --trace 0|1 [--size full|tiny]
        [--unrecovered-fault] [--domain-moves]

The first run configures and builds farmbench/ (which compiles the repo's
src/ tree) into .bench_build/farmbench, or into $CARGO_TARGET_DIR/farmbench
when that is set; later runs only rebuild what changed. Build output goes to
stderr. The benchmark's stdout is passed through; its last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("farmbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "farmbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the GulfStream sources (src/) are not beside farmbench/")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "farmbench")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = r.stdout.strip()
    return sha if r.returncode == 0 and sha else "unknown"


def source_digest():
    """sha256 over the program and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "farmbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["boot", "steady", "churn"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--unrecovered-fault", action="store_true")
    p.add_argument("--domain-moves", action="store_true")
    args = p.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    if args.unrecovered_fault:
        cmd.append("--unrecovered-fault")
    if args.domain_moves:
        cmd.append("--domain-moves")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("benchmark exited with code %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(r.stdout)
        fail("benchmark printed no result line")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
