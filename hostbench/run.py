#!/usr/bin/env python3
"""Builds and runs the host-speed benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload gcc_batch --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --selftest

The first call configures and builds hostbench (and the libraries under
src/ it links) in $CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench;
later calls only rebuild what changed. Build output goes to stderr. The last
line on stdout is the result object from the hostbench binary; per-run files
(result with metadata, trace spans) are written under <build>/results.
The exit code is 0 only when the build and the run succeeded and printed a
well-formed result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"  # the top-level build's default


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "hostbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", bdir, "--target", "hostbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return True


def source_digest():
    """Identifies the code under test; the checkout may not be a git repo."""
    h = hashlib.sha1()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "source-" + source_digest()


def check_catalogue(exe):
    """BENCHMARK.json must name exactly the metrics hostbench prints."""
    listed = subprocess.run([exe, "--list-metrics"], capture_output=True, text=True, check=True)
    printed = {}
    for line in listed.stdout.split("\n"):
        if line.strip():
            kind, name, unit, better = line.split()
            printed[name] = (kind, unit, better)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            declared[m["name"]] = (kind, m["unit"], m["better"])
    problems = [f"{n}: BENCHMARK.json {declared.get(n)} vs hostbench {printed.get(n)}"
                for n in sorted(set(printed) | set(declared)) if printed.get(n) != declared.get(n)]
    return problems


def run_benchmark(exe, bdir, args):
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(bdir, "work", args.workload),
           "--results", os.path.join(results, stem + ".json"),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results, stem + "-spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(150, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        log("hostbench timed out")
        return 1
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines:
        log(f"hostbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        log("hostbench printed no result")
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at tiny sizes and check the output")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 1
    exe = os.path.join(bdir, "hostbench")
    if not args.selftest:
        return run_benchmark(exe, bdir, args)

    problems = check_catalogue(exe)
    for p in problems:
        print(f"selftest catalogue mismatch: {p}")
    rc = subprocess.run([exe, "--selftest", "--workdir", os.path.join(bdir, "selftest")]).returncode
    ok = rc == 0 and not problems
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
