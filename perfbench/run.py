#!/usr/bin/env python3
"""PayLess benchmark entry point.

Builds the benchmark binary (and the PayLess libraries it links) from the
sources of this checkout, runs one workload in its own process and forwards
its output. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it carry the
run's meta data (nproc, build type, compiler, commit, seed, run length), the
correctness notes and every metric with its unit and sample count.

    python3 perfbench/run.py --workload whw_cold --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload again
with tracing on and reports the per-layer metrics (spans are written under
the build directory, in traces/). The build directory is $CARGO_TARGET_DIR
(default .bench_build), relative to the checkout root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("whw_cold", "whw_hot", "bind_rtt", "bind_fragmented")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 165


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(REPO, root)
    return os.path.join(root, "perfbench")


def build(out_dir):
    """Configures and builds payless_perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        log("no PayLess sources next to the benchmark (src/CMakeLists.txt)")
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
    steps = ["cmake", "--build", out_dir, "--target", "payless_perfbench",
             "-j", jobs]
    if subprocess.run(steps, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out_dir, "payless_perfbench")


def source_digest():
    """sha256 over the program and benchmark sources (the checkout need not
    be a git repository, so this identifies the code that was measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def parse_result(stdout):
    """Returns (lines, result) where result is the last line's JSON object,
    or raises ValueError when the output breaks the result contract."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError("last line is not a result object")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    return lines, result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        log("build failed")
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", git_commit(), "--source_digest", source_digest()]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace_out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    if proc.returncode != 0:
        log("benchmark binary exited with %d" % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 4
    try:
        lines, _ = parse_result(proc.stdout)
    except ValueError as err:
        log("malformed benchmark output: %s" % err)
        return 5
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
