#!/usr/bin/env python3
"""Alternating before/after runs of the PayLess benchmark, pair by pair.

Exports two revisions of the repository into separate checkouts, builds
each with perfbench/run.py into its own build directory ($CARGO_TARGET_DIR),
then runs one workload in N pairs, one base run and one change run per
pair, alternating which side goes first. For every end-to-end metric of
BENCHMARK.json it prints each pair, each side's median and quartiles, and
how many pairs the change won in the metric's direction, then applies the
acceptance rule for a claimed gain: the change wins at least nine pairs in
ten, and its median beats the base median by more than the distance
between the base's quartiles.

    python3 scripts/perf_pairs.py --workload whw_cold --pairs 10
    python3 scripts/perf_pairs.py --workload whw_hot --pairs 4 --seconds 15 \\
        --base 2d0be2b --change HEAD

--base defaults to HEAD~1; --change defaults to the working tree of this
checkout, uncommitted edits included. Revisions are exported with
`git archive`, so the repository's own refs and worktree list are left
untouched. Exports and builds go under --work (default
.bench_build/pairs), which run.py's build-tree cache makes reusable.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def log(message):
    print("perf_pairs: " + message, file=sys.stderr, flush=True)


def export(rev, dest):
    """Writes the tree of `rev` (None: this working tree) to `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    if rev is None:
        # Tracked and untracked-but-not-ignored files, as they are on disk.
        listing = subprocess.run(
            ["git", "-C", REPO, "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], check=True, stdout=subprocess.PIPE)
        for path in filter(None, listing.stdout.decode().split("\0")):
            src = os.path.join(REPO, path)
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(dest, path)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, path))
        return
    archive = subprocess.Popen(["git", "-C", REPO, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % rev)


def run_once(checkout, build_root, workload, seed, seconds, trace=0):
    """One perfbench run; returns its result object."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_root)
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise RuntimeError("run in %s exited %d" % (checkout, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(metrics, base_runs, change_runs):
    """Prints the per-metric table; returns {metric: rule_met}."""
    verdicts = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [run["metrics"][name]["value"] for run in base_runs
                if name in run["metrics"]]
        change = [run["metrics"][name]["value"] for run in change_runs
                  if name in run["metrics"]]
        if not base or len(base) != len(change):
            continue
        print("# %s (%s, %s is better)" % (name, metric["unit"],
                                           metric["better"]))
        wins = 0
        for i, (b, c) in enumerate(zip(base, change)):
            won = c > b if higher else c < b
            wins += won
            print("  pair %2d  base %12.6g  change %12.6g  %s" %
                  (i + 1, b, c, "win" if won else ""))
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        gain = c_med - b_med if higher else b_med - c_med
        rule = wins * 10 >= 9 * len(base) and gain > b_q3 - b_q1
        verdicts[name] = rule
        print("  base   median %12.6g  q1 %12.6g  q3 %12.6g" %
              (b_med, b_q1, b_q3))
        print("  change median %12.6g  q1 %12.6g  q3 %12.6g" %
              (c_med, c_q1, c_q3))
        print("  change won %d of %d pairs; median gain %.6g vs base "
              "quartile distance %.6g: gain rule %s" %
              (wins, len(base), gain, b_q3 - b_q1,
               "MET" if rule else "not met"))
    return verdicts


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default=None,
                        help="revision (default: this working tree)")
    parser.add_argument("--work", default=os.path.join(
        REPO, ".bench_build", "pairs"))
    args = parser.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    sides = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        checkout = os.path.join(args.work, side)
        build_root = os.path.join(args.work, "build-" + side)
        log("exporting %s (%s) and building" % (side, rev or "working tree"))
        export(rev, checkout)
        run_once(checkout, build_root, args.workload, args.seed, 1)  # build
        sides[side] = (checkout, build_root)

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            checkout, build_root = sides[side]
            result = run_once(checkout, build_root, args.workload, args.seed,
                              seconds)
            if not result["correct"]:
                log("pair %d: %s run reported correct=false" % (i + 1, side))
            runs[side].append(result)
        log("pair %d of %d done" % (i + 1, args.pairs))

    print("# %s, seed %d, %g s per run, %d pairs (base %s, change %s)" %
          (args.workload, args.seed, seconds, args.pairs, args.base,
           args.change or "working tree"))
    report(spec["end_to_end"], runs["base"], runs["change"])
    incorrect = sum(not r["correct"] for side in runs.values() for r in side)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
