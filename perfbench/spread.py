#!/usr/bin/env python3
"""Run-to-run spread of the PayLess benchmark.

Runs perfbench/run.py once per seed on each named workload, prints each
run's metrics, and reports, for every end-to-end metric, the median of the
runs and the distance between their first and third quartiles as a share of
that median (quartiles as statistics.quantiles(values, n=4) gives them). A spread is flagged when it
exceeds the metric's bound in BENCHMARK.json, and marked steady when it is
below a third of it.

    python3 perfbench/spread.py --workloads whw_hot bind_rtt --seeds 1-5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def parse_seeds(text):
    """'1-5' -> [1..5]; '3,7,9' -> [3, 7, 9]."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of run values."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def verdict(spread, bound, is_setup):
    if bound is None:
        return ""
    if spread < bound / 3:
        return "steady"
    if is_setup or spread <= bound:
        return "within bound"
    return "OVER BOUND"


def run_once(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                print("%s seed %d: correct=false" % (workload, seed))
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, metric["value"])
                for name, metric in result["metrics"].items())), flush=True)
        print("# %s over %d seeds" % (workload, len(parse_seeds(args.seeds))))
        for name, vals in values.items():
            median, q1, q3, spread = quartile_spread(vals)
            mark = verdict(spread, bounds.get(name), name == "setup_s")
            ok = ok and mark != "OVER BOUND"
            print("%-22s median %14.6g  q1 %14.6g  q3 %14.6g  spread %.4f "
                  "bound %s %s" % (name, median, q1, q3, spread,
                                   bounds.get(name), mark))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
