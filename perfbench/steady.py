#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with distinct seeds.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads oneshot-short --seconds 10

For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, i.e. the
inter-quartile distance as a share of the median. A metric whose spread
exceeds its bound in BENCHMARK.json is flagged; setup_s is reported but not
gated, since its bound limits drift between sets, not spread within one.
It also checks that every run failed the same share of its check-sats.
Exit code 1 when anything is flagged. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %s exited %d" % (workload, seed,
                                                      done.returncode))
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')),
                {})
    return json.loads(lines[-1]), host


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    flagged = False
    for workload in args.workloads:
        values = {}
        shares = set()
        host = {}
        for k in range(args.runs):
            result, host = run_once(workload, args.first_seed + k,
                                    args.seconds, False)
            if not result["correct"]:
                print("%s: run %d reported correct=false" % (workload, k))
                flagged = True
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s (%d runs, %s s each; host %s)" % (
            workload, args.runs, args.seconds, json.dumps(host)))
        ratios = {f / a for f, a in shares}
        print("   failed/attempted: %s -> share %s" % (
            sorted(shares), sorted(ratios)))
        if len(ratios) > 1:
            print("   FLAG: the failed share differs between runs")
            flagged = True
        for name in sorted(values):
            vals = values[name]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name)
            gated = name != "setup_s" and bound is not None
            mark = ""
            if gated and spread > bound:
                mark = "  FLAG: spread above bound %.3f" % bound
                flagged = True
            elif gated and spread > bound / 3:
                mark = "  (above a third of bound %.3f)" % bound
            print("   %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s" % (
                name, q2, q1, q3, spread, mark))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
