#!/usr/bin/env python3
"""Runs the wire benchmark over several seeds and reports each metric's
median and quartile spread.

Usage, from the root of a source checkout:

    python3 wirebench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--trace 0|1] [--out FILE]

Defaults come from BENCHMARK.json (every workload, its run_seconds) and
seeds 1-10.  For each workload and metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json and whether the spread stays below a third of it.  With
--out every run's JSON result is also appended to FILE, one line each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                continue
            result = json.loads(lines[-1])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        **result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {workload:16s} {name:34s} median {med:12.6g} "
                    f"{units[name]:12s} q1 {q1:12.6g} q3 {q3:12.6g} "
                    f"spread {spread:7.4f}")
            if name in bounds and name != "setup_s":
                verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
                line += f"  bound {bounds[name]} {verdict}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
