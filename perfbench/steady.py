#!/usr/bin/env python3
"""Steadiness report: two sets of ten seeded runs of every workload, compared.

    python3 perfbench/steady.py [--out perfbench/baseline.json]

Runs ``run.py --trace 0`` one run at a time, from the current directory (the
root of a checkout), with BENCHMARK.json's ``run_seconds``: first seeds 1-10
on every workload, then seeds 11-20. For every end-to-end metric and set it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance over
median) and the number of runs. It flags a spread above a third of the
metric's bound (setup_s excepted) and a second-set median that is worse than
the first by more than the bound, and exits 1 if anything is flagged. With
``--out`` it also writes the numbers, the Python version and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n{proc.stdout}")
    return doc


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "machine": platform.machine(), "seconds": seconds, "sets": [],
              "second_vs_first": {}}
    steady = True
    for seeds in SEED_SETS:
        rows_by_workload = {}
        for workload in workloads:
            docs = [one_run(workload, seed, seconds) for seed in seeds]
            rows = {}
            for name, m in metrics.items():
                row = summarize([d["metrics"][name]["value"] for d in docs])
                row["unit"] = docs[0]["metrics"][name]["unit"]
                rows[name] = row
                ok = name == "setup_s" or row["spread"] <= m["bound"] / 3
                steady = steady and ok
                print(f"seeds {seeds[0]}-{seeds[-1]} {workload:7s} {name:12s}"
                      f" median {row['median']:.6g} {row['unit']}"
                      f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}"
                      f"  (bound/3 {m['bound'] / 3:.4f}{'' if ok else ', TOO WIDE'})"
                      f"  n={row['n']}", flush=True)
            rows["attempted"] = [d["attempted"] for d in docs]
            rows["failed"] = [d["failed"] for d in docs]
            rows_by_workload[workload] = rows
        report["sets"].append({"seeds": seeds, "workloads": rows_by_workload})

    first, second = (s["workloads"] for s in report["sets"])
    for workload in workloads:
        changes = {}
        for name, m in metrics.items():
            a, b = first[workload][name]["median"], second[workload][name]["median"]
            change = (b - a) / a
            worse = change if m["better"] == "lower" else -change
            ok = worse <= m["bound"]
            steady = steady and ok
            changes[name] = change
            print(f"{workload:7s} {name:12s} second median vs first {change:+.4f}"
                  f"  (bound {m['bound']}{'' if ok else ', WORSE BEYOND BOUND'})")
        report["second_vs_first"][workload] = changes
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
