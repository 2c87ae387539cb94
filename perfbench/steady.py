#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload once per seed (each run in its own process, through the
command in BENCHMARK.json) and prints, for every end-to-end metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread, that is
the distance between the quartiles as a share of the median, next to the
metric's bound and the spread's share of that bound. It also prints the
share of failed operations, which must be the same in every run.

    python3 perfbench/steady.py --workload cold-file --seeds 1-10
    python3 perfbench/steady.py --workload warm-serve --seeds 11,12,13

Run it from the repository root. Exit code 1 when a spread exceeds its
bound or the failed share differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = set()
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported correct=false")
        shares.add((result["failed"], result["attempted"]))
        line = [f"seed {seed:>3}"]
        for name in bounds:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            line.append(f"{name}={v:.4g}")
        print("  ".join(line), flush=True)

    ok = True
    print(f"\n{args.workload}: {len(values['setup_s'])} runs of {seconds} s")
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}{'of bound':>10}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        of_bound = spread / bounds[name]
        flag = ""
        if spread > bounds[name]:
            ok = False
            flag = "  over bound"
        print(f"{name:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bounds[name]:>8}{of_bound:>10.2f}{flag}")
    ratios = {f / a for f, a in shares}
    print(f"failed share: {sorted(ratios)} over (failed, attempted) {sorted(shares)}")
    if len(ratios) != 1:
        ok = False
        print("failed share differs between runs")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
