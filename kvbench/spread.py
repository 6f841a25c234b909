#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs kvbench/run.py once per seed for each named workload and prints, per
metric, the median and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 kvbench/spread.py --workloads fillrandom,seekrandom --seeds 1-5
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   wl, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{wl} seed {seed}: FAILED ({result['failed']} failed)")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl} ({len(parse_seeds(args.seeds))} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0:
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:34s} median {med:14.6g}  iqr/median {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-':>5}  {flag}")
            print("      " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
