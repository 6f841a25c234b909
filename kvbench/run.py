#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the kvbench program from this checkout's sources (only the store's
libraries and the program, in $CARGO_TARGET_DIR/kvbench, default
.bench_build/kvbench), runs one workload and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and metrics.
The metrics are the end-to-end metrics listed in BENCHMARK.json (--trace 0)
or its per-layer metrics (--trace 1).

    python3 kvbench/run.py --workload fillrandom --seed 42 --seconds 10 --trace 0

Exits non-zero, without a result line, when the store's sources are missing
or the build fails; exits non-zero with correct=false when a check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fillrandom", "readwhilewriting", "openloop-sharded", "seekrandom")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"kvbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    return os.path.join(root, "kvbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"store sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "--target", "kvbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "kvbench")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        die("--seconds must be in 1..60")
    if args.seed < 0:
        die("--seed must be >= 0")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd.append(f"--spans_out={os.path.join(spans, args.workload)}.spans")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        die(f"kvbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    # Report exactly the metrics BENCHMARK.json names for this mode.
    measured = result["metrics"]
    names = metric_names(args.trace)
    missing = [n for n in names if n not in measured]
    if missing:
        die("kvbench did not report: " + ", ".join(missing))
    result["metrics"] = {n: measured[n] for n in names}
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
