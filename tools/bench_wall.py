#!/usr/bin/env python3
"""Record what the simulator costs to run (the host plane) in BENCH_wall.json.

Usage: bench_wall.py BUILD_DIR OUT.json

Runs kvaccel_dbbench from BUILD_DIR on a fixed set of runs and records, per
run, the wall seconds, wall seconds per virtual second, voluntary context
switches and peak RSS of the child process (from os.wait4's rusage). The
host times are noisy and only recorded. The one gate is peak RSS of the
paper-scale runs (--scale=1.0): the simulator's memory must scale with the
data a run touches, not with the 256 GB device it models, so each must stay
below PAPER_SCALE_RSS_LIMIT_MB. Exits 1 when the gate fails, 2 when a run
fails.
"""
import json
import os
import platform
import subprocess
import sys
import time

PAPER_SCALE_RSS_LIMIT_MB = 256

SMOKE = ["--system=kvaccel", "--workload=fillrandom", "--seconds=10",
         "--scale=0.0625"]
PAPER = ["--system=kvaccel", "--workload=fillrandom", "--seconds=2",
         "--scale=1.0"]
# (name, virtual seconds, dbbench flags, gated on peak RSS)
RUNS = [
    ("fillrandom-smoke", 10, SMOKE, False),
    ("fillrandom-smoke-shards4", 10,
     SMOKE + ["--writer_threads=4", "--batch_size=4", "--shards=4"], False),
    ("fillrandom-paper-scale", 2, PAPER, True),
    ("fillrandom-paper-scale-ha", 2, PAPER + ["--ha"], True),
]


def measure(binary, flags):
    start = time.monotonic()
    proc = subprocess.Popen([binary] + flags, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    # wait4 reaped the child; record that so Popen does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def main():
    if len(sys.argv) != 3:
        print("usage: bench_wall.py BUILD_DIR OUT.json", file=sys.stderr)
        return 2
    binary = os.path.join(sys.argv[1], "tools", "kvaccel_dbbench")
    runs = {}
    failed = []
    for name, virtual_s, flags, gated in RUNS:
        code, wall, usage = measure(binary, flags)
        if code != 0:
            print(f"{name}: kvaccel_dbbench exited {code}", file=sys.stderr)
            return 2
        peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        runs[name] = {
            "flags": " ".join(flags),
            "virtual_s": virtual_s,
            "wall_s": round(wall, 3),
            "wall_s_per_virtual_s": round(wall / virtual_s, 4),
            "user_s": round(usage.ru_utime, 3),
            "sys_s": round(usage.ru_stime, 3),
            "voluntary_ctx_switches": usage.ru_nvcsw,
            "peak_rss_mb": round(peak_mb, 1),
        }
        print(f"{name}: {wall:.2f} s wall ({wall / virtual_s:.3f} s per "
              f"virtual s), {usage.ru_nvcsw} voluntary switches, peak RSS "
              f"{peak_mb:.1f} MB")
        if gated and peak_mb >= PAPER_SCALE_RSS_LIMIT_MB:
            failed.append(f"{name}: peak RSS {peak_mb:.1f} MB >= "
                          f"{PAPER_SCALE_RSS_LIMIT_MB} MB")
    out = {
        "schema": "kvaccel-bench-wall-v1",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "paper_scale_rss_limit_mb": PAPER_SCALE_RSS_LIMIT_MB,
        "runs": runs,
    }
    with open(sys.argv[2], "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    for msg in failed:
        print(f"bench_wall: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
