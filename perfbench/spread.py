#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads offline,sweep]
                                [--seeds 1-10] [--seconds S]

Runs the benchmark once per seed on each workload (tracing off) and prints,
for every end-to-end metric, the median and the distance between the first
and third quartiles as a share of the median (statistics.quantiles, n=4),
then the runs' wall times and each run's host_calibration_ms (machine speed).
A spread at or above a third of the metric's bound in BENCHMARK.json is
marked UNSTEADY.  Exit code 1 if any run fails or any spread other than
setup_s reaches its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    bad = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls, calibration = [], []
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            began = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - began)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                bad = True
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            for line in proc.stdout.split("\n"):
                parts = line.split()
                if parts[:2] == ["detail", "host_calibration_ms"]:
                    calibration.append(float(parts[2]))
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < m["bound"] / 3
            if spread > m["bound"] and m["name"] != "setup_s":
                bad = True
            print(f"{workload:8s} {m['name']:18s} median {med:14.6f} "
                  f"spread {spread:7.4f} bound {m['bound']:.2f} "
                  f"{'ok' if steady else 'UNSTEADY'}  n={len(vals)}  "
                  f"runs: {' '.join(f'{v:.6g}' for v in vals)}")
        if walls:
            print(f"{workload:8s} run wall time: mean {statistics.mean(walls):.1f} s, "
                  f"max {max(walls):.1f} s")
        if calibration:
            print(f"{workload:8s} host_calibration_ms per run: "
                  f"{' '.join(f'{v:.1f}' for v in calibration)}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
