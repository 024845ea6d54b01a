#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload offline|sweep --seed N \
        --seconds S --trace 0|1 [--small] [--break CHECK]

Builds the perfbench program (perfbench/CMakeLists.txt compiles the perturb
libraries from src/ in Release mode) into the build directory named by
$CARGO_TARGET_DIR, default .bench_build, then runs one workload from the
root of the checkout.  The program prints each metric's name and value;
this script reads each metric's unit and direction from BENCHMARK.json,
prints them in a table, and ends with the JSON result line.  Every
end-to-end metric BENCHMARK.json names must have been measured.  Exit code
0 means every operation and output check passed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the perfbench program; returns its path."""
    out = os.path.join(build_dir, "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(3, f"build failed ({' '.join(step[:2])}):\n{tail}")
    return os.path.join(out, "perfbench")


def assemble(lines, trace, spec):
    """Turns perfbench's name -> value line into the result object.

    Units and directions come from BENCHMARK.json alone.  Returns (result,
    table lines) or raises ValueError naming what is wrong.  A per-layer
    metric the workload never calls reads 0; a missing end-to-end metric or
    a name BENCHMARK.json does not list is an error.
    """
    if not lines:
        raise ValueError("perfbench printed nothing")
    try:
        raw = json.loads(lines[-1])
        values = raw["values"]
        attempted, failed = int(raw["attempted"]), int(raw["failed"])
    except (ValueError, KeyError, TypeError):
        raise ValueError("perfbench's last line is not its result object")
    wanted = spec["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise ValueError(f"perfbench reports metrics BENCHMARK.json does not "
                         f"name: {', '.join(sorted(unknown))}")
    kind = "layer" if trace else "e2e"
    metrics, table = {}, []
    for m in wanted:
        if m["name"] not in values and not trace:
            raise ValueError(f"workload did not measure {m['name']}")
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "null" if value is None else f"{value:18.6f}"
        table.append(f"{kind:7s} {m['name']:36s} {shown:>18s} "
                     f"{m['unit']:9s} {m['better']}")
    table.append(f"attempted {attempted} failed {failed}")
    result = {"correct": failed == 0 and attempted >= 1,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, table


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["offline", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced input sizes (the benchmark's own test)")
    parser.add_argument("--break", dest="break_check", default="",
                        help="corrupt one output to prove its check fires")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "perturb sources (src/) are missing from this checkout")
    if not os.path.isfile(spec_path):
        fail(2, "BENCHMARK.json is missing")
    with open(spec_path) as f:
        spec = json.load(f)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    # Relative to the checkout, so the server's socket path stays short.
    workdir = os.path.relpath(os.path.join(build_dir, "perfbench-work"), ROOT)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.small:
        cmd.append("--small")
    if args.break_check:
        cmd += ["--break", args.break_check]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(5, f"run exceeded {RUN_TIMEOUT_S}s")
    lines = stdout.rstrip("\n").split("\n") if stdout else []
    try:
        result, table = assemble(lines, args.trace == 1, spec)
    except ValueError as problem:
        sys.stdout.write(stdout if proc.returncode != 0 else "")
        fail(proc.returncode or 6, str(problem))
    print("\n".join(lines[:-1] + table))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
