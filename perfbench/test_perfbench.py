#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs every workload at a small size, with tracing off and on, and checks
that every metric BENCHMARK.json names is printed with its unit and
direction; that a deliberately corrupted output makes its check fail; and
that the benchmark refuses to run without the repository's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as run_script  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers each workload must measure (non-zero) in its traced run.
MEASURED_LAYERS = {
    "offline": [
        "trace.decode.ns_per_event", "trace.validate.ns_per_event",
        "trace.index.ns_per_event", "trace.chunk_decode.ns_per_event",
        "trace.repair.ns_per_event", "trace.repair.events_changed",
        "trace.write.ns_per_event",
        "sim.simulate.ns_per_event", "core.eventbased.ns_per_event",
        "core.timebased.ns_per_event", "core.quality.ns_per_event",
        "core.stream.ns_per_event", "core.stream.resident_hwm_events",
        "core.pipeline.self_ns", "analysis.critical_path.ns_per_event",
        "analysis.waiting.ns_per_event", "analysis.parallelism.ns_per_event",
        "whatif.dag_build.ns_per_event", "whatif.dag.anchors",
        "whatif.sweep.ns_per_plan", "workload.synthesize.ns_per_cell",
        "tracing.coverage", "server.round_trip_ms", "server.overhead_ms",
        "server.gen_late_ms"],
    "sweep": [
        "sim.simulate.ns_per_event", "core.eventbased.ns_per_event",
        "core.timebased.ns_per_event", "core.quality.ns_per_event",
        "workload.synthesize.ns_per_cell", "model.predict.ns_per_cell",
        "model.screen.confident_ratio", "experiments.memo_hit_ratio",
        "tracing.coverage"],
}


def run(workload, trace=0, extra=(), cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--small", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class BenchmarkTest(unittest.TestCase):
    def check_output(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        table = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 5 and parts[0] in ("e2e", "layer"):
                table[parts[1]] = (parts[3], parts[4])
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertEqual(table.get(m["name"]), (m["unit"], m["better"]),
                             f"{m['name']} not printed with unit and direction")
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_output(run(workload), SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_output(run(workload, trace=1),
                                           SPEC["per_layer"])
                for name in MEASURED_LAYERS[workload]:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       f"{workload}: {name}")

    def test_broken_output_fails_its_check(self):
        # The server job stream runs only in the traced offline run.
        for workload, trace, check in [("offline", 0, "stream_total"),
                                       ("sweep", 0, "sweep_cell"),
                                       ("offline", 1, "server_reply")]:
            with self.subTest(check=check):
                proc = run(workload, trace, extra=["--break", check])
                self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                result = json.loads(proc.stdout.strip().split("\n")[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_units_come_from_benchmark_json(self):
        e2e = SPEC["end_to_end"]
        values = {m["name"]: 1.5 for m in e2e}
        values[e2e[0]["name"]] = None  # a non-finite figure arrives as null
        line = json.dumps({"attempted": 2, "failed": 1, "values": values})
        result, table = run_script.assemble([line], False, SPEC)
        self.assertFalse(result["correct"])
        self.assertIsNone(result["metrics"][e2e[0]["name"]]["value"])
        self.assertEqual(result["metrics"][e2e[1]["name"]]["unit"],
                         e2e[1]["unit"])
        self.assertEqual(table[-1], "attempted 2 failed 1")
        del values[e2e[1]["name"]]
        with self.assertRaises(ValueError):
            run_script.assemble([line.replace(e2e[1]["name"], "unnamed")],
                                False, SPEC)
        with self.assertRaises(ValueError):
            run_script.assemble([json.dumps(
                {"attempted": 1, "failed": 0, "values": values})], False, SPEC)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("sweep", cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
