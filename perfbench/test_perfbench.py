#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test drives run.py with --tiny (three programs at scale 1) and
--seconds 0 (one repeat), so the whole file takes about a minute
after the first build.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sim-baseline", "sim-microthread", "campaign"]
# The default WorkloadParams seed: at scale 1 a sim-microthread cell
# is then exactly the run a committed golden/<workload>.json records.
GOLDEN_SEED = 0x5EED

_cache = {}


def run(workload, seed=1, trace=0):
    """Run one tiny configuration; return (result dict, stdout lines)."""
    key = (workload, seed, trace)
    if key not in _cache:
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            raise AssertionError("run.py failed:\n" + out.stdout + out.stderr)
        lines = out.stdout.strip().splitlines()
        _cache[key] = (json.loads(lines[-1]), lines)
    return _cache[key]


def line_value(lines, tag):
    """The value of the first stdout line '<tag> <value> ...'."""
    for line in lines:
        if line.startswith(tag + " "):
            return line.split()[1]
    raise AssertionError("no '%s' line in output" % tag)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


class MetricNames(unittest.TestCase):
    def test_printed_names_equal_benchmark_json(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                result, lines = run(workload, trace=trace)
                want = declared(kind)
                self.assertEqual(list(result["metrics"]), want,
                                 (workload, trace))
                printed = [l.split()[1] for l in lines
                           if l.startswith("metric ")]
                self.assertEqual(printed, want, (workload, trace))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            result, _ = run(workload)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, (workload, name))


class Seeds(unittest.TestCase):
    def test_seed_moves_inputs_not_metric_set(self):
        for workload in WORKLOADS:
            a, la = run(workload, seed=1)
            b, lb = run(workload, seed=2)
            self.assertEqual(list(a["metrics"]), list(b["metrics"]))
            if workload == "campaign":
                # CampaignSpec has no program seed: the seed moves the
                # cell seeds and with them every store key.
                self.assertEqual(line_value(la, "program_hashes"),
                                 line_value(lb, "program_hashes"))
                self.assertNotEqual(line_value(la, "cell_keys"),
                                    line_value(lb, "cell_keys"))
            else:
                self.assertNotEqual(line_value(la, "program_hashes"),
                                    line_value(lb, "program_hashes"))


class TinyEndToEnd(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, _ = run(workload, trace=trace)
                self.assertTrue(result["correct"], (workload, trace))
                self.assertEqual(result["failed"], 0, (workload, trace))
                self.assertGreaterEqual(result["attempted"], 1)

    def test_golden_cells_are_compared(self):
        for trace in (0, 1):
            result, lines = run("sim-microthread", seed=GOLDEN_SEED,
                                trace=trace)
            self.assertTrue(result["correct"])
            stats = [l for l in lines if "golden_cells_compared" in l]
            self.assertTrue(stats, lines)
            words = stats[0].split()
            count = int(words[words.index("golden_cells_compared") + 1])
            self.assertEqual(count, 3, stats[0])


if __name__ == "__main__":
    unittest.main()
