#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny length.

    python3 perfbench/selftest.py

For each workload it runs the dark pass once and the traced pass twice for
0.5 s at seed 42, and asserts that:
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and the output checks passed;
  - the metrics are exactly BENCHMARK.json's end_to_end (dark) or
    per_layer (traced) names, each with its unit, and every one is also
    printed on a human-readable line beside that unit;
  - the two traced runs repeat every count exactly.
An unknown workload must fail without printing a result. Exits non-zero
on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 0.5
SEED = 42


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.splitlines()


def check_result(label, lines, expected):
    assert lines, f"{label}: no output"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, \
        f"{label}: output checks failed: {lines[-1][:200]}"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    metrics = result["metrics"]
    assert list(metrics) == list(expected), \
        f"{label}: metrics {sorted(set(metrics) ^ set(expected))} differ"
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert isinstance(metrics[name]["value"], (int, float)), \
            f"{label}: {name} is not a number"
        printed = [l.split() for l in lines[:-1]]
        assert any(len(p) >= 3 and p[0] == name and p[2] == unit
                   for p in printed), f"{label}: {name} not printed with {unit}"
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    dark_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    code, lines = run("no-such-workload", 0)
    assert code != 0 and not any(l.startswith("{") for l in lines), \
        "an unknown workload must fail without a result"

    for w in (w["name"] for w in bench["workloads"]):
        code, lines = run(w, 0)
        assert code == 0, f"{w} dark: exit {code}"
        check_result(f"{w} dark", lines, dark_units)
        traced = []
        for _ in range(2):
            code, lines = run(w, 1)
            assert code == 0, f"{w} traced: exit {code}"
            traced.append(check_result(f"{w} traced", lines, layer_units))
        for name, unit in layer_units.items():
            if unit == "count":
                a, b = (t[name]["value"] for t in traced)
                assert a == b, f"{w}: count {name} did not repeat ({a} vs {b})"
        print(f"{w}: ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
