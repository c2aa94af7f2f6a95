#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage (from the repository root):  python3 perfbench/selftest.py

1. A smoke-size run of every workload in BENCHMARK.json, and of
   realtime_hybrid (runnable, not listed there), untraced and traced, must
   exit 0 and end with one JSON line whose grammar matches
   BENCHMARK.json: exactly the keys correct/attempted/failed/metrics, every
   end-to-end (untraced) or per-layer (traced) metric with its unit and a
   finite number, `correct` true and `failed` 0.
2. A run with a deliberately corrupted reference answer must fail: non-zero
   exit and no passing result line.
3. The benchmark copied alone (BENCHMARK.json plus its paths, no sources)
   must fail quickly with a non-zero exit and print no result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "2"
# Runs with the same command but is not a BENCHMARK.json workload (see README).
EXTRA_WORKLOAD = "realtime_hybrid"


def run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_grammar(result, expected, label):
    errors = []
    if result is None:
        return [f"{label}: last stdout line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: correct is {result.get('correct')}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        errors.append(f"{label}: attempted {attempted}")
    if failed != 0:
        errors.append(f"{label}: failed {failed}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics differ: missing "
                      f"{sorted(set(expected) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            errors.append(f"{label}: {name} entry {entry}")
            continue
        if entry["unit"] != unit:
            errors.append(f"{label}: {name} unit {entry['unit']} != {unit}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []

    for workload in [w["name"] for w in spec["workloads"]] + [EXTRA_WORKLOAD]:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            label = f"{workload} trace={trace}"
            proc = run(["--workload", workload, "--seed", "7", "--seconds",
                        SMOKE_SECONDS, "--trace", trace, "--smoke"])
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-400:]}")
                continue
            found = check_grammar(last_json(proc.stdout), expected, label)
            errors += found
            if not found:
                print(f"ok   {label}")

        label = f"{workload} corrupted reference"
        proc = run(["--workload", workload, "--seed", "7", "--seconds",
                    SMOKE_SECONDS, "--trace", "0", "--smoke",
                    "--corrupt-reference"])
        result = last_json(proc.stdout)
        if proc.returncode == 0 or (result is not None and result.get("correct")):
            errors.append(f"{label}: run passed (exit {proc.returncode})")
        elif "ANSWER MISMATCH" not in proc.stderr:
            errors.append(f"{label}: failed without reporting the mismatch")
        else:
            print(f"ok   {label} fails as it should")

    # The benchmark alone, without the sources it builds.
    alone = os.path.join(ROOT, ".bench_build", "selftest-alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(alone, path))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=alone, timeout=180)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        errors.append("benchmark without sources did not fail cleanly")
    else:
        print("ok   benchmark without sources fails as it should")
    shutil.rmtree(alone, ignore_errors=True)

    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
