"""Self-test of the benchmark, at the smallest input size.

Runs every workload of ``BENCHMARK.json`` with two seeds, untraced and
traced, and checks that each run is correct, prints every named metric
with its declared unit, and that the two seeds generated different inputs
while one seed generated the same inputs in both modes.  Usage, from the
root of a checkout::

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def run(workload: str, seed: int, trace: int):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr}"
        )
    digest = next(line for line in lines if line.startswith("inputs: "))
    return digest, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for seed in SEEDS:
            for trace in (0, 1):
                digest, result = run(workload, seed, trace)
                digests[seed, trace] = digest
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{workload} trace {trace}: metrics {sorted(units)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{workload} seed {seed} trace {trace}: {result}")
                print(f"{workload} seed {seed} trace {trace}: {digest}, "
                      f"{len(units)} metrics, {result['attempted']} ops")
        for seed in SEEDS:
            if digests[seed, 0] != digests[seed, 1]:
                problems.append(f"{workload} seed {seed}: inputs differ between modes")
        if digests[SEEDS[0], 0] == digests[SEEDS[1], 0]:
            problems.append(f"{workload}: seeds {SEEDS} gave the same inputs")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
