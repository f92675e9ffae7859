"""The repository benchmark: four workloads from MiniF text to report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing anywhere;
``--trace 1`` measures the per-layer metrics (spans recorded around the
calls into each module, from this directory's files).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).  ``BENCHMARK.json`` at the root
lists the workloads and metrics; ``perfbench/README.md`` has the layer map,
the held-out seed and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the self-test's smallest inputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The program generator iterates over sets, so its output follows
        # the string hash seed: pin it, or one --seed would give many inputs.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))
    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), workloads.SIZES[args.size]
    )
    for note in outcome.notes:
        print(note)
    correct = outcome.failed == 0 and outcome.gates_ok
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
