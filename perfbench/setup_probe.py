"""Set-up probe: seconds to import ``repro`` and build the first pipeline.

Run in a fresh interpreter by the cold workloads, several times per run;
prints one number.  Usage: ``python3 setup_probe.py '<ICPConfig dict>'``.
"""

import json
import os
import sys
import time


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    started = time.perf_counter()
    from repro.api import CompilationPipeline, ICPConfig

    CompilationPipeline(ICPConfig.from_dict(json.loads(sys.argv[1])))
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
