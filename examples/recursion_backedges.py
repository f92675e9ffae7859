#!/usr/bin/env python
"""Back edges and the flow-insensitive fallback (paper Section 3.2).

The paper's method performs exactly one flow-sensitive analysis per
procedure; recursion is handled by substituting the flow-insensitive
solution on PCG back edges.  This example builds recursive programs, shows
the back-edge ratio ("the measure of the flow-insensitiveness of our
solution"), and demonstrates that constants carried unchanged through the
recursion survive while the varying induction parameter is correctly lowered.

Run:  python examples/recursion_backedges.py
"""

from repro.api import analyze
from repro.bench.programs import mutual_recursion_program, recursion_program
from repro.interp import Recorder, run_program
from repro.lang.parser import parse_program


def report(title: str, program) -> None:
    result = analyze(program)
    print(f"== {title} ==")
    print(f"  PCG edges: {len(result.pcg.edges)}, "
          f"back edges: {len(result.pcg.back_edges)}, "
          f"fallback ratio: {result.fs.fallback_ratio(result.pcg):.2f}")
    print(f"  FI constant formals: {result.fi.constant_formals()}")
    print(f"  FS constant formals: {result.fs.constant_formals()}")

    # Check every claim against observed execution values.
    recorder = Recorder()
    run_program(program, recorder=recorder)
    for (proc, formal) in result.fs.constant_formals():
        claimed = result.fs.entry_formal(proc, formal).const_value
        observed = recorder.entry_values.get((proc, formal))
        print(f"  claim {proc}.{formal} == {claimed}; observed: {observed}")
    print()


DEEP_CYCLE = """\
# A three-procedure cycle: `cfg` rides through unchanged, `i` varies.
proc main() {
    call stage_a(6, 40);
}

proc stage_a(i, cfg) {
    if (i > 0) { call stage_b(i - 1, cfg); }
}

proc stage_b(i, cfg) {
    if (i > 0) { call stage_c(i - 1, cfg); }
}

proc stage_c(i, cfg) {
    print(cfg + i);
    if (i > 0) { call stage_a(i - 1, cfg); }
}
"""


def main() -> None:
    report("self recursion", recursion_program())
    report("mutual recursion", mutual_recursion_program())
    report("three-procedure cycle", parse_program(DEEP_CYCLE))


if __name__ == "__main__":
    main()
