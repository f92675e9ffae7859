#!/usr/bin/env python
"""Reproduce the paper's Figure 1 precision comparison.

Runs all six interprocedural constant propagation methods on the Figure 1
example and prints which formal parameters each method proves constant —
reproducing the table in the paper's introduction:

    FLOW-SENSITIVE    f1, f2, f3, f4, f5
    FLOW-INSENSITIVE  f1, f3, f4
    LITERAL           f1, f3
    INTRA             f1, f3, f5
    PASS-THROUGH      f1, f3, f4, f5
    POLYNOMIAL        f1, f3, f4, f5

Run:  python examples/figure1_comparison.py
"""

from repro.api import analyze
from repro.bench.programs import figure1_program, figure1_source
from repro.core.jump_functions import JumpFunctionKind, jump_function_icp

PAPER = {
    "FLOW-SENSITIVE": {"f1", "f2", "f3", "f4", "f5"},
    "FLOW-INSENSITIVE": {"f1", "f3", "f4"},
    "LITERAL": {"f1", "f3"},
    "INTRA": {"f1", "f3", "f5"},
    "PASS-THROUGH": {"f1", "f3", "f4", "f5"},
    "POLYNOMIAL": {"f1", "f3", "f4", "f5"},
}


def main() -> None:
    print(figure1_source())
    program = figure1_program()
    result = analyze(program)

    found = {
        "FLOW-SENSITIVE": {f for _, f in result.fs.constant_formals()},
        "FLOW-INSENSITIVE": {f for _, f in result.fi.constant_formals()},
    }
    kind_names = {
        JumpFunctionKind.LITERAL: "LITERAL",
        JumpFunctionKind.INTRA: "INTRA",
        JumpFunctionKind.PASS_THROUGH: "PASS-THROUGH",
        JumpFunctionKind.POLYNOMIAL: "POLYNOMIAL",
    }
    for kind, label in kind_names.items():
        solution = jump_function_icp(
            program, result.symbols, result.pcg, kind, result.modref.callsite_mod,
            assign_aliases=result.aliases.partners,
        )
        found[label] = {f for _, f in solution.constant_formals()}

    print(f"{'METHOD':<18} {'CONSTANT FORMALS':<24} matches paper?")
    for method, expected in PAPER.items():
        formals = ", ".join(sorted(found[method]))
        ok = "yes" if found[method] == expected else f"NO (expected {sorted(expected)})"
        print(f"{method:<18} {formals:<24} {ok}")
    assert all(found[m] == e for m, e in PAPER.items())


if __name__ == "__main__":
    main()
