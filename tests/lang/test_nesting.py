"""The parser's nesting limit: 64 levels analyze, 65 raise ``ParseError``.

Blocks, ``if``/``while`` bodies, parentheses, subscripts, unary ``-`` and
``not`` share one depth counter; a procedure body is level 0.  Without the limit, deep
input ran the recursive-descent parser (or a later AST walk) out of stack
and raised a bare ``RecursionError``.
"""

import pytest

from repro.api import ICPConfig, analyze
from repro.core.report import analysis_report
from repro.diag.sanitize import sanitize_result
from repro.errors import ParseError, SourcePos
from repro.lang.parser import MAX_NESTING, IncrementalParser, parse_program


def nested(shape, n):
    """A program whose deepest construct of ``shape`` is ``n`` levels in."""
    half = n // 2
    return {
        "parens": "proc main() { x = " + "(" * n + "1" + ")" * n + "; print(x); }",
        "if": "proc main() { x = 1; " + "if (x > 0) { " * n + "print(x); " + "} " * n + "}",
        "bare-if": "proc main() { x = 1; " + "if (x > 0) " * n + "print(x); }",
        "while": "proc main() { x = 1; "
        + "while (x < 0) { " * n + "x = x + 1; " + "} " * n + "print(x); }",
        "block": "proc main() { x = 1; " + "{ " * n + "print(x); " + "} " * n + "}",
        "subscript": "proc main() { a[0] = 0; x = " + "a[" * n + "0" + "]" * n
        + "; print(x); }",
        "minus": "proc main() { x = " + "- " * n + "1; print(x); }",
        "not": "proc main() { x = 1; if (" + "not " * n + "x > 0) { print(x); } }",
        "mix": "proc main() { x = 1; " + "if (x > 0) { " * half
        + "y = " + "(" * (n - half) + "x" + ")" * (n - half) + "; print(y); "
        + "} " * half + "}",
        "call-arg": "proc main() { call f(" + "(" * n + "1" + ")" * n + "); }\n"
        "proc f(a) { print(a); }",
    }[shape]


SHAPES = [
    "parens", "if", "bare-if", "while", "block", "subscript", "minus", "not",
    "mix", "call-arg",
]
CONFIGS = {
    "graph": ICPConfig(),
    "flat": ICPConfig(engine_backend="flat"),
    "value-contexts": ICPConfig(context_mode="value-contexts"),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_deepest_accepted_nesting_analyzes(shape, mode):
    result = analyze(nested(shape, MAX_NESTING), CONFIGS[mode])
    assert "constant propagation report" in analysis_report(result)
    assert sanitize_result(result) == []


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("parse", [parse_program, IncrementalParser().parse])
def test_one_level_deeper_is_a_parse_error(shape, parse):
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
        parse(nested(shape, MAX_NESTING + 1))


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 300, 3000])
def test_error_points_at_the_opening_token(depth):
    source = "proc main() {\n  x = " + "(" * depth + "1" + ")" * depth + ";\n}"
    with pytest.raises(ParseError) as info:
        parse_program(source)
    # The 65th parenthesis opens the level too many.
    assert info.value.pos == SourcePos(2, 7 + MAX_NESTING)


def test_sibling_constructs_do_not_accumulate():
    body = ("if (x > 0) { " * MAX_NESTING + "print(x); " + "} " * MAX_NESTING) * 3
    parse_program("proc main() { x = 1; " + body + "}")
