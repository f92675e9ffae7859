"""The parser's depth limits: the deepest accepted input analyzes, one
level more raises ``ParseError``.

Blocks, ``if``/``while`` bodies, parentheses, subscripts, unary ``-`` and
``not`` share one nesting counter (64 levels; a procedure body is level 0).
Expression trees have their own bound (256 levels), which also catches
long binary chains: the parser loops over ``1 + 1 + ...`` but builds a
left-deep tree.  Without the limits, deep input ran the recursive-descent
parser (or a later AST walk) out of stack and raised a bare
``RecursionError``.
"""

import pytest

from repro.api import AnalysisSession, ICPConfig, analyze
from repro.core.report import analysis_report
from repro.diag.sanitize import sanitize_result
from repro.errors import ParseError, SourcePos
from repro.lang.parser import (
    MAX_EXPR_DEPTH,
    MAX_NESTING,
    IncrementalParser,
    parse_program,
)


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


def chain(terms):
    """A ``terms``-long ``1 + 1 + ...``: a left-deep tree ``terms`` deep."""
    return "proc main() {\n  x = " + " + ".join(["1"] * terms) + ";\n  print(x);\n}\n"


def test_deepest_accepted_tree_analyzes():
    source = chain(MAX_EXPR_DEPTH)
    for config in CONFIGS.values():
        result = analyze(source, config)
        assert "constant propagation report" in analysis_report(result)
        assert sanitize_result(result) == []
    session = AnalysisSession(source)
    assert analysis_report(session.analyze()) == analysis_report(analyze(source))
    session.diagnostics().render()


def test_deepest_tree_under_deepest_nesting_analyzes():
    # Both limits at once: the tree sits in the innermost of 63 nested
    # ifs and itself opens the 64th level with a parenthesis.
    inner = " + ".join(["x"] * (MAX_EXPR_DEPTH - 1))
    source = ("proc main() { x = 1; " + "if (x > 0) { " * (MAX_NESTING - 1)
              + "y = (" + inner + "); print(y); " + "} " * (MAX_NESTING - 1) + "}")
    for config in CONFIGS.values():
        assert sanitize_result(analyze(source, config)) == []


@pytest.mark.parametrize("parse", [parse_program, IncrementalParser().parse])
def test_one_term_longer_chain_is_a_parse_error(parse):
    with pytest.raises(ParseError, match=f"expression deeper than {MAX_EXPR_DEPTH} levels"):
        parse(chain(MAX_EXPR_DEPTH + 1))


def test_long_chain_error_names_the_operator():
    with pytest.raises(ParseError) as info:
        analyze(chain(3000))
    # The operator that joins term MAX_EXPR_DEPTH + 1 builds the level too
    # many; terms start at column 7 and are four characters apart.
    assert info.value.pos == SourcePos(2, 7 + 4 * MAX_EXPR_DEPTH - 2)
    assert str(info.value).endswith(f"at 2:{7 + 4 * MAX_EXPR_DEPTH - 2}")


@pytest.mark.parametrize("operator", ["+", "*", "and", "or", "-"])
def test_every_binary_operator_counts(operator):
    expr = f" {operator} ".join(["1"] * (MAX_EXPR_DEPTH + 1))
    with pytest.raises(ParseError, match="expression deeper"):
        parse_program("proc main() { x = " + expr + "; print(x); }")


def test_nested_parentheses_around_chains_accumulate():
    # Each of 64 parenthesis levels is within the nesting limit and wraps a
    # 20-term chain, far below the tree limit alone; together they are
    # about 64 * 21 levels deep.
    expr = "1"
    for _ in range(MAX_NESTING):
        expr = "(" + expr + ")" + " + 1" * 19
    with pytest.raises(ParseError, match="expression deeper"):
        parse_program("proc main() { x = " + expr + "; print(x); }")

