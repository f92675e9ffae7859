"""Lexer unit tests: token kinds, values, positions, and errors."""

import pytest

from repro.errors import LexError, SourcePos
from repro.lang.lexer import MAX_INT_DIGITS, Lexer, scan_comments, tokenize
from repro.lang.tokens import Token, TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].value == 42

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_float_with_fraction(self):
        tokens = tokenize("3.25")
        assert tokens[0].kind is TokenKind.FLOAT
        assert tokens[0].value == 3.25

    def test_float_trailing_dot(self):
        tokens = tokenize("7.")
        assert tokens[0].kind is TokenKind.FLOAT
        assert tokens[0].value == 7.0

    def test_float_exponent(self):
        tokens = tokenize("1e3")
        assert tokens[0].kind is TokenKind.FLOAT
        assert tokens[0].value == 1000.0

    def test_float_negative_exponent(self):
        assert tokenize("2E-2")[0].value == pytest.approx(0.02)

    def test_float_fraction_and_exponent(self):
        assert tokenize("1.5e2")[0].value == 150.0

    def test_identifier(self):
        tokens = tokenize("foo_bar9")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "foo_bar9"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_x")[0].value == "_x"

    def test_keywords(self):
        source = "global init proc if else while call return print and or not"
        expected = [
            TokenKind.GLOBAL, TokenKind.INIT, TokenKind.PROC, TokenKind.IF,
            TokenKind.ELSE, TokenKind.WHILE, TokenKind.CALL, TokenKind.RETURN,
            TokenKind.PRINT, TokenKind.AND, TokenKind.OR, TokenKind.NOT,
            TokenKind.EOF,
        ]
        assert kinds(source) == expected

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("iff")[0].kind is TokenKind.IDENT
        assert tokenize("printer")[0].kind is TokenKind.IDENT


class TestOperators:
    def test_single_char_operators(self):
        assert kinds("+ - * / % ( ) { } , ; < >")[:-1] == [
            TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH,
            TokenKind.PERCENT, TokenKind.LPAREN, TokenKind.RPAREN,
            TokenKind.LBRACE, TokenKind.RBRACE, TokenKind.COMMA,
            TokenKind.SEMI, TokenKind.LT, TokenKind.GT,
        ]

    def test_two_char_operators(self):
        assert kinds("== != <= >=")[:-1] == [
            TokenKind.EQ, TokenKind.NE, TokenKind.LE, TokenKind.GE,
        ]

    def test_assign_vs_eq(self):
        assert kinds("= ==")[:-1] == [TokenKind.ASSIGN, TokenKind.EQ]

    def test_minus_not_part_of_literal(self):
        assert kinds("a-1")[:-1] == [TokenKind.IDENT, TokenKind.MINUS, TokenKind.INT]

    def test_adjacent_comparison_sequence(self):
        # `<=` greedily beats `<` `=`.
        assert kinds("a<=b")[:-1] == [TokenKind.IDENT, TokenKind.LE, TokenKind.IDENT]


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("1 # comment here\n2") == [1, 2]

    def test_comment_at_eof(self):
        assert values("5 # trailing") == [5]

    def test_whitespace_variants(self):
        assert values("1\t2\r\n3") == [1, 2, 3]


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].pos.line, tokens[0].pos.column) == (1, 1)
        assert (tokens[1].pos.line, tokens[1].pos.column) == (2, 3)

    def test_position_after_comment(self):
        tokens = tokenize("# c\nx")
        assert tokens[0].pos.line == 2


class TestLexErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_bare_bang(self):
        with pytest.raises(LexError, match="'!'"):
            tokenize("a ! b")

    def test_digit_prefixed_identifier(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as info:
            tokenize("\n  $")
        assert info.value.pos.line == 2
        assert info.value.pos.column == 3


class TestNumericEdgeCases:
    def test_dot_without_digits_is_float(self):
        tokens = tokenize("1. + 2")
        assert tokens[0].kind is TokenKind.FLOAT

    def test_e_followed_by_identifier_is_not_exponent(self):
        # `1e` with no digits: the `e` belongs to what follows -> lex error
        # (identifier may not start after a digit run).
        with pytest.raises(LexError):
            tokenize("1e")

    def test_exponent_with_plus(self):
        assert tokenize("1e+2")[0].value == 100.0

    def test_large_integer(self):
        assert tokenize("123456789012345678901234567890")[0].value == (
            123456789012345678901234567890
        )


class TestAsciiOnly:
    """Identifiers and digits are ASCII; nothing else outside a comment
    lexes, and the lexer raises only ``LexError``."""

    def test_superscript_digit_is_a_lex_error(self):
        with pytest.raises(LexError, match="unexpected character '\u00b2'") as info:
            tokenize("proc main() { x = \u00b2; print(x); }")
        assert info.value.pos == SourcePos(1, 19)

    def test_superscript_after_digits(self):
        with pytest.raises(LexError) as info:
            tokenize("x = 1\u00b2;")
        assert info.value.pos == SourcePos(1, 6)

    def test_unicode_digit_is_a_lex_error(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("x = \u0663;")

    def test_non_ascii_letter_ends_an_identifier(self):
        with pytest.raises(LexError, match="unexpected character '\u00e9'") as info:
            tokenize("\n  caf\u00e9 = 1;")
        assert info.value.pos == SourcePos(2, 6)

    def test_non_ascii_in_comment_is_fine(self):
        comments = []
        tokens = tokenize("x = 1; # \u00b2 caf\u00e9\n", comments=comments)
        assert [t.kind for t in tokens][-1] is TokenKind.EOF
        assert comments == [(1, " \u00b2 caf\u00e9")]

    def test_scan_comments_survives_non_ascii(self):
        source = "# noqa: ICP003\nproc main() { x = \u00b2; }\n# after\n"
        assert scan_comments(source) == [(1, " noqa: ICP003")]


class TestIntegerCap:
    def test_longest_integer_lexes(self):
        token = tokenize("9" * MAX_INT_DIGITS)[0]
        assert token.kind is TokenKind.INT
        assert token.value == int("9" * MAX_INT_DIGITS)

    def test_longer_integer_is_a_lex_error(self):
        source = "proc main() {\n  x = " + "7" * (MAX_INT_DIGITS + 1) + ";\n}"
        with pytest.raises(LexError, match="longer than 4300 digits") as info:
            tokenize(source)
        assert info.value.pos == SourcePos(2, 7)

    def test_long_float_is_not_capped(self):
        assert tokenize("1" * 5000 + ".5")[0].kind is TokenKind.FLOAT


class TestRecords:
    """``Token`` and ``SourcePos`` are named tuples with the old surface."""

    def test_source_pos(self):
        pos = SourcePos(3, 7)
        assert (pos.line, pos.column) == (3, 7)
        assert str(pos) == "3:7"
        assert repr(pos) == "SourcePos(line=3, column=7)"
        assert pos == (3, 7) and hash(pos) == hash((3, 7))

    def test_token(self):
        token = tokenize("  ab")[0]
        assert token == Token(TokenKind.IDENT, "ab", SourcePos(1, 3))
        assert str(token) == "IDENT('ab')@1:3"
        assert repr(token) == (
            "Token(kind=<TokenKind.IDENT: 'ident'>, value='ab', "
            "pos=SourcePos(line=1, column=3))"
        )

    def test_lexer_object_collects_comments(self):
        lexer = Lexer("# one\nx = 1; # two\n", SourcePos(5, 1))
        assert [t.kind for t in lexer.tokens()][:2] == [TokenKind.IDENT, TokenKind.ASSIGN]
        assert lexer.comments == [(5, " one"), (6, " two")]
