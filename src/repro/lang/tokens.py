"""Token kinds and the token record produced by the MiniF lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple, Union

from repro.errors import SourcePos


class TokenKind(enum.Enum):
    """Every kind of token the MiniF lexer can produce."""

    # Literals and identifiers.
    INT = "int"
    FLOAT = "float"
    IDENT = "ident"

    # Keywords.
    GLOBAL = "global"
    INIT = "init"
    PROC = "proc"
    IF = "if"
    ELSE = "else"
    WHILE = "while"
    CALL = "call"
    RETURN = "return"
    PRINT = "print"
    AND = "and"
    OR = "or"
    NOT = "not"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    ASSIGN = "="

    # Operators.
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    EOF = "eof"


#: Keyword spelling -> token kind.
KEYWORDS = {
    "global": TokenKind.GLOBAL,
    "init": TokenKind.INIT,
    "proc": TokenKind.PROC,
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "call": TokenKind.CALL,
    "return": TokenKind.RETURN,
    "print": TokenKind.PRINT,
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
}

#: Comparison operator token kinds, in the order tried by the lexer.
COMPARISON_KINDS = frozenset(
    {TokenKind.EQ, TokenKind.NE, TokenKind.LT, TokenKind.LE, TokenKind.GT, TokenKind.GE}
)

#: Additive/multiplicative arithmetic operator kinds.
ARITHMETIC_KINDS = frozenset(
    {TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH, TokenKind.PERCENT}
)


class Token(NamedTuple):
    """A single lexed token.

    ``value`` holds the parsed payload: an ``int`` for INT tokens, a ``float``
    for FLOAT tokens, the identifier string for IDENT tokens, and the spelling
    for everything else.
    """

    kind: TokenKind
    value: Union[int, float, str]
    pos: SourcePos

    def __str__(self) -> str:
        return f"{self.kind.name}({self.value!r})@{self.pos}"
