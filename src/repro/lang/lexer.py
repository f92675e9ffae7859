"""Lexer for MiniF source text: one compiled pattern, matched token by token.

The lexer tracks 1-based line/column positions, supports ``#`` line comments,
and produces a trailing EOF token.  Numeric literals::

    INT   := digit+
    FLOAT := digit+ "." digit* exponent?  |  digit+ exponent
    exponent := ("e" | "E") ("+" | "-")? digit+

A ``.`` followed by a letter is not part of a literal.  A leading sign is
*not* part of a literal either; unary minus is handled by the parser so that
``a-1`` lexes as three tokens.  Identifiers and digits are ASCII only: any
other character outside a comment is a lex error.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple

from repro.errors import LexError, SourcePos
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Longest integer literal, in digits: the smallest ``int()`` limit of any
#: supported Python (``sys.int_info.default_max_str_digits``).
MAX_INT_DIGITS = 4300

#: Spelling -> kind for every keyword and operator; other words are IDENT.
_KINDS = dict(KEYWORDS)
_KINDS.update(
    (kind.value, kind)
    for kind in TokenKind
    if not kind.value.isalpha()
)

#: Blanks, then one token or skipped run; ``m.lastindex`` names the branch.
#: Every position the scan reaches matches some branch, so ``finditer``
#: never skips text; the empty ``\Z`` branch (no group) ends the scan.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
        ([A-Za-z_][A-Za-z0-9_]*|==|!=|<=|>=|[-+*/%(){}\[\],;=<>])    # 1 word or operator
      | (\n[ \t\r\n]*)                                               # 2 newlines
      | ([0-9]+)                                                     # 3 digits
        (\.(?![A-Za-z])[0-9]*(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)?   # 4 float tail
        ([A-Za-z_])?                                                 # 5 letter after it
      | \#([^\n]*)                                                   # 6 comment
      | (.)                                                          # 7 anything else
      | \Z
    )""",
    re.VERBOSE,
)

_IDENT, _INT, _FLOAT, _EOF = TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT, TokenKind.EOF


def tokenize(
    source: str,
    start: SourcePos = SourcePos(1, 1),
    comments: Optional[List[Tuple[int, str]]] = None,
) -> List[Token]:
    """Lex ``source`` into a list of tokens (ending with EOF).

    ``start`` is the position of ``source[0]``: a fragment cut from a larger
    text lexes with the positions it has in that text.  ``comments``, when
    given, receives ``(line, text)`` of every ``#`` comment in source order,
    up to any lex error.
    """
    line = start.line
    # Offset of the character before the current line's column 1.
    base = -start.column
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__
    kind_of = _KINDS.get
    for m in _TOKEN.finditer(source):
        branch = m.lastindex
        if branch == 1:
            text = m.group(1)
            pos = new(SourcePos, (line, m.start(1) - base))
            append(new(Token, (kind_of(text, _IDENT), text, pos)))
        elif branch == 2:
            first, end = m.span(2)
            line += source.count("\n", first, end)
            base = source.rfind("\n", first, end)
        elif branch == 3:
            text = m.group(3)
            pos = new(SourcePos, (line, m.start(3) - base))
            if len(text) > MAX_INT_DIGITS:
                raise LexError(f"integer literal longer than {MAX_INT_DIGITS} digits", pos)
            append(new(Token, (_INT, int(text), pos)))
        elif branch == 4:
            first = m.start(3)
            pos = new(SourcePos, (line, first - base))
            append(new(Token, (_FLOAT, float(source[first : m.end(4)]), pos)))
        elif branch == 6:
            if comments is not None:
                comments.append((line, m.group(6)))
        elif branch is None:
            break
        elif branch == 5:
            first = m.start(3)
            raise LexError(
                f"identifier may not start with a digit: {source[first : m.start(5)]}...",
                SourcePos(line, first - base),
            )
        else:
            char = m.group(7)
            pos = SourcePos(line, m.start(7) - base)
            if char == "!":
                raise LexError("'!' is only valid as part of '!='", pos)
            raise LexError(f"unexpected character {char!r}", pos)
    append(new(Token, (_EOF, "", new(SourcePos, (line, len(source) - base)))))
    return tokens


class Lexer:
    """:func:`tokenize` with the comments kept on the object."""

    def __init__(self, source: str, start: SourcePos = SourcePos(1, 1)):
        self._source = source
        self._start = start
        #: ``(line, text)`` of every ``#`` comment, in source order; the
        #: diagnostics suppression scan reads ``noqa`` directives from here.
        self.comments: List[Tuple[int, str]] = []

    def tokens(self) -> Iterator[Token]:
        """Every token in the source, ending with an EOF token."""
        return iter(tokenize(self._source, self._start, self.comments))


def scan_comments(source: str) -> List[Tuple[int, str]]:
    """``(line, text)`` of every ``#`` comment in ``source``.

    Tolerant of lex errors: comments collected before the offending
    character are still returned, so suppression directives work even on
    sources a later phase rejects.
    """
    comments: List[Tuple[int, str]] = []
    try:
        tokenize(source, comments=comments)
    except LexError:
        pass
    return comments
