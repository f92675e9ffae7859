"""Recursive-descent parser for MiniF.

Produces the AST of :mod:`repro.lang.ast`.  The grammar is LL(2); the only
two-token lookahead is distinguishing ``x = f(...)`` (a :class:`CallAssign`)
from ``x = f + ...`` (an ordinary assignment).

Precedence (loosest to tightest): ``or`` < ``and`` < ``not`` < comparisons
< ``+ -`` < ``* / %`` < unary ``-``.  Comparisons do not chain (``a < b < c``
is a parse error), matching Fortran relational expressions.

Blocks, ``if``/``while`` bodies, parentheses, subscripts, unary ``-`` and
``not`` nest at most :data:`MAX_NESTING` levels deep (a procedure body is
level 0); deeper input raises :class:`ParseError` at the opening token
instead of exhausting the interpreter's stack here or in a later AST walk.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import FrontendError, ParseError, SourcePos
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

#: Binary operators of one precedence level, keyed by the token's value.
#: An operator token's value is its spelling, and no other token's value
#: is an operator spelling, so one lookup classifies a token (a lookup by
#: ``TokenKind`` would hash an enum member, a Python-level call).
_COMPARISON_OPS = {op: op for op in ("==", "!=", "<", "<=", ">", ">=")}
_ADDITIVE_OPS = {"+": "+", "-": "-"}
_MULTIPLICATIVE_OPS = {"*": "*", "/": "/", "%": "%"}

#: Deepest accepted nesting of blocks, bodies, parentheses, subscripts and
#: unary operators.
MAX_NESTING = 64


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token stream helpers.  The list always ends with EOF and the index
    # never moves past it (``_match``/``_expect`` are never asked for EOF),
    # so the current token is ``_tokens[_index]``.
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._tokens[self._index].kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        token = self._tokens[self._index]
        if token.kind is kind:
            self._index += 1
            return token
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._tokens[self._index]
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} {context}, found {token.kind.value!r}",
                token.pos,
            )
        self._index += 1
        return token

    def _enter(self, token: Token) -> None:
        """One nesting level deeper, opened by ``token``; :meth:`_leave`
        closes it.  An error abandons the parse, so it needs no unwinding."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", token.pos)

    def _leave(self) -> None:
        self._depth -= 1

    # ------------------------------------------------------------------
    # Top level.
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse a complete program (global decls, init blocks, procedures)."""
        global_names: List[str] = []
        inits: List[ast.GlobalInit] = []
        procedures: List[ast.Procedure] = []
        while not self._check(TokenKind.EOF):
            token = self._peek()
            if token.kind is TokenKind.GLOBAL:
                global_names.extend(self._parse_global_decl())
            elif token.kind is TokenKind.INIT:
                inits.extend(self._parse_init_block())
            elif token.kind is TokenKind.PROC:
                procedures.append(self._parse_procedure())
            else:
                raise ParseError(
                    "expected 'global', 'init', or 'proc' at top level, "
                    f"found {token.kind.value!r}",
                    token.pos,
                )
        return ast.Program(global_names, inits, procedures)

    def _parse_global_decl(self) -> List[str]:
        self._expect(TokenKind.GLOBAL, "to begin a global declaration")
        names = [self._expect(TokenKind.IDENT, "in global declaration").value]
        while self._match(TokenKind.COMMA):
            names.append(self._expect(TokenKind.IDENT, "in global declaration").value)
        self._expect(TokenKind.SEMI, "after global declaration")
        return [str(name) for name in names]

    def _parse_init_block(self) -> List[ast.GlobalInit]:
        self._expect(TokenKind.INIT, "to begin an init block")
        self._expect(TokenKind.LBRACE, "after 'init'")
        entries: List[ast.GlobalInit] = []
        while not self._check(TokenKind.RBRACE):
            name_tok = self._expect(TokenKind.IDENT, "in init block")
            self._expect(TokenKind.ASSIGN, "in init block entry")
            value = self._parse_signed_literal()
            self._expect(TokenKind.SEMI, "after init block entry")
            entries.append(ast.GlobalInit(str(name_tok.value), value, name_tok.pos))
        self._expect(TokenKind.RBRACE, "to close the init block")
        return entries

    def _parse_signed_literal(self) -> ast.Value:
        negate = self._match(TokenKind.MINUS) is not None
        token = self._peek()
        if token.kind is TokenKind.INT or token.kind is TokenKind.FLOAT:
            self._advance()
            value = token.value
            return -value if negate else value
        raise ParseError("init block entries must be literal constants", token.pos)

    def _parse_procedure(self) -> ast.Procedure:
        proc_tok = self._expect(TokenKind.PROC, "to begin a procedure")
        name = str(self._expect(TokenKind.IDENT, "as procedure name").value)
        self._expect(TokenKind.LPAREN, "after procedure name")
        formals: List[str] = []
        if not self._check(TokenKind.RPAREN):
            formals.append(str(self._expect(TokenKind.IDENT, "as formal parameter").value))
            while self._match(TokenKind.COMMA):
                formals.append(
                    str(self._expect(TokenKind.IDENT, "as formal parameter").value)
                )
        self._expect(TokenKind.RPAREN, "after formal parameter list")
        body = self._parse_block()
        return ast.Procedure(name, formals, body, proc_tok.pos)

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        open_tok = self._expect(TokenKind.LBRACE, "to begin a block")
        stmts: List[ast.Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated block", open_tok.pos)
            stmts.append(self._parse_statement())
        self._expect(TokenKind.RBRACE, "to close the block")
        return ast.Block(stmts, open_tok.pos)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.LBRACE:
            self._enter(token)
            block = self._parse_block()
            self._leave()
            return block
        if token.kind is TokenKind.IF:
            return self._parse_if()
        if token.kind is TokenKind.WHILE:
            return self._parse_while()
        if token.kind is TokenKind.CALL:
            return self._parse_call_stmt()
        if token.kind is TokenKind.RETURN:
            return self._parse_return()
        if token.kind is TokenKind.PRINT:
            return self._parse_print()
        if token.kind is TokenKind.IDENT:
            return self._parse_assignment()
        raise ParseError(f"expected a statement, found {token.kind.value!r}", token.pos)

    def _parse_if(self) -> ast.If:
        if_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'if'")
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after if condition")
        then_block = self._parse_body()
        else_block: Optional[ast.Block] = None
        if self._match(TokenKind.ELSE):
            else_block = self._parse_body()
        return ast.If(cond, then_block, else_block, if_tok.pos)

    def _parse_while(self) -> ast.While:
        while_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'while'")
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after while condition")
        body = self._parse_body()
        return ast.While(cond, body, while_tok.pos)

    def _parse_body(self) -> ast.Block:
        """An ``if``/``while`` body, braced or not: one nesting level."""
        token = self._peek()
        self._enter(token)
        if token.kind is TokenKind.LBRACE:
            body = self._parse_block()
        else:
            stmt = self._parse_statement()
            body = ast.Block([stmt], getattr(stmt, "pos", None))
        self._leave()
        return body

    def _parse_call_stmt(self) -> ast.CallStmt:
        call_tok = self._advance()
        name = str(self._expect(TokenKind.IDENT, "as callee name").value)
        args = self._parse_argument_list()
        self._expect(TokenKind.SEMI, "after call statement")
        return ast.CallStmt(name, args, call_tok.pos)

    def _parse_return(self) -> ast.Return:
        ret_tok = self._advance()
        if self._match(TokenKind.SEMI):
            return ast.Return(None, ret_tok.pos)
        expr = self._parse_expression()
        self._expect(TokenKind.SEMI, "after return expression")
        return ast.Return(expr, ret_tok.pos)

    def _parse_print(self) -> ast.Print:
        print_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'print'")
        expr = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after print expression")
        self._expect(TokenKind.SEMI, "after print statement")
        return ast.Print(expr, print_tok.pos)

    def _parse_assignment(self) -> ast.Stmt:
        target_tok = self._advance()
        target = str(target_tok.value)
        if self._check(TokenKind.LBRACKET):
            self._enter(self._advance())
            index = self._parse_expression()
            self._expect(TokenKind.RBRACKET, "to close array subscript")
            self._leave()
            self._expect(TokenKind.ASSIGN, "in array element assignment")
            expr = self._parse_expression()
            self._expect(TokenKind.SEMI, "after assignment")
            return ast.AssignIndex(target, index, expr, target_tok.pos)
        self._expect(TokenKind.ASSIGN, "in assignment")
        # Two-token lookahead: `x = f(` starts a call-assignment.
        # The current token is not EOF, so the next one exists.
        if (
            self._check(TokenKind.IDENT)
            and self._tokens[self._index + 1].kind is TokenKind.LPAREN
        ):
            callee = str(self._advance().value)
            args = self._parse_argument_list()
            self._expect(
                TokenKind.SEMI,
                "after call assignment (calls may only be the entire right-hand side)",
            )
            return ast.CallAssign(target, callee, args, target_tok.pos)
        expr = self._parse_expression()
        self._expect(TokenKind.SEMI, "after assignment")
        return ast.Assign(target, expr, target_tok.pos)

    def _parse_argument_list(self) -> List[ast.Expr]:
        self._expect(TokenKind.LPAREN, "to begin argument list")
        args: List[ast.Expr] = []
        if not self._check(TokenKind.RPAREN):
            args.append(self._parse_expression())
            while self._match(TokenKind.COMMA):
                args.append(self._parse_expression())
        self._expect(TokenKind.RPAREN, "to close argument list")
        return args

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while True:
            op_tok = self._match(TokenKind.OR)
            if op_tok is None:
                return left
            right = self._parse_and()
            left = ast.Binary("or", left, right, op_tok.pos)

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while True:
            op_tok = self._match(TokenKind.AND)
            if op_tok is None:
                return left
            right = self._parse_not()
            left = ast.Binary("and", left, right, op_tok.pos)

    def _parse_not(self) -> ast.Expr:
        not_tok = self._match(TokenKind.NOT)
        if not_tok is not None:
            self._enter(not_tok)
            operand = self._parse_not()
            self._leave()
            return ast.Unary("not", operand, not_tok.pos)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        op_tok = self._tokens[self._index]
        op = _COMPARISON_OPS.get(op_tok.value)
        if op is None:
            return left
        self._index += 1
        right = self._parse_additive()
        token = self._tokens[self._index]
        if token.value in _COMPARISON_OPS:
            raise ParseError("comparisons do not chain", token.pos)
        return ast.Binary(op, left, right, op_tok.pos)

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            op_tok = self._tokens[self._index]
            op = _ADDITIVE_OPS.get(op_tok.value)
            if op is None:
                return left
            self._index += 1
            right = self._parse_multiplicative()
            left = ast.Binary(op, left, right, op_tok.pos)

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op_tok = self._tokens[self._index]
            op = _MULTIPLICATIVE_OPS.get(op_tok.value)
            if op is None:
                return left
            self._index += 1
            right = self._parse_unary()
            left = ast.Binary(op, left, right, op_tok.pos)

    def _parse_unary(self) -> ast.Expr:
        minus_tok = self._match(TokenKind.MINUS)
        if minus_tok is not None:
            self._enter(minus_tok)
            operand = self._parse_unary()
            self._leave()
            return ast.Unary("-", operand, minus_tok.pos)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            self._index += 1
            if self._check(TokenKind.LPAREN):
                raise ParseError(
                    "call expressions may only appear as the entire right-hand "
                    "side of an assignment",
                    token.pos,
                )
            if self._check(TokenKind.LBRACKET):
                self._enter(self._advance())
                index = self._parse_expression()
                self._expect(TokenKind.RBRACKET, "to close array subscript")
                self._leave()
                return ast.Index(str(token.value), index, token.pos)
            return ast.Var(str(token.value), token.pos)
        if token.kind is TokenKind.INT:
            self._index += 1
            return ast.IntLit(token.value, token.pos)
        if token.kind is TokenKind.FLOAT:
            self._index += 1
            return ast.FloatLit(token.value, token.pos)
        if token.kind is TokenKind.LPAREN:
            self._enter(token)
            self._advance()
            expr = self._parse_expression()
            self._expect(TokenKind.RPAREN, "to close parenthesized expression")
            self._leave()
            return expr
        raise ParseError(f"expected an expression, found {token.kind.value!r}", token.pos)


def parse_program(source: str) -> ast.Program:
    """Lex and parse ``source`` into a :class:`repro.lang.ast.Program`."""
    parser = Parser(tokenize(source))
    return parser.parse_program()


#: Everything the procedure split must see: whole comments (so braces and
#: ``proc`` inside them are skipped), braces, and the ``proc`` keyword.
_SPLIT_SCAN = re.compile(r"#[^\n]*|[{}]|\bproc\b")

#: ``(segment text, start line, start column)``: what fixes a procedure's
#: tokens, and so its AST and every position in it.
SegmentKey = Tuple[str, int, int]


def _top_level_procs(source: str) -> Optional[List[int]]:
    """Offsets of the ``proc`` keywords at brace depth 0, or None when the
    braces do not balance."""
    starts: List[int] = []
    depth = 0
    for match in _SPLIT_SCAN.finditer(source):
        char = match.group()[0]
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth < 0:
                return None
        elif char == "p" and depth == 0:
            starts.append(match.start())
    return starts if depth == 0 else None


class IncrementalParser:
    """Parses successive versions of one program, re-parsing only the
    procedures whose text or start position changed.

    The source is cut at every top-level ``proc`` into a header (globals and
    init blocks) and one segment per procedure, running to the next
    procedure.  A segment whose text and start position match a segment of
    the previous parse reuses that :class:`ast.Procedure` object; every
    other segment is lexed from its own start position.  Whatever the split
    cannot vouch for -- a lex or parse error, unbalanced braces, a header
    holding a procedure, a segment that is not exactly one procedure --
    falls back to :func:`parse_program` over the whole text, so the result
    and any error are always those of a full parse.
    """

    def __init__(self) -> None:
        self._segments: Dict[SegmentKey, ast.Procedure] = {}
        #: Procedures the last :meth:`parse` parsed rather than reused.
        self.parsed = 0

    def parse(self, source: str) -> ast.Program:
        try:
            split = self._parse_segments(source)
        except FrontendError:
            # The full parse below raises the error the whole text has.
            split = None
        if split is None:
            program = parse_program(source)
            self._segments = {}
            self.parsed = len(program.procedures)
            return program
        program, self._segments, self.parsed = split
        return program

    def _parse_segments(
        self, source: str
    ) -> Optional[Tuple[ast.Program, Dict[SegmentKey, ast.Procedure], int]]:
        starts = _top_level_procs(source)
        if starts is None:
            return None
        header = Parser(tokenize(source[: starts[0]] if starts else source))
        program = header.parse_program()
        if program.procedures:
            return None
        previous = self._segments
        segments: Dict[SegmentKey, ast.Procedure] = {}
        parsed = 0
        line, line_start, scanned = 1, 0, 0
        for start, end in zip(starts, starts[1:] + [len(source)]):
            newlines = source.count("\n", scanned, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", scanned, start) + 1
            scanned = start
            key = (source[start:end], line, start - line_start + 1)
            proc = previous.get(key)
            if proc is None:
                tokens = tokenize(key[0], SourcePos(key[1], key[2]))
                piece = Parser(tokens).parse_program()
                if piece.global_names or piece.inits or len(piece.procedures) != 1:
                    return None
                proc = piece.procedures[0]
                parsed += 1
            segments[key] = proc
            program.procedures.append(proc)
        return program, segments, parsed


def parse_expression(source: str) -> ast.Expr:
    """Lex and parse ``source`` as a single expression (testing helper)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expression()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected trailing input {trailing.kind.value!r}", trailing.pos
        )
    return expr
