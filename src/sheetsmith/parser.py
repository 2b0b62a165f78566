"""Parser for the formula language: a regex tokenizer and one precedence loop.

Grammar, loosest binding first:

    formula  := '='? binary
    binary   := unary (OP unary)*      operators bind by formulas.BINARY_PRECEDENCE
    unary    := '-' unary | primary
    primary  := NUMBER | STRING | TRUE | FALSE | cell (':' cell)?
              | NAME '(' binary (',' binary)* ')' | '(' binary ')'

``binary`` climbs the precedence table: after an operand it takes every
operator tighter than the level it was called at, and parses each right-hand
operand one level tighter than that operator, so all binary operators
associate left. Unary minus binds tighter than '^'. Function calls,
parenthesised groups and unary minus each open one nesting level; input
nested deeper than MAX_NESTING levels (Excel's cap) is a syntax error, and
so is a number literal too large for a float. Input is case-insensitive;
positions in errors index the original string.
"""

from __future__ import annotations

import re
from math import isfinite

from .errors import ArityError, FormulaSyntaxError, UnknownFunctionError
from .formulas import (
    BINARY_PRECEDENCE,
    BinaryOp,
    BooleanLiteral,
    CELL_PATTERN,
    cell_ref,
    CellRef,
    FormulaAst,
    FunctionCall,
    make_range,
    Node,
    NumberLiteral,
    SUPPORTED_FUNCTIONS,
    TextLiteral,
    UnaryOp,
)

MAX_NESTING = 64

_TOKEN_RE = re.compile(
    rf"""
      (?P<WS>\s+)
    | (?P<NUMBER>\d+(?:\.\d+)?)
    | (?P<STRING>"(?:[^"]|"")*")
    | (?P<CELL>{CELL_PATTERN})
    | (?P<NAME>[A-Za-z]+)
    | (?P<OP><=|>=|<>|[<>=+\-*/^])
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COMMA>,)
    | (?P<COLON>:)
    | (?P<BAD>.)
    """,
    re.VERBOSE,
)

# (kind, text, position); kind is a group name of _TOKEN_RE or "EOF"
_Token = tuple[str, str, int]


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "WS":
            continue
        text, pos = match.group(), match.start()
        if kind == "BAD":
            if text == '"':
                raise FormulaSyntaxError("unterminated text literal", pos)
            raise FormulaSyntaxError(f"unexpected character {text!r}", pos)
        tokens.append((kind, text, pos))
    tokens.append(("EOF", "", len(source)))
    return tokens


def parse(source: str) -> FormulaAst:
    """Parse formula text (leading '=' optional) into a FormulaAst."""
    if not source or not source.strip():
        raise FormulaSyntaxError("empty formula", 0)
    parser = _Parser(_tokenize(source))
    if parser.peek()[:2] == ("OP", "="):
        parser.advance()
    root = parser.binary()
    kind, text, pos = parser.peek()
    if kind != "EOF":
        raise FormulaSyntaxError(f"expected end of formula, found {text!r}", pos)
    return FormulaAst(root)


def _found(token: _Token) -> str:
    return repr(token[1]) if token[0] != "EOF" else "end of formula"


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token[0] != "EOF":
            self.index += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token[0] != kind:
            raise FormulaSyntaxError(f"expected {what}, found {_found(token)}", token[2])
        return self.advance()

    def nested(self, parse_inner, pos: int):
        """Run parse_inner one nesting level deeper, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels", pos
            )
        self.depth += 1
        result = parse_inner()
        self.depth -= 1
        return result

    def binary(self, floor: int = 0) -> Node:
        """An operand, then every operator binding tighter than ``floor``."""
        node = self.unary()
        while True:
            kind, op, _ = self.peek()
            # the OP token group holds exactly the table's operators
            precedence = BINARY_PRECEDENCE[op] if kind == "OP" else 0
            if precedence <= floor:
                return node
            self.advance()
            node = BinaryOp(op, node, self.binary(precedence))

    def unary(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "OP" and text == "-":
            self.advance()
            return UnaryOp(self.nested(self.unary, pos))
        return self.primary()

    def primary(self) -> Node:
        token = self.peek()
        kind, text, pos = token
        if kind == "NUMBER":
            value = float(text)
            if not isfinite(value):
                raise FormulaSyntaxError("number out of range", pos)
            self.advance()
            return NumberLiteral(value)
        if kind == "STRING":
            self.advance()
            return TextLiteral(text[1:-1].replace('""', '"'))
        if kind == "CELL":
            self.advance()
            start = self.cell(token)
            if self.peek()[0] == "COLON":
                self.advance()
                end_token = self.expect("CELL", "a cell reference after ':'")
                return make_range(start, self.cell(end_token))
            return start
        if kind == "NAME":
            return self.name(token)
        if kind == "LPAREN":
            self.advance()
            node = self.nested(self.binary, pos)
            self.expect("RPAREN", "')'")
            return node
        raise FormulaSyntaxError(
            f"expected a number, text, cell, function, or '(', found {_found(token)}",
            pos,
        )

    def name(self, token: _Token) -> Node:
        _, text, pos = token
        upper = text.upper()
        self.advance()
        if self.peek()[0] == "LPAREN":
            return self.function_call(upper, pos)
        if upper == "TRUE":
            return BooleanLiteral(True)
        if upper == "FALSE":
            return BooleanLiteral(False)
        if upper in SUPPORTED_FUNCTIONS:
            raise FormulaSyntaxError(
                f"expected '(' after function name {upper}", self.peek()[2]
            )
        raise UnknownFunctionError(upper, pos)

    def function_call(self, name: str, pos: int) -> Node:
        if name not in SUPPORTED_FUNCTIONS:
            raise UnknownFunctionError(name, pos)
        self.advance()  # LPAREN
        args = self.nested(self.arguments, pos)
        self.expect("RPAREN", "')' or ','")
        low, high = SUPPORTED_FUNCTIONS[name]
        if len(args) < low or (high is not None and len(args) > high):
            if high == low:
                wanted = f"exactly {low}"
            elif high is None:
                wanted = f"at least {low}"
            else:
                wanted = f"between {low} and {high}"
            raise ArityError(
                f"{name} takes {wanted} argument(s), got {len(args)}"
            )
        return FunctionCall(name, tuple(args))

    def arguments(self) -> list[Node]:
        args: list[Node] = []
        if self.peek()[0] != "RPAREN":
            args.append(self.binary())
            while self.peek()[0] == "COMMA":
                self.advance()
                args.append(self.binary())
        return args

    def cell(self, token: _Token) -> CellRef:
        # the token already has the shape of a cell, so only its row can be wrong
        try:
            return cell_ref(token[1])
        except ValueError:
            raise FormulaSyntaxError("cell row must be at least 1", token[2]) from None
