"""Parser for the formula language: a regex tokenizer and one precedence loop.

Grammar, loosest binding first:

    formula  := '='? binary
    binary   := unary (OP unary)*      operators bind by formulas.BINARY_PRECEDENCE
    unary    := '-' unary | NUMBER | STRING | TRUE | FALSE | CELL (':' CELL)?
              | NAME '(' binary (',' binary)* ')' | '(' binary ')'

``binary`` climbs the precedence table: after an operand it takes every
operator tighter than the level it was called at, and parses each right-hand
operand one level tighter than that operator, so all binary operators
associate left. Unary minus binds tighter than '^'. Function calls,
parenthesised groups and unary minus each open one nesting level; input
nested deeper than MAX_NESTING levels (Excel's cap) is a syntax error, and
so is a number literal too large for a float. Input is case-insensitive;
positions in errors index the original string.

The tokenizer is one ``findall`` of a pattern with no group and no
whitespace part: no alternative starts with a whitespace character, so the
search steps over a whitespace run, leading, inner or trailing, one
character at a time, in linear time, and the source needs no ``rstrip``.
The parser reads the list of token texts, which ends in ``""`` for the end
of the formula, and tells what a token is from its text only where it reads
it. Positions are worked out only when a parse fails: the source is scanned
again with ``finditer``, and the end of the formula sits at
``len(source)``. That scan also looks for a character that no token of the
grammar holds (a lone '"' or '$', a non-ASCII digit or letter, '#', ...),
and the first one found is the error reported, whatever else failed. The
parser accepts no such character, so a formula that parses holds none.

Leaves are shared. A number or text literal is built once per distinct
token text by a bounded cache, and a cell by ``formulas.cell_ref``, which is
cached the same way, so a sheet that names the same cells, marks and labels
in every row builds each of them once. Sharing is safe because every node
is an immutable value (see ``_record.record``): compare nodes with ``==``,
never by identity. An invalid literal (a number too large for a float, a
cell in row 0) raises on every parse, since a cache never stores an error.
Each cache holds at most LEAF_CACHE_SIZE entries, about 0.7 MB when full.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import isfinite

from .errors import ArityError, FormulaSyntaxError, UnknownFunctionError
from .formulas import (
    BINARY_PRECEDENCE,
    BinaryOp,
    BooleanLiteral,
    CELL_PATTERN,
    cell_ref,
    FormulaAst,
    FunctionCall,
    LEAF_CACHE_SIZE,
    make_range,
    Node,
    NumberLiteral,
    SUPPORTED_FUNCTIONS,
    TextLiteral,
    UnaryOp,
)

MAX_NESTING = 64

# one token: punctuation and one-character operators, CELL, NAME, NUMBER,
# STRING, comparisons, or any other single character but whitespace. Only
# CELL before NAME and '\S' last decide a match: the other alternatives
# start with different characters, none of them whitespace.
_TOKEN_RE = re.compile(
    rf'[(),:+\-*/^=]|{CELL_PATTERN}|[A-Za-z]+|[0-9]+(?:\.[0-9]+)?|"(?:[^"]|"")*"'
    r"|<[=>]?|>=?|\S"
)

_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
# a cell's text starts with a letter or '$' and ends in its row's digits
_CELL_START = _LETTERS | {"$"}
# the one-character texts a token of the grammar can have; any other one,
# such as a lone '"' or '$', is an unexpected character
_ONE_CHARACTER_TOKENS = _LETTERS | _DIGITS | frozenset("(),:+-*/^=<>")

_BOOLEANS = {"TRUE": BooleanLiteral(True), "FALSE": BooleanLiteral(False)}


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _literal(text: str) -> Node:
    """The leaf of a NUMBER or STRING token's text."""
    if text[0] == '"':
        return TextLiteral(text[1:-1].replace('""', '"'))
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"number out of range: {text!r}")
    return NumberLiteral(value)


def parse(source: str) -> FormulaAst:
    """Parse formula text (leading '=' optional) into a FormulaAst."""
    tokens = _TOKEN_RE.findall(source)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 0)
    tokens.append("")
    parser = _Parser(tokens)
    if tokens[0] == "=":
        parser.index = 1
    try:
        root = parser.binary()
        end = parser.index
        if tokens[end]:
            raise _Failure(
                FormulaSyntaxError, f"expected end of formula, found {tokens[end]!r}", end
            )
    except _Failure as failure:
        raise _error(source, *failure.args) from None
    return FormulaAst(root)


class _Failure(Exception):
    """A failed parse, before its position is known.

    Its args are the public error's class, its message (the name, for an
    UnknownFunctionError) and the index of the token it is at, which is None
    for an ArityError: that error has no position.
    """


def _error(source: str, error: type, detail: str, index: int | None) -> Exception:
    """The error a failed parse of ``source`` reports.

    That is the first unexpected character in the source, if there is one,
    and otherwise ``error`` at the position of token ``index``.
    """
    positions = []
    for match in _TOKEN_RE.finditer(source):
        text, position = match[0], match.start()
        if len(text) == 1 and text not in _ONE_CHARACTER_TOKENS:
            if text == '"':
                return FormulaSyntaxError("unterminated text literal", position)
            return FormulaSyntaxError(f"unexpected character {text!r}", position)
        positions.append(position)
    if index is None:
        return error(detail)
    positions.append(len(source))
    return error(detail, positions[index])


def _is_cell(text: str) -> bool:
    """Whether a token's text is a cell's, as a range's second corner must be."""
    return text[:1] in _CELL_START and text[-1:] in _DIGITS


def _found(text: str) -> str:
    return repr(text) if text else "end of formula"


class _Parser:
    """Recursive descent over a list of token texts that ends in "" (EOF).

    The parser never moves past EOF: ``unary`` consumes its token before
    looking at it but fails on EOF, and every other step consumes only a
    token whose text it has checked, which is never EOF. Every error is a
    _Failure at a token's index.
    """

    __slots__ = ("tokens", "index", "depth")

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def expect(self, text: str, what: str) -> None:
        index = self.index
        found = self.tokens[index]
        if found != text:
            raise _Failure(
                FormulaSyntaxError, f"expected {what}, found {_found(found)}", index
            )
        self.index = index + 1

    def enter(self, index: int) -> None:
        """Open one nesting level, within MAX_NESTING; the caller closes it."""
        if self.depth == MAX_NESTING:
            raise _Failure(
                FormulaSyntaxError,
                f"formula nests deeper than {MAX_NESTING} levels",
                index,
            )
        self.depth += 1

    def binary(self, floor: int = 0) -> Node:
        """An operand, then every operator binding tighter than ``floor``."""
        node = self.unary()
        tokens = self.tokens
        while True:
            op = tokens[self.index]
            # no other token's text is an operator: text literals keep their
            # quotes, and EOF's text is empty
            precedence = BINARY_PRECEDENCE.get(op, 0)
            if precedence <= floor:
                return node
            self.index += 1
            node = BinaryOp(op, node, self.binary(precedence))

    def unary(self) -> Node:
        index = self.index
        text = self.tokens[index]
        self.index = index + 1
        first = text[:1]
        if first in _LETTERS:
            # a name ends in a letter, a cell in its row's digits
            if text[-1] in _LETTERS:
                return self.name(text.upper(), index)
            return self.cell(text, index)
        # a lone '"' or '$' is an unexpected character, not a text or a cell
        if first in _DIGITS or (first == '"' and text != '"'):
            try:
                return _literal(text)
            except ValueError:
                raise _Failure(FormulaSyntaxError, "number out of range", index) from None
        if first == "$" and text != "$":
            return self.cell(text, index)
        if text == "(" or text == "-":
            self.enter(index)
            if text == "(":
                node = self.binary()
                self.expect(")", "')'")
            else:
                node = UnaryOp(self.unary())
            self.depth -= 1
            return node
        raise _Failure(
            FormulaSyntaxError,
            f"expected a number, text, cell, function, or '(', found {_found(text)}",
            index,
        )

    def cell(self, text: str, index: int) -> Node:
        """A cell, or a range after its first corner's token at ``index``."""
        # only a row can be wrong in text of a cell's shape; index follows
        # the corner being read
        try:
            node = cell_ref(text)
            if self.tokens[self.index] == ":":
                index = self.index + 1
                text = self.tokens[index]
                if not _is_cell(text):
                    raise _Failure(
                        FormulaSyntaxError,
                        f"expected a cell reference after ':', found {_found(text)}",
                        index,
                    )
                self.index = index + 1
                node = make_range(node, cell_ref(text))
            return node
        except ValueError:
            raise _Failure(FormulaSyntaxError, "cell row must be at least 1", index) from None

    def name(self, name: str, index: int) -> Node:
        """A function call or a boolean, after its NAME token at ``index``."""
        if self.tokens[self.index] != "(":
            if name in _BOOLEANS:
                return _BOOLEANS[name]
            if name in SUPPORTED_FUNCTIONS:
                raise _Failure(
                    FormulaSyntaxError,
                    f"expected '(' after function name {name}",
                    self.index,
                )
            raise _Failure(UnknownFunctionError, name, index)
        if name not in SUPPORTED_FUNCTIONS:
            raise _Failure(UnknownFunctionError, name, index)
        self.index += 1
        self.enter(index)
        args: list[Node] = []
        if self.tokens[self.index] != ")":
            args.append(self.binary())
            while self.tokens[self.index] == ",":
                self.index += 1
                args.append(self.binary())
        self.depth -= 1
        self.expect(")", "')' or ','")
        low, high = SUPPORTED_FUNCTIONS[name]
        if len(args) < low or (high is not None and len(args) > high):
            if high == low:
                wanted = f"exactly {low}"
            elif high is None:
                wanted = f"at least {low}"
            else:
                wanted = f"between {low} and {high}"
            raise _Failure(
                ArityError, f"{name} takes {wanted} argument(s), got {len(args)}", None
            )
        return FunctionCall(name, tuple(args))
