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

The descent keeps no state between its steps. Each rule is a function that
takes the token list, the index of its first token and, where a level can
open, the depth already open around it; it returns its node and the index
of the token after it. A level is opened by passing ``depth + 1`` to the
steps inside it, so it closes when they return, and siblings all start at
the depth around them.

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
    try:
        root, end = _binary(tokens, 1 if tokens[0] == "=" else 0, 0, 0)
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


# The steps of the descent. No step moves past the "" token (EOF):
# ``_unary`` fails on it, and every step steps over only a token whose text
# it has checked, which is never EOF. Every error is a _Failure at a token's
# index.


def _binary(tokens: list[str], index: int, depth: int, floor: int) -> tuple[Node, int]:
    """An operand, then every operator binding tighter than ``floor``."""
    node, index = _unary(tokens, index, depth)
    while True:
        op = tokens[index]
        # no other token's text is an operator: text literals keep their
        # quotes, and EOF's text is empty
        precedence = BINARY_PRECEDENCE.get(op, 0)
        if precedence <= floor:
            return node, index
        right, index = _binary(tokens, index + 1, depth, precedence)
        node = BinaryOp(op, node, right)


def _nested(depth: int, index: int) -> int:
    """The depth inside a level opened by token ``index``, at most MAX_NESTING."""
    if depth == MAX_NESTING:
        raise _Failure(
            FormulaSyntaxError, f"formula nests deeper than {MAX_NESTING} levels", index
        )
    return depth + 1


def _closed(tokens: list[str], index: int, what: str) -> int:
    """The index after the ')' that ``what`` expects at ``index``."""
    found = tokens[index]
    if found != ")":
        raise _Failure(FormulaSyntaxError, f"expected {what}, found {_found(found)}", index)
    return index + 1


def _unary(tokens: list[str], index: int, depth: int) -> tuple[Node, int]:
    text = tokens[index]
    first = text[:1]
    if first in _LETTERS:
        # a name ends in a letter, a cell in its row's digits
        if text[-1] in _LETTERS:
            return _name(tokens, index, depth)
        return _cell(tokens, index)
    # a lone '"' or '$' is an unexpected character, not a text or a cell
    if first in _DIGITS or (first == '"' and text != '"'):
        try:
            return _literal(text), index + 1
        except ValueError:
            raise _Failure(FormulaSyntaxError, "number out of range", index) from None
    if first == "$" and text != "$":
        return _cell(tokens, index)
    if text == "(":
        node, end = _binary(tokens, index + 1, _nested(depth, index), 0)
        return node, _closed(tokens, end, "')'")
    if text == "-":
        node, end = _unary(tokens, index + 1, _nested(depth, index))
        return UnaryOp(node), end
    raise _Failure(
        FormulaSyntaxError,
        f"expected a number, text, cell, function, or '(', found {_found(text)}",
        index,
    )


def _cell(tokens: list[str], index: int) -> tuple[Node, int]:
    """A cell at token ``index``, or a range with that cell as its first corner."""
    # only a row can be wrong in text of a cell's shape; index is at the
    # corner being read
    try:
        node = cell_ref(tokens[index])
        if tokens[index + 1] != ":":
            return node, index + 1
        index += 2
        text = tokens[index]
        if not _is_cell(text):
            raise _Failure(
                FormulaSyntaxError,
                f"expected a cell reference after ':', found {_found(text)}",
                index,
            )
        return make_range(node, cell_ref(text)), index + 1
    except ValueError:
        raise _Failure(FormulaSyntaxError, "cell row must be at least 1", index) from None


def _name(tokens: list[str], index: int, depth: int) -> tuple[Node, int]:
    """A function call or a boolean at NAME token ``index``."""
    name = tokens[index].upper()
    if tokens[index + 1] != "(":
        if name in _BOOLEANS:
            return _BOOLEANS[name], index + 1
        if name in SUPPORTED_FUNCTIONS:
            raise _Failure(
                FormulaSyntaxError, f"expected '(' after function name {name}", index + 1
            )
        raise _Failure(UnknownFunctionError, name, index)
    if name not in SUPPORTED_FUNCTIONS:
        raise _Failure(UnknownFunctionError, name, index)
    depth = _nested(depth, index)
    args: list[Node] = []
    index += 2
    if tokens[index] != ")":
        arg, index = _binary(tokens, index, depth, 0)
        args.append(arg)
        while tokens[index] == ",":
            arg, index = _binary(tokens, index + 1, depth, 0)
            args.append(arg)
    index = _closed(tokens, index, "')' or ','")
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
    return FunctionCall(name, tuple(args)), index
