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

The tokenizer is one ``findall`` of an ungrouped pattern. Every character
belongs to exactly one match, so a token's position is the sum of the
lengths before it; its kind comes from its text (operators and punctuation)
or its first character.

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
from itertools import accumulate
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

# punctuation and one-character operators, CELL, NAME, NUMBER, STRING,
# comparisons, whitespace, and any other single character; the tables below
# classify each text. Only CELL before NAME and '.' last decide a match: the
# other alternatives start with different characters.
_TOKEN_RE = re.compile(
    rf'[(),:+\-*/^=]|{CELL_PATTERN}|[A-Za-z]+|[0-9]+(?:\.[0-9]+)?|"(?:[^"]|"")*"'
    r"|<[=>]?|>=?|\s+|."
)

# token kinds by whole text: operators, punctuation, and the one-character
# tokens, which are common; a lone '"' or '$' could not start its token
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_KIND_OF_TEXT = {
    **dict.fromkeys(_LETTERS, "NAME"),
    **dict.fromkeys("0123456789", "NUMBER"),
    **dict.fromkeys(" \t\n\r\f\v", "WS"),
    **dict.fromkeys(BINARY_PRECEDENCE, "OP"),
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ":": "COLON",
    '"': "BAD", "$": "BAD",
}


def _kind_of_first(text: str) -> str:
    """The kind of a token that is not in _KIND_OF_TEXT, from its first character."""
    first = text[0]
    if first == '"':
        return "STRING"
    if first == "$":
        return "CELL"
    if first in _LETTERS:
        # a cell ends in its row's digits, a name in a letter
        return "NAME" if text[-1].isalpha() else "CELL"
    if "0" <= first <= "9":
        return "NUMBER"
    # \s matches Unicode whitespace too; any other character is a token alone
    return "WS" if first.isspace() else "BAD"


_BOOLEANS = {"TRUE": BooleanLiteral(True), "FALSE": BooleanLiteral(False)}

# (kind, text, position); kind is NUMBER, STRING, CELL, NAME, OP, LPAREN,
# RPAREN, COMMA, COLON or EOF
_Token = tuple[str, str, int]


def _tokenize(source: str) -> list[_Token]:
    texts = _TOKEN_RE.findall(source)
    kinds = [_KIND_OF_TEXT.get(text) or _kind_of_first(text) for text in texts]
    # every character is in exactly one match, so positions are running lengths
    positions = list(accumulate(map(len, texts), initial=0))
    if "BAD" in kinds:
        index = kinds.index("BAD")
        text, pos = texts[index], positions[index]
        if text == '"':
            raise FormulaSyntaxError("unterminated text literal", pos)
        raise FormulaSyntaxError(f"unexpected character {text!r}", pos)
    tokens = list(zip(kinds, texts, positions))
    if "WS" in kinds:
        tokens = [token for token in tokens if token[0] != "WS"]
    tokens.append(("EOF", "", positions[-1]))
    return tokens


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
    if not source or not source.strip():
        raise FormulaSyntaxError("empty formula", 0)
    parser = _Parser(_tokenize(source))
    if parser.tokens[0][:2] == ("OP", "="):
        parser.index = 1
    root = parser.binary()
    kind, text, pos = parser.tokens[parser.index]
    if kind != "EOF":
        raise FormulaSyntaxError(f"expected end of formula, found {text!r}", pos)
    return FormulaAst(root)


def _found(token: _Token) -> str:
    return repr(token[1]) if token[0] != "EOF" else "end of formula"


class _Parser:
    """Recursive descent over a token list that ends in EOF.

    The parser never moves past EOF: ``unary`` consumes its token before
    looking at it but raises on EOF, and every other step consumes only a
    token whose kind it has checked, which is never EOF.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def expect(self, kind: str, what: str) -> None:
        token = self.tokens[self.index]
        if token[0] != kind:
            raise FormulaSyntaxError(f"expected {what}, found {_found(token)}", token[2])
        self.index += 1

    def enter(self, pos: int) -> None:
        """Open one nesting level, within MAX_NESTING; the caller closes it."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels", pos
            )
        self.depth += 1

    def binary(self, floor: int = 0) -> Node:
        """An operand, then every operator binding tighter than ``floor``."""
        node = self.unary()
        tokens = self.tokens
        while True:
            op = tokens[self.index][1]
            # no other token's text is an operator: text literals keep their
            # quotes, and EOF's text is empty
            precedence = BINARY_PRECEDENCE.get(op, 0)
            if precedence <= floor:
                return node
            self.index += 1
            node = BinaryOp(op, node, self.binary(precedence))

    def unary(self) -> Node:
        token = self.tokens[self.index]
        kind, text, pos = token
        self.index += 1
        if kind == "CELL":
            # only a row can be wrong in text of a cell's shape; pos follows
            # the corner being read
            try:
                node = cell_ref(text)
                if self.tokens[self.index][0] == "COLON":
                    self.index += 1
                    _, text, pos = self.tokens[self.index]
                    self.expect("CELL", "a cell reference after ':'")
                    node = make_range(node, cell_ref(text))
                return node
            except ValueError:
                raise FormulaSyntaxError("cell row must be at least 1", pos) from None
        if kind == "NUMBER" or kind == "STRING":
            try:
                return _literal(text)
            except ValueError:
                raise FormulaSyntaxError("number out of range", pos) from None
        if kind == "NAME":
            return self.name(text.upper(), pos)
        if kind == "LPAREN" or text == "-":
            self.enter(pos)
            if kind == "LPAREN":
                node = self.binary()
                self.expect("RPAREN", "')'")
            else:
                node = UnaryOp(self.unary())
            self.depth -= 1
            return node
        raise FormulaSyntaxError(
            f"expected a number, text, cell, function, or '(', found {_found(token)}",
            pos,
        )

    def name(self, name: str, pos: int) -> Node:
        """A function call or a boolean, after its NAME token."""
        kind, _, next_pos = self.tokens[self.index]
        if kind != "LPAREN":
            if name in _BOOLEANS:
                return _BOOLEANS[name]
            if name in SUPPORTED_FUNCTIONS:
                raise FormulaSyntaxError(
                    f"expected '(' after function name {name}", next_pos
                )
            raise UnknownFunctionError(name, pos)
        if name not in SUPPORTED_FUNCTIONS:
            raise UnknownFunctionError(name, pos)
        self.index += 1
        self.enter(pos)
        args: list[Node] = []
        if self.tokens[self.index][0] != "RPAREN":
            args.append(self.binary())
            while self.tokens[self.index][0] == "COMMA":
                self.index += 1
                args.append(self.binary())
        self.depth -= 1
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
