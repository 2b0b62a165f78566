"""Syntax trees for the Excel-like formula language, plus canonical rendering.

Canonical text is uppercase, contains no whitespace, and parenthesizes only
where precedence requires, so rendering the same tree twice is byte-identical.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterator
from functools import lru_cache

from ._record import record

# name -> (min arity, max arity); None = unbounded
SUPPORTED_FUNCTIONS = {
    "IF": (2, 3),
    "AND": (1, None),
    "OR": (1, None),
    "NOT": (1, 1),
    "MIN": (1, None),
    "MAX": (1, None),
    "AVERAGE": (1, None),
    "SUM": (1, None),
}

AGGREGATE_FUNCTIONS = ("MIN", "MAX", "AVERAGE", "SUM")

# A1-style cell text in any case: '$'?, column letters, '$'?, ASCII row digits;
# cell_ref reads it, and the parser's tokenizer embeds it without the groups
_CELL = re.compile(r"(\$?)([A-Za-z]+)(\$?)([0-9]+)")
CELL_PATTERN = _CELL.pattern.replace("(", "(?:")

# entries in each bounded cache: the parser's leaf nodes, cell_ref's cells,
# column_index's indexes and number_text's texts; a full one holds at most
# about 0.7 MB
LEAF_CACHE_SIZE = 2048


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def column_index(letters: str) -> int:
    """Column letters to 1-based index: A -> 1, Z -> 26, AA -> 27."""
    index = 0
    for ch in letters:
        index = index * 26 + (ord(ch) - ord("A") + 1)
    return index


def column_letters(index: int) -> str:
    """Inverse of column_index."""
    letters = ""
    while index > 0:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


@record
class NumberLiteral:
    value: float


@record
class TextLiteral:
    value: str


@record
class BooleanLiteral:
    value: bool


@record
class CellRef:
    column: str
    row: int
    column_absolute: bool = False
    row_absolute: bool = False

    def canonical(self) -> str:
        """Relative uppercase form; grid lookups and operand identity use this."""
        return f"{self.column}{self.row}"


@record
class RangeRef:
    start: CellRef
    end: CellRef

    def canonical(self) -> str:
        return f"{self.start.canonical()}:{self.end.canonical()}"


@record
class FunctionCall:
    name: str
    args: "tuple[Node, ...]"


@record
class BinaryOp:
    op: str
    left: "Node"
    right: "Node"


@record
class UnaryOp:
    operand: "Node"
    op: str = "-"


Node = (NumberLiteral | TextLiteral | BooleanLiteral | CellRef | RangeRef
        | FunctionCall | BinaryOp | UnaryOp)


@record
class FormulaAst:
    root: Node


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def cell_ref(text: str) -> CellRef:
    """The cell named by text such as "c5", "$C$5" or " C05 "; rows start at 1.

    Results are cached and shared: CellRef is frozen, so equal text gives an
    equal, possibly identical, node. Anything but a str is no reference.
    """
    match = isinstance(text, str) and _CELL.fullmatch(text.strip())
    if match:
        col_mark, letters, row_mark, digits = match.groups()
        row = int(digits)
        if row:
            return CellRef(letters.upper(), row, bool(col_mark), bool(row_mark))
    raise ValueError(f"not a cell reference: {text!r}")


def make_range(a: CellRef, b: CellRef) -> RangeRef:
    """Build a range normalized so start is the top-left corner.

    Columns are ordered by index and rows by number, independently; absolute
    markers travel with the component they marked, and a tie moves none.
    """
    columns_in_order = column_index(a.column) <= column_index(b.column)
    rows_in_order = a.row <= b.row
    if columns_in_order and rows_in_order:
        return RangeRef(a, b)
    left, right = (a, b) if columns_in_order else (b, a)
    top, bottom = (a, b) if rows_in_order else (b, a)
    return RangeRef(
        CellRef(left.column, top.row, left.column_absolute, top.row_absolute),
        CellRef(right.column, bottom.row, right.column_absolute, bottom.row_absolute),
    )


def cells_in_range(ref: RangeRef) -> Iterator[str]:
    """Canonical cell names covered by a range, row-major, one at a time."""
    c0 = column_index(ref.start.column)
    c1 = column_index(ref.end.column)
    for row in range(ref.start.row, ref.end.row + 1):
        for col in range(c0, c1 + 1):
            yield f"{column_letters(col)}{row}"


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def number_text(value: float) -> str:
    """Canonical numeric literal: no trailing .0, never exponent notation.

    Exponent-form reprs are expanded digit for digit, so the text parses back
    to the same float however tiny or huge it is. Texts are cached: values
    that compare equal have equal texts (-0.0 and 0.0 give "0"; 1, 1.0 and
    True give "1"), and nan and inf raise, which a cache never stores.
    """
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(float(value))
    if "e" in text:
        import decimal

        text = format(decimal.Decimal(text), "f")
    return text


def token_text(node: Node) -> str:
    """Canonical text of a number, text or boolean literal.

    Rendering prints it, and metrics counts operand identity by it.
    """
    if isinstance(node, NumberLiteral):
        return number_text(node.value)
    if isinstance(node, TextLiteral):
        return '"' + node.value.replace('"', '""') + '"'
    if isinstance(node, BooleanLiteral):
        return "TRUE" if node.value else "FALSE"
    raise TypeError(f"not a formula literal: {node!r}")


def children(node: Node) -> "tuple[Node, ...]":
    """Direct sub-expressions of a node; empty for literals, cells and ranges."""
    if isinstance(node, FunctionCall):
        return node.args
    if isinstance(node, BinaryOp):
        return (node.left, node.right)
    if isinstance(node, UnaryOp):
        return (node.operand,)
    return ()


# Binding strength, loosest first. Comparisons chain below addition; unary
# minus binds tighter than the power operator. The parser and the renderer
# both read this table, and every binary operator associates left.
_COMPARE, _ADD, _MUL, _POW, _UNARY, _ATOM = 1, 2, 3, 4, 5, 6

BINARY_PRECEDENCE = {
    "<": _COMPARE, "<=": _COMPARE, ">": _COMPARE, ">=": _COMPARE,
    "=": _COMPARE, "<>": _COMPARE,
    "+": _ADD, "-": _ADD,
    "*": _MUL, "/": _MUL,
    "^": _POW,
}

# the meaning of each ordering comparator, for the evaluator and synthesis
ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _precedence(node: Node) -> int:
    if isinstance(node, BinaryOp):
        return BINARY_PRECEDENCE[node.op]
    if isinstance(node, UnaryOp):
        return _UNARY
    return _ATOM


def render(ast: FormulaAst) -> str:
    """Canonical source text for a tree, leading '=' included."""
    return "=" + _render(ast.root)


def _render(node: Node) -> str:
    if isinstance(node, (NumberLiteral, TextLiteral, BooleanLiteral)):
        return token_text(node)
    if isinstance(node, CellRef):
        col_mark = "$" if node.column_absolute else ""
        row_mark = "$" if node.row_absolute else ""
        return f"{col_mark}{node.column}{row_mark}{node.row}"
    if isinstance(node, RangeRef):
        return _render(node.start) + ":" + _render(node.end)
    if isinstance(node, FunctionCall):
        return node.name + "(" + ",".join(_render(a) for a in node.args) + ")"
    if isinstance(node, UnaryOp):
        return "-" + _wrap(node.operand, _UNARY, tight=False)
    if isinstance(node, BinaryOp):
        # walk the left side of a flat chain such as A1+A1+... in a loop; equal
        # precedence on the right needs parens, since all operators associate left
        parts = []
        while True:
            p = BINARY_PRECEDENCE[node.op]
            parts.append(node.op + _wrap(node.right, p, tight=True))
            node = node.left
            if not isinstance(node, BinaryOp) or _precedence(node) < p:
                break
        parts.append(_wrap(node, p, tight=False))
        return "".join(reversed(parts))
    raise TypeError(f"not a formula node: {node!r}")


def _wrap(node: Node, parent: int, tight: bool) -> str:
    p = _precedence(node)
    if p < parent or (tight and p == parent):
        return "(" + _render(node) + ")"
    return _render(node)
