"""Formula evaluation over cell grids.

Values are plain Python floats, strings, and bools, plus EvalError for the
in-sheet error conditions. Errors are values, not exceptions: they propagate
through every operator and function unchanged. There is no implicit coercion
between types anywhere; a text cell fed to SUM is a TypeMismatch, not a zero.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import isfinite
from typing import Mapping, Optional, Sequence, Union

from .errors import DomainTooLargeError, EmptyExampleSetError
from .formulas import (
    BinaryOp,
    BooleanLiteral,
    CellRef,
    cells_in_range,
    children,
    FormulaAst,
    FunctionCall,
    Node,
    NumberLiteral,
    ORDERING,
    RangeRef,
    TextLiteral,
    UnaryOp,
)

TYPE_MISMATCH = "TypeMismatch"
MISSING_CELL = "MissingCell"
EMPTY_AGGREGATE = "EmptyAggregate"
DIVIDE_BY_ZERO = "DivideByZero"

NUMERIC_TOLERANCE = 1e-9

DEFAULT_GRID_CAP = 1_000_000


@dataclass(frozen=True)
class EvalError:
    kind: str
    message: str


Value = Union[float, str, bool, EvalError]

_REF_RE = re.compile(r"^\$?([A-Za-z]+)\$?(\d+)$")


def canonical_ref(text: str) -> str:
    """Uppercase relative form of a cell reference string."""
    match = _REF_RE.match(text.strip())
    if match is None or int(match.group(2)) == 0:
        raise ValueError(f"not a cell reference: {text!r}")
    return match.group(1).upper() + str(int(match.group(2)))


def _norm(value) -> Value:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"grid numbers must be finite, got {value!r}")
        return value
    if isinstance(value, (str, EvalError)):
        return value
    raise TypeError(f"not a grid value: {value!r}")


class Grid:
    """Read-only cell-to-value mapping. Absent cells read as MissingCell."""

    def __init__(self, cells: Optional[Mapping[str, Value]] = None):
        self._cells = {}
        for ref, value in (cells or {}).items():
            self._cells[canonical_ref(ref)] = _norm(value)

    def lookup(self, ref: str) -> Value:
        if ref in self._cells:
            return self._cells[ref]
        canonical = canonical_ref(ref)
        if canonical in self._cells:
            return self._cells[canonical]
        return EvalError(MISSING_CELL, f"cell {canonical} is empty")

    def cells(self) -> dict[str, Value]:
        return dict(self._cells)

    def __contains__(self, ref: str) -> bool:
        return canonical_ref(ref) in self._cells

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self._cells == other._cells

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(self._cells.items()))
        return f"Grid({{{inner}}})"


def evaluate(ast: FormulaAst, grid: Grid) -> Value:
    """Evaluate a formula against a grid, returning a value or an EvalError."""
    return _eval(ast.root, grid)


def _is_number(value) -> bool:
    return isinstance(value, float)


def _eval(node: Node, grid: Grid) -> Value:
    if isinstance(node, NumberLiteral):
        return float(node.value)
    if isinstance(node, TextLiteral):
        return node.value
    if isinstance(node, BooleanLiteral):
        return node.value
    if isinstance(node, CellRef):
        return grid.lookup(node.canonical())
    if isinstance(node, RangeRef):
        return EvalError(TYPE_MISMATCH, "range used outside an aggregate function")
    if isinstance(node, UnaryOp):
        value = _eval(node.operand, grid)
        if isinstance(value, EvalError):
            return value
        if not _is_number(value):
            return EvalError(TYPE_MISMATCH, "unary '-' needs a number")
        return -value
    if isinstance(node, BinaryOp):
        return _eval_binary(node, grid)
    if isinstance(node, FunctionCall):
        return _eval_call(node, grid)
    raise TypeError(f"not a formula node: {node!r}")


def _eval_binary(node: BinaryOp, grid: Grid) -> Value:
    # walk the left side of a flat chain such as A1+A1+... in a loop; left
    # operands still go first, and the first error value ends the chain
    spine = []
    while isinstance(node, BinaryOp):
        spine.append(node)
        node = node.left
    value = _eval(node, grid)
    for node in reversed(spine):
        if isinstance(value, EvalError):
            return value
        right = _eval(node.right, grid)
        if isinstance(right, EvalError):
            return right
        value = _binary(node.op, value, right)
    return value


def _binary(op: str, left: Value, right: Value) -> Value:
    if op in ("+", "-", "*", "/", "^"):
        if not (_is_number(left) and _is_number(right)):
            return EvalError(TYPE_MISMATCH, f"'{op}' needs numeric operands")
        if op == "+":
            result = left + right
        elif op == "-":
            result = left - right
        elif op == "*":
            result = left * right
        elif op == "/":
            if right == 0:
                return EvalError(DIVIDE_BY_ZERO, "division by zero")
            result = left / right
        else:
            try:
                result = left ** right
            except ZeroDivisionError:
                return EvalError(DIVIDE_BY_ZERO, "zero raised to a negative power")
            except OverflowError:
                return EvalError(TYPE_MISMATCH, "power result out of range")
            if isinstance(result, complex):
                return EvalError(TYPE_MISMATCH, "fractional power of a negative number")
        # grids hold finite numbers only, so a non-finite result is an
        # overflow: an error value, never a number
        if not isfinite(result):
            return EvalError(TYPE_MISMATCH, f"'{op}' result out of range")
        return result

    # comparison; same-type only
    if op in ("=", "<>"):
        if isinstance(left, bool) != isinstance(right, bool):
            return EvalError(TYPE_MISMATCH, "'=' across different types")
        if isinstance(left, str) != isinstance(right, str):
            return EvalError(TYPE_MISMATCH, f"'{op}' across different types")
        return (left == right) == (op == "=")

    if isinstance(left, bool) or isinstance(right, bool):
        return EvalError(TYPE_MISMATCH, f"'{op}' cannot order TRUE/FALSE")
    if isinstance(left, str) != isinstance(right, str):
        return EvalError(TYPE_MISMATCH, f"'{op}' across different types")
    return ORDERING[op](left, right)


def _eval_call(node: FunctionCall, grid: Grid) -> Value:
    name = node.name

    if name == "IF":
        condition = _eval(node.args[0], grid)
        if isinstance(condition, EvalError):
            return condition
        if not isinstance(condition, bool):
            return EvalError(TYPE_MISMATCH, "IF condition must be TRUE or FALSE")
        if condition:
            return _eval(node.args[1], grid)
        if len(node.args) == 3:
            return _eval(node.args[2], grid)
        return False

    if name in ("AND", "OR"):
        values = []
        for arg in node.args:
            value = _eval(arg, grid)
            if isinstance(value, EvalError):
                return value
            values.append(value)
        for value in values:
            if not isinstance(value, bool):
                return EvalError(TYPE_MISMATCH, f"{name} needs TRUE/FALSE arguments")
        return all(values) if name == "AND" else any(values)

    if name == "NOT":
        value = _eval(node.args[0], grid)
        if isinstance(value, EvalError):
            return value
        if not isinstance(value, bool):
            return EvalError(TYPE_MISMATCH, "NOT needs TRUE or FALSE")
        return not value

    # MIN / MAX / AVERAGE / SUM over flattened arguments
    numbers = []
    for arg in node.args:
        if isinstance(arg, RangeRef):
            for ref in cells_in_range(arg):
                value = grid.lookup(ref)
                if isinstance(value, EvalError):
                    return value
                if not _is_number(value):
                    return EvalError(
                        TYPE_MISMATCH, f"{name} over non-numeric cell {ref}"
                    )
                numbers.append(value)
        else:
            value = _eval(arg, grid)
            if isinstance(value, EvalError):
                return value
            if not _is_number(value):
                return EvalError(TYPE_MISMATCH, f"{name} needs numeric arguments")
            numbers.append(value)
    return aggregate(name, numbers)


def aggregate(name: str, numbers: Sequence[float]) -> Value:
    """A formula's MIN, MAX, AVERAGE or SUM; no numbers or an overflow is an error."""
    if not numbers:
        return EvalError(EMPTY_AGGREGATE, f"{name} of zero values")
    if name == "MIN":
        return min(numbers)
    if name == "MAX":
        return max(numbers)
    total = float(sum(numbers))
    if not isfinite(total):
        return EvalError(TYPE_MISMATCH, f"{name} result out of range")
    return total if name == "SUM" else total / len(numbers)


def values_equal(a: Value, b: Value, tolerance: float = NUMERIC_TOLERANCE) -> bool:
    """Output comparison: numbers within tolerance, text exact, errors by kind."""
    if isinstance(a, EvalError) or isinstance(b, EvalError):
        return (
            isinstance(a, EvalError)
            and isinstance(b, EvalError)
            and a.kind == b.kind
        )
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if _is_number(a) and _is_number(b):
        return abs(a - b) <= tolerance
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return False


@dataclass(frozen=True)
class ExampleOutcome:
    index: int
    expected: Value
    actual: Value
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    outcomes: tuple[ExampleOutcome, ...]
    passes: int
    total: int

    @property
    def all_passed(self) -> bool:
        return self.passes == self.total


def validate_examples(
    ast: FormulaAst, examples: Sequence[tuple[Grid, Value]]
) -> ValidationReport:
    """Evaluate a formula against (grid, expected) pairs, preserving order."""
    if not examples:
        raise EmptyExampleSetError("no examples to validate against")
    outcomes = []
    passes = 0
    for index, (grid, expected) in enumerate(examples):
        expected = _norm(expected)
        actual = evaluate(ast, grid)
        passed = values_equal(actual, expected)
        passes += passed
        outcomes.append(ExampleOutcome(index, expected, actual, passed))
    return ValidationReport(tuple(outcomes), passes, len(examples))


def referenced_cells(ast: FormulaAst) -> set[str]:
    """Canonical names of every cell the formula can read."""
    cells: set[str] = set()
    stack = [ast.root]
    while stack:
        node = stack.pop()
        if isinstance(node, CellRef):
            cells.add(node.canonical())
        elif isinstance(node, RangeRef):
            cells.update(cells_in_range(node))
        else:
            stack.extend(children(node))
    return cells


def semantic_equivalence(
    a: FormulaAst,
    b: FormulaAst,
    domain: Mapping[str, Sequence[Value]],
    max_grids: int = DEFAULT_GRID_CAP,
) -> tuple[bool, Optional[Grid]]:
    """Compare two formulas on every grid of a finite domain.

    ``domain`` maps cell references to candidate values; the grids enumerated
    are the full cartesian product, first cell varying slowest. Returns
    (True, None) when outputs match everywhere under values_equal, else
    (False, first differing grid).
    """
    names = [canonical_ref(name) for name in domain.keys()]
    value_lists = [list(values) for values in domain.values()]
    total = 1
    for values in value_lists:
        total *= len(values)
    if total > max_grids:
        raise DomainTooLargeError(
            f"domain enumerates {total} grids, cap is {max_grids}"
        )
    uncovered = (referenced_cells(a) | referenced_cells(b)) - set(names)
    if uncovered:
        raise ValueError(f"domain does not cover cells: {sorted(uncovered)}")
    for combo in itertools.product(*value_lists):
        grid = Grid(dict(zip(names, combo)))
        if not values_equal(evaluate(a, grid), evaluate(b, grid)):
            return False, grid
    return True, None
