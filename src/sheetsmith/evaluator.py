"""Formula evaluation over cell grids.

Values are plain Python floats, strings, and bools, plus EvalError for the
in-sheet error conditions. Errors are values, not exceptions: they propagate
through every operator and function unchanged. There is no implicit coercion
between types anywhere; a text cell fed to SUM is a TypeMismatch, not a zero.

compile_formula walks a tree once and returns closures that read a
{canonical ref: value} dict; it is the only evaluation path. evaluate and
validate_examples compile once per call, and semantic_equivalence compiles
both formulas once, checks every domain value up front, and builds a Grid
only for the witness it returns. The parser rejects non-finite literals, so
every number a compiled formula reads is finite.
"""

from __future__ import annotations

import itertools
import operator
from math import isfinite
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from ._record import record
from .errors import DomainTooLargeError, EmptyExampleSetError
from .formulas import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    BooleanLiteral,
    cell_ref,
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


@record
class EvalError:
    kind: str
    message: str


Value = Union[float, str, bool, EvalError]


def canonical_ref(text: str) -> str:
    """Uppercase relative form of a cell reference string."""
    return cell_ref(text).canonical()


def _canonical_names(refs: Iterable[str]) -> list[str]:
    """Each cell reference in canonical form; ValueError if two name one cell."""
    names = [canonical_ref(ref) for ref in refs]
    if len(set(names)) < len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"cell {repeated} is named more than once")
    return names


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
        cells = cells or {}
        self._cells = dict(zip(_canonical_names(cells), map(_norm, cells.values())))

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
    return compile_formula(ast)(grid._cells)


Compiled = Callable[[Mapping[str, Value]], Value]


def compile_formula(ast: FormulaAst) -> Compiled:
    """Turn a formula into a function of a {canonical ref: value} dict.

    The tree is walked once; calling the result runs only the closures built
    here. Cell values must be grid values (see Grid), and an absent cell
    reads as MissingCell.
    """
    return _compile(ast.root)


def _constant(value: Value) -> Compiled:
    return lambda cells: value


def _compile(node: Node) -> Compiled:
    if isinstance(node, NumberLiteral):
        return _constant(float(node.value))
    if isinstance(node, (TextLiteral, BooleanLiteral)):
        return _constant(node.value)
    if isinstance(node, CellRef):
        name = node.canonical()
        missing = EvalError(MISSING_CELL, f"cell {name} is empty")
        return lambda cells: cells.get(name, missing)
    if isinstance(node, RangeRef):
        return _constant(
            EvalError(TYPE_MISMATCH, "range used outside an aggregate function")
        )
    if isinstance(node, UnaryOp):
        return _compile_unary(
            _compile(node.operand), float, operator.neg, "unary '-' needs a number"
        )
    if isinstance(node, BinaryOp):
        return _compile_chain(node)
    if isinstance(node, FunctionCall):
        if node.name in AGGREGATE_FUNCTIONS:
            return _compile_aggregate(node)
        args = [_compile(arg) for arg in node.args]
        if node.name == "IF":
            return _compile_if(*args)
        if node.name == "NOT":
            return _compile_unary(*args, bool, operator.not_, "NOT needs TRUE or FALSE")
        return _compile_logical(node.name, args)
    raise TypeError(f"not a formula node: {node!r}")


def _compile_unary(operand: Compiled, accepts: type, apply, message: str) -> Compiled:
    def unary(cells):
        value = operand(cells)
        if isinstance(value, accepts):
            return apply(value)
        if isinstance(value, EvalError):
            return value
        return EvalError(TYPE_MISMATCH, message)

    return unary


def _compile_chain(node: BinaryOp) -> Compiled:
    # a flat chain such as A1+A1+... is one closure looping over its
    # (operator, right operand) pairs, so neither compiling nor running it
    # recurses per term; left operands go first, and the first error value
    # ends the chain
    spine = []
    while isinstance(node, BinaryOp):
        spine.append(node)
        node = node.left
    first = _compile(node)
    steps = [(step.op, _compile(step.right)) for step in reversed(spine)]

    def chain(cells):
        value = first(cells)
        for op, right in steps:
            if isinstance(value, EvalError):
                return value
            operand = right(cells)
            if isinstance(operand, EvalError):
                return operand
            value = _binary(op, value, operand)
        return value

    return chain


def _binary(op: str, left: Value, right: Value) -> Value:
    if op in ("+", "-", "*", "/", "^"):
        if not (isinstance(left, float) and isinstance(right, float)):
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


def _compile_if(condition: Compiled, then: Compiled,
                otherwise: Compiled = _constant(False)) -> Compiled:
    def branch(cells):
        value = condition(cells)
        if value is True:
            return then(cells)
        if value is False:
            return otherwise(cells)
        if isinstance(value, EvalError):
            return value
        return EvalError(TYPE_MISMATCH, "IF condition must be TRUE or FALSE")

    return branch


def _compile_logical(name: str, args: list[Compiled]) -> Compiled:
    reduce = all if name == "AND" else any

    def logical(cells):
        # every argument is evaluated before any is type-checked
        values = []
        for arg in args:
            value = arg(cells)
            if isinstance(value, EvalError):
                return value
            values.append(value)
        for value in values:
            if not isinstance(value, bool):
                return EvalError(TYPE_MISMATCH, f"{name} needs TRUE/FALSE arguments")
        return reduce(values)

    return logical


def _compile_aggregate(node: FunctionCall) -> Compiled:
    # MIN / MAX / AVERAGE / SUM over flattened arguments; a range is kept as
    # its cell names, read row-major
    name = node.name
    args = [
        cells_in_range(arg) if isinstance(arg, RangeRef) else _compile(arg)
        for arg in node.args
    ]

    def call(cells):
        numbers = []
        for arg in args:
            if isinstance(arg, list):
                for ref in arg:
                    value = cells.get(ref)
                    if isinstance(value, float):
                        numbers.append(value)
                    elif value is None:
                        return EvalError(MISSING_CELL, f"cell {ref} is empty")
                    elif isinstance(value, EvalError):
                        return value
                    else:
                        return EvalError(
                            TYPE_MISMATCH, f"{name} over non-numeric cell {ref}"
                        )
            else:
                value = arg(cells)
                if isinstance(value, float):
                    numbers.append(value)
                elif isinstance(value, EvalError):
                    return value
                else:
                    return EvalError(TYPE_MISMATCH, f"{name} needs numeric arguments")
        return aggregate(name, numbers)

    return call


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
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= tolerance
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return False


@record
class ExampleOutcome:
    index: int
    expected: Value
    actual: Value
    passed: bool


@record
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
    run = compile_formula(ast)
    outcomes = []
    passes = 0
    for index, (grid, expected) in enumerate(examples):
        expected = _norm(expected)
        actual = run(grid._cells)
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
    (False, first differing grid). Every domain value is checked as a grid
    value before any grid is enumerated.
    """
    names = _canonical_names(domain.keys())
    value_lists = [list(values) for values in domain.values()]
    total = 1
    for values in value_lists:
        total *= len(values)
    if total > max_grids:
        raise DomainTooLargeError(
            f"domain enumerates {total} grids, cap is {max_grids}"
        )
    value_lists = [[_norm(value) for value in values] for values in value_lists]
    uncovered = (referenced_cells(a) | referenced_cells(b)) - set(names)
    if uncovered:
        raise ValueError(f"domain does not cover cells: {sorted(uncovered)}")
    run_a, run_b = compile_formula(a), compile_formula(b)
    for combo in itertools.product(*value_lists):
        cells = dict(zip(names, combo))
        if not values_equal(run_a(cells), run_b(cells)):
            return False, Grid(cells)
    return True, None
