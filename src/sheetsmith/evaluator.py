"""Formula evaluation over cell grids.

Values are plain Python floats, strings, and bools, plus EvalError for the
in-sheet error conditions. Errors are values, not exceptions: they propagate
through every operator and function unchanged. There is no implicit coercion
between types anywhere; a text cell fed to SUM is a TypeMismatch, not a zero.

Formulas are evaluated a block of grids at a time. The column compiler
walks a tree once and turns each node into a function from the block's cell
columns (one list per cell, one value per grid) to the node's column of
results, so a node runs once per block, not once per grid. A column carries
its kind: the one type all its values have, or None if not known to share one.
Every operator and function but IF splits in one place, _split: if its
arguments share a kind it needs (numbers for + - * and the aggregates,
numbers or text for comparisons, TRUE/FALSE for AND, OR and NOT), it works
on whole columns. Most nodes map a builtin over them. Every fold over
argument columns is reduce over one eager two-column step of _STEPS, so
many arguments never nest deep. MIN and MAX keep the later value only where
it is strictly smaller (larger), so a tie keeps the first, as min and max
do: MIN of 0 and -0 is 0. AND and OR step with & and |. SUM and AVERAGE
step '+' from a column of 0.0, as the scalar rule adds left to right from
0.0: SUM(-0) is 0, and a total is the same on every Python, where the
built-in sum rounds a total once from 3.12. The aggregate folds, with the
scalar rule where their overflow check fails, are aggregate_columns, which
synthesis uses too. One sum of a result column checks + - * and SUM/AVERAGE
for overflow: if it is not finite the node runs its scalar rule instead, so
a column of finite values whose sum overflows costs time, never a wrong
value. Without a shared kind, too, the node's scalar rule runs on each
grid, with the same error values. IF splits on its condition's kind alone;
no node raises, so IF computes both branches and picks one per grid. An IF
whose two branches are literals (a two-argument IF's else is FALSE) builds
no branch columns: one pass over a TRUE/FALSE condition picks either value.

This is the only evaluation path. evaluate runs it on a block of one grid;
validate_examples evaluates all its examples as one block, through
_validate, which synthesis calls on the examples' own float columns;
semantic_equivalence checks the grid cap and every domain value up front
(through _norm, as Grid reads them; an exact int takes one float call),
builds each block's cell columns straight from the value lists, compares the
two result columns in bulk (values_equal runs only where they differ in
value or type; when both columns have one kind, one != pass finds those
grids), and builds a Grid only for the witness it returns. The parser
rejects non-finite literals and Grid holds finite numbers only, so every
number a compiled formula reads is finite.
"""

from __future__ import annotations

import itertools
import operator
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, Set
from functools import partial, reduce
from math import isfinite, prod

from ._record import record
from .errors import (
    check_instance,
    DomainTooLargeError,
    EmptyExampleSetError,
    not_finite,
)
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

# grids semantic_equivalence evaluates at a time; bounds the memory a block's
# columns take, whatever the domain size
EQUIVALENCE_BLOCK = 4096


@record
class EvalError:
    kind: str
    message: str


Value = float | str | bool | EvalError


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
    if isinstance(value, float) and isfinite(value):  # the most common value
        return float(value)
    if type(value) is int:  # a domain list's usual value
        try:
            return float(value)
        except OverflowError:  # not_finite below names it
            pass
    if isinstance(value, (bool, str, EvalError)):
        return value
    if not isinstance(value, (int, float)):
        raise TypeError(f"not a grid value: {value!r}")
    if (shown := not_finite(value)) is not None:
        raise ValueError(f"grid numbers must be finite, got {shown}")
    return float(value)


class Grid:
    """Read-only cell-to-value mapping. Absent cells read as MissingCell."""

    def __init__(self, cells: Mapping[str, Value] | None = None):
        if cells is None:
            cells = {}
        elif not isinstance(cells, Mapping):
            raise TypeError(f"cells must be a mapping of cells to values, got {cells!r}")
        self._cells = dict(zip(_canonical_names(cells), map(_norm, cells.values())))

    def lookup(self, ref: str) -> Value:
        name = canonical_ref(ref)
        return self._cells[name] if name in self._cells else _missing(name)

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
    check_instance("ast", ast, FormulaAst)
    check_instance("grid", grid, Grid)
    # a block of one grid
    return _compile(ast.root)(_columns((grid._cells,)), 1)[1][0]


# A column is a block's values with their kind: the one type every value has,
# or None if not known to share one. Fast paths fire only on an exact kind.
Column = tuple[type | None, list]
ColumnFn = Callable[[Mapping[str, Column], int], Column]


def _column(values: list) -> Column:
    kinds = set(map(type, values))
    return (kinds.pop() if len(kinds) == 1 else None), values


def _missing(name: str) -> EvalError:
    return EvalError(MISSING_CELL, f"cell {name} is empty")


def _columns(rows: Sequence[Mapping[str, Value]]) -> dict:
    """A column per cell any {canonical ref: value} row holds; a row without
    the cell holds its MissingCell."""
    columns = {}
    for name in set().union(*rows):
        missing = _missing(name)
        columns[name] = _column([row.get(name, missing) for row in rows])
    return columns


def _split(args: list[Column], n: int, fast, rule) -> Column:
    """A node's column over n grids: fast(the kind args share or None, their
    value lists) maps a builtin over whole columns, or returns None, and then
    rule runs on each grid's values."""
    kinds = {kind for kind, _ in args}
    lists = [values for _, values in args]
    column = fast(kinds.pop() if len(kinds) == 1 else None, lists)
    if column is not None:
        return column
    rows = zip(*lists) if lists else itertools.repeat((), n)
    return _column(list(itertools.starmap(rule, rows)))


_LITERALS = (NumberLiteral, TextLiteral, BooleanLiteral)


def _literal(node: Node) -> Value:
    return float(node.value) if isinstance(node, NumberLiteral) else node.value


def _compile(node: Node) -> ColumnFn:
    if isinstance(node, _LITERALS):
        return _repeat(_literal(node))
    if isinstance(node, CellRef):
        return _read(node.canonical())
    if isinstance(node, RangeRef):
        return _repeat(
            EvalError(TYPE_MISMATCH, "range used outside an aggregate function")
        )
    if isinstance(node, UnaryOp):
        return _typed([_compile(node.operand)], float,
                      lambda lists: list(map(operator.neg, *lists)), operator.neg,
                      "unary '-' needs a number")
    if isinstance(node, BinaryOp):
        return _chain(node)
    if isinstance(node, FunctionCall):
        if node.name in AGGREGATE_FUNCTIONS:
            return _aggregate_call(node)
        if node.name == "IF":
            return _if(*node.args)
        args = [_compile(arg) for arg in node.args]
        if node.name == "NOT":
            return _typed(args, bool, lambda lists: list(map(operator.not_, *lists)),
                          operator.not_, "NOT needs TRUE or FALSE")
        test = all if node.name == "AND" else any
        return _typed(args, bool, partial(reduce, _STEPS[node.name]),
                      lambda *values: test(values),
                      f"{node.name} needs TRUE/FALSE arguments")
    raise TypeError(f"not a formula node: {node!r}")


def _repeat(value: Value) -> ColumnFn:
    kind = type(value)
    return lambda columns, n: (kind, [value] * n)


def _read(name: str) -> ColumnFn:
    def read(columns, n):
        column = columns.get(name)
        return (EvalError, [_missing(name)] * n) if column is None else column

    return read


def _typed(args: list[ColumnFn], accepts: type, whole, apply, message: str) -> ColumnFn:
    """Unary '-', NOT, AND or OR: whole(value lists) as a list over columns
    of kind accepts; else, per grid, the first error value, or a TypeMismatch
    unless every value is of kind accepts, or apply(*values)."""

    def fast(kind, lists):
        return (kind, whole(lists)) if kind is accepts else None

    def rule(*values):
        for value in values:
            if isinstance(value, EvalError):
                return value
        for value in values:
            if not isinstance(value, accepts):
                return EvalError(TYPE_MISMATCH, message)
        return apply(*values)

    return lambda columns, n: _split([arg(columns, n) for arg in args], n, fast, rule)


def _chain(node: BinaryOp) -> ColumnFn:
    # a flat chain such as A1+A1+... is one loop over its (operator, right
    # operand) pairs, so neither compiling nor running it recurses per term
    spine = []
    while isinstance(node, BinaryOp):
        spine.append(node)
        node = node.left
    first = _compile(node)
    steps = [(_combine(step.op), partial(_binary, step.op), _compile(step.right))
             for step in reversed(spine)]

    def chain(columns, n):
        left = first(columns, n)
        for fast, rule, right in steps:
            left = _split([left, right(columns, n)], n, fast, rule)
        return left

    return chain


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": operator.pow}
_EQUALITY = {"=": operator.eq, "<>": operator.ne}


def _combine(op: str):
    """op's fast function: its builtin over two columns of a kind it takes."""

    def combine(kind, lists):
        if kind is float and op in ("+", "-", "*"):  # '/' and '^' can raise
            out = list(map(_ARITHMETIC[op], *lists))
            # an overflow leaves the fast path: the scalar rule makes it an error
            if isfinite(sum(out)):
                return float, out
        elif op in ORDERING and kind in (float, str):
            return bool, list(map(ORDERING[op], *lists))
        elif op in _EQUALITY and kind in (float, str, bool):
            return bool, list(map(_EQUALITY[op], *lists))
        return None

    return combine


def _binary(op: str, left: Value, right: Value) -> Value:
    # left operands go first, and the first error value ends a chain
    if isinstance(left, EvalError):
        return left
    if isinstance(right, EvalError):
        return right
    if op in _ARITHMETIC:
        if not (isinstance(left, float) and isinstance(right, float)):
            return EvalError(TYPE_MISMATCH, f"'{op}' needs numeric operands")
        try:
            result = _ARITHMETIC[op](left, right)
        except ZeroDivisionError:
            if op == "/":
                return EvalError(DIVIDE_BY_ZERO, "division by zero")
            return EvalError(DIVIDE_BY_ZERO, "zero raised to a negative power")
        except OverflowError:  # only '^' raises it; the others give inf
            return EvalError(TYPE_MISMATCH, "power result out of range")
        if isinstance(result, complex):
            return EvalError(TYPE_MISMATCH, "fractional power of a negative number")
        # grids hold finite numbers only, so a non-finite result is an
        # overflow: an error value, never a number
        if not isfinite(result):
            return EvalError(TYPE_MISMATCH, f"'{op}' result out of range")
        return result

    # comparison; same-type only, and TRUE/FALSE have no order
    if op in ORDERING and (isinstance(left, bool) or isinstance(right, bool)):
        return EvalError(TYPE_MISMATCH, f"'{op}' cannot order TRUE/FALSE")
    if (isinstance(left, bool) != isinstance(right, bool)
            or isinstance(left, str) != isinstance(right, str)):
        return EvalError(TYPE_MISMATCH, f"'{op}' across different types")
    return (_EQUALITY.get(op) or ORDERING[op])(left, right)


def _if(condition: Node, then: Node,
        otherwise: Node = BooleanLiteral(False)) -> ColumnFn:
    # a two-argument IF has an else of FALSE
    test = _compile(condition)
    if isinstance(then, _LITERALS) and isinstance(otherwise, _LITERALS):
        return _pick(test, _literal(then), _literal(otherwise))
    return _branch(test, _compile(then), _compile(otherwise))


def _pick(condition: ColumnFn, x: Value, y: Value) -> ColumnFn:
    # both branches are literals: one pass over a TRUE/FALSE condition picks
    # x or y, with no branch columns to build
    kind = type(x) if type(x) is type(y) else None

    def pick(columns, n):
        test_kind, tests = condition(columns, n)
        if test_kind is not bool:
            return _column([_if_value(test, x, y) for test in tests])
        values = [x if test else y for test in tests]
        return (kind, values) if kind is not None else _column(values)

    return pick


def _branch(condition: ColumnFn, then: ColumnFn, otherwise: ColumnFn) -> ColumnFn:
    # no node raises, so both branches can be computed and picked per grid
    def branch(columns, n):
        kind, tests = condition(columns, n)
        then_kind, a = then(columns, n)
        else_kind, b = otherwise(columns, n)
        if kind is bool:
            values = [x if test else y for test, x, y in zip(tests, a, b)]
            if then_kind is else_kind and then_kind is not None:
                return then_kind, values
            return _column(values)
        return _column(list(map(_if_value, tests, a, b)))

    return branch


def _if_value(test: Value, then: Value, otherwise: Value) -> Value:
    if test is True:
        return then
    if test is False:
        return otherwise
    if isinstance(test, EvalError):
        return test
    return EvalError(TYPE_MISMATCH, "IF condition must be TRUE or FALSE")


# Every fold over argument columns is reduce over one of these steps: each
# takes the running column's values and the next column's and returns a new
# list in one eager pass, since lazy maps chained one per argument would nest
# that deep on the C stack. MIN and MAX compare strictly, so a tie keeps the
# earlier value, as min and max do.
_STEPS = {
    "MIN": lambda xs, ys: [y if y < x else x for x, y in zip(xs, ys)],
    "MAX": lambda xs, ys: [y if y > x else x for x, y in zip(xs, ys)],
    "SUM": lambda xs, ys: list(map(operator.add, xs, ys)),
    "AND": lambda xs, ys: list(map(operator.and_, xs, ys)),
    "OR": lambda xs, ys: list(map(operator.or_, xs, ys)),
}


def aggregate_columns(name: str, lists: Sequence[list[float]]) -> Column:
    """MIN, MAX, SUM or AVERAGE of one or more columns of floats, as a
    column: per grid what aggregate returns for that grid's values.

    MIN and MAX reduce the columns with their _STEPS entry. SUM and AVERAGE
    reduce them with the SUM step from a column of 0.0, left to right, as
    aggregate adds, so SUM(-0) is 0 and a total is the same on every Python.
    One sum of the result column checks SUM and AVERAGE for overflow; where
    it is not finite, which a column of finite totals can cause too,
    aggregate runs on each grid instead, and a grid whose total overflows
    holds its error value.
    """
    if name in ("MIN", "MAX"):
        return float, reduce(_STEPS[name], lists)
    totals = reduce(_STEPS["SUM"], lists, [0.0] * len(lists[0]))
    if name == "AVERAGE":
        totals = [total / len(lists) for total in totals]
    if isfinite(sum(totals)):
        return float, totals
    return _column([aggregate(name, row) for row in zip(*lists)])


def _aggregate_call(node: FunctionCall) -> ColumnFn:
    # MIN / MAX / AVERAGE / SUM over flattened arguments; a range is one
    # argument per cell, read row-major and named for its error message
    name = node.name
    parts = [arg if isinstance(arg, RangeRef) else _compile(arg) for arg in node.args]

    def fast(kind, lists):
        return aggregate_columns(name, lists) if kind is float else None

    def run(columns, n):
        args, refs = [], []

        def rule(*values):
            return _aggregate_value(name, refs, values)

        for part in parts:
            if not isinstance(part, RangeRef):
                args.append(part(columns, n))
                refs.append(None)
                continue
            # a range's cells are walked up to the first one no grid holds:
            # each grid's value is an error at or before it, so no later
            # argument can change it, however large the range
            for ref in cells_in_range(part):
                args.append(_read(ref)(columns, n))
                refs.append(ref)
                if ref not in columns:
                    return _split(args, n, fast, rule)
        return _split(args, n, fast, rule)

    return run


def _aggregate_value(name: str, refs: list, values: tuple) -> Value:
    numbers = []
    for ref, value in zip(refs, values):
        if isinstance(value, float):
            numbers.append(value)
        elif isinstance(value, EvalError):
            return value
        elif ref is None:
            return EvalError(TYPE_MISMATCH, f"{name} needs numeric arguments")
        else:
            return EvalError(TYPE_MISMATCH, f"{name} over non-numeric cell {ref}")
    return aggregate(name, numbers)


def aggregate(name: str, numbers: Sequence[float]) -> Value:
    """A formula's MIN, MAX, AVERAGE or SUM; no numbers or an overflow is an error."""
    if not numbers:
        return EvalError(EMPTY_AGGREGATE, f"{name} of zero values")
    if name == "MIN":
        return min(numbers)
    if name == "MAX":
        return max(numbers)
    # left to right from 0.0, as aggregate_columns adds: one total on every Python
    total = reduce(operator.add, numbers, 0.0)
    if not isfinite(total):
        return EvalError(TYPE_MISMATCH, f"{name} result out of range")
    return total if name == "SUM" else total / len(numbers)


def values_equal(a: Value, b: Value) -> bool:
    """Output comparison: two numbers within 1e-9, two errors by kind, two
    TRUE/FALSE values or two texts exactly; values of two kinds never match."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= NUMERIC_TOLERANCE
    if isinstance(a, EvalError) and isinstance(b, EvalError):
        return a.kind == b.kind
    return isinstance(a, (bool, str)) and isinstance(b, (bool, str)) and a == b


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
    check_instance("ast", ast, FormulaAst)
    if not examples:
        raise EmptyExampleSetError("no examples to validate against")
    rows, expected = [], []
    for index, (grid, value) in enumerate(examples):
        if not isinstance(grid, Grid):
            raise TypeError(f"the grid of example {index} must be a Grid, got {grid!r}")
        rows.append(grid._cells)
        expected.append(_norm(value))
    return _validate(ast, _columns(rows), expected)


def _validate(
    ast: FormulaAst, columns: Mapping[str, Column], expected: Sequence[Value]
) -> ValidationReport:
    """validate_examples on a block given as its cell columns, one value per
    example, and the expected grid values."""
    _, actual = _compile(ast.root)(columns, len(expected))
    outcomes = tuple(
        ExampleOutcome(index, want, got, values_equal(got, want))
        for index, (want, got) in enumerate(zip(expected, actual))
    )
    passes = sum(outcome.passed for outcome in outcomes)
    return ValidationReport(outcomes, passes, len(expected))


def referenced_cells(ast: FormulaAst) -> set[str]:
    """Canonical names of every cell the formula can read."""
    check_instance("ast", ast, FormulaAst)
    return set(_cells_read(ast))


def _cells_read(ast: FormulaAst) -> Iterator[str]:
    """Canonical names of the cells a formula reads, one at a time: its
    references left to right, each range's cells row-major."""
    stack = [ast.root]
    while stack:
        node = stack.pop()
        if isinstance(node, CellRef):
            yield node.canonical()
        elif isinstance(node, RangeRef):
            yield from cells_in_range(node)
        else:
            stack.extend(reversed(children(node)))


def semantic_equivalence(
    a: FormulaAst,
    b: FormulaAst,
    domain: Mapping[str, Sequence[Value]],
) -> tuple[bool, Grid | None]:
    """Compare two formulas on every grid of a finite domain.

    ``domain`` maps cell references to candidate values, each cell's in an
    ordered list or iterable (a str, bytes, set or mapping is a TypeError);
    the grids enumerated are the full cartesian product, first cell varying
    slowest. Returns (True, None) when outputs match everywhere under
    values_equal, else (False, first differing grid). The grid count is checked against
    DEFAULT_GRID_CAP before any sized value list is copied, and every domain
    value is checked as a grid value before any grid is enumerated.
    """
    check_instance("a", a, FormulaAst)
    check_instance("b", b, FormulaAst)
    if not isinstance(domain, Mapping):
        raise TypeError(f"domain must be a mapping of cells to values, got {domain!r}")
    names = _canonical_names(domain.keys())
    for name, values in zip(names, domain.values()):
        # iterating a str or bytes would give its characters, a set its own
        # order and a mapping its keys
        if isinstance(values, (str, bytes, Set, Mapping)):
            raise TypeError(
                f"domain values of cell {name} must be a list, got {values!r}"
            )
    value_lists = [values if hasattr(values, "__len__") else list(values)
                   for values in domain.values()]
    try:
        total = prod(map(len, value_lists))
    except OverflowError:
        # len() of a range longer than sys.maxsize
        raise DomainTooLargeError(
            f"domain has a cell of more than {sys.maxsize} values, "
            f"cap is {DEFAULT_GRID_CAP} grids"
        ) from None
    if total > DEFAULT_GRID_CAP:
        raise DomainTooLargeError(
            f"domain enumerates {total} grids, cap is {DEFAULT_GRID_CAP}"
        )
    cells = [_column([_norm(value) for value in values]) for values in value_lists]
    # the first cell the domain lacks is named; a range is walked no further
    # than it, however large
    covered = set(names)
    for name in itertools.chain(_cells_read(a), _cells_read(b)):
        if name not in covered:
            raise ValueError(f"domain does not cover cell {name}")
    run_a, run_b = _compile(a.root), _compile(b.root)
    # a cell's column, in enumeration order, is each of its values repeated
    # once per grid of the later cells, cycled; its kind is its whole list's
    streams, stride = [], 1
    for kind, values in reversed(cells):
        stream = itertools.cycle(values)
        if stride > 1:
            runs = map(itertools.repeat, stream, itertools.repeat(stride))
            stream = itertools.chain.from_iterable(runs)
        streams.insert(0, (kind, stream))
        stride *= len(values)
    for start in range(0, total, EQUIVALENCE_BLOCK):
        n = min(EQUIVALENCE_BLOCK, total - start)
        columns = {name: (kind, list(itertools.islice(stream, n)))
                   for name, (kind, stream) in zip(names, streams)}
        kind_a, va = run_a(columns, n)
        kind_b, vb = run_b(columns, n)
        one_kind = kind_a is kind_b and kind_a is not None
        # == alone is not agreement: True == 1.0, so the types must match too
        if va == vb and (one_kind or list(map(type, va)) == list(map(type, vb))):
            continue
        if one_kind:
            # every value has one type, so != alone finds each grid where
            # values_equal can fail
            suspects = map(operator.ne, va, vb)
        else:
            suspects = map(operator.or_, map(operator.ne, va, vb),
                           map(operator.is_not, map(type, va), map(type, vb)))
        for i in itertools.compress(range(n), suspects):
            if not values_equal(va[i], vb[i]):
                witness = {name: values[i] for name, (_, values) in columns.items()}
                return False, Grid(witness)
    return True, None
