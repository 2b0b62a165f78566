"""Reference evaluator used only by the tests.

Deliberately written with a different shape from the package evaluator:
errors are exceptions here instead of values, and dispatch is one long
function instead of per-node helpers. The independence lives in the
traversal and error plumbing; primitive arithmetic follows the same
left-to-right order so exact results coincide.
"""

from sheetsmith.formulas import (
    BinaryOp,
    BooleanLiteral,
    CellRef,
    cells_in_range,
    FormulaAst,
    FunctionCall,
    NumberLiteral,
    RangeRef,
    TextLiteral,
    UnaryOp,
)

AGGREGATES = ("MIN", "MAX", "AVERAGE", "SUM")


class Err(Exception):
    def __init__(self, kind):
        self.kind = kind
        super().__init__(kind)


def oracle_eval(ast: FormulaAst, cells: dict):
    """Value of the formula over a plain dict, or the Err it hit."""
    try:
        return _ev(ast.root, cells)
    except Err as exc:
        return exc


def _num(value):
    if not isinstance(value, float):
        raise Err("TypeMismatch")
    return value


def _bool(value):
    if not isinstance(value, bool):
        raise Err("TypeMismatch")
    return value


def _ev(node, cells):
    if isinstance(node, NumberLiteral):
        return float(node.value)
    if isinstance(node, TextLiteral):
        return node.value
    if isinstance(node, BooleanLiteral):
        return node.value
    if isinstance(node, CellRef):
        key = node.canonical()
        if key not in cells:
            raise Err("MissingCell")
        return cells[key]
    if isinstance(node, RangeRef):
        # a bare range is only meaningful inside an aggregate call
        raise Err("TypeMismatch")
    if isinstance(node, UnaryOp):
        return -_num(_ev(node.operand, cells))
    if isinstance(node, BinaryOp):
        return _binary(node, cells)
    if isinstance(node, FunctionCall):
        return _call(node, cells)
    raise AssertionError(f"unhandled node {node!r}")


def _binary(node, cells):
    left = _ev(node.left, cells)
    right = _ev(node.right, cells)
    op = node.op
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return _compare(op, left, right)
    return _finite(_arith(op, _num(left), _num(right)))


def _finite(number):
    # an arithmetic result that overflowed (or is nan) is an error value
    if number != number or abs(number) == float("inf"):
        raise Err("TypeMismatch")
    return number


def _arith(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0.0:
            raise Err("DivideByZero")
        return left / right
    if op == "^":
        try:
            result = left**right
        except ZeroDivisionError:
            raise Err("DivideByZero") from None
        except OverflowError:
            raise Err("TypeMismatch") from None
        if isinstance(result, complex):
            raise Err("TypeMismatch")
        return result
    raise AssertionError(f"unhandled operator {op}")


def _compare(op, left, right):
    if isinstance(left, bool) and isinstance(right, bool):
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        raise Err("TypeMismatch")
    if isinstance(left, bool) or isinstance(right, bool):
        raise Err("TypeMismatch")
    if type(left) is not type(right):
        raise Err("TypeMismatch")
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _call(node, cells):
    name = node.name
    if name == "IF":
        condition = _bool(_ev(node.args[0], cells))
        if condition:
            return _ev(node.args[1], cells)
        if len(node.args) == 3:
            return _ev(node.args[2], cells)
        return False
    if name in ("AND", "OR"):
        values = [_ev(arg, cells) for arg in node.args]
        flags = [_bool(value) for value in values]
        if name == "AND":
            return all(flags)
        return any(flags)
    if name == "NOT":
        return not _bool(_ev(node.args[0], cells))
    if name in AGGREGATES:
        numbers = []
        for arg in node.args:
            if isinstance(arg, RangeRef):
                for key in cells_in_range(arg):
                    if key not in cells:
                        raise Err("MissingCell")
                    numbers.append(_num(cells[key]))
            else:
                numbers.append(_num(_ev(arg, cells)))
        if not numbers:
            raise Err("EmptyAggregate")
        if name == "MIN":
            return min(numbers)
        if name == "MAX":
            return max(numbers)
        total = 0.0
        for number in numbers:
            total = total + number
        total = _finite(total)
        if name == "SUM":
            return total
        return total / len(numbers)
    raise AssertionError(f"unhandled function {name}")
