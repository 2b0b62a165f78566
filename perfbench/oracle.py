"""The benchmark's own model of the formula language, written apart from sheetsmith.

Everything the benchmark checks sheetsmith against is computed here: a tuple
tree for formulas, a text writer for it, a parser for the text sheetsmith
prints, an evaluator over plain dicts, and the operator/operand count the
sheetsmith README defines. Nothing here imports sheetsmith.

Tree nodes:
    ("num", float)              ("text", str)          ("bool", bool)
    ("cell", COL, row, col_abs, row_abs)
    ("range", cell, cell)       ("call", NAME, (args,)) ("bin", op, left, right)
    ("neg", operand)
"""

import math
import re

COMPARE = ("<", "<=", ">", ">=", "=", "<>")
_LEVELS = (COMPARE, ("+", "-"), ("*", "/"), ("^",))
AGGREGATES = ("MIN", "MAX", "AVERAGE", "SUM")


class Fault(Exception):
    """An in-sheet error value; ``kind`` uses sheetsmith's error kind names."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


# ----- cells -------------------------------------------------------------


def col_number(letters: str) -> int:
    n = 0
    for ch in letters:
        n = n * 26 + ord(ch) - 64
    return n


def col_name(n: int) -> str:
    out = ""
    while n:
        n, r = divmod(n - 1, 26)
        out = chr(65 + r) + out
    return out


def cell_key(node) -> str:
    return f"{node[1]}{node[2]}"


def range_keys(node) -> list[str]:
    """Cells a range covers, row-major, whatever corner order it was written in."""
    (_, c0, r0, _, _), (_, c1, r1, _, _) = node[1], node[2]
    lo_c, hi_c = sorted((col_number(c0), col_number(c1)))
    return [
        f"{col_name(c)}{r}"
        for r in range(min(r0, r1), max(r0, r1) + 1)
        for c in range(lo_c, hi_c + 1)
    ]


# ----- counting (sheetsmith README, "What the numbers mean") -------------


def operand_key(node):
    """Operand identity: canonical text, so $C$5 is C5 and 40.0 is 40."""
    kind = node[0]
    if kind == "cell":
        return ("cell", cell_key(node))
    if kind == "range":
        keys = range_keys(node)
        return ("range", keys[0], keys[-1])
    return (kind, node[1])


def tokens(node, operators: list, operands: list) -> None:
    kind = node[0]
    if kind in ("num", "text", "bool", "cell", "range"):
        operands.append(operand_key(node))
    elif kind == "call":
        operators.append(node[1])
        for arg in node[2]:
            tokens(arg, operators, operands)
    elif kind == "bin":
        operators.append(node[1])
        tokens(node[2], operators, operands)
        tokens(node[3], operators, operands)
    else:  # neg: the same operator as binary '-'
        operators.append("-")
        tokens(node[1], operators, operands)


def expected_metrics(node) -> dict:
    """Counts and every figure the README derives from them."""
    operators: list = []
    operands: list = []
    tokens(node, operators, operands)
    n1, n2, N1, N2 = len(set(operators)), len(set(operands)), len(operators), len(operands)
    complexity = 2 * n1 / (n2 * N2)
    volume = (N1 + N2) * math.log2(n1 + n2)
    difficulty = (n1 / 2) * (N2 / n2)
    concepts = N1 + n2
    return {
        "n1": n1, "n2": n2, "N1": N1, "N2": N2,
        "complexity": complexity,
        "out_of_range_flag": complexity <= 0 or complexity > 2,
        "volume": volume,
        "difficulty": difficulty,
        "effort": difficulty * volume,
        "miller_concepts": concepts,
        "miller_flag": concepts > 9,
    }


# ----- writing -----------------------------------------------------------


def _number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def write(node, style=None) -> str:
    """Formula text for a tree, with every binary operand parenthesised.

    ``style`` (a random.Random) varies letter case, spacing after commas and
    whole numbers written as "40.0"; '$' markers come from the tree. None
    writes canonical-looking uppercase text.
    """
    kind = node[0]
    if kind == "num":
        text = _number(node[1])
        return text + ".0" if style and "." not in text and style.random() < 0.1 else text
    if kind == "text":
        return '"' + node[1].replace('"', '""') + '"'
    if kind == "bool":
        text = "TRUE" if node[1] else "FALSE"
        return text.lower() if style and style.random() < 0.3 else text
    if kind == "cell":
        col = node[1].lower() if style and style.random() < 0.2 else node[1]
        return ("$" if node[3] else "") + col + ("$" if node[4] else "") + str(node[2])
    if kind == "range":
        return write(node[1], style) + ":" + write(node[2], style)
    if kind == "call":
        name = node[1].lower() if style and style.random() < 0.2 else node[1]
        sep = ", " if style and style.random() < 0.2 else ","
        return name + "(" + sep.join(write(a, style) for a in node[2]) + ")"
    if kind == "neg":
        inner = write(node[1], style)
        return "-" + (inner if node[1][0] in ("num", "cell", "call") else "(" + inner + ")")
    left, right = write(node[2], style), write(node[3], style)
    if node[2][0] in ("bin", "neg"):
        left = "(" + left + ")"
    if node[3][0] in ("bin", "neg"):
        right = "(" + right + ")"
    return left + node[1] + right


# ----- parsing the text sheetsmith prints ---------------------------------

_TOKEN = re.compile(
    r'\s*(?:(\d+(?:\.\d+)?)|("(?:[^"]|"")*")|(\$?[A-Za-z]+\$?\d+)|([A-Za-z]+)'
    r"|(<=|>=|<>|[<>=+\-*/^(),:]))"
)
_CELL = re.compile(r"(\$?)([A-Za-z]+)(\$?)(\d+)")


def read(text: str):
    """Parse formula text into a tree; raises ValueError on anything malformed."""
    items = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad character at {pos} in {text!r}")
        number, string, cell, name, op = m.groups()
        if number is not None:
            items.append(("num", float(number)))
        elif string is not None:
            items.append(("text", string[1:-1].replace('""', '"')))
        elif cell is not None:
            d1, col, d2, row = _CELL.fullmatch(cell).groups()
            items.append(("cell", col.upper(), int(row), d1 == "$", d2 == "$"))
        elif name is not None:
            items.append(("name", name.upper()))
        else:
            items.append(("op", op))
        pos = m.end()
    items.append(("end", None))
    state = {"i": 0}

    def peek():
        return items[state["i"]]

    def take(expected=None):
        item = items[state["i"]]
        if expected is not None and item != ("op", expected):
            raise ValueError(f"expected {expected!r}, found {item!r} in {text!r}")
        state["i"] += 1
        return item

    def level(n):
        if n == len(_LEVELS):
            return unary()
        node = level(n + 1)
        while peek()[0] == "op" and peek()[1] in _LEVELS[n]:
            node = ("bin", take()[1], node, level(n + 1))
        return node

    def unary():
        if peek() == ("op", "-"):
            take()
            return ("neg", unary())
        return primary()

    def primary():
        item = take()
        if item[0] in ("num", "text"):
            return item
        if item[0] == "cell":
            if peek() == ("op", ":"):
                take()
                end = take()
                if end[0] != "cell":
                    raise ValueError(f"range needs two cells in {text!r}")
                return ("range", item, end)
            return item
        if item[0] == "name":
            if peek() == ("op", "("):
                take()
                args = [level(0)]
                while peek() == ("op", ","):
                    take()
                    args.append(level(0))
                take(")")
                return ("call", item[1], tuple(args))
            if item[1] in ("TRUE", "FALSE"):
                return ("bool", item[1] == "TRUE")
        if item == ("op", "("):
            node = level(0)
            take(")")
            return node
        raise ValueError(f"unexpected {item!r} in {text!r}")

    if peek() == ("op", "="):
        take()
    tree = level(0)
    if peek()[0] != "end":
        raise ValueError(f"trailing text in {text!r}")
    return tree


# ----- evaluating ----------------------------------------------------------


def evaluate(node, cells: dict):
    """Value of a tree over {"C5": value}, or the Fault it raised, as a value."""
    try:
        return _value(node, cells)
    except Fault as fault:
        return fault


def _number_of(value) -> float:
    if type(value) is not float:
        raise Fault("TypeMismatch")
    return value


def _flag(value) -> bool:
    if type(value) is not bool:
        raise Fault("TypeMismatch")
    return value


def _lookup(key: str, cells: dict):
    if key not in cells:
        raise Fault("MissingCell")
    return cells[key]


def _value(node, cells):
    kind = node[0]
    if kind == "num":
        return float(node[1])
    if kind in ("text", "bool"):
        return node[1]
    if kind == "cell":
        return _lookup(cell_key(node), cells)
    if kind == "range":
        raise Fault("TypeMismatch")
    if kind == "neg":
        return -_number_of(_value(node[1], cells))
    if kind == "bin":
        return _binary(node[1], _value(node[2], cells), _value(node[3], cells))
    name, args = node[1], node[2]
    if name == "IF":
        if _flag(_value(args[0], cells)):
            return _value(args[1], cells)
        return _value(args[2], cells) if len(args) == 3 else False
    if name in ("AND", "OR"):
        flags = [_value(a, cells) for a in args]
        flags = [_flag(f) for f in flags]
        return all(flags) if name == "AND" else any(flags)
    if name == "NOT":
        return not _flag(_value(args[0], cells))
    numbers = []
    for arg in args:
        if arg[0] == "range":
            numbers += [_number_of(_lookup(k, cells)) for k in range_keys(arg)]
        else:
            numbers.append(_number_of(_value(arg, cells)))
    if name == "MIN":
        return min(numbers)
    if name == "MAX":
        return max(numbers)
    total = 0.0
    for x in numbers:
        total += x
    return total if name == "SUM" else total / len(numbers)


def _binary(op, a, b):
    if op in COMPARE:
        if type(a) is not type(b) or (type(a) is bool and op not in ("=", "<>")):
            raise Fault("TypeMismatch")
        return {
            "=": a == b, "<>": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b,
        }[op]
    a, b = _number_of(a), _number_of(b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise Fault("DivideByZero")
        return a / b
    if a == 0 and b < 0:
        raise Fault("DivideByZero")
    try:
        result = a ** b
    except OverflowError:
        raise Fault("TypeMismatch") from None
    if isinstance(result, complex):
        raise Fault("TypeMismatch")
    return result


def same_value(a, b) -> bool:
    """sheetsmith's output comparison: numbers within 1e-9, errors by kind."""
    if isinstance(a, Fault) or isinstance(b, Fault):
        return isinstance(a, Fault) and isinstance(b, Fault) and a.kind == b.kind
    if type(a) is float and type(b) is float:
        return abs(a - b) <= 1e-9
    return type(a) is type(b) and a == b


def count_rules(node) -> int:
    """Rules of a decision list compiled to nested IF(test, label, rest)."""
    rules = 0
    while node[0] == "call" and node[1] == "IF":
        rules += 1
        node = node[2][2] if len(node[2]) == 3 else ("bool", False)
    return rules
