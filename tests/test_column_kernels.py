"""The column kernels against the independent oracle, and a guard that they run.

A block whose arguments are all numbers (or all TRUE/FALSE) is evaluated by
the column kernels: MIN and MAX as pairwise compare-and-pick folds, AND and
OR as folds of & and |, and the overflow checks of + - * and SUM/AVERAGE as
one sum over the block. Each generated block runs through validate_examples
and every row must match the oracle exactly. Hypothesis runs derandomized
with a fixed example budget, so every run tests the same inputs.
"""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import Err, oracle_eval
from sheetsmith import (
    evaluate,
    EvalError,
    Grid,
    parse,
    semantic_equivalence,
    validate_examples,
)
from sheetsmith import evaluator
from sheetsmith.evaluator import _norm, values_equal

CELLS = ("A1", "B1", "C1", "D1")
BIG = 1.7976931348623157e308  # the largest float

# -0.0 and 0.0 tie under < and >, so which one MIN or MAX returns shows
# whether the first of equal arguments wins
TIES = [-0.0, 0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308]
# Floats of magnitude 2**1023 or more are multiples of 2**971, so any sum of
# them is exact until it passes the largest float, and then it is inf. The
# package and the oracle both add left to right from zero, so a SUM of -0.0
# alone is 0.0; ROUNDING below holds totals that are not exact.
HUGE = [0.0, -0.0, 1e308, -1e308, 1.7e308, -1.7e308, 9e307, -9e307, BIG, -BIG]
NUMBERS = st.one_of(
    st.sampled_from(HUGE + TIES), st.floats(allow_nan=False, allow_infinity=False)
)
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def rows_of(values):
    row = st.fixed_dictionaries({cell: values for cell in CELLS})
    return st.lists(row, min_size=1, max_size=64)


def arguments(extra):
    # one to four arguments: cells, two-cell and three-cell ranges, literals
    parts = st.sampled_from(CELLS + ("A1:B1", "B1:D1") + extra)
    return st.lists(parts, min_size=1, max_size=4).map(",".join)


def exactly(got, want):
    """One value against the oracle's: same type and repr, or one error kind."""
    if isinstance(want, Err):
        return isinstance(got, EvalError) and got.kind == want.kind
    return type(got) is type(want) and repr(got) == repr(want)


def assert_block_matches_the_oracle(text, rows):
    ast = parse(text)
    report = validate_examples(ast, [(Grid(row), 0.0) for row in rows])
    for outcome, row in zip(report.outcomes, rows):
        want = oracle_eval(ast, row)
        assert exactly(outcome.actual, want), (text, row, outcome.actual, want)


@SETTINGS
@given(
    st.sampled_from(["MIN", "MAX"]),
    arguments(("0", "-0")),
    rows_of(st.sampled_from(TIES)),
)
def test_min_max_fold_keeps_the_first_of_equal_values(name, args, rows):
    assert_block_matches_the_oracle(f"={name}({args})", rows)


@SETTINGS
@given(
    st.sampled_from(["AND", "OR"]),
    arguments(("TRUE", "FALSE")),
    rows_of(st.booleans()),
)
def test_and_or_fold_matches_the_oracle(name, args, rows):
    assert_block_matches_the_oracle(f"={name}({args})", rows)


@SETTINGS
@given(
    st.lists(st.sampled_from("+-*"), min_size=1, max_size=3),
    rows_of(NUMBERS),
)
# finite per row, but the block's sum overflows: a false alarm that the
# scalar rule answers grid by grid
@example(["+"], [{"A1": 1e308, "B1": 0.0, "C1": 0.0, "D1": 0.0}] * 2)
def test_arithmetic_overflow_check_matches_the_oracle(ops, rows):
    text = "=A1" + "".join(op + cell for op, cell in zip(ops, CELLS[1:]))
    assert_block_matches_the_oracle(text, rows)


@SETTINGS
@given(
    st.sampled_from(["SUM", "AVERAGE"]),
    arguments(("0",)),
    rows_of(st.sampled_from(HUGE)),
)
@example("SUM", "A1", [{cell: 1e308 for cell in CELLS}] * 2)
def test_sum_average_overflow_check_matches_the_oracle(name, args, rows):
    assert_block_matches_the_oracle(f"={name}({args})", rows)


# Totals that round: added left to right from 0.0, as the oracle adds, the
# first is 0.0 and the second the largest float; a compensated sum, as
# Python's sum is from 3.12, makes them 1.0 and an overflow
ROUNDING = [
    ({"A1": 1e16, "B1": 1.0, "C1": -1e16}, 0.0),
    ({"A1": BIG, "B1": 9e291, "C1": 9e291}, BIG),
]


@pytest.mark.parametrize("name", ["SUM", "AVERAGE"])
def test_sum_average_total_left_to_right_on_every_python(name, monkeypatch):
    ast = parse(f"={name}(A1:C1)")
    for row, total in ROUNDING:
        want = oracle_eval(ast, row)
        assert want == (total if name == "SUM" else total / 3)
        assert exactly(evaluator.aggregate(name, list(row.values())), want)
        assert exactly(evaluate(ast, Grid(row)), want)
    # as one all-number block, through the column kernel alone
    monkeypatch.setattr(evaluator, "_aggregate_value", None)
    block = [row for row, _ in ROUNDING] + [{"A1": -0.0, "B1": 2.5, "C1": 3.0}]
    assert_block_matches_the_oracle(f"={name}(A1:C1)", block)


@pytest.mark.parametrize("name", ["SUM", "AVERAGE"])
def test_sum_average_over_a_long_range(name, monkeypatch):
    # one argument per cell: the fold adds 100,000 columns one at a time
    values = [(i % 997) * 1.25 - 498.5 for i in range(100_000)]
    grid = Grid({f"A{row}": value for row, value in enumerate(values, 1)})
    ast = parse(f"={name}(A1:A100000)")
    want = evaluator.aggregate(name, values)
    assert exactly(evaluate(ast, grid), want)
    monkeypatch.setattr(evaluator, "_aggregate_value", None)  # the kernel alone
    report = validate_examples(ast, [(grid, want)] * 3)
    assert report.all_passed
    assert all(exactly(outcome.actual, want) for outcome in report.outcomes)


def test_and_or_over_many_arguments_in_a_fresh_process():
    # each argument is one more eager pass of the fold, not one more level
    # of nested maps on the C stack; a crash there kills the interpreter,
    # so the calls run in a child process
    script = """
from sheetsmith import evaluate, Grid, parse, semantic_equivalence
many = ",".join(["A1"] * 100_000)
print(evaluate(parse(f"=AND({many})"), Grid({"A1": True})))
print(evaluate(parse(f"=OR({many})"), Grid({"A1": False})))
print(semantic_equivalence(parse(f"=AND({many})"), parse(f"=OR({many})"),
                           {"A1": [True, False]}))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evaluator.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["True", "False", "(True, None)"]


# ----- semantic_equivalence against a first-difference loop on the oracle ----

NUMERIC_DOMAIN = [-0.0, 0.0, 1, -1, 2.5, 1e308, -1e308, 1.7e308, 3]
FLAGS = [True, False]
# equivalent pairs, and pairs that differ on some grids but not on all
PAIRS = [
    ("=MIN(A1,B1)", "=IF(B1<A1,B1,A1)", NUMERIC_DOMAIN),
    ("=MAX(A1,B1,C1)", "=MAX(C1,B1,A1)", NUMERIC_DOMAIN),
    ("=MIN(A1:C1)>=1", "=AND(A1>=1,B1>=1,C1>=1)", NUMERIC_DOMAIN),
    ("=MAX(A1:C1)<1", "=NOT(OR(A1>=1,B1>=1,C1>=1))", NUMERIC_DOMAIN),
    ("=MAX(A1,B1)", "=A1", NUMERIC_DOMAIN),
    ("=SUM(A1:C1)-A1", "=C1+B1", NUMERIC_DOMAIN),
    ("=AVERAGE(A1,B1)*2", "=A1+B1", NUMERIC_DOMAIN),
    ("=A1*B1-C1", "=A1*(B1-C1)", NUMERIC_DOMAIN),
    ("=AND(A1,B1,C1)", "=NOT(OR(NOT(A1),NOT(B1),NOT(C1)))", FLAGS),
    ("=OR(A1,B1)", "=IF(A1,TRUE,B1)", FLAGS),
    ("=AND(A1,B1)", "=OR(A1,B1)", FLAGS),
    ('=IF(A1>=1,"p","f")', '=IF(A1<1,"f","p")', NUMERIC_DOMAIN),
    ('=IF(A1+B1>=3,"hi","lo")', '=IF(A1+B1>3,"hi","lo")', NUMERIC_DOMAIN),
]


def _value(x):
    # the oracle's error as the package's, for values_equal
    return EvalError(x.kind, "") if isinstance(x, Err) else x


def first_difference(a, b, domain):
    names = list(domain)
    for combo in itertools.product(*domain.values()):
        cells = {name: _norm(value) for name, value in zip(names, combo)}
        if not values_equal(_value(oracle_eval(a, cells)), _value(oracle_eval(b, cells))):
            return False, Grid(cells)
    return True, None


@SETTINGS
@given(st.sampled_from(PAIRS), st.booleans(), st.data())
def test_semantic_equivalence_matches_a_first_difference_loop(pair, swap, data):
    *texts, pool = pair
    a, b = map(parse, texts[::-1] if swap else texts)
    values = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    domain = {cell: data.draw(values) for cell in CELLS[:3]}
    assert semantic_equivalence(a, b, domain) == first_difference(a, b, domain)


# ----- the kernels run: no silent fall-back to the scalar rules ---------------


def test_all_number_blocks_never_reach_the_scalar_rules(monkeypatch):
    def scalar(*args):
        raise AssertionError(f"scalar rule ran on {args}")

    monkeypatch.setattr(evaluator, "_aggregate_value", scalar)
    monkeypatch.setattr(evaluator, "_binary", scalar)
    rows = [{"A1": float(a), "B1": float(-b), "C1": 0.5}
            for a in range(8) for b in range(8)]
    grids = [(Grid(row), 0.0) for row in rows]
    for text in ("=MIN(A1,B1,C1)", "=MAX(A1:C1)", "=A1+B1-C1", "=A1-B1*C1",
                 "=SUM(A1:C1)", "=AVERAGE(A1,B1)"):
        actual = [o.actual for o in validate_examples(parse(text), grids).outcomes]
        assert all(isinstance(value, float) for value in actual), text
    domain = {"A1": range(32), "B1": range(32)}
    for a, b in [("=MIN(A1,B1)>=30", "=AND(A1>=30,B1>=30)"),
                 ("=IF(A1>=B1,A1,B1)", "=MAX(A1,B1)"),
                 ("=SUM(A1:B1)-A1", "=B1+A1-A1")]:
        assert semantic_equivalence(parse(a), parse(b), domain) == (True, None)
