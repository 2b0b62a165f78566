"""The benchmark's own model of the formula language (perfbench/oracle.py)
against parse, metrics_report and render, on generated tuple trees.

The oracle imports nothing from sheetsmith: it has its own tree, writer,
reader and operator/operand count by the README's rules. It is loaded here
from its file and only read. For each tree, the text oracle.write prints (in
varied letter case, comma spacing and "40.0" spellings) must parse, every
metrics_report figure must equal the oracle's, and the oracle must read the
rendered text back as the tree, with each range's corners in make_range's
order. Range corners come from a small box, since oracle.range_keys lists
every cell of a range. evaluate must also give the oracle's value, or an
error of the oracle's kind, over cells that hold numbers, TRUE/FALSE, text
or nothing.

Hypothesis runs derandomized with a fixed example budget, so every run tests
the same inputs.
"""

import importlib.util
import math
import pathlib
import random

from hypothesis import assume, given, settings, strategies as st

from sheetsmith import (
    evaluate,
    EvalError,
    Grid,
    metrics_report,
    parse,
    render,
    SUPPORTED_FUNCTIONS,
    values_equal,
)
from sheetsmith.formulas import BINARY_PRECEDENCE

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_oracle", _PATH)
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

# non-negative, since the writer prints a negative number as unary minus;
# whole, quarter and hundredth values, none printed in exponent form
numbers = st.one_of(
    st.integers(min_value=0, max_value=10**20).map(float),
    st.integers(min_value=0, max_value=10**4).map(lambda k: k / 4),
    st.integers(min_value=1, max_value=10**4).map(lambda k: k / 100),
)
cells = st.tuples(
    st.just("cell"),
    st.integers(min_value=1, max_value=27).map(oracle.col_name),  # A to AA
    st.integers(min_value=1, max_value=40),
    st.booleans(),
    st.booleans(),
)
ranges = st.tuples(st.just("range"), cells, cells)
leaves = st.one_of(
    numbers.map(lambda value: ("num", value)),
    st.text(max_size=6).map(lambda text: ("text", text)),
    st.booleans().map(lambda flag: ("bool", flag)),
    cells,
    ranges,
)


def _branches(children):
    def call(name):
        low, high = SUPPORTED_FUNCTIONS[name]
        args = st.lists(children, min_size=low, max_size=high or 3)
        return args.map(lambda args: ("call", name, tuple(args)))

    return st.one_of(
        st.tuples(st.just("bin"), st.sampled_from(sorted(BINARY_PRECEDENCE)),
                  children, children),
        children.map(lambda node: ("neg", node)),
        st.sampled_from(sorted(SUPPORTED_FUNCTIONS)).flatmap(call),
    )


trees = st.recursive(leaves, _branches, max_leaves=12)


def _folds(names, leaves, arguments=st.nothing()):
    """Calls to names nested over leaves of one kind, plus arguments: most
    such calls fold columns of the kind they take, which few trees do."""
    def branches(children):
        args = st.lists(children | arguments, min_size=1, max_size=3).map(tuple)
        return st.tuples(st.just("call"), st.sampled_from(names), args)

    return st.recursive(leaves, branches, max_leaves=8)


folds = st.one_of(
    _folds(["AND", "OR"], st.booleans().map(lambda flag: ("bool", flag)) | cells),
    _folds(["MIN", "MAX", "SUM", "AVERAGE"],
           numbers.map(lambda value: ("num", value)) | cells, ranges),
)


def _ordered(node):
    """The tree with each range's corners ordered as make_range orders them:
    columns and rows apart, markers with their part, and a tie moves none."""
    kind = node[0]
    if kind == "range":
        (_, c0, r0, c0_abs, r0_abs), (_, c1, r1, c1_abs, r1_abs) = node[1], node[2]
        if oracle.col_number(c0) > oracle.col_number(c1):
            c0, c0_abs, c1, c1_abs = c1, c1_abs, c0, c0_abs
        if r0 > r1:
            r0, r0_abs, r1, r1_abs = r1, r1_abs, r0, r0_abs
        return ("range", ("cell", c0, r0, c0_abs, r0_abs), ("cell", c1, r1, c1_abs, r1_abs))
    if kind == "call":
        return ("call", node[1], tuple(map(_ordered, node[2])))
    if kind == "bin":
        return ("bin", node[1], _ordered(node[2]), _ordered(node[3]))
    if kind == "neg":
        return ("neg", _ordered(node[1]))
    return node


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(trees)
def test_parse_metrics_and_render_agree_with_the_benchmark_oracle(tree):
    # the writer's style is seeded by the tree, as in the evaluate check below
    ast = parse(oracle.write(tree, random.Random(repr(tree))))
    report = metrics_report(ast)
    figures = {**vars(report.counts), **vars(report)}
    del figures["counts"]
    assert figures == oracle.expected_metrics(tree)
    assert oracle.read(render(ast)) == _ordered(tree)


def _subtrees(node):
    yield node
    if node[0] == "call":
        for arg in node[2]:
            yield from _subtrees(arg)
    elif node[0] == "bin":
        yield from _subtrees(node[2])
        yield from _subtrees(node[3])
    elif node[0] == "neg":
        yield from _subtrees(node[1])


def _cells(tree, rng):
    """A value for each cell the tree names, or none: a number (negative or
    zero too), TRUE/FALSE or a short text. Most cells, or all, hold one
    kind, so that AND, MIN and the like often get arguments they take."""
    keys = []
    for node in _subtrees(tree):
        if node[0] == "cell":
            keys.append(oracle.cell_key(node))
        elif node[0] == "range":
            keys.extend(oracle.range_keys(node))
    kinds = (
        lambda: rng.choice([0.0, -0.0, float(rng.randint(-9, 9)), rng.uniform(-100, 100)]),
        lambda: rng.random() < 0.5,
        lambda: rng.choice(["", "a", "Pass", "40"]),
    )
    # numbers twice as often as the others: four of the six folds take them
    most, odd = rng.choice(kinds[:1] + kinds), rng.choice([0.0, 0.1, 0.4])
    cells = {}
    for key in keys:
        if rng.random() >= odd:
            cells[key] = most()
        elif rng.random() < 0.5:  # else the cell is left out
            cells[key] = rng.choice(kinds)()
    return cells


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(trees | folds)
def test_evaluate_agrees_with_the_benchmark_oracle(tree):
    # seeded by the tree, not by a drawn integer, which hypothesis makes 0
    # in about a third of its examples: each tree gets cells of its own
    rng = random.Random(repr(tree))
    cells = _cells(tree, rng)
    # overflow is left out: where sheetsmith gives TypeMismatch, the oracle
    # keeps inf or nan
    for node in _subtrees(tree):
        value = oracle.evaluate(node, cells)
        assume(not (isinstance(value, float) and not math.isfinite(value)))
    expected = oracle.evaluate(tree, cells)
    got = evaluate(parse(oracle.write(tree, rng)), Grid(cells))
    if isinstance(expected, oracle.Fault):
        assert isinstance(got, EvalError) and got.kind == expected.kind
    else:
        assert values_equal(got, expected)
