"""Generated inputs: evaluate agrees with the independent oracle, and
synthesize's text passes its own training rows.

Hypothesis runs derandomized with a fixed example budget, so every run tests
the same inputs.
"""

from hypothesis import given, settings, strategies as st

from oracle import Err, oracle_eval
from test_acceptance import _agree, AGGREGATES, BINARY_OPS
from sheetsmith import (
    BinaryOp,
    BooleanLiteral,
    CellRef,
    evaluate,
    example_grids,
    FormulaAst,
    FunctionCall,
    Grid,
    HypothesisConfig,
    HypothesisSpaceExhaustedError,
    LabeledExample,
    NumberLiteral,
    parse,
    RangeRef,
    synthesize,
    TextLiteral,
    UnaryOp,
    validate_examples,
)
from sheetsmith.formulas import ORDERING
from sheetsmith.synthesis import DEFAULT_AGGREGATES

CELLS = ("A1", "B1", "C1")
RANGES = [
    RangeRef(CellRef("A", 1), CellRef("C", 1)),
    RangeRef(CellRef("A", 1), CellRef("B", 1)),
    RangeRef(CellRef("B", 1), CellRef("C", 1)),
]

# -0.0, the smallest subnormal and values near the largest float reach the
# column kernels' tie and overflow rules
numbers = st.sampled_from(
    [-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 10.0, 1e300, -0.0, 5e-324, 1.7e308, -1.7e308]
)
texts = st.sampled_from(["a", "hi"])
cell_refs = st.sampled_from(CELLS).map(lambda name: CellRef(name[0], 1))
leaves = st.one_of(
    numbers.map(NumberLiteral),
    texts.map(TextLiteral),
    st.booleans().map(BooleanLiteral),
    cell_refs,
)


def _calls(children):
    def call(name, args):
        return FunctionCall(name, tuple(args))

    aggregate_args = st.lists(
        st.one_of(children, st.sampled_from(RANGES)), min_size=1, max_size=3
    )
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(BINARY_OPS), children, children),
        st.builds(UnaryOp, children),
        st.builds(call, st.sampled_from(AGGREGATES), aggregate_args),
        st.builds(call, st.just("IF"), st.lists(children, min_size=2, max_size=3)),
        st.builds(call, st.sampled_from(["AND", "OR"]),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(call, st.just("NOT"), st.lists(children, min_size=1, max_size=1)),
    )


trees = st.recursive(leaves, _calls, max_leaves=16)

# any cell may be missing, text, a boolean or a number
grids = st.dictionaries(
    st.sampled_from(CELLS), st.one_of(numbers, texts, st.booleans())
)


@st.composite
def chains(draw):
    """A flat left-associated chain of up to 3000 terms, cycling short patterns."""
    # half the chains add and subtract numbers and cells only, so that long
    # chains also run to their end rather than stop at an error
    if draw(st.booleans()):
        term, op = st.one_of(numbers.map(NumberLiteral), cell_refs), st.sampled_from("+-")
    else:
        term, op = st.one_of(leaves, trees), st.sampled_from(BINARY_OPS)
    terms = draw(st.lists(term, min_size=1, max_size=5))
    ops = draw(st.lists(op, min_size=1, max_size=4))
    length = draw(st.integers(min_value=2, max_value=3000))
    first = terms[0]
    steps = [(ops[i % len(ops)], terms[i % len(terms)]) for i in range(1, length)]
    return first, steps


def _literal(value):
    if isinstance(value, bool):
        return BooleanLiteral(value)
    if isinstance(value, float):
        return NumberLiteral(value)
    return TextLiteral(value)


def _oracle_chain(first, steps, cells):
    # the oracle recurses once per term, so fold the chain one operator at a
    # time with the running value as a literal; the first error ends the chain
    value = oracle_eval(FormulaAst(first), cells)
    for op, right in steps:
        if isinstance(value, Err):
            break
        value = oracle_eval(FormulaAst(BinaryOp(op, _literal(value), right)), cells)
    return value


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(trees, grids)
def test_evaluate_agrees_with_the_oracle_on_generated_trees(root, cells):
    ast = FormulaAst(root)
    assert _agree(evaluate(ast, Grid(cells)), oracle_eval(ast, cells))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(chains(), grids)
def test_evaluate_agrees_with_the_oracle_on_long_flat_chains(chain, cells):
    first, steps = chain
    root = first
    for op, right in steps:
        root = BinaryOp(op, root, right)
    mine = evaluate(FormulaAst(root), Grid(cells))
    assert _agree(mine, _oracle_chain(first, steps, cells))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(trees, st.lists(grids, min_size=2, max_size=8))
def test_validate_examples_batch_equals_evaluate_row_by_row(root, rows):
    # validate_examples evaluates all its rows as one block; each row alone
    # must give the same value, type and error message, and agree with the
    # oracle
    ast = FormulaAst(root)
    examples = [(Grid(cells), 0.0) for cells in rows]
    actual = [outcome.actual for outcome in validate_examples(ast, examples).outcomes]
    for got, (grid, _), cells in zip(actual, examples, rows):
        want = evaluate(ast, grid)
        assert type(got) is type(want) and got == want
        assert _agree(got, oracle_eval(ast, cells))


# ----- synthesis ------------------------------------------------------------


def _subsets(names):
    return st.lists(st.sampled_from(names), min_size=1, unique=True).map(
        lambda chosen: tuple(name for name in names if name in chosen)
    )


@st.composite
def example_sets(draw):
    names = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]))
    marks = st.sampled_from([0.0, 1.0, 2.5, 40.0, 99.5, 1e300])
    rows = draw(
        st.dictionaries(
            st.tuples(*[marks] * len(names)),
            st.sampled_from(["lo", "mid", "hi"]),
            min_size=1,
            max_size=8,
        )
    )
    return [
        LabeledExample(dict(zip(names, row)), label) for row, label in rows.items()
    ]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    example_sets(),
    _subsets(tuple(ORDERING)),
    _subsets(DEFAULT_AGGREGATES),
    st.integers(min_value=1, max_value=3),
)
def test_synthesized_text_passes_its_training_rows(
    examples, comparators, aggregates, depth
):
    config = HypothesisConfig(
        aggregates=aggregates, comparators=comparators, max_decision_depth=depth
    )
    try:
        result = synthesize(examples, config)
    except HypothesisSpaceExhaustedError as exc:
        labels = [example.label for example in examples]
        largest = max(labels.count(label) for label in labels)
        assert 100.0 * largest / len(labels) <= exc.best_pass_rate < 100
    else:
        report = validate_examples(parse(result.rendered), example_grids(examples))
        assert report.all_passed, result.rendered
