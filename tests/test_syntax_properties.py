"""Generated inputs for the formula syntax: parse and render undo each other,
metrics_report keeps its invariants, the parser and canonical_ref read cell
text alike, and make_range orders corners as sorting their parts does.

Hypothesis runs derandomized with a fixed example budget, so every run tests
the same inputs.
"""

import operator
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from test_parser import _has_negative_literal
from sheetsmith import (
    BinaryOp,
    BooleanLiteral,
    CellRef,
    FormulaAst,
    FormulaSyntaxError,
    FunctionCall,
    metrics_report,
    MILLER_LIMIT,
    NumberLiteral,
    parse,
    RangeRef,
    render,
    SUPPORTED_FUNCTIONS,
    TextLiteral,
    UnaryOp,
)
from sheetsmith.evaluator import canonical_ref
from sheetsmith.formulas import BINARY_PRECEDENCE, cell_ref, column_index, make_range

# tiny, huge, whole and fractional magnitudes; a negative value is a literal
# that renders as '-x' and parses back as unary minus
magnitudes = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 2.5, 1e16, 1e308, sys.float_info.max]),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**20).map(float),
)
numbers = st.one_of(
    magnitudes.map(NumberLiteral),
    magnitudes.map(lambda value: UnaryOp(NumberLiteral(value))),
    magnitudes.filter(lambda value: value > 0).map(lambda value: NumberLiteral(-value)),
)
columns = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=3)
cells = st.builds(
    CellRef,
    columns,
    st.integers(min_value=1, max_value=1_048_576),
    st.booleans(),
    st.booleans(),
)
leaves = st.one_of(
    numbers,
    st.text(max_size=6).map(TextLiteral),
    st.booleans().map(BooleanLiteral),
    cells,
    st.builds(make_range, cells, cells),
)


def _calls(children):
    def call(name):
        low, high = SUPPORTED_FUNCTIONS[name]
        args = st.lists(children, min_size=low, max_size=high or 3)
        return args.map(lambda args: FunctionCall(name, tuple(args)))

    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(sorted(BINARY_PRECEDENCE)), children,
                  children),
        st.builds(UnaryOp, children),
        st.sampled_from(sorted(SUPPORTED_FUNCTIONS)).flatmap(call),
    )


trees = st.recursive(leaves, _calls, max_leaves=12)


@st.composite
def chains(draw):
    """A left-associated chain of up to 2000 terms at one precedence level."""
    level = draw(st.sampled_from(sorted(set(BINARY_PRECEDENCE.values()))))
    ops = [op for op, p in BINARY_PRECEDENCE.items() if p == level]
    terms = draw(st.lists(st.one_of(leaves, trees), min_size=1, max_size=4))
    length = draw(st.integers(min_value=2, max_value=2000))
    node = terms[0]
    for i in range(1, length):
        node = BinaryOp(ops[i % len(ops)], node, terms[i % len(terms)])
    return node


def _spine(node):
    # a chain's first operand and its (operator, right operand) steps; equal
    # spines mean equal trees, compared without recursing once per term
    steps = []
    while isinstance(node, BinaryOp):
        steps.append((node.op, node.right))
        node = node.left
    return node, steps


def _relative(node):
    """The same tree with every '$' marker dropped."""
    if isinstance(node, CellRef):
        return CellRef(node.column, node.row)
    if isinstance(node, RangeRef):
        return RangeRef(_relative(node.start), _relative(node.end))
    if isinstance(node, FunctionCall):
        return FunctionCall(node.name, tuple(map(_relative, node.args)))
    if isinstance(node, BinaryOp):
        return BinaryOp(node.op, _relative(node.left), _relative(node.right))
    if isinstance(node, UnaryOp):
        return UnaryOp(_relative(node.operand))
    return node


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(trees)
def test_parse_gives_back_the_tree_its_text_was_rendered_from(root):
    text = render(FormulaAst(root))
    assert render(parse(text)) == text
    if not _has_negative_literal(root):
        assert parse(text).root == root


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(chains())
def test_long_chains_survive_render_and_parse(root):
    text = render(FormulaAst(root))
    back = parse(text).root
    assert render(FormulaAst(back)) == text
    first, steps = _spine(root)
    if not any(map(_has_negative_literal, [first] + [right for _, right in steps])):
        assert _spine(back) == (first, steps)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(trees)
def test_metrics_report_invariants(root):
    report = metrics_report(FormulaAst(root))
    counts = report.counts
    assert report.miller_concepts == counts.N1 + counts.n2
    assert report.miller_flag == (report.miller_concepts > MILLER_LIMIT)
    assert report.out_of_range_flag == (not 0 < report.complexity <= 2)
    # '$' markers change neither an operand's identity nor any count
    assert metrics_report(FormulaAst(_relative(root))) == report


@st.composite
def cell_spellings(draw):
    """Cell text in any case, with optional '$' markers and leading zeros,
    and the cell it names, or None for row 0."""
    letters = draw(st.text("abcxyzABCXYZ", min_size=1, max_size=3))
    row = draw(st.integers(min_value=0, max_value=100_000))
    zeros = "0" * draw(st.integers(min_value=0, max_value=3))
    marks = st.sampled_from(["", "$"])
    col_mark, row_mark = draw(marks), draw(marks)
    text = f"{col_mark}{letters}{row_mark}{zeros}{row}"
    if row == 0:
        return text, None
    return text, CellRef(letters.upper(), row, col_mark == "$", row_mark == "$")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(cell_spellings(), st.sampled_from(["", " ", "\t "]))
def test_parse_and_canonical_ref_read_cell_text_alike(spelling, pad):
    text, cell = spelling
    if cell is None:
        with pytest.raises(FormulaSyntaxError, match="cell row must be at least 1"):
            parse("=" + text)
        with pytest.raises(ValueError):
            canonical_ref(pad + text + pad)
        return
    assert parse("=" + text).root == cell
    assert canonical_ref(pad + text + pad) == cell.canonical()


def _sorted_range(a, b):
    """make_range's earlier rule: sort the column and the row parts apart."""
    cols = [(column_index(a.column), a.column, a.column_absolute),
            (column_index(b.column), b.column, b.column_absolute)]
    rows = [(a.row, a.row_absolute), (b.row, b.row_absolute)]
    if cols[0][0] <= cols[1][0] and rows[0][0] <= rows[1][0]:
        return RangeRef(a, b)
    cols.sort(key=operator.itemgetter(0))
    rows.sort(key=operator.itemgetter(0))
    start = CellRef(cols[0][1], rows[0][0], cols[0][2], rows[0][1])
    end = CellRef(cols[1][1], rows[1][0], cols[1][2], rows[1][1])
    return RangeRef(start, end)


# hand-built corners: lower- and mixed-case columns too, which the parser
# never makes, and few enough columns and rows that ties are common
corners = st.builds(
    CellRef,
    st.one_of(st.text("ABZabz", min_size=1, max_size=3), columns),
    st.one_of(st.integers(min_value=1, max_value=3),
              st.integers(min_value=1, max_value=1_048_576)),
    st.booleans(),
    st.booleans(),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(corners, corners)
# lowercase "z" sorts after "AA" by column_index, though by length then
# letters it would come first; the strategy never draws this pair itself
@example(CellRef("z", 1), CellRef("AA", 1))
def test_make_range_orders_corners_as_the_sorting_rule_does(a, b):
    assert make_range(a, b) == _sorted_range(a, b)


@pytest.mark.parametrize("text", ["Z1:AA1", "AA1:Z1", "C5:C5", "$E$5:c3", "B$2:$A1"])
def test_make_range_of_parsed_corners_matches_the_sorting_rule(text):
    a, b = (cell_ref(corner) for corner in text.split(":"))
    assert make_range(a, b) == _sorted_range(a, b)
    assert parse("=" + text).root == _sorted_range(a, b)
