import collections.abc
import enum
import itertools
import math
import random
import re
import tracemalloc
import types

import pytest

from oracle import oracle_eval
from sheetsmith import (
    compile_formula,
    DomainTooLargeError,
    EmptyExampleSetError,
    EvalError,
    evaluate,
    FormulaAst,
    FunctionCall,
    Grid,
    parse,
    referenced_cells,
    render,
    semantic_equivalence,
    validate_examples,
    values_equal,
)
from sheetsmith.evaluator import _column, _norm, DEFAULT_GRID_CAP, EQUIVALENCE_BLOCK

REFERENCE = (
    '=IF(MIN(C5:D5)<40,"Fail",IF(AVERAGE(C5:D5)>=70,"Dist",'
    'IF(AVERAGE(C5:D5)>=55,"Merit",IF(AVERAGE(C5:D5)>=40,"Pass"))))'
)


def ev(text, cells=None):
    return evaluate(parse(text), Grid(cells or {}))


def kind(value):
    assert isinstance(value, EvalError)
    return value.kind


@pytest.mark.parametrize(
    "exam,coursework,expected",
    [
        (35, 80, "Fail"),
        (50, 60, "Merit"),
        (70, 80, "Dist"),
        (45, 50, "Pass"),
        (40, 40, "Pass"),
        (55, 55, "Merit"),
        (39, 100, "Fail"),
        (70, 69, "Merit"),
    ],
)
def test_reference_formula_grades(exam, coursework, expected):
    assert ev(REFERENCE, {"C5": exam, "D5": coursework}) == expected


def test_reference_formula_below_pass_band():
    # all four conditions false: the innermost 2-argument IF yields FALSE
    result = ev(REFERENCE, {"C5": 40, "D5": 55})
    assert ev(REFERENCE, {"C5": 45, "D5": 45}) == "Pass"
    assert result == "Pass"


def test_arithmetic():
    assert ev("=1+2*3") == 7.0
    assert ev("=(1+2)*3") == 9.0
    assert ev("=7/2") == 3.5
    assert ev("=2^10") == 1024.0
    assert ev("=-3^2") == 9.0
    assert ev("=2^3^2") == 64.0


def test_division_by_zero():
    assert kind(ev("=1/0")) == "DivideByZero"
    assert kind(ev("=1/(A1-A1)", {"A1": 4})) == "DivideByZero"


def test_power_edge_cases():
    assert kind(ev("=0^-1")) == "DivideByZero"
    assert kind(ev("=(-2)^0.5")) == "TypeMismatch"
    assert kind(ev("=10^10000")) == "TypeMismatch"


@pytest.mark.parametrize(
    "text",
    [
        "=10^300*10^300",
        "=10^300*10^300-10^300*10^300",
        "=-10^300*10^300",
        "=10^300/10^-300",
        "=10^308+10^308",
        "=SUM(10^308,10^308)",
        "=AVERAGE(10^308,10^308)",
    ],
)
def test_overflow_is_an_error_value(text):
    assert kind(ev(text)) == "TypeMismatch"
    assert oracle_eval(parse(text), {}).kind == "TypeMismatch"


def test_missing_cell():
    assert kind(ev("=Z99+1")) == "MissingCell"
    assert kind(ev("=SUM(A1:A3)", {"A1": 1, "A2": 2})) == "MissingCell"


def test_no_numeric_coercion():
    assert kind(ev('="5"+1')) == "TypeMismatch"
    assert kind(ev("=TRUE+1")) == "TypeMismatch"
    assert kind(ev('=-"x"')) == "TypeMismatch"


def test_comparisons_same_type_only():
    assert ev("=1<2") is True
    assert ev('="apple"<"banana"') is True
    assert ev('="b"<="a"') is False
    assert ev("=TRUE=TRUE") is True
    assert ev("=TRUE<>FALSE") is True
    assert kind(ev("=TRUE<FALSE")) == "TypeMismatch"
    assert kind(ev('=1="1"')) == "TypeMismatch"
    assert kind(ev("=1=TRUE")) == "TypeMismatch"


@pytest.mark.parametrize(
    "text, message",
    [
        ("=TRUE<>1", "'<>' across different types"),
        ("=TRUE=1", "'=' across different types"),
        ('="a"<>1', "'<>' across different types"),
        ("=TRUE<1", "'<' cannot order TRUE/FALSE"),
    ],
)
def test_a_comparison_error_names_its_operator(text, message):
    assert ev(text) == EvalError("TypeMismatch", message)


def test_if_needs_boolean_condition():
    assert kind(ev("=IF(1,2,3)")) == "TypeMismatch"
    assert ev("=IF(TRUE,2,3)") == 2.0


def test_if_two_argument_false_branch():
    assert ev("=IF(FALSE,1)") is False


def test_if_is_lazy():
    # untaken branch may contain errors without poisoning the result
    assert ev("=IF(TRUE,1,Z99)") == 1.0
    assert ev("=IF(FALSE,1/0,5)") == 5.0
    assert kind(ev("=IF(Z99>1,1,2)")) == "MissingCell"


def test_and_or_evaluate_every_argument():
    assert ev("=AND(TRUE,TRUE,FALSE)") is False
    assert ev("=OR(FALSE,FALSE,TRUE)") is True
    # an error anywhere wins over a type mismatch elsewhere, in argument order
    assert kind(ev('=AND("x",Z99)')) == "MissingCell"
    assert kind(ev('=AND(Z99,"x")')) == "MissingCell"
    assert kind(ev("=OR(FALSE,2)")) == "TypeMismatch"


def test_not():
    assert ev("=NOT(FALSE)") is True
    assert kind(ev("=NOT(3)")) == "TypeMismatch"


def test_aggregates():
    cells = {"A1": 4, "A2": 1, "A3": 7}
    assert ev("=MIN(A1:A3)", cells) == 1.0
    assert ev("=MAX(A1:A3)", cells) == 7.0
    assert ev("=SUM(A1:A3)", cells) == 12.0
    assert ev("=AVERAGE(A1:A3)", cells) == 4.0
    assert ev("=SUM(A1,10,A2:A3)", cells) == 22.0


def test_aggregate_arguments_must_be_numbers():
    assert kind(ev('=SUM(1,"x")')) == "TypeMismatch"
    assert kind(ev("=MIN(TRUE)")) == "TypeMismatch"


def test_bare_range_is_a_type_error():
    assert kind(ev("=A1:B1+1", {"A1": 1, "B1": 2})) == "TypeMismatch"


def test_grid_lookup_ignores_absolute_markers():
    assert ev("=$C$5+1", {"C5": 2}) == 3.0


def test_grid_normalises_ints_to_floats():
    grid = Grid({"A1": 3})
    assert evaluate(parse("=A1"), grid) == 3.0
    assert isinstance(evaluate(parse("=A1"), grid), float)


def test_grid_rejects_non_finite_numbers():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            Grid({"A1": bad})


@pytest.mark.parametrize(
    "cells",
    [{"A1": 1, "a1": 2}, {"A1": 1, "$A$1": 3}, {"c5": 1, "D5": 2, "C$5": 3}],
)
def test_grid_rejects_two_spellings_of_one_cell(cells):
    # the later value would silently replace the earlier one
    with pytest.raises(ValueError, match=r"cell [AC][15] is named more than once"):
        Grid(cells)


def test_grid_accepts_distinct_cells_in_any_spelling():
    grid = Grid({"a1": 1, "$B$1": "x", "c$2": True})
    assert grid.cells() == {"A1": 1.0, "B1": "x", "C2": True}
    assert "$A1" in grid and grid.lookup("b1") == "x"


@pytest.mark.parametrize(
    "text, cells",
    [
        ("=A1+1", {"A1": 3}),
        ("=A1", {"A1": 3}),
        ("=A1+1", {"a1": 3.0}),
        ("=$A$1*B$2", {"$A$1": 2, "b$2": 5}),
        ("=A1+1", {}),
        ('=IF(a1>2,"big",B1)', {"A1": 2, "$b1": "x"}),
    ],
    ids=["int", "int-read", "lowercase", "dollar-marked", "absent", "mixed"],
)
def test_compile_formula_reads_its_dict_as_grid_does(text, cells):
    ast = parse(text)
    got, want = compile_formula(ast)(cells), evaluate(ast, Grid(cells))
    assert (got, type(got)) == (want, type(want))


@pytest.mark.parametrize(
    "cells, match",
    [({"A1": float("nan")}, "finite, got nan"), ({"A1": 1, "a1": 2}, "more than once")],
)
def test_compile_formula_rejects_what_grid_rejects(cells, match):
    with pytest.raises(ValueError, match=match):
        Grid(cells)
    with pytest.raises(ValueError, match=match):
        compile_formula(parse("=A1"))(cells)


def test_values_equal():
    assert values_equal(1.0, 1.0 + 1e-12)
    assert not values_equal(1.0, 1.1)
    assert values_equal("a", "a")
    assert not values_equal(True, 1.0)
    assert not values_equal(False, 0.0)
    assert values_equal(EvalError("MissingCell", "x"), EvalError("MissingCell", "y"))
    assert not values_equal(EvalError("MissingCell", "x"), EvalError("TypeMismatch", "x"))


def test_validate_examples_counts_passes():
    ast = parse(REFERENCE)
    examples = [
        (Grid({"C5": 35, "D5": 80}), "Fail"),
        (Grid({"C5": 50, "D5": 60}), "Merit"),
        (Grid({"C5": 70, "D5": 80}), "Fail"),
    ]
    report = validate_examples(ast, examples)
    assert (report.passes, report.total) == (2, 3)
    assert not report.all_passed
    assert [o.passed for o in report.outcomes] == [True, True, False]
    assert report.outcomes[2].actual == "Dist"


def test_validate_examples_rejects_empty():
    with pytest.raises(EmptyExampleSetError):
        validate_examples(parse("=1"), [])


def test_referenced_cells():
    assert referenced_cells(parse(REFERENCE)) == {"C5", "D5"}
    assert referenced_cells(parse("=SUM(A1:B2)+Z9")) == {
        "A1", "B1", "A2", "B2", "Z9",
    }
    assert referenced_cells(parse("=1+2")) == set()


def test_semantic_equivalence_accepts_reordered_branches():
    a = parse('=IF(A1<5,"lo","hi")')
    b = parse('=IF(A1>=5,"hi","lo")')
    same, witness = semantic_equivalence(a, b, {"A1": range(0, 11)})
    assert same and witness is None


def test_semantic_equivalence_finds_threshold_witness():
    shifted = REFERENCE.replace(">=55", ">=56")
    domain = {"C5": range(0, 101), "D5": range(0, 101)}
    same, witness = semantic_equivalence(parse(REFERENCE), parse(shifted), domain)
    assert not same
    assert witness is not None
    # the two formulas can only disagree when the average sits in [55, 56)
    values = [witness.lookup("C5"), witness.lookup("D5")]
    assert 55 <= sum(values) / 2 < 56


def test_semantic_equivalence_domain_cap():
    domain = {"A1": range(0, 101), "B1": range(0, 101), "C1": range(0, 101)}
    with pytest.raises(DomainTooLargeError):
        semantic_equivalence(parse("=A1+B1+C1"), parse("=C1+B1+A1"), domain)
    same, _ = semantic_equivalence(
        parse("=A1+B1+C1"), parse("=C1+B1+A1"),
        {"A1": range(3), "B1": range(3), "C1": range(3)},
    )
    assert same


def test_semantic_equivalence_requires_covered_cells():
    with pytest.raises(ValueError):
        semantic_equivalence(parse("=A1+B7"), parse("=A1"), {"A1": range(3)})


def test_semantic_equivalence_names_the_first_uncovered_cell():
    # a range is walked row-major only up to the first cell the domain
    # lacks, so a huge one costs neither time nor a huge message
    errors = []

    def call():
        with pytest.raises(ValueError) as raised:
            semantic_equivalence(parse("=SUM(A1:Z20000)"), parse("=1"), {"A1": [1]})
        errors.append(str(raised.value))

    assert _traced_peak(call) < 2**20
    assert errors == ["domain does not cover cell B1"]
    with pytest.raises(ValueError, match="^domain does not cover cell B2$"):
        semantic_equivalence(parse("=A1+B2"), parse("=1"), {"A1": [1]})
    domain = {"A1": [1, 2], "B2": [3]}
    assert semantic_equivalence(parse("=A1+B2"), parse("=B2+A1"), domain) == (True, None)


@pytest.mark.parametrize("spelling", ["a1", "$A$1"])
def test_semantic_equivalence_rejects_two_keys_for_one_cell(spelling):
    # the later list would silently replace the earlier one in every grid
    with pytest.raises(ValueError, match="A1"):
        semantic_equivalence(parse("=A1"), parse("=3"), {"A1": [1, 2], spelling: [3]})


def test_error_values_compare_by_kind_in_equivalence():
    # both sides divide by zero everywhere, so they are equivalent
    same, _ = semantic_equivalence(
        parse("=A1/0"), parse("=(A1+1)/0"), {"A1": range(3)}
    )
    assert same


def test_long_flat_chain_goes_left_to_right_and_stops_at_the_first_error():
    terms = ["A1"] * 3000
    assert ev("=" + "+".join(terms), {"A1": 1}) == 3000.0
    terms[10], terms[2000] = "A1/0", "B1"
    assert kind(ev("=" + "+".join(terms), {"A1": 1})) == "DivideByZero"
    terms[10], terms[2000] = "B1", "A1/0"
    assert kind(ev("=" + "+".join(terms), {"A1": 1})) == "MissingCell"
    # a left operand's error wins over a type mismatch further right
    assert kind(ev("=" + "-".join(["B1"] + ["TRUE"] * 3000), {})) == "MissingCell"


@pytest.mark.parametrize(
    "values,error",
    [
        ([0, 1, float("nan")], ValueError),
        ([0, 1, float("inf")], ValueError),
        ([0, 1, None], TypeError),
        # text is one value, not a list of its characters
        ("abc", TypeError),
        (b"abc", TypeError),
    ],
    ids=["nan-ValueError", "inf-ValueError", "None-TypeError", "str", "bytes"],
)
def test_semantic_equivalence_checks_domain_values_before_enumerating(values, error):
    # the formulas differ on the very first grid, so only a check made before
    # enumeration can see the bad value at the end of the list
    with pytest.raises(error):
        semantic_equivalence(parse("=A1"), parse("=A1+1"), {"A1": values})


def test_a_text_value_list_is_named_by_its_cell():
    # read as its characters the text would give the grids "a", "b" and "c",
    # on which =B2 agrees with itself
    message = "^domain values of cell B2 must be a list, got 'abc'$"
    with pytest.raises(TypeError, match=message):
        semantic_equivalence(parse("=B2"), parse("=B2"), {"A1": [1], "b2": "abc"})


class _UnreadSet(collections.abc.Set):
    """A set of more values than the grid cap allows, none of which may be read."""

    def __len__(self):
        return DEFAULT_GRID_CAP + 1

    def __contains__(self, value):
        raise AssertionError("a value of the set was read")

    def __iter__(self):
        raise AssertionError("a value of the set was read")

    def __repr__(self):
        return "_UnreadSet()"


@pytest.mark.parametrize(
    "values,shown",
    [
        ({1: "x", 2: "y"}, "{1: 'x', 2: 'y'}"),
        ({"a", "b", "c"}, None),
        (frozenset([2.0]), "frozenset({2.0})"),
        ({1: "x"}.keys(), "dict_keys([1])"),
        ({1: "x"}.items(), "dict_items([(1, 'x')])"),
        (types.MappingProxyType({1: "x"}), "mappingproxy({1: 'x'})"),
        (_UnreadSet(), "_UnreadSet()"),
    ],
    ids=["dict", "set", "frozenset", "keys", "items", "mappingproxy", "past-the-cap"],
)
def test_a_set_or_mapping_value_list_is_named_by_its_cell(values, shown):
    # a set would be read in hash order and a mapping as its keys, so the
    # witness would hang on PYTHONHASHSEED or name a key as a cell's value;
    # the check comes before the grid cap and reads no value
    with pytest.raises(TypeError) as info:
        semantic_equivalence(parse("=A1"), parse('="z"'), {"a1": values})
    shown = repr(values) if shown is None else shown
    assert str(info.value) == f"domain values of cell A1 must be a list, got {shown}"


@pytest.mark.parametrize(
    "values",
    [[1, 2], (1, 2), range(1, 3), {"x": 1, "y": 2}.values(), iter([1, 2])],
    ids=["list", "tuple", "range", "dict-values", "iterator"],
)
def test_ordered_value_lists_are_still_read_in_order(values):
    assert semantic_equivalence(parse("=A1"), parse("=2"), {"A1": values}) == (
        False, Grid({"A1": 1.0})
    )


@pytest.mark.parametrize("build,shown", [
    (lambda: Grid({5: 1}), "5"),
    (lambda: Grid({1.5: 1}), "1.5"),
    (lambda: semantic_equivalence(parse("=A1"), parse("=A1"), {5: [1]}), "5"),
    (lambda: semantic_equivalence(parse("=A1"), parse("=A1"), {None: [1]}), "None"),
])
def test_a_cell_name_that_is_not_text_is_no_cell_reference(build, shown):
    with pytest.raises(ValueError, match=f"^not a cell reference: {shown}$"):
        build()


@pytest.mark.parametrize(
    "cells", [0, "", [], b"A1", ["A1"], 5],
    ids=["zero", "empty-text", "empty-list", "bytes", "list", "int"],
)
def test_grid_cells_that_are_not_a_mapping_are_a_type_error(cells):
    # a falsy non-mapping is no empty grid, and bytes are not read as names
    message = f"^cells must be a mapping of cells to values, got {re.escape(repr(cells))}$"
    with pytest.raises(TypeError, match=message):
        Grid(cells)


def test_no_cells_is_the_empty_grid():
    assert Grid().cells() == Grid(None).cells() == Grid({}).cells() == {}


@pytest.mark.parametrize("domain", [None, ["A1"], "A1", 5])
def test_a_domain_that_is_not_a_mapping_is_a_type_error(domain):
    message = f"^domain must be a mapping of cells to values, got {re.escape(repr(domain))}$"
    with pytest.raises(TypeError, match=message):
        semantic_equivalence(parse("=A1"), parse("=A1"), domain)


def _equivalence_grid_by_grid(a, b, domain):
    names = list(domain)
    for combo in itertools.product(*domain.values()):
        grid = Grid(dict(zip(names, combo)))
        if not values_equal(evaluate(a, grid), evaluate(b, grid)):
            return False, grid
    return True, None


def test_semantic_equivalence_matches_a_grid_by_grid_loop():
    # half the pairs are a tree against itself with A1 and B1 swapped, which
    # agree wherever the two cells hold equal values; the other half are two
    # unrelated trees
    from test_acceptance import _random_node

    rng = random.Random(20261018)
    pool = [-3, 0, 1, 2.5, 7, "a", "hi", True, False]
    verdicts, late_witnesses = set(), 0
    for _ in range(300):
        a = FormulaAst(_random_node(rng, depth=3))
        if rng.random() < 0.5:
            text = render(a).replace("A1", "#").replace("B1", "A1").replace("#", "B1")
            b = parse(text)
        else:
            b = FormulaAst(_random_node(rng, depth=3))
        values = rng.sample(pool, rng.randint(1, 4))
        domain = {"A1": values, "B1": rng.sample(values, len(values))}
        expected = _equivalence_grid_by_grid(a, b, domain)
        assert semantic_equivalence(a, b, domain) == expected, (render(a), domain)
        verdicts.add(expected[0])
        first_grid = Grid({"A1": values[0], "B1": domain["B1"][0]})
        late_witnesses += expected[1] not in (None, first_grid)
    assert verdicts == {True, False}
    assert late_witnesses >= 5


# ----- evaluating a block of grids at a time ---------------------------------


def _same(x, y):
    # exact agreement: type, value and, for an error, its message
    return type(x) is type(y) and x == y


def _batch(ast, grids):
    report = validate_examples(ast, [(grid, 0) for grid in grids])
    return [outcome.actual for outcome in report.outcomes]


def _check_batch(text, rows):
    ast, grids = parse(text), [Grid(cells) for cells in rows]
    batch, one_by_one = _batch(ast, grids), [evaluate(ast, grid) for grid in grids]
    assert all(map(_same, batch, one_by_one)), (text, batch, one_by_one)
    return batch


def test_grid_rejects_integers_too_large_for_a_float():
    with pytest.raises(ValueError, match="finite"):
        Grid({"A1": 10**400})
    with pytest.raises(ValueError, match="finite"):
        semantic_equivalence(parse("=A1"), parse("=A1"), {"A1": [1, -(10**400)]})


# ----- reading a domain value list as a column ------------------------------


def _shown(column):
    """A column exactly: its kind, and each value's type and repr (-0.0 too)."""
    kind, values = column
    return kind, [(type(value), repr(value)) for value in values]


def _column_or_error(read, values):
    try:
        return _shown(read(values))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _per_value(values):
    return _column([_norm(value) for value in values])


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Money(float):
    pass


@pytest.mark.parametrize("values,expected", [
    ([3, 0, -7], (float, [3.0, 0.0, -7.0])),
    ([2.5, 1e308, 1e308], (float, [2.5, 1e308, 1e308])),  # the sum overflows
    ([0.0, -0.0], (float, [0.0, -0.0])),
    ([True, 1], (None, [True, 1.0])),
    ([Money(2.5), Money(3)], (float, [2.5, 3.0])),
    ([Level.LOW, Level.HIGH], (float, [1.0, 2.0])),
    ([1, 2.5], (float, [1.0, 2.5])),
    ([], (None, [])),
], ids=["ints", "overflowing-sum", "signed-zeros", "bool-and-int", "float-subclass",
        "int-enum", "int-and-float", "empty"])
def test_a_domain_value_list_reads_as_its_grid_values(values, expected):
    # the column semantic_equivalence builds for one domain cell
    assert _shown(_per_value(values)) == _shown(expected)


@pytest.mark.parametrize("values,message", [
    ([1, 10**400], "grid numbers must be finite, got an integer too large for a float"),
    ([1.5, math.inf], "grid numbers must be finite, got inf"),
    ([2, -(10**400), 3], "grid numbers must be finite, got an integer too large for a float"),
    ([1.0, math.nan, 2.0], "grid numbers must be finite, got nan"),
])
def test_a_domain_value_list_names_its_value_at_fault(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        semantic_equivalence(parse("=A1"), parse("=A1"), {"A1": values})


def test_domain_lists_on_the_edges_keep_their_verdicts():
    # a sum of the list past the largest float is no reason to refuse it
    assert semantic_equivalence(
        parse("=A1"), parse("=A1/2*2"), {"A1": [1e308, 1e308]}
    ) == (True, None)
    assert semantic_equivalence(
        parse("=A1"), parse("=-A1"), {"A1": [1e308, 1e308]}
    ) == (False, Grid({"A1": 1e308}))
    # TRUE is no number: =A1*1 is a TypeMismatch on it, and the witness holds it
    same, witness = semantic_equivalence(parse("=A1"), parse("=A1*1"), {"A1": [1, True]})
    assert (same, witness) == (False, Grid({"A1": True}))
    assert witness.cells()["A1"] is True
    same, witness = semantic_equivalence(parse("=1/A1"), parse("=1/A1"), {"A1": [0.0, -0.0]})
    assert (same, witness) == (True, None)


class Count(int):
    pass


def test_an_exact_int_reads_as_an_int_subclass_does():
    # exact ints take their own branch of _norm; a subclass takes the
    # general one, and both must give the same value or the same error
    rng = random.Random(11)
    for _ in range(400):
        digits = rng.choice([1, 6, 15, 17, 300, 308, 309, 400])
        value = rng.choice([-1, 1]) * rng.randint(0, 10**digits)
        got = _column_or_error(_per_value, [value])
        assert got == _column_or_error(_per_value, [Count(value)]), value
        assert got == ((float, [(float, repr(float(value)))]) if abs(value) < 2**1024
                       else (ValueError, "grid numbers must be finite, got an integer "
                             "too large for a float")), value


# 64 x 128 grids make two blocks; grid i holds A1 = i // 128, B1 = i % 128
@pytest.mark.parametrize("first", [0, EQUIVALENCE_BLOCK - 1, EQUIVALENCE_BLOCK])
def test_semantic_equivalence_witness_across_blocks(first):
    assert 64 * 128 == 2 * EQUIVALENCE_BLOCK
    domain = {"A1": range(64), "B1": range(128)}
    a, b = parse("=TRUE"), parse(f"=A1*128+B1<{first}")
    expected = _equivalence_grid_by_grid(a, b, domain)
    assert expected[1] == Grid({"A1": first // 128, "B1": first % 128})
    assert semantic_equivalence(a, b, domain) == expected


def test_semantic_equivalence_agrees_across_blocks():
    domain = {"A1": range(64), "B1": range(128), "C1": [1, 2]}
    same = semantic_equivalence(parse("=SUM(A1:C1)-A1"), parse("=C1+B1"), domain)
    assert same == (True, None)


def test_semantic_equivalence_tells_true_from_one():
    # TRUE == 1.0 in Python, but not under values_equal
    a, b = parse("=A1>=0"), parse("=1")
    assert semantic_equivalence(a, b, {"A1": range(5)}) == (False, Grid({"A1": 0}))
    # mixed columns: the grid A1=2 gives one TypeMismatch on both sides
    a, b = parse('=IF(A1="x",TRUE,A1)'), parse('=IF(A1="x",1,A1)')
    domain = {"A1": [2, "x"]}
    assert semantic_equivalence(a, b, domain) == (False, Grid({"A1": "x"}))


def test_semantic_equivalence_on_empty_domains():
    assert semantic_equivalence(parse("=1"), parse("=1"), {}) == (True, None)
    assert semantic_equivalence(parse("=1"), parse("=2"), {}) == (False, Grid({}))
    assert semantic_equivalence(parse("=A1"), parse("=2"), {"A1": []}) == (True, None)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_domain_cap_is_checked_before_any_value_list_is_copied():
    domain = {"A1": range(3_000_000), "B1": range(3_000_000)}

    def call():
        with pytest.raises(DomainTooLargeError, match="9000000000000 grids"):
            semantic_equivalence(parse("=A1"), parse("=B1"), domain)

    assert _traced_peak(call) < 1_000_000
    # the cap error comes ahead of a bad value's
    with pytest.raises(DomainTooLargeError):
        semantic_equivalence(parse("=A1"), parse("=B1"),
                             {"A1": [float("nan")] * 2000, "B1": range(1000)})
    # a collection without a length is still read
    same = semantic_equivalence(parse("=A1"), parse("=A1+0"), {"A1": iter([1, 2])})
    assert same == (True, None)


def test_a_range_too_long_for_len_is_over_the_cap():
    # len() of such a range overflows; the cap error still comes before any
    # value list is copied
    domain = {"A1": range(3_000_000), "B1": range(10**20)}

    def call():
        with pytest.raises(DomainTooLargeError, match="cap is 1000000 grids"):
            semantic_equivalence(parse("=A1"), parse("=B1"), domain)

    assert _traced_peak(call) < 1_000_000


def test_semantic_equivalence_witness_where_a_middle_run_crosses_blocks():
    # 5 x 9 x 100 grids; grid 4096 opens the second block inside the run of
    # B1 = 4 (grids 4000-4099), and the first difference is grid 4098
    domain = {"A1": range(5), "B1": range(9), "C1": range(100)}
    a, b = parse("=TRUE"), parse("=A1*900+B1*100+C1<>4098")
    expected = _equivalence_grid_by_grid(a, b, domain)
    assert expected[1] == Grid({"A1": 4, "B1": 4, "C1": 98})
    assert semantic_equivalence(a, b, domain) == expected


# each pair's results share one kind, text, TRUE/FALSE or number, so the
# witness search compares them with != alone
@pytest.mark.parametrize(
    "a,b,size,witness",
    [
        # first difference at grid 959 of 1,024
        ('=IF(A1+B1>=60,"hi","lo")', '=IF(A1+B1>60,"hi","lo")', 32, (29, 31)),
        ("=A1+B1>=60", "=A1+B1>60", 32, (29, 31)),
        # grid 5,199 of 10,000, in the second block
        ('=IF(A1+B1>=150,"hi","lo")', '=IF(A1+B1>150,"hi","lo")', 100, (51, 99)),
        ("=A1+B1>=150", "=A1+B1>150", 100, (51, 99)),
        # numbers that differ, but only within the tolerance
        ("=A1*0.1*10", "=A1", 100, None),
    ],
)
def test_semantic_equivalence_of_one_kind_results(a, b, size, witness):
    domain = {"A1": range(size), "B1": range(size)}
    expected = _equivalence_grid_by_grid(parse(a), parse(b), domain)
    if witness is None:
        assert expected == (True, None)
        assert any(ev(a, {"A1": x}) != ev(b, {"A1": x}) for x in range(size))
    else:
        assert expected == (False, Grid(dict(zip(domain, witness))))
    assert semantic_equivalence(parse(a), parse(b), domain) == expected


def test_semantic_equivalence_agrees_within_tolerance():
    a, b = parse("=A1*0.1*3"), parse("=A1*0.3")
    assert any(ev("=A1*0.1*3", {"A1": x}) != ev("=A1*0.3", {"A1": x}) for x in range(50))
    assert semantic_equivalence(a, b, {"A1": range(50)}) == (True, None)


def test_semantic_equivalence_errors_of_one_kind_agree_whatever_the_message():
    a, b = parse("=1/(A1-A1)"), parse("=0^(A1-A1-1)")
    x, y = ev("=1/(A1-A1)", {"A1": 3}), ev("=0^(A1-A1-1)", {"A1": 3})
    assert x.kind == y.kind == "DivideByZero" and x.message != y.message
    assert semantic_equivalence(a, b, {"A1": range(5)}) == (True, None)


# A1's values have two types; with 4,096 values of B1 each block holds one
# A1 value, with 3,000 the first block holds both
@pytest.mark.parametrize("size", [3000, EQUIVALENCE_BLOCK])
def test_semantic_equivalence_mixed_slowest_cell(size):
    domain = {"A1": [1, "x"], "B1": range(size)}
    for a, b in [("=A1+B1", "=B1+A1"), ('=A1<"x"', '=OR(A1<"x",B1=2000)')]:
        a, b = parse(a), parse(b)
        expected = _equivalence_grid_by_grid(a, b, domain)
        assert semantic_equivalence(a, b, domain) == expected
    assert expected[1] == Grid({"A1": "x", "B1": 2000})


def test_semantic_equivalence_memory_stays_bounded_by_the_block():
    # 300,000 grids in 74 blocks; only one block's columns are alive at a time
    domain = {"A1": range(600), "B1": range(500)}
    a, b = parse("=A1+B1"), parse("=B1+A1")
    result = []
    peak = _traced_peak(lambda: result.append(semantic_equivalence(a, b, domain)))
    assert result == [(True, None)]
    assert peak < 4_000_000


MIXED = [
    1, -2.5, 0, "a", "b", True, False,
    EvalError("DivideByZero", "division by zero"),
]


@pytest.mark.parametrize(
    "text",
    [
        "=A1+B1", "=A1-B1*2", "=-A1", "=A1/B1", "=A1^B1", "=A1<B1", "=A1=B1",
        "=A1<>B1", "=A1>=B1", "=NOT(A1)", "=IF(A1,B1,A1)", "=IF(A1,B1)",
        "=AND(A1,B1)", "=OR(B1,A1,TRUE)", "=SUM(A1:B1)", "=MIN(A1,B1,1)",
        "=MAX(A1:B1,-1)", "=AVERAGE(A1:B1,A1)", '=IF(A1<B1,"lo",IF(A1>B1,"hi"))',
        "=A1:B1", "=A1+A1+B1+A1", '=IF(A1,"a","b")', '=IF(A1,1,"x")',
        "=IF(A1<B1,TRUE,0)", "=IF(A1,2.5,0)", '=IF(A1,"a")', '=IF(A1,1,"x")+1',
    ],
)
def test_mixed_type_columns_match_grid_by_grid(text):
    rows = [{"A1": a, "B1": b} for a in MIXED for b in MIXED]
    _check_batch(text, rows)
    domain = {"A1": MIXED, "B1": MIXED}
    for other in ("=A1", "=B1", "=A1+0", "=1"):
        a, b = parse(text), parse(other)
        expected = _equivalence_grid_by_grid(a, b, domain)
        assert semantic_equivalence(a, b, domain) == expected


@pytest.mark.parametrize(
    "text,message",
    [
        ("=A1*B1", "'*' result out of range"),
        ("=SUM(A1,B1)", "SUM result out of range"),
        ("=AVERAGE(A1:B1)", "AVERAGE result out of range"),
    ],
)
def test_overflow_in_one_row_only(text, message):
    rows = [{"A1": 2, "B1": 3}, {"A1": 1e308, "B1": 10 if "*" in text else 1e308},
            {"A1": -4, "B1": 0.5}]
    first, overflow, last = _check_batch(text, rows)
    assert isinstance(first, float) and isinstance(last, float)
    assert overflow == EvalError("TypeMismatch", message)


def test_and_or_error_order_across_mixed_rows():
    rows = [
        {"A1": True, "B1": False},
        {"A1": "x"},
        {"B1": "x"},
        {"A1": 1, "B1": EvalError("DivideByZero", "division by zero")},
        {"A1": False, "B1": 2},
    ]
    for name in ("AND", "OR"):
        got = _check_batch(f"={name}(A1,B1)", rows)
        assert got[0] is (name == "OR")
        # the first error value in argument order wins over a type mismatch
        assert got[1] == EvalError("MissingCell", "cell B1 is empty")
        assert got[2] == EvalError("MissingCell", "cell A1 is empty")
        assert got[3] == EvalError("DivideByZero", "division by zero")
        assert got[4] == EvalError("TypeMismatch", f"{name} needs TRUE/FALSE arguments")


@pytest.mark.parametrize(
    "name,expected",
    [
        ("AND", True),
        ("OR", False),
        *((name, EvalError("EmptyAggregate", f"{name} of zero values"))
          for name in ("MIN", "MAX", "SUM", "AVERAGE")),
    ],
)
def test_zero_argument_calls_match_the_oracle_on_every_grid(name, expected):
    from test_acceptance import _agree

    # the parser's arity check rejects these calls, so build them directly
    ast = FormulaAst(FunctionCall(name, ()))
    rows = [{"A1": 1}, {"A1": "x"}, {}, {"A1": True, "B1": 2}]
    got = _batch(ast, [Grid(row) for row in rows])
    assert len(got) == len(rows)
    assert all(_same(value, expected) for value in got), got
    assert all(_agree(value, oracle_eval(ast, row)) for value, row in zip(got, rows))


def test_validate_examples_with_a_cell_absent_from_some_rows():
    rows = [{"A1": 1, "B1": 2}, {"A1": 1}, {"B1": 3}, {"A1": 4, "B1": 5}]
    assert _check_batch("=A1+B1", rows) == [
        3.0,
        EvalError("MissingCell", "cell B1 is empty"),
        EvalError("MissingCell", "cell A1 is empty"),
        9.0,
    ]
    assert _check_batch("=SUM(A1:B1)", rows)[1:3] == [
        EvalError("MissingCell", "cell B1 is empty"),
        EvalError("MissingCell", "cell A1 is empty"),
    ]
    report = validate_examples(
        parse("=IF(A1>0,A1,B1)"),
        [(Grid(row), 1) for row in rows],
    )
    assert [o.passed for o in report.outcomes] == [True, True, False, False]
    assert report.outcomes[2].actual.kind == "MissingCell"


def test_a_range_is_read_only_up_to_the_first_cell_no_grid_holds():
    grid = Grid({"A1": 1.0, "B1": 2.0})
    missing = EvalError("MissingCell", "cell C1 is empty")
    results = []
    peak = _traced_peak(lambda: results.append(evaluate(parse("=SUM(A1:Z4000)"), grid)))
    assert results == [missing]
    assert peak < 2**20
    # the range's error comes first in each grid, so a later argument's
    # error cannot replace it
    assert ev("=SUM(A1:Z4000,1/0)", grid.cells()) == missing
    assert _check_batch("=MIN(A1:Z4000)", [{"A1": 1, "B1": "x"}, {"A1": 2}]) == [
        EvalError("TypeMismatch", "MIN over non-numeric cell B1"),
        EvalError("MissingCell", "cell B1 is empty"),
    ]
