"""Decision-list search over labelled rows.

Everything here is deterministic: the search order is pinned, so so is the
first consistent formula it returns.
"""

import enum
import fractions
import itertools
import math
import operator
import random
import re
import statistics
from bisect import bisect_left, bisect_right

import pytest

from sheetsmith import (
    EmptyLabelError,
    enumerate_candidates,
    evaluate,
    example_grids,
    Grid,
    HypothesisConfig,
    HypothesisSpaceExhaustedError,
    InconsistentExamplesError,
    LabeledExample,
    parse,
    Predicate,
    SearchBudgetExceededError,
    semantic_equivalence,
    synthesize,
    validate_examples,
)
from sheetsmith import evaluator, synthesis
from sheetsmith.errors import not_finite
from sheetsmith.evaluator import aggregate, aggregate_columns, EvalError
from sheetsmith.formulas import ORDERING, render
from sheetsmith.synthesis import (
    _compile,
    _float_columns,
    _placements,
    default_cell_assignment,
    DEFAULT_AGGREGATES,
)

GRADES = [
    (20, 30, "Fail"), (39, 80, "Fail"), (80, 39, "Fail"),
    (40, 40, "Pass"), (54, 55, "Pass"), (40, 58, "Pass"),
    (40, 70, "Merit"), (69, 70, "Merit"), (55, 57, "Merit"),
    (70, 70, "Dist"), (41, 99, "Dist"), (100, 100, "Dist"),
]


def rows(pairs):
    return [
        LabeledExample({"exam": float(e), "coursework": float(c)}, label)
        for e, c, label in pairs
    ]


def test_thresholds_interleave_midpoints():
    examples = [
        LabeledExample({"x": 30.0}, "a"),
        LabeledExample({"x": 47.5}, "a"),
        LabeledExample({"x": 55.0}, "b"),
        LabeledExample({"x": 75.0}, "b"),
    ]
    candidates = enumerate_candidates(examples)
    min_lt = [c.threshold for c in candidates
              if c.aggregate == "MIN" and c.comparator == "<"]
    assert min_lt == [30, 38.75, 47.5, 51.25, 55, 65, 75]


def test_candidate_order_is_families_then_thresholds_then_comparators():
    examples = [
        LabeledExample({"x": 1.0}, "a"),
        LabeledExample({"x": 3.0}, "b"),
    ]
    candidates = enumerate_candidates(
        examples, HypothesisConfig(aggregates=("MIN",), comparators=("<", ">="))
    )
    assert candidates == [
        Predicate("MIN", "<", 1.0),
        Predicate("MIN", ">=", 1.0),
        Predicate("MIN", "<", 2.0),
        Predicate("MIN", ">=", 2.0),
        Predicate("MIN", "<", 3.0),
        Predicate("MIN", ">=", 3.0),
    ]


def test_single_label_synthesises_a_constant():
    result = synthesize([LabeledExample({"score": 10.0}, "Pass")])
    assert result.rendered == '="Pass"'
    assert result.training_report.all_passed
    assert result.candidates_explored == 0


def test_two_labels_split_at_midpoint():
    examples = [
        LabeledExample({"score": 35.0}, "Fail"),
        LabeledExample({"score": 45.0}, "Pass"),
    ]
    result = synthesize(examples)
    assert result.rendered == '=IF(MIN(C5)<40,"Fail","Pass")'
    assert result.training_report.all_passed


def test_grading_synthesis_matches_every_example():
    result = synthesize(rows(GRADES))
    assert result.rendered == (
        '=IF(MIN(C5:D5)<39.5,"Fail",IF(AVERAGE(C5:D5)<54.75,"Pass",'
        'IF(AVERAGE(C5:D5)<69.75,"Merit","Dist")))'
    )
    assert result.training_report.all_passed
    assert result.candidates_explored > 0
    assert result.metrics.complexity > 0


def test_synthesis_is_deterministic():
    a = synthesize(rows(GRADES))
    b = synthesize(rows(GRADES))
    assert a.rendered == b.rendered
    assert a.candidates_explored == b.candidates_explored


def test_attribute_family_used_when_no_aggregate_separates():
    # MIN, MAX, AVERAGE, and SUM each straddle the labels; only the first
    # attribute splits them cleanly
    examples = [
        LabeledExample({"exam": 10.0, "coursework": 100.0}, "X"),
        LabeledExample({"exam": 20.0, "coursework": 0.0}, "X"),
        LabeledExample({"exam": 30.0, "coursework": 5.0}, "Y"),
    ]
    result = synthesize(examples)
    assert result.rendered == '=IF(C5<25,"X","Y")'


def test_default_cells_go_left_to_right_from_c5():
    examples = [
        LabeledExample({"a": 1.0, "b": 1.0, "c": 1.0}, "lo"),
        LabeledExample({"a": 9.0, "b": 9.0, "c": 9.0}, "hi"),
    ]
    grids = example_grids(examples)
    assert grids[0][0] == Grid({"C5": 1.0, "D5": 1.0, "E5": 1.0})
    assert grids[1][1] == "hi"
    result = synthesize(examples)
    assert "C5:E5" in result.rendered


def test_custom_cell_assignment():
    examples = [
        LabeledExample({"a": 1.0, "b": 2.0}, "lo"),
        LabeledExample({"a": 9.0, "b": 8.0}, "hi"),
    ]
    config = HypothesisConfig(cell_assignment={"a": "A1", "b": "B1"})
    result = synthesize(examples, config)
    assert "A1:B1" in result.rendered


def test_non_adjacent_cells_fall_back_to_argument_lists():
    examples = [
        LabeledExample({"a": 1.0, "b": 2.0}, "lo"),
        LabeledExample({"a": 9.0, "b": 8.0}, "hi"),
    ]
    config = HypothesisConfig(cell_assignment={"a": "A1", "b": "C1"})
    result = synthesize(examples, config)
    assert "MIN(A1,C1)" in result.rendered


@pytest.mark.parametrize(
    "assignment, argument",
    [
        ({"a": "C5", "b": "C6"}, "C5:C6"),
        ({"a": "D5", "b": "C5"}, "D5,C5"),
        ({"a": "C6", "b": "C5"}, "C6,C5"),
    ],
    ids=["one-column", "reversed-row", "reversed-column"],
)
def test_cells_that_fill_a_range_in_order_print_as_it(assignment, argument):
    examples = [
        LabeledExample({"a": 1.0, "b": 2.0}, "lo"),
        LabeledExample({"a": 9.0, "b": 8.0}, "hi"),
    ]
    result = synthesize(examples, HypothesisConfig(cell_assignment=assignment))
    assert f"MIN({argument})" in result.rendered


@pytest.mark.parametrize("last", ["ZZ1", "ZZ9"])
def test_a_wide_cell_map_reads_no_more_of_its_range_than_it_has_cells(
    monkeypatch, last
):
    drawn = []
    walk = synthesis.cells_in_range
    monkeypatch.setattr(
        synthesis, "cells_in_range",
        lambda span: (drawn.append(cell) or cell for cell in walk(span)),
    )
    rules = [(Predicate("MIN", "<", 5.0), "lo")]
    formula = _compile(rules, "hi", ("a", "b"), {"a": "A1", "b": last})
    assert render(formula) == f'=IF(MIN(A1,{last})<5,"lo","hi")'
    assert len(drawn) <= 2


@pytest.mark.parametrize(
    "assignment,message",
    [
        ({"a": "C5"}, "no cell to attributes ['b']"),
        ({"a": "C5", "b": "c5"}, "'a' and 'b' to one cell, C5"),
        ({"a": "C5", "b": "$C$5"}, "'a' and 'b' to one cell, C5"),
    ],
    ids=["attribute-without-cell", "lower-case-twin", "absolute-twin"],
)
def test_cell_assignment_gives_each_attribute_its_own_cell(assignment, message):
    examples = [
        LabeledExample({"a": 1.0, "b": 2.0}, "lo"),
        LabeledExample({"a": 9.0, "b": 8.0}, "hi"),
    ]
    with pytest.raises(ValueError) as info:
        synthesize(examples, HypothesisConfig(cell_assignment=assignment))
    assert message in str(info.value)
    with pytest.raises(ValueError) as info:
        example_grids(examples, assignment)
    assert message in str(info.value)


@pytest.mark.parametrize("assignment,message", [
    ({"a": 5, "b": "D5"}, "not a cell reference: 5"),
    ({"a": "C5", "b": None}, "not a cell reference: None"),
    (["a"], "cell assignment must be a mapping or None, got ['a']"),
    ("abc", "cell assignment must be a mapping or None, got 'abc'"),
    ((), "cell assignment must be a mapping or None, got ()"),
])
def test_a_cell_map_is_checked_by_the_config_and_by_example_grids(assignment, message):
    examples = [
        LabeledExample({"a": 1.0, "b": 2.0}, "lo"),
        LabeledExample({"a": 9.0, "b": 8.0}, "hi"),
    ]
    # the config rejects it when built, before any search
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HypothesisConfig(cell_assignment=assignment)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        example_grids(examples, assignment)


def test_synthesised_formula_agrees_with_training_grids():
    result = synthesize(rows(GRADES))
    for grid, label in example_grids(rows(GRADES)):
        assert evaluate(result.formula, grid) == label


def test_inconsistent_examples_rejected():
    with pytest.raises(InconsistentExamplesError):
        synthesize(rows([(40, 40, "Pass"), (40, 40, "Fail")]))


def test_duplicate_consistent_rows_are_fine():
    result = synthesize(rows([(10, 10, "Fail"), (10, 10, "Fail"), (90, 90, "Pass")]))
    assert result.training_report.all_passed


def test_empty_inputs_rejected():
    with pytest.raises(EmptyLabelError):
        synthesize([])
    with pytest.raises(EmptyLabelError):
        synthesize([LabeledExample({"x": 1.0}, "")])


def test_depth_cap_exhausts_the_space():
    # four labels need at least three rules plus the default
    config = HypothesisConfig(max_decision_depth=2)
    with pytest.raises(HypothesisSpaceExhaustedError) as info:
        synthesize(rows(GRADES), config)
    assert 0 < info.value.best_pass_rate < 100


def test_search_budget_is_enforced():
    with pytest.raises(SearchBudgetExceededError):
        synthesize(rows(GRADES), search_budget=5)


def test_search_budget_boundary_is_exact():
    assert synthesize(rows(GRADES), search_budget=1751).candidates_explored == 1751
    with pytest.raises(SearchBudgetExceededError, match="after 1750 candidate"):
        synthesize(rows(GRADES), search_budget=1750)


def test_negative_search_budget_rejected():
    with pytest.raises(ValueError, match="search_budget must be 0 or more, got -3"):
        synthesize(rows(GRADES), search_budget=-3)
    # a zero budget is allowed, and a single label needs no placement
    only = synthesize(rows([(1, 2, "Pass"), (3, 4, "Pass")]), search_budget=0)
    assert only.candidates_explored == 0


@pytest.mark.parametrize("budget, shown", [
    (1.5, "1.5"), (1751.0, "1751.0"), ("10", "'10'"), (True, "True"), (None, "None"),
])
def test_search_budget_must_be_an_int(budget, shown):
    # a float budget would run, and report a fractional count when exceeded
    message = f"^search_budget must be an integer, got {shown}$"
    with pytest.raises(ValueError, match=message):
        synthesize(rows(GRADES), search_budget=budget)


@pytest.mark.parametrize("depth, shown", [
    (2.5, "2.5"), (3.0, "3.0"), ("3", "'3'"), (True, "True"), (None, "None"),
])
def test_config_rejects_a_depth_that_is_not_an_int(depth, shown):
    # a float depth would pass the range check and fail later inside the search
    message = f"^max_decision_depth must be an integer, got {shown}$"
    with pytest.raises(ValueError, match=message):
        HypothesisConfig(max_decision_depth=depth)


def test_minimal_depth_wins():
    # separable at depth 1, so no nested IF appears
    examples = rows([(10, 10, "Fail"), (20, 20, "Fail"), (90, 90, "Pass")])
    result = synthesize(examples)
    assert result.rendered.count("IF(") == 1


def test_mismatched_attribute_schemas_rejected():
    with pytest.raises(ValueError):
        synthesize([
            LabeledExample({"x": 1.0}, "a"),
            LabeledExample({"y": 2.0}, "b"),
        ])


def test_grading_result_generalises_like_the_reference():
    reference = parse(
        '=IF(MIN(C5:D5)<40,"Fail",IF(AVERAGE(C5:D5)>=70,"Dist",'
        'IF(AVERAGE(C5:D5)>=55,"Merit",IF(AVERAGE(C5:D5)>=40,"Pass"))))'
    )
    result = synthesize(rows(GRADES))
    domain = {"C5": range(0, 101), "D5": range(0, 101)}
    same, witness = semantic_equivalence(result.formula, reference, domain)
    assert same, f"diverges at {witness}"


def test_synthesized_text_keeps_tiny_thresholds():
    examples = [LabeledExample({"a": 0.0}, "lo"), LabeledExample({"a": 2e-20}, "hi")]
    result = synthesize(examples)
    assert result.training_report.passes == 2
    report = validate_examples(parse(result.rendered), example_grids(examples))
    assert report.passes == 2, result.rendered


def test_non_finite_attribute_values_rejected():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            LabeledExample({"a": bad}, "x")


@pytest.mark.parametrize(
    "bad,shown",
    [
        (True, "True"),
        (False, "False"),
        (10**400, "an integer too large for a float"),
        (-(10**5000), "an integer too large for a float"),
        ("40", "'40'"),
        (None, "None"),
    ],
    ids=["true", "false", "huge-int", "huge-negative-int", "text", "none"],
)
def test_attribute_values_that_are_not_numbers_rejected(bad, shown):
    with pytest.raises(ValueError) as info:
        LabeledExample({"x": bad}, "a")
    assert str(info.value) == f"attribute 'x' must be a finite number, got {shown}"


class _Float(float):
    pass


class _Mark(enum.IntEnum):
    PASS = 40


@pytest.mark.parametrize(
    "value",
    [
        1.0, -0.0, 5e-324, 1.7976931348623157e308,
        float("nan"), float("inf"), float("-inf"),
        3, 10**400, True, False,
        "1", b"1", None,
        _Float(1.0), _Float("nan"),
        _Mark.PASS, fractions.Fraction(1, 2),
    ],
    ids=repr,
)
def test_an_attribute_value_passes_exactly_when_it_is_a_finite_number(value):
    # exact finite floats skip the check; every other value, float
    # subclasses included, goes through it and fails with its message
    shown = not_finite(value)
    if shown is None:
        assert LabeledExample({"a": value}, "x").attributes["a"] is value
    else:
        with pytest.raises(ValueError) as info:
            LabeledExample({"a": value}, "x")
        assert str(info.value) == f"attribute 'a' must be a finite number, got {shown}"


def test_finite_float_attributes_are_not_sent_to_the_check(monkeypatch):
    calls = []
    monkeypatch.setattr(synthesis, "check_finite", lambda *args: calls.append(args))
    LabeledExample({"exam": 54.0, "coursework": -0.0, "tiny": 5e-324}, "Pass")
    assert calls == []
    # the patch sees every value that is not an exact finite float
    LabeledExample({"exam": 54, "coursework": _Float(55.0)}, "Pass")
    assert [name for name, _ in calls] == ["attribute 'exam'", "attribute 'coursework'"]


@pytest.mark.parametrize(
    "label", [5, None, b"A", ("A",)], ids=["int", "none", "bytes", "tuple"]
)
def test_labels_that_are_not_text_rejected(label):
    # the formula prints a label as text; anything else would fail only in
    # the printer, after the search
    with pytest.raises(ValueError, match=r"^label must be a str, got "):
        LabeledExample({"a": 2}, label)


@pytest.mark.parametrize(
    "attributes", [[1, 2], None, (("a", 2),), "a"], ids=["list", "none", "pairs", "str"]
)
def test_attributes_that_are_not_a_mapping_rejected(attributes):
    # the value check reads them as a mapping, so these ended in an
    # AttributeError naming no field
    with pytest.raises(ValueError) as info:
        LabeledExample(attributes, "A")
    assert str(info.value) == (
        f"attributes must be a mapping of names to numbers, got {attributes!r}"
    )


def test_bool_attributes_no_longer_reach_the_search():
    # a grid keeps a bool as TRUE/FALSE, so the checked formula failed
    with pytest.raises(ValueError, match="attribute 'x' must be a finite number"):
        synthesize([LabeledExample({"x": True}, "a"),
                    LabeledExample({"x": False}, "b")])
    # ints are numbers of the formula language
    result = synthesize([LabeledExample({"x": 1}, "a"), LabeledExample({"x": 2}, "b")])
    assert result.rendered == '=IF(MIN(C5)<1.5,"a","b")'


COMPARATORS = "'<', '<=', '>', '>='"


@pytest.mark.parametrize(
    "config,allowed",
    [
        ({"comparators": ("=",)}, COMPARATORS),
        ({"comparators": ("<>",)}, COMPARATORS),
        ({"comparators": ("~",)}, COMPARATORS),
        ({"aggregates": ("MEDIAN",)}, "'MIN', 'MAX', 'AVERAGE', 'SUM', 'ATTRIBUTE'"),
        ({"max_decision_depth": 0}, "1 or more"),
        # a str is not read as the names of its characters
        ({"aggregates": "MIN"}, "a sequence of names, got the str 'MIN'"),
        ({"comparators": "<>"}, "a sequence of names, got the str '<>'"),
        ({"comparators": "<"}, "a sequence of names, got the str '<'"),
        # nor bytes as the names of its byte values
        ({"aggregates": b"MIN"}, "a sequence of names, got the bytes b'MIN'"),
        ({"comparators": b"<"}, "a sequence of names, got the bytes b'<'"),
    ],
    ids=["equals", "not-equals", "unknown-comparator", "median", "depth-0",
         "aggregates-str", "comparators-str", "one-comparator-str",
         "aggregates-bytes", "comparators-bytes"],
)
def test_config_rejects_what_the_search_cannot_test(config, allowed):
    with pytest.raises(ValueError) as info:
        HypothesisConfig(**config)
    assert allowed in str(info.value)


@pytest.mark.parametrize("field", ["aggregates", "comparators"])
def test_config_rejects_an_empty_aggregate_or_comparator_set(field):
    # an empty set leaves no candidate, which the search would report as
    # examples that no list fits
    with pytest.raises(ValueError, match=f"^{field} must name at least one of"):
        HypothesisConfig(**{field: ()})


@pytest.mark.parametrize(
    "config,message",
    [
        ({"comparators": ("<", "<")}, "comparator '<' is named more than once"),
        ({"comparators": ("<", ">=", "<=", ">=")},
         "comparator '>=' is named more than once"),
        ({"aggregates": ("MIN", "SUM", "MIN")}, "aggregate 'MIN' is named more than once"),
    ],
    ids=["comparator-twice", "comparator-later", "aggregate"],
)
def test_config_rejects_a_repeated_name(config, message):
    # a repeated comparator would list every predicate it makes twice
    with pytest.raises(ValueError, match=f"^{message}$"):
        HypothesisConfig(**config)


@pytest.mark.parametrize(
    "comparator,expected",
    [
        ("<", '=IF(MIN(C5)<2,"x",IF(MIN(C5)<4,"y","x"))'),
        ("<=", '=IF(MIN(C5)<=1,"x",IF(MIN(C5)<=3,"y","x"))'),
        (">", '=IF(MIN(C5)>3,"x",IF(MIN(C5)>1,"y","x"))'),
        (">=", '=IF(MIN(C5)>=4,"x",IF(MIN(C5)>=2,"y","x"))'),
    ],
)
def test_each_ordering_comparator_alone(comparator, expected):
    examples = [
        LabeledExample({"a": 1.0}, "x"),
        LabeledExample({"a": 3.0}, "y"),
        LabeledExample({"a": 5.0}, "x"),
    ]
    result = synthesize(examples, HypothesisConfig(comparators=(comparator,)))
    assert result.rendered == expected
    assert result.training_report.all_passed


def test_average_thresholds_are_the_values_the_formula_computes():
    # fmean gives 0.2 here but the formula's sum/len 0.20000000000000004, so
    # a threshold of 0.2 with <= would leave the "lo" row uncaptured
    examples = [
        LabeledExample({"a": 0.1, "b": 0.2, "c": 0.3}, "lo"),
        LabeledExample({"a": 1.0, "b": 1.0, "c": 1.0}, "hi"),
    ]
    config = HypothesisConfig(aggregates=("AVERAGE",), comparators=("<=", ">"))
    result = synthesize(examples, config)
    report = validate_examples(parse(result.rendered), example_grids(examples))
    assert report.all_passed, result.rendered


def test_families_that_overflow_on_a_row_are_left_out():
    examples = [
        LabeledExample({"a": 1e308, "b": 1e308}, "x"),
        LabeledExample({"a": 1.0, "b": 1.0}, "y"),
    ]
    result = synthesize(examples)
    assert "SUM" not in result.rendered and "AVERAGE" not in result.rendered
    report = validate_examples(parse(result.rendered), example_grids(examples))
    assert report.all_passed, result.rendered
    with pytest.raises(HypothesisSpaceExhaustedError):
        synthesize(examples, HypothesisConfig(aggregates=("SUM",)))


def test_a_family_the_kernel_declines_is_read_row_by_row(monkeypatch):
    # each row's SUM is finite, but the column's check-sum passes the largest
    # float, so the column kernel declines and each row's aggregate decides
    examples = column(6e307, 1e308, 7e307, labels="aba")
    read = []

    def each_row(name, numbers):
        read.append(tuple(numbers))
        return aggregate(name, numbers)

    monkeypatch.setattr(evaluator, "aggregate", each_row)
    sums = aggregate_columns("SUM", [[6e307, 1e308, 7e307]])
    assert sums == (float, [6e307, 1e308, 7e307])
    assert read == [(6e307,), (1e308,), (7e307,)]
    sums = [p.threshold for p in enumerate_candidates(examples)
            if p.aggregate == "SUM" and p.comparator == "<"]
    assert sums == [6e307, (6e307 + 7e307) / 2, 7e307, (7e307 + 1e308) / 2, 1e308]
    result = synthesize(examples, HypothesisConfig(aggregates=("SUM",)))
    assert result.rendered == f'=IF(SUM(C5)<85{"0" * 306},"a","b")'
    assert result.training_report.all_passed


def test_example_sets_with_no_attributes():
    # no column to aggregate: no family, not a kernel call on no columns
    assert enumerate_candidates([LabeledExample({}, "a")] * 2) == []
    result = synthesize([LabeledExample({}, "a")] * 2)
    assert result.rendered == '="a"' and result.candidates_explored == 0
    assert result.training_report.passes == result.training_report.total == 2
    with pytest.raises(InconsistentExamplesError):
        synthesize([LabeledExample({}, "a"), LabeledExample({}, "b")])


def test_self_check_fires_on_the_text_users_copy(monkeypatch):
    # the printed list with 54.75 made 54.25: (54, 55) averages 54.5, Merit
    wrong = (
        '=IF(MIN(C5:D5)<39.5,"Fail",IF(AVERAGE(C5:D5)<54.25,"Pass",'
        'IF(AVERAGE(C5:D5)<69.75,"Merit","Dist")))'
    )
    assert validate_examples(parse(wrong), example_grids(rows(GRADES))).passes == 11
    monkeypatch.setattr(synthesis, "render", lambda formula: wrong)
    with pytest.raises(
        AssertionError, match="^synthesized formula failed its own training set$"
    ):
        synthesize(rows(GRADES))


def test_column_check_equals_the_public_path():
    ints = [
        LabeledExample({"exam": e, "coursework": c}, label) for e, c, label in GRADES
    ]
    cases = [random_example_set(random.Random(seed)) for seed in range(60)] + [
        (ints, HypothesisConfig()),
        (ints[:3], HypothesisConfig()),  # one label
        (column(1, 2, 3, labels="a"), HypothesisConfig()),
        (ints, HypothesisConfig(cell_assignment={"exam": "$c$5", "coursework": "d$5"})),
        (ints, HypothesisConfig(cell_assignment={"exam": "$c$5", "coursework": "a1"})),
    ]
    solved = 0
    for examples, config in cases:
        try:
            result = synthesize(examples, config)
        except HypothesisSpaceExhaustedError:
            continue
        solved += 1
        grids = example_grids(examples, config.cell_assignment)
        public = validate_examples(parse(result.rendered), grids)
        assert result.training_report == public, result.rendered
        assert result.training_report.all_passed
    assert solved >= 30
    # "$c$5" lands on C5: with "d$5" beside it the grading list prints as usual
    placed = synthesize(ints, cases[-2][1]).rendered
    assert placed == synthesize(rows(GRADES)).rendered
    assert "MIN(C5,A1)" in synthesize(ints, cases[-1][1]).rendered


# ----- the search against a plain depth-first reference -------------------

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_AGGREGATES = {"MIN": min, "MAX": max, "AVERAGE": statistics.fmean, "SUM": sum}


def _family_value(predicate, example):
    if predicate.attribute is not None:
        return example.attributes[predicate.attribute]
    return _AGGREGATES[predicate.aggregate](list(example.attributes.values()))


def _holds(examples, candidates):
    """Each candidate's rows as a bit mask, row i being bit i."""
    return [
        sum(
            1 << i for i, example in enumerate(examples)
            if _OPS[c.comparator](_family_value(c, example), c.threshold)
        )
        for c in candidates
    ]


def _label_rows(examples):
    """Each label's rows as a bit mask, in order of appearance."""
    rows_of = {}
    for i, example in enumerate(examples):
        rows_of[example.label] = rows_of.get(example.label, 0) | 1 << i
    return rows_of


def reference_synthesize(examples, config):
    """Rendered text of the first list, or the exhaustion message.

    Every candidate is tried at every slot, in enumerate_candidates order,
    with no memo and no dropped duplicates: the search as first specified.
    Row sets are bit masks, row i being bit i.
    """
    candidates = enumerate_candidates(examples, config)
    holds = _holds(examples, candidates)
    rows_of = _label_rows(examples)
    best = 0

    def note(alive):
        nonlocal best
        fallback = max((alive & rows).bit_count() for rows in rows_of.values())
        best = max(best, len(examples) - alive.bit_count() + fallback)

    def pure_label(subset):
        return next((l for l, rows in rows_of.items() if subset & ~rows == 0), None)

    def walk(alive, slots, rules):
        note(alive)
        for candidate, held in zip(candidates, holds):
            captured = alive & held
            label = pure_label(captured) if captured else None
            if label is None:
                continue
            rest = alive & ~captured
            new_rules = rules + [(candidate, label)]
            if slots == 1:
                if pure_label(rest) is not None:
                    return new_rules, pure_label(rest)
                note(rest)
            elif rest:
                found = walk(rest, slots - 1, new_rules)
                if found:
                    return found
        return None

    names = list(examples[0].attributes)
    if len(rows_of) == 1:
        return render(_compile([], examples[0].label, names, {}))
    for depth in range(1, config.max_decision_depth + 1):
        found = walk((1 << len(examples)) - 1, depth, [])
        if found:
            rules, default = found
            return render(
                _compile(rules, default, names, default_cell_assignment(names))
            )
    rate = 100.0 * best / len(examples)
    return (
        f"no decision list up to depth {config.max_decision_depth} fits all "
        f"{len(examples)} examples; best candidate passes {rate:.1f}%"
    )


def random_example_set(rng):
    names = [f"m{k}" for k in range(rng.randint(1, 3))]
    labels = ["lo", "mid", "hi"][: rng.randint(2, 3)]
    seen = {}
    examples = []
    for _ in range(rng.randint(6, 12)):
        marks = tuple(float(rng.randint(0, 5)) for _ in names)
        label = seen.setdefault(marks, rng.choice(labels))
        examples.append(LabeledExample(dict(zip(names, marks)), label))
    return examples, HypothesisConfig(max_decision_depth=rng.randint(1, 3))


def many_label_set(rng):
    """A set of 4-5 labels, so that many states hold more labels than slots."""
    names = [f"m{k}" for k in range(rng.randint(1, 3))]
    labels = ["E", "D", "C", "B", "A"][: rng.randint(4, 5)]
    seen = {}
    examples = []
    for _ in range(rng.randint(6, 10)):
        marks = tuple(float(rng.randint(0, 5)) for _ in names)
        label = seen.setdefault(marks, rng.choice(labels))
        examples.append(LabeledExample(dict(zip(names, marks)), label))
    return examples, HypothesisConfig(max_decision_depth=rng.randint(1, 4))


def test_search_matches_a_plain_depth_first_reference():
    for make, seeds in ((random_example_set, 200), (many_label_set, 60)):
        solved = exhausted = 0
        for seed in range(seeds):
            examples, config = make(random.Random(seed))
            try:
                got = synthesize(examples, config).rendered
                solved += 1
            except HypothesisSpaceExhaustedError as exc:
                got = str(exc)
                exhausted += 1
            assert got == reference_synthesize(examples, config), (make, seed)
        assert solved >= 20 and exhausted >= 20, make


# values with ties and with float neighbours, whose midpoint rounds onto one
# of the two, so a threshold may equal an observed value
_POOL = [
    0.0, 1.0, math.nextafter(1.0, 2), 2.0, math.nextafter(2.0, 0), 2.5, -1.0
]


def every_comparator_set(rng):
    names = [f"m{k}" for k in range(rng.randint(1, 2))]
    labels = ["lo", "mid", "hi"][: rng.randint(2, 3)]
    seen = {}
    examples = []
    for _ in range(rng.randint(4, 10)):
        marks = tuple(rng.choice(_POOL) for _ in names)
        label = seen.setdefault(marks, rng.choice(labels))
        examples.append(LabeledExample(dict(zip(names, marks)), label))
    comparators = tuple(c for c in ORDERING if rng.random() < 0.5)
    comparators = comparators or (rng.choice(list(ORDERING)),)
    config = HypothesisConfig(
        aggregates=("MIN", "MAX", "ATTRIBUTE"),
        comparators=comparators,
        max_decision_depth=rng.randint(1, 3),
    )
    return examples, config


def test_every_comparator_captures_the_rows_the_reference_does():
    solved = exhausted = 0
    for seed in range(300):
        examples, config = every_comparator_set(random.Random(seed))
        try:
            got = synthesize(examples, config).rendered
            solved += 1
        except HypothesisSpaceExhaustedError as exc:
            got = str(exc)
            exhausted += 1
        assert got == reference_synthesize(examples, config), f"seed {seed}"
    assert solved >= 50 and exhausted >= 50


def test_random_twenty_row_set_finishes_within_the_default_budget():
    rng = random.Random(0)
    examples = [
        LabeledExample(
            {name: float(rng.randint(0, 100)) for name in ("a", "b", "c")},
            rng.choice("PF"),
        )
        for _ in range(20)
    ]
    # the search without a failed-state memo spends all 10M placements here
    result = synthesize(examples)
    assert result.training_report.all_passed


def test_grading_search_is_pinned():
    result = synthesize(rows(GRADES))
    assert result.rendered == (
        '=IF(MIN(C5:D5)<39.5,"Fail",IF(AVERAGE(C5:D5)<54.75,"Pass",'
        'IF(AVERAGE(C5:D5)<69.75,"Merit","Dist")))'
    )
    assert result.candidates_explored == 1751


def test_grading_search_takes_far_fewer_placements():
    # 33,189 placements before failed states were remembered
    assert synthesize(rows(GRADES)).candidates_explored < 33_189


def planted_marks(count):
    """count distinct rows of three marks under a planted four-label list."""
    rng = random.Random(count)
    fail, pass_, merit = rng.randint(35, 45), rng.randint(52, 60), rng.randint(65, 75)
    examples, seen = [], set()
    while len(examples) < count:
        marks = tuple(round(rng.uniform(0, 100), 2) for _ in range(3))
        if marks in seen:
            continue
        seen.add(marks)
        average = statistics.fmean(marks)
        label = ("Fail" if min(marks) < fail else "Pass" if average < pass_
                 else "Merit" if average < merit else "Dist")
        examples.append(LabeledExample(dict(zip("abc", marks)), label))
    return examples


def test_hundred_row_planted_search_is_pinned():
    # the 100-row set of the search-budget table in ROADMAP.md
    result = synthesize(planted_marks(100))
    assert result.rendered == (
        '=IF(MIN(C5:E5)<36.41,"Fail",IF(AVERAGE(C5:E5)<59.23166666666667,"Pass",'
        'IF(AVERAGE(C5:E5)<71.38833333333334,"Merit","Dist")))'
    )
    assert result.candidates_explored == 4_326_431


def test_two_hundred_row_planted_search_is_pinned():
    # the 200-row set of the search-budget table in ROADMAP.md, which the
    # default budget refuses
    examples = planted_marks(200)
    with pytest.raises(SearchBudgetExceededError):
        synthesize(examples)
    result = synthesize(examples, search_budget=10**9)
    assert result.rendered == (
        '=IF(MIN(C5:E5)<34.92,"Fail",IF(AVERAGE(C5:E5)<53.79833333333334,"Pass",'
        'IF(AVERAGE(C5:E5)<63.92,"Merit","Dist")))'
    )
    assert result.candidates_explored == 39_827_851


@pytest.mark.parametrize(
    "marks,count,rate",
    [(2, 24, 75.0), (3, 29, 65.51724137931035)],
)
def test_best_pass_rate_of_a_set_no_list_fits_is_pinned(marks, count, rate):
    rng = random.Random(7)
    examples, seen = [], set()
    for _ in range(30):
        row = tuple(rng.randint(0, 9) for _ in range(marks))
        label = rng.choice("ABC")
        if row not in seen:  # a repeated row may carry another label
            seen.add(row)
            examples.append(LabeledExample(dict(zip("abc", row)), label))
    assert len(examples) == count
    with pytest.raises(HypothesisSpaceExhaustedError) as info:
        synthesize(examples)
    assert repr(info.value.best_pass_rate) == repr(rate)
    assert str(info.value) == (
        f"no decision list up to depth 5 fits all {count} examples; "
        f"best candidate passes {rate:.1f}%"
    )


def counted_placements(examples, config):
    """Placements a plain walk tries before its first list, or None if none fits."""
    tried, fits = walked_placements(examples, config)
    return tried if fits else None


def walked_placements(examples, config):
    """The placements a plain walk tries, up to its first list or all of
    them, and whether it finds a list.

    This is the count the synthesize docstring defines: every distinct
    non-empty capture, in candidate order, is placed at every slot of every
    state (pruning 4); a state that failed before is a memo hit and counts no
    placement (pruning 3). Each placement is counted one at a time.
    """
    holds = _holds(examples, enumerate_candidates(examples, config))
    placements = [held for held in dict.fromkeys(holds) if held]
    rows_of = _label_rows(examples)

    def pure(subset):
        return any(subset & ~rows == 0 for rows in rows_of.values())

    tried = 0
    failed = set()

    def walk(alive, slots):
        nonlocal tried
        if (alive, slots) in failed:
            return False
        for held in placements:
            tried += 1
            captured = alive & held
            if not captured or not pure(captured):
                continue
            rest = alive & ~captured
            if slots == 1:
                if pure(rest):
                    return True
            elif rest and walk(rest, slots - 1):
                return True
        failed.add((alive, slots))
        return False

    if len(rows_of) == 1:
        return 0, True
    for depth in range(1, config.max_decision_depth + 1):
        if walk((1 << len(examples)) - 1, depth):
            return tried, True
    return tried, False


@pytest.mark.parametrize(
    "make,seeds", [(random_example_set, 200), (every_comparator_set, 300)]
)
def test_candidates_explored_counts_each_placement(make, seeds):
    solved = 0
    for seed in range(seeds):
        examples, config = make(random.Random(seed))
        expected = counted_placements(examples, config)
        if expected is None:
            with pytest.raises(HypothesisSpaceExhaustedError):
                synthesize(examples, config)
            continue
        solved += 1
        assert synthesize(examples, config).candidates_explored == expected, seed
        # the budget runs out exactly one placement short of the list
        assert synthesize(examples, config, expected).candidates_explored == expected
        if expected:
            with pytest.raises(SearchBudgetExceededError):
                synthesize(examples, config, expected - 1)
    assert solved >= 50


def test_states_with_more_labels_than_slots_count_each_placement():
    # the walk counts such a state and the rests of its pure captures in bulk;
    # a budget of a failed search's whole count lets it fail, one less stops it
    solved = exhausted = 0
    for seed in range(60):
        examples, config = many_label_set(random.Random(seed))
        expected, fits = walked_placements(examples, config)
        if fits:
            solved += 1
            assert synthesize(examples, config).candidates_explored == expected, seed
        else:
            exhausted += 1
            with pytest.raises(HypothesisSpaceExhaustedError):
                synthesize(examples, config, expected)
        if expected:
            with pytest.raises(SearchBudgetExceededError):
                synthesize(examples, config, expected - 1)
    assert solved >= 20 and exhausted >= 20


def test_every_budget_short_of_the_list_stops_at_its_own_count():
    # four labels need depth 3, so some budgets run out while an earlier slot
    # is filled (in extend) and others in a last-slot pass (in last_rule)
    examples = rows([(10, 10, "Fail"), (50, 50, "Pass"), (70, 70, "Merit"),
                     (90, 90, "Dist")])
    needed = synthesize(examples).candidates_explored
    sites = set()
    for budget in range(needed):
        with pytest.raises(SearchBudgetExceededError) as info:
            synthesize(examples, search_budget=budget)
        assert str(info.value) == (
            f"synthesis stopped after {budget} candidate placements"
        )
        sites.add(info.traceback[-1].name)
    assert sites == {"extend", "last_rule"}
    assert synthesize(examples, search_budget=needed).candidates_explored == needed


# ----- captures from tie groups against a generator of every candidate ------


def _bisected_candidates(examples, names, config):
    """Every candidate as (family, threshold, comparator, captured rows), in
    search order, each threshold's rows found by bisecting the sorted
    values: a reference that shares no code with the tie groups."""
    rows = [[float(v) for v in ex.attributes.values()] for ex in examples]
    families = {}
    for kind in config.aggregates:
        if kind == "ATTRIBUTE":
            for i, attribute in enumerate(names):
                families[kind, attribute] = [row[i] for row in rows]
            continue
        values = [aggregate(kind, row) for row in rows]
        if not any(isinstance(value, EvalError) for value in values):
            families[kind, None] = values
    full_mask = (1 << len(rows)) - 1
    shapes = {"<": (0, 0), "<=": (1, 0), ">": (1, full_mask), ">=": (0, full_mask)}
    picks = [(comparator, *shapes[comparator]) for comparator in config.comparators]
    for family, values in families.items():
        order = sorted(range(len(rows)), key=values.__getitem__)
        ordered = [values[i] for i in order]
        prefix = [0]
        for i in order:
            prefix.append(prefix[-1] | 1 << i)
        distinct = sorted(set(values))
        thresholds = distinct[:1]
        for low, high in zip(distinct, distinct[1:]):
            mid = (low + high) / 2  # no formula prints one that overflowed
            thresholds += [mid, high] if math.isfinite(mid) else [high]
        for threshold in thresholds:
            bounds = (prefix[bisect_left(ordered, threshold)],
                      prefix[bisect_right(ordered, threshold)])
            for comparator, bound, flip in picks:
                yield family, threshold, comparator, bounds[bound] ^ flip


def placements_of(examples, names, config):
    """_placements of the examples' float columns, as synthesize calls it."""
    return _placements(_float_columns(examples, names), len(examples), config)


def assert_placed_as_every_candidate_would_be(examples, config):
    """The search's placements are the first candidate of each non-empty
    capture, in order; enumerate_candidates lists every candidate. Floats
    compare by repr, so -0.0 and 0.0 differ."""
    names = tuple(examples[0].attributes)
    candidates = list(_bisected_candidates(examples, names, config))
    first = {}
    for family, threshold, comparator, mask in candidates:
        if mask and mask not in first:
            first[mask] = family, threshold, comparator
    placed = placements_of(examples, names, config)
    assert [
        (mask, (kind, attribute), repr(threshold), comparator)
        for mask, (kind, comparator, threshold, attribute) in placed.items()
    ] == [
        (mask, family, repr(threshold), comparator)
        for mask, (family, threshold, comparator) in first.items()
    ]
    assert [repr(p) for p in enumerate_candidates(examples, config)] == [
        repr(Predicate(kind, comparator, threshold, attribute))
        for (kind, attribute), threshold, comparator, _ in candidates
    ]


@pytest.mark.parametrize(
    "make,seeds", [(random_example_set, 400), (every_comparator_set, 600)]
)
def test_placements_are_the_first_candidate_of_each_capture(make, seeds):
    for seed in range(seeds):
        assert_placed_as_every_candidate_would_be(*make(random.Random(seed)))


def column(*values, labels="ab"):
    return [
        LabeledExample({"x": value}, labels[i % len(labels)])
        for i, value in enumerate(values)
    ]


def pairs(*rows):
    return [
        LabeledExample({"a": a, "b": b}, "xy"[i % 2]) for i, (a, b) in enumerate(rows)
    ]


ABOVE_ONE = math.nextafter(1.0, 2)  # (1.0 + ABOVE_ONE) / 2 == 1.0
BELOW_ONE = math.nextafter(1.0, 0)  # (BELOW_ONE + 1.0) / 2 == 1.0
TINY = 5e-324  # (0.0 + TINY) / 2 == 0.0

HAND_SETS = {
    "midpoint-rounds-down": column(1.0, ABOVE_ONE, 3.0, 3.5),
    "midpoint-rounds-up": column(BELOW_ONE, 1.0, 3.0, 1.0),
    "subnormal-midpoints": column(TINY, 0.0, 2 * TINY, -TINY),
    "minus-zero-first": column(-0.0, 0.0, 1.0, -1.0, 0.0, labels="aabb"),
    "zero-first": column(0.0, -0.0, 1.0, -1.0, -0.0, labels="aabb"),
    "one-attribute": column(3.0, 1.0, 2.0, 5.0, labels="aab"),
    # SUM and AVERAGE are errors on the first row, so they are left out
    "sum-overflows": pairs((1e308, 1e308), (1.0, 1.0), (2.0, 0.0)),
    # MIN and MAX put the rows in one order, but only MAX's midpoint
    # overflows, to inf, which no formula prints
    "midpoint-overflows": pairs((1.0, 1e308), (2.0, 1.7e308)),
    "midpoint-overflows-negative": pairs((-1e308, -1.0), (-1.7e308, -2.0)),
    # MIN and MAX share tie groups, but only MIN's first midpoint rounds
    # onto an end, so their thresholds cut the rows differently
    "tie-groups-repeat-with-a-rounded-midpoint": pairs(
        (1.0, 1.0), (ABOVE_ONE, 2.0), (3.0, 3.0)
    ),
}
OVERFLOWS = ["midpoint-overflows", "midpoint-overflows-negative"]


@pytest.mark.parametrize("examples", HAND_SETS.values(), ids=HAND_SETS)
@pytest.mark.parametrize(
    "aggregates",
    [DEFAULT_AGGREGATES, DEFAULT_AGGREGATES[::-1]],
    ids=["as-is", "reversed"],
)
def test_hand_sets_place_as_every_candidate_would(examples, aggregates):
    orders = itertools.permutations(ORDERING)
    singles = ((c,) for c in ORDERING)
    for comparators in itertools.chain(orders, singles, [("<", ">=")]):
        config = HypothesisConfig(aggregates=aggregates, comparators=comparators)
        assert_placed_as_every_candidate_would_be(examples, config)


def test_hand_sets_hold_what_they_are_named_for():
    assert (1.0 + ABOVE_ONE) / 2 == 1.0 and (BELOW_ONE + 1.0) / 2 == 1.0
    assert (0.0 + TINY) / 2 == 0.0
    assert (1e308 + 1.7e308) / 2 == math.inf
    # -0.0 and 0.0 are one group, whose threshold is the first row's zero
    for name, zero in (("minus-zero-first", "-0.0"), ("zero-first", "0.0")):
        thresholds = {
            repr(p.threshold) for p in enumerate_candidates(HAND_SETS[name])
            if p.aggregate == "MIN"
        }
        assert {"-0.0", "0.0"} & thresholds == {zero}
    # with one attribute every aggregate after the first adds no capture
    placed = placements_of(HAND_SETS["one-attribute"], ("x",), HypothesisConfig())
    assert {fields[0] for fields in placed.values()} == {"MIN"}
    # the overflowed MAX midpoint is no threshold, so under < nothing
    # captures every row
    config = HypothesisConfig(comparators=("<",))
    placed = placements_of(HAND_SETS["midpoint-overflows"], ("a", "b"), config)
    assert 0b11 not in placed
    for name in OVERFLOWS:
        thresholds = [p.threshold for p in enumerate_candidates(HAND_SETS[name])]
        assert all(map(math.isfinite, thresholds))
    # MIN and MAX both order the rows 0, 1, 2, each row a value of its own
    rows = [ex.attributes.values() for ex in
            HAND_SETS["tie-groups-repeat-with-a-rounded-midpoint"]]
    for fold in (min, max):
        folded = [fold(row) for row in rows]
        assert folded == sorted(set(folded))


@pytest.mark.parametrize("examples", HAND_SETS.values(), ids=HAND_SETS)
def test_every_enumerated_candidate_prints(examples):
    names = tuple(examples[0].attributes)
    assignment = default_cell_assignment(names)
    config = HypothesisConfig(comparators=tuple(ORDERING))
    for predicate in enumerate_candidates(examples, config):
        text = render(_compile([(predicate, "a")], "b", names, assignment))
        assert render(parse(text)) == text


def test_a_call_with_no_config_builds_or_checks_none(monkeypatch):
    calls = []
    check = HypothesisConfig.__post_init__
    monkeypatch.setattr(
        HypothesisConfig, "__post_init__", lambda self: calls.append(self) or check(self)
    )
    examples = rows(GRADES)
    synthesize(examples)
    enumerate_candidates(examples)
    assert calls == []
    HypothesisConfig()  # the patch sees a config that is built
    assert len(calls) == 1


def test_no_config_means_a_fresh_default_config():
    rng = random.Random(4172)
    for trial in range(60):
        examples, _ = random_example_set(rng)
        assert enumerate_candidates(examples) == enumerate_candidates(
            examples, HypothesisConfig()
        ), f"trial {trial}"
        try:
            got = synthesize(examples)
        except HypothesisSpaceExhaustedError as exc:
            with pytest.raises(HypothesisSpaceExhaustedError, match=re.escape(str(exc))):
                synthesize(examples, HypothesisConfig())
        else:
            assert got == synthesize(examples, HypothesisConfig()), f"trial {trial}"


@pytest.mark.parametrize(
    "assignment, argument",
    [
        ({"exam": "C5", "coursework": "D5", "project": "E5"}, "C5:E5"),
        ({"exam": "C5", "coursework": "E5", "project": "F5"}, "C5,E5,F5"),
    ],
    ids=["range", "refs"],
)
def test_a_list_builds_its_aggregate_argument_once(monkeypatch, assignment, argument):
    calls = []
    walk = synthesis.cells_in_range
    monkeypatch.setattr(
        synthesis, "cells_in_range", lambda span: calls.append(span) or walk(span)
    )
    names = ("exam", "coursework", "project")
    rules = [
        (Predicate("MIN", "<", 40.0), "Fail"),
        (Predicate(synthesis.SINGLE_ATTRIBUTE, ">=", 90.0, "project"), "Star"),
        (Predicate("AVERAGE", ">=", 70.0), "Dist"),
        (Predicate("SUM", "<", -165.0), "Pass"),
    ]
    formula = _compile(rules, "Merit", names, assignment)
    assert len(calls) == 1
    assert render(formula) == (
        f'=IF(MIN({argument})<40,"Fail",IF({assignment["project"]}>=90,"Star",'
        f'IF(AVERAGE({argument})>=70,"Dist",IF(SUM({argument})<-165,"Pass","Merit"))))'
    )
    # a list of single-attribute rules builds no aggregate argument
    calls.clear()
    _compile(rules[1:2], "Merit", names, assignment)
    assert calls == []


def test_overflow_sets_count_each_placement():
    sets = [HAND_SETS[name] for name in OVERFLOWS]
    sets.append(column(1.0, 1e308, 1.7e308, labels="aba"))
    for examples, comparators in itertools.product(
        sets, [*((c,) for c in ORDERING), ("<", ">=")]
    ):
        config = HypothesisConfig(comparators=comparators)
        expected = counted_placements(examples, config)
        if expected is None:
            with pytest.raises(HypothesisSpaceExhaustedError):
                synthesize(examples, config)
            continue
        assert synthesize(examples, config).candidates_explored == expected
        assert synthesize(examples, config, expected).candidates_explored == expected
        if expected:
            with pytest.raises(SearchBudgetExceededError):
                synthesize(examples, config, expected - 1)
    # the same list as while the overflowed midpoint was a threshold, in 5
    # placements rather than 7
    result = synthesize(sets[-1], HypothesisConfig(comparators=("<",)))
    rules = [(Predicate("MIN", "<", 5e307), "a"), (Predicate("MIN", "<", 1.7e308), "b")]
    assert result.formula == _compile(rules, "a", ("x",), {"x": "C5"})
    assert result.candidates_explored == 5
