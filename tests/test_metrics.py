"""Vocabulary metrics over parsed formulas.

The frozen numbers here were worked out by hand from the counting rules:
operators are function names plus arithmetic and comparison symbols, operands
are literals, cells, and ranges (a range is one operand), and identity is the
canonical rendered token, so $C$5 and C5 collapse.
"""

import math

import pytest

from sheetsmith import (
    DegenerateFormulaError,
    halstead_complexity,
    halstead_counts,
    HalsteadCounts,
    metrics_report,
    MILLER_LIMIT,
    miller_concepts,
    parse,
    render,
)

REFERENCE = (
    '=IF(MIN(C5:D5)<40,"Fail",IF(AVERAGE(C5:D5)>=70,"Dist",'
    'IF(AVERAGE(C5:D5)>=55,"Merit",IF(AVERAGE(C5:D5)>=40,"Pass"))))'
)


def test_counts_simple_sum():
    assert halstead_counts(parse("=A1+A2")) == HalsteadCounts(1, 2, 1, 2)


def test_counts_range_is_one_operand():
    # the colon is not an operator and the range is a single operand
    assert halstead_counts(parse("=SUM(A1:A9)")) == HalsteadCounts(1, 1, 1, 1)


def test_counts_reference_formula():
    assert halstead_counts(parse(REFERENCE)) == HalsteadCounts(5, 8, 12, 12)


def test_absolute_and_relative_refs_are_one_operand():
    assert halstead_counts(parse("=$C$5+C5")) == HalsteadCounts(1, 1, 1, 2)


def test_unary_and_binary_minus_share_a_token():
    assert halstead_counts(parse("=-A1-A2")) == HalsteadCounts(1, 2, 2, 2)


def test_complexity_simple_sum():
    value, flagged = halstead_complexity(HalsteadCounts(1, 2, 1, 2))
    assert value == 0.5
    assert not flagged


def test_complexity_reference_formula():
    report = metrics_report(parse(REFERENCE))
    assert abs(report.complexity - 10 / 96) < 1e-12
    assert not report.out_of_range_flag


def test_complexity_upper_boundary_not_flagged():
    value, flagged = halstead_complexity(HalsteadCounts(1, 1, 1, 1))
    assert value == 2.0
    assert not flagged


def test_complexity_above_two_is_flagged():
    report = metrics_report(parse("=SUM(MIN(AVERAGE(A1)))"))
    assert report.complexity == 6.0
    assert report.out_of_range_flag


def test_zero_operators_gives_zero_and_flags():
    report = metrics_report(parse("=A1"))
    assert report.complexity == 0.0
    assert report.out_of_range_flag


def test_no_operands_is_degenerate():
    with pytest.raises(DegenerateFormulaError):
        halstead_complexity(HalsteadCounts(1, 0, 1, 0))


def test_counts_validate_themselves():
    with pytest.raises(ValueError):
        HalsteadCounts(-1, 1, 1, 1)
    with pytest.raises(ValueError):
        HalsteadCounts(2, 1, 1, 1)


def test_extended_metrics_reference_formula():
    report = metrics_report(parse(REFERENCE))
    assert report.volume == pytest.approx(24 * math.log2(13), abs=1e-12)
    assert report.difficulty == pytest.approx(3.75, abs=1e-12)
    assert report.effort == pytest.approx(report.volume * report.difficulty)


def test_extended_metrics_simple_sum():
    report = metrics_report(parse("=A1+A2"))
    assert report.volume == pytest.approx(3 * math.log2(3))
    assert report.difficulty == pytest.approx(0.5)


def test_miller_concepts():
    assert miller_concepts(parse("=A1+A2")) == (3, False)
    assert miller_concepts(parse(REFERENCE)) == (20, True)


def test_miller_boundary():
    at_limit = parse("=SUM(A1,A2,A3,A4,A5,A6,A7,A8)")
    assert miller_concepts(at_limit) == (MILLER_LIMIT, False)
    over = parse("=SUM(A1,A2,A3,A4,A5,A6,A7,A8,A9)")
    assert miller_concepts(over) == (MILLER_LIMIT + 1, True)


def test_counts_are_render_stable():
    for text in ("=A1+A2", "=SUM(A1:A9)", REFERENCE, "=-A1^2"):
        ast = parse(text)
        again = parse(render(ast))
        assert halstead_counts(again) == halstead_counts(ast)


def test_report_is_consistent_with_parts():
    report = metrics_report(parse(REFERENCE))
    value, flagged = halstead_complexity(report.counts)
    assert report.complexity == value
    assert report.out_of_range_flag == flagged
    concepts, over = miller_concepts(parse(REFERENCE))
    assert report.miller_concepts == concepts
    assert report.miller_flag == over


def test_a_call_with_no_arguments_counts_its_name_as_an_operator():
    # the parser never builds one, but a hand-built tree may hold one
    from sheetsmith import BinaryOp, FormulaAst, FunctionCall, NumberLiteral

    call = FunctionCall("AND", ())
    with pytest.raises(DegenerateFormulaError):
        metrics_report(FormulaAst(call))
    plus_one = FormulaAst(BinaryOp("+", call, NumberLiteral(1.0)))
    assert halstead_counts(plus_one) == HalsteadCounts(2, 1, 2, 1)
    assert metrics_report(plus_one).miller_concepts == 3
