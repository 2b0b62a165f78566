"""Halstead-style size metrics and a working-memory concept count for formulas.

Counting rules:
  operators  = function-name occurrences plus binary and unary symbols
  operands   = number/text/boolean literals, cell references, and ranges;
               a range such as C5:D5 is a single operand and ':' is not
               an operator
  identity   = canonical rendered token text, so $C$5 and C5 are the same
               operand and unary '-' merges with binary '-'

Derived values:
  complexity = 2*n1 / (n2*N2)     (2 = least complex; values outside (0, 2]
                                   set out_of_range_flag instead of clamping)
  volume     = (N1+N2) * log2(n1+n2)
  difficulty = (n1/2) * (N2/n2)
  effort     = difficulty * volume
  concepts   = N1 + n2            (flagged when above MILLER_LIMIT)
"""

from __future__ import annotations

import math

from ._record import record
from .errors import check_instance, DegenerateFormulaError
from .formulas import (
    BinaryOp,
    CellRef,
    FormulaAst,
    FunctionCall,
    number_text,
    NumberLiteral,
    RangeRef,
    token_text,
    UnaryOp,
)

MILLER_LIMIT = 9


@record
class HalsteadCounts:
    n1: int  # distinct operators
    n2: int  # distinct operands
    N1: int  # total operators
    N2: int  # total operands

    def __post_init__(self):
        if min(self.n1, self.n2, self.N1, self.N2) < 0:
            raise ValueError("halstead counts cannot be negative")
        if self.n1 > self.N1 or self.n2 > self.N2:
            raise ValueError("distinct counts cannot exceed totals")


@record
class MetricsReport:
    counts: HalsteadCounts
    complexity: float
    out_of_range_flag: bool
    volume: float
    difficulty: float
    effort: float
    miller_concepts: int
    miller_flag: bool


def halstead_counts(ast: FormulaAst) -> HalsteadCounts:
    """Count distinct and total operators/operands of a formula tree."""
    check_instance("ast", ast, FormulaAst)
    operators: list[str] = []
    operands: list[str] = []
    # children go on the end of the list being read; the order changes no
    # set and no count
    nodes = [ast.root]
    extend = nodes.extend
    for node in nodes:
        kind = node.__class__  # the kinds a grading formula holds most come first
        if kind is FunctionCall:
            # a call with no arguments still counts its name
            operators.append(node.name)
            extend(node.args)
        elif kind is NumberLiteral:
            operands.append(number_text(node.value))
        elif kind is BinaryOp:
            operators.append(node.op)
            extend((node.left, node.right))
        elif kind is CellRef or kind is RangeRef:
            operands.append(node.canonical())
        elif kind is UnaryOp:
            operators.append(node.op)
            extend((node.operand,))
        else:
            operands.append(token_text(node))
    return HalsteadCounts(
        n1=len(set(operators)),
        n2=len(set(operands)),
        N1=len(operators),
        N2=len(operands),
    )


def halstead_complexity(counts: HalsteadCounts) -> tuple[float, bool]:
    """2*n1/(n2*N2) and whether it fell outside the nominal (0, 2] range."""
    check_instance("counts", counts, HalsteadCounts)
    if counts.n2 * counts.N2 == 0:
        raise DegenerateFormulaError(
            "complexity undefined: formula has no operands"
        )
    value = 2 * counts.n1 / (counts.n2 * counts.N2)
    return value, value <= 0 or value > 2


def miller_concepts(ast: FormulaAst) -> tuple[int, bool]:
    """N1 + n2 as a count of concepts held in mind; flag when above 9."""
    report = metrics_report(ast)
    return report.miller_concepts, report.miller_flag


def metrics_report(ast: FormulaAst) -> MetricsReport:
    """All metrics for one formula in a single pass."""
    counts = halstead_counts(ast)
    # halstead_complexity has raised if there are no operands, so n2 > 0
    complexity, out_of_range = halstead_complexity(counts)
    volume = (counts.N1 + counts.N2) * math.log2(counts.n1 + counts.n2)
    difficulty = (counts.n1 / 2) * (counts.N2 / counts.n2)
    concepts = counts.N1 + counts.n2
    return MetricsReport(
        counts=counts,
        complexity=complexity,
        out_of_range_flag=out_of_range,
        volume=volume,
        difficulty=difficulty,
        effort=difficulty * volume,
        miller_concepts=concepts,
        miller_flag=concepts > MILLER_LIMIT,
    )
