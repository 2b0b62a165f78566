"""The error contract for library callers, over every public function.

Each public function of ``sheetsmith.__all__``, and each input record
(LabeledExample, HypothesisConfig, ConfidenceRecord and Grid), starts from
one valid call. Then one plain-value argument at a time is replaced by each
value of ODD. Every call must return, or raise ValueError, TypeError or a
SheetsmithError; and no float it returns, nor any float inside a record,
tuple, list, dict or Grid it returns, may be nan or inf.

Left out: arguments that are trees (FormulaAst), grids, records
(HypothesisConfig as a config, ConfidenceRecord as a record, and the result
records CurveFit and HalsteadCounts) or sequences of records (examples,
records, example pairs). Such an argument of the wrong type still breaks
deep inside: render(None) and synthesize("abc") raise AttributeError.
Values inside a mapping or a sequence (a domain's value lists, a complexity
in summarize_experiment's mapping) are not replaced one by one either. The
test is deterministic and runs in well under a second.
"""

import inspect
import math

import pytest

import sheetsmith
from sheetsmith import (
    combined_overconfidence,
    compile_formula,
    ConfidenceRecord,
    confidence_ratio,
    CurveFit,
    enumerate_candidates,
    evaluate,
    example_grids,
    exceeds_base_error_ceiling,
    f_score,
    fit_accuracy_curve,
    Grid,
    halstead_complexity,
    halstead_counts,
    HypothesisConfig,
    LabeledExample,
    metrics_report,
    miller_concepts,
    parse,
    question_outcome,
    referenced_cells,
    render,
    semantic_equivalence,
    SheetsmithError,
    summarize_experiment,
    synthesize,
    validate_examples,
    values_equal,
)

ODD = [None, 0, -1, 1.5, True, "", "abc", b"ab", [], {}, math.nan, math.inf,
       -math.inf, 10**400, [1, 2], {"a": 5}]

TREE = parse('=IF(A1+B1>=10,"hi","lo")')
EXAMPLES = [LabeledExample({"a": 1.0, "b": 2.0}, "lo"),
            LabeledExample({"a": 9.0, "b": 8.0}, "hi")]
RECORD = ConfidenceRecord("P1", "q1", "edm", True, 1, 4, 2)
FIT = CurveFit(100.0, -0.5, 1.0, 2, 0)

# each public callable: one valid call, as keywords, and the plain-value
# arguments that are replaced in turn
CALLS = [
    (combined_overconfidence, dict(confidence=3, difficulty=4),
     ("confidence", "difficulty")),
    (compile_formula, dict(ast=TREE), ()),
    (confidence_ratio, dict(combined=3.5, f=4), ("combined", "f")),
    (enumerate_candidates, dict(examples=EXAMPLES), ()),
    (evaluate, dict(ast=TREE, grid=Grid({"A1": 4.0, "B1": 7.0})), ()),
    (example_grids, dict(examples=EXAMPLES, assignment={"a": "A1", "b": "B1"}),
     ("assignment",)),
    (exceeds_base_error_ceiling, dict(fit=FIT, min_complexity=1.0, ceiling=95.0),
     ("min_complexity", "ceiling")),
    (f_score, dict(error_count=1, attempted=True), ("error_count", "attempted")),
    (fit_accuracy_curve, dict(points=[(1.0, 90.0), (2, 70)]), ("points",)),
    (halstead_complexity, dict(counts=halstead_counts(TREE)), ()),
    (halstead_counts, dict(ast=TREE), ()),
    (metrics_report, dict(ast=TREE), ()),
    (miller_concepts, dict(ast=TREE), ()),
    (parse, dict(source="=SUM(A1:B2)*2"), ("source",)),
    (question_outcome, dict(record=RECORD), ()),
    (referenced_cells, dict(ast=TREE), ()),
    (render, dict(ast=TREE), ()),
    (semantic_equivalence,
     dict(a=TREE, b=parse('=IF(B1+A1<10,"lo","hi")'), domain={"A1": [1, 5], "B1": [5, 9]}),
     ("domain",)),
    (summarize_experiment, dict(records=[RECORD], complexities={"q1": 2.5}),
     ("complexities",)),
    (synthesize, dict(examples=EXAMPLES, search_budget=1000), ("search_budget",)),
    (validate_examples, dict(ast=TREE, examples=[(Grid({"A1": 4, "B1": 7}), "hi")]), ()),
    (values_equal, dict(a=1.0, b=1.0 + 1e-12), ("a", "b")),
    (LabeledExample, dict(attributes={"a": 1, "b": 2.5}, label="lo"),
     ("attributes", "label")),
    (HypothesisConfig,
     dict(aggregates=("MIN", "SUM"), comparators=("<",), max_decision_depth=2,
          cell_assignment={"a": "A1"}),
     ("aggregates", "comparators", "max_decision_depth", "cell_assignment")),
    (ConfidenceRecord,
     dict(participant_id="P1", question_id="q1", approach="traditional",
          attempted=False, error_count=0, confidence=5, difficulty=1),
     ("participant_id", "question_id", "approach", "attempted", "error_count",
      "confidence", "difficulty")),
    (Grid, dict(cells={"A1": 1, "b2": "x", "C3": True}), ("cells",)),
]

CASES = [(fn, valid, name) for fn, valid, names in CALLS for name in (None, *names)]


def _floats(value):
    """Every float in a returned value, records, containers and grids opened."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, Grid):
        yield from _floats(value.cells())
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif hasattr(type(value), "__match_args__"):
        for field in type(value).__match_args__:
            yield from _floats(getattr(value, field))


def _outcome(fn, arguments) -> str | None:
    """What is wrong with one call, or None if it kept the contract."""
    try:
        result = fn(**arguments)
    except (ValueError, TypeError, SheetsmithError):
        return None
    except Exception as exc:  # any other class breaks the contract
        return f"raised {type(exc).__name__}: {exc}"
    if not all(map(math.isfinite, _floats(result))):
        return f"returned {result!r}"
    return None


def test_every_public_callable_is_covered():
    covered = {fn.__name__ for fn, _, _ in CALLS}
    functions = {name for name in sheetsmith.__all__
                 if inspect.isfunction(getattr(sheetsmith, name))}
    assert functions <= covered
    assert covered - functions == {"LabeledExample", "HypothesisConfig",
                                   "ConfidenceRecord", "Grid"}


@pytest.mark.parametrize(
    "fn,valid,name", CASES, ids=[f"{fn.__name__}-{name or 'valid'}" for fn, _, name in CASES]
)
def test_odd_plain_values_end_in_a_result_or_a_documented_error(fn, valid, name):
    if name is None:
        fn(**valid)  # the call every replacement starts from is valid
        return
    broken = {}
    for odd in ODD:
        problem = _outcome(fn, {**valid, name: odd})
        if problem is not None:
            broken[repr(odd)[:40]] = problem[:160]
    assert broken == {}
