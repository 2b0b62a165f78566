"""Value semantics of the result records, and what building them costs.

Every public record class, the syntax tree nodes included, comes from one
builder: an immutable value class whose fields are its annotated names. The
node classes are covered in test_nodes.py; this file covers the other
fifteen, the headers of the tables they hold, and that no command loads
``dataclasses`` (or ``inspect``, which it imports) to build them.
"""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

import sheetsmith
from sheetsmith import (
    ApproachSummary,
    ConfidenceRecord,
    CurveFit,
    EvalError,
    ExperimentSummary,
    FormulaAst,
    HalsteadCounts,
    HypothesisConfig,
    LabeledExample,
    MetricsReport,
    NumberLiteral,
    Predicate,
    QuestionOutcome,
    QuestionSummary,
    RangeError,
    SynthesisResult,
    ValidationReport,
    csvio,
)
from sheetsmith._record import record
from sheetsmith.evaluator import ExampleOutcome

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sheetsmith.__file__)))
DATA = os.path.join(SRC, "sheetsmith", "data")


def _build():
    """One record of each of the fifteen classes; each call builds new ones."""
    outcome = ExampleOutcome(0, "Pass", "Pass", True)
    report = ValidationReport((outcome,), 1, 1)
    counts = HalsteadCounts(2, 3, 2, 4)
    metrics = MetricsReport(counts, 0.333, False, 12.9, 1.33, 17.2, 5, False)
    question = QuestionSummary("edm", "q1", 0.5, 3, 100.0, 0.0, 0.9, 4.0)
    approach = ApproachSummary("edm", 3, 0.0, 100.0, 0.0, 0.9)
    return [
        EvalError("DivideByZero", "division by zero"),
        outcome,
        report,
        counts,
        metrics,
        LabeledExample({"exam": 40.0, "coursework": 50.0}, "Pass"),
        HypothesisConfig(),
        Predicate("MIN", "<", 39.5),
        SynthesisResult(FormulaAst(NumberLiteral(1.0)), "=1", report, 7, metrics),
        ConfidenceRecord("P1", "q1", "edm", True, 0, 5, 4),
        QuestionOutcome(5, 4.5, 0.9),
        question,
        approach,
        ExperimentSummary((question,), (approach,)),
        CurveFit(120.0, -0.5, 0.98, 3, 0),
    ]


RECORDS = _build()
TWINS = _build()
IDS = [type(r).__name__ for r in RECORDS]
# a dict field makes a record unhashable, as a tuple holding a dict is
UNHASHABLE = (LabeledExample,)


def _field_values(rec) -> tuple:
    return tuple(getattr(rec, name) for name in type(rec).__match_args__)


def test_the_fifteen_classes_are_distinct():
    assert len(set(IDS)) == 15


@pytest.mark.parametrize("rec, twin", zip(RECORDS, TWINS), ids=IDS)
def test_equal_records_hash_alike(rec, twin):
    assert rec is not twin
    assert rec == twin and not rec != twin
    if isinstance(rec, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin)
        assert len({rec, twin}) == 1


def test_only_records_of_one_class_compare_equal():
    for i, a in enumerate(RECORDS):
        assert a != _field_values(a)
        for b in RECORDS[i + 1:]:
            assert a != b

    @record
    class Lookalike:
        kind: str
        message: str

    error = EvalError("DivideByZero", "division by zero")
    assert Lookalike("DivideByZero", "division by zero") != error
    assert error != EvalError("DivideByZero", "other")


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(rec):
    pairs = zip(rec.__match_args__, _field_values(rec))
    shown = ", ".join(f"{name}={value!r}" for name, value in pairs)
    assert repr(rec) == f"{type(rec).__name__}({shown})"


def test_reprs_read_like_constructor_calls():
    assert repr(EvalError("DivideByZero", "x")) == (
        "EvalError(kind='DivideByZero', message='x')"
    )
    assert repr(CurveFit(1.0, -0.5, 0.9, 3, 0)) == (
        "CurveFit(a=1.0, b=-0.5, r_squared=0.9, points_used=3, points_dropped=0)"
    )
    assert repr(Predicate("MIN", "<", 39.5)) == (
        "Predicate(aggregate='MIN', comparator='<', threshold=39.5, attribute=None)"
    )


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(rec):
    name = rec.__match_args__[0]
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, before)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, name) is before


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal_values(rec):
    clones = [copy.copy(rec), copy.deepcopy(rec)]
    clones += [
        pickle.loads(pickle.dumps(rec, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert clone == rec and type(clone) is type(rec)
        assert repr(clone) == repr(rec)


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_vars_holds_the_fields_in_order(rec):
    assert list(vars(rec)) == list(rec.__match_args__)
    assert tuple(vars(rec).values()) == _field_values(rec)


def test_defaults_stay_class_attributes():
    assert HypothesisConfig.max_decision_depth == 5
    assert HypothesisConfig.cell_assignment is None
    assert Predicate.attribute is None
    assert HypothesisConfig(max_decision_depth=2).aggregates == (
        HypothesisConfig.aggregates
    )


def test_records_match_positional_patterns():
    match CurveFit(120.0, -0.5, 0.98, 3, 1):
        case CurveFit(a, b, _, used, dropped):
            assert (a, b, used, dropped) == (120.0, -0.5, 3, 1)
        case _:
            pytest.fail("pattern did not match")


def test_properties_and_methods_of_the_body_are_kept():
    report = ValidationReport((), 1, 2)
    assert report.all_passed is False
    assert ValidationReport((), 2, 2).all_passed is True


# ----- __post_init__ checks -------------------------------------------------

RECORD_FIELDS = ("participant_id", "question_id", "approach", "attempted",
                 "error_count", "confidence", "difficulty")


def _both_ways(cls, *args):
    """Build cls positionally, and by keyword with the same values."""
    yield lambda: cls(*args)
    yield lambda: cls(**dict(zip(cls.__match_args__, args)))


@pytest.mark.parametrize("cls, args, error, match", [
    (ConfidenceRecord, ("P1", "q1", "abacus", True, 0, 5, 4), ValueError,
     "approach must be one of"),
    (ConfidenceRecord, ("P1", "q1", "edm", True, -1, 5, 4), ValueError,
     "error count cannot be negative"),
    (ConfidenceRecord, ("P1", "q1", "edm", True, 0, 6, 4), RangeError,
     "confidence must be an integer from 1 to 5"),
    (ConfidenceRecord, ("P1", "q1", "edm", True, 0, 5, 0), RangeError,
     "difficulty must be an integer from 1 to 5"),
    (HalsteadCounts, (1, 1, -1, 1), ValueError, "cannot be negative"),
    (HalsteadCounts, (3, 1, 2, 1), ValueError, "cannot exceed totals"),
    (LabeledExample, ({"exam": float("nan")}, "Pass"), ValueError,
     "attribute 'exam' must be a finite number"),
    (HypothesisConfig, ((), ("<",)), ValueError, "aggregates must name at least"),
    (HypothesisConfig, (("MIN", "MIN"),), ValueError, "named more than once"),
    (HypothesisConfig, (("MIN",), ("~",)), ValueError, "comparator '~' is not"),
    (HypothesisConfig, (("MIN",), ("<",), 0), ValueError,
     "max_decision_depth must be 1 or more"),
])
def test_post_init_checks_positional_and_keyword_construction(cls, args, error, match):
    for build in _both_ways(cls, *args):
        with pytest.raises(error, match=match):
            build()


def test_post_init_passes_valid_records_both_ways():
    args = ("P1", "q1", "edm", False, 0, 1, 5)
    assert ConfidenceRecord(*args) == ConfidenceRecord(**dict(zip(RECORD_FIELDS, args)))
    assert HalsteadCounts(n1=1, n2=1, N1=1, N2=1) == HalsteadCounts(1, 1, 1, 1)
    assert HypothesisConfig(max_decision_depth=1).max_decision_depth == 1


# ----- table headers ------------------------------------------------------


@pytest.mark.parametrize("cls, header", [
    (ConfidenceRecord, RECORD_FIELDS),
    (HalsteadCounts, ("n1", "n2", "N1", "N2")),
    (MetricsReport, ("counts", "complexity", "out_of_range_flag", "volume",
                     "difficulty", "effort", "miller_concepts", "miller_flag")),
    (QuestionOutcome, ("f_score", "combined_overconfidence", "confidence_ratio")),
    (QuestionSummary, ("approach", "question_id", "complexity", "attempted",
                       "percentage_accuracy", "mean_errors",
                       "mean_confidence_ratio", "mean_difficulty")),
    (ApproachSummary, ("approach", "participants", "percentage_models_with_errors",
                       "percentage_accuracy", "mean_errors_per_question",
                       "mean_confidence_ratio")),
    (CurveFit, ("a", "b", "r_squared", "points_used", "points_dropped")),
])
def test_table_headers_are_the_fields_in_order(cls, header):
    assert csvio.columns(cls) == header


# ----- import cost ----------------------------------------------------------


COMMANDS = [
    ("analyze", "=SUM(C5:D5)/2"),
    ("scan", "{formulas}"),
    ("synthesize", "--examples", os.path.join(DATA, "grading_examples.csv")),
    ("validate", "--formula", '=IF(MIN(C5:D5)<40,"Fail","Pass")',
     "--examples", os.path.join(DATA, "grading_examples.csv")),
    ("confidence", "--results", os.path.join(DATA, "experiment_results.csv"),
     "--complexities", os.path.join(DATA, "question_complexities.csv"),
     "--out-dir", "{out}"),
    ("fit", "--points", "{points}"),
]


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_no_command_loads_dataclasses_or_inspect(tmp_path, command):
    formulas = tmp_path / "formulas.csv"
    formulas.write_text("source_id,formula\nq1,=SUM(C5:D5)/2\nq2,=1+\n")
    points = tmp_path / "points.csv"
    points.write_text("complexity,accuracy_pct\n1,90\n2,70\n3,50\n")
    args = [
        arg.format(formulas=formulas, points=points, out=tmp_path / "out")
        for arg in command
    ]
    probe = (
        "import contextlib, io, json, sys\n"
        "from sheetsmith import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({args!r})\n"
        "print(json.dumps([status, 'dataclasses' in sys.modules,"
        " 'inspect' in sys.modules]))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [0, False, False]
