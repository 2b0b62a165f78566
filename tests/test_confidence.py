import importlib.resources
import math
import re

import pytest

from sheetsmith import (
    combined_overconfidence,
    ConfidenceRecord,
    confidence_ratio,
    CurveFit,
    csvio,
    DegenerateXError,
    EmptyInputError,
    exceeds_base_error_ceiling,
    f_score,
    fit_accuracy_curve,
    InsufficientPointsError,
    question_outcome,
    RangeError,
    summarize_experiment,
    UnknownQuestionError,
)


def test_f_score_table():
    assert f_score(0, True) == 5
    assert f_score(1, True) == 4
    assert f_score(2, True) == 3
    assert f_score(3, True) == 2
    assert f_score(4, True) == 1
    assert f_score(9, True) == 1
    assert f_score(0, False) == 0
    assert f_score(7, False) == 0


def test_f_score_rejects_negative_counts():
    with pytest.raises(ValueError):
        f_score(-1, True)


def test_f_score_rejects_what_is_not_a_count_and_a_flag():
    # F is a whole number from 0 to 5; these were scored as if they were
    # valid (1.5 errors gave 3.5, True errors gave 4, 1 counted as attempted)
    for errors, attempted, message in [
        (1.5, True, "error count must be an integer, got 1.5"),
        (1.5, False, "error count must be an integer, got 1.5"),
        (True, True, "error count must be an integer, got True"),
        ("2", True, "error count must be an integer, got '2'"),
        (2, 1, "attempted must be True or False, got 1"),
        (2, None, "attempted must be True or False, got None"),
        (2, "yes", "attempted must be True or False, got 'yes'"),
        (-1, False, "error count cannot be negative"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            f_score(errors, attempted)


def test_combined_is_an_equal_weight_blend():
    assert combined_overconfidence(5, 1) == 3.0
    assert combined_overconfidence(4, 3) == 3.5
    assert combined_overconfidence(1, 1) == 1.0


def test_ratings_must_sit_on_the_scale():
    for bad in (0, 6, -2):
        with pytest.raises(RangeError):
            combined_overconfidence(bad, 3)
        with pytest.raises(RangeError):
            combined_overconfidence(3, bad)
    with pytest.raises(RangeError):
        combined_overconfidence(True, 3)
    with pytest.raises(RangeError):
        combined_overconfidence(2.5, 3)


def test_ratio_landmarks():
    # maximally overconfident: certain, found it easy, made many errors
    assert confidence_ratio(combined_overconfidence(5, 5), f_score(4, True)) == 5.0
    # perfectly calibrated middle of every scale
    assert confidence_ratio(combined_overconfidence(3, 3), f_score(2, True)) == 1.0
    # maximally underconfident: unsure, found it hard, made no errors
    assert confidence_ratio(combined_overconfidence(1, 1), f_score(0, True)) == 0.2


def test_ratio_spans_the_whole_lattice():
    values = [
        confidence_ratio(combined_overconfidence(c, d), f_score(e, True))
        for c in range(1, 6)
        for d in range(1, 6)
        for e in range(0, 6)
    ]
    assert min(values) == 0.2
    assert max(values) == 5.0


def test_ratio_is_undefined_when_not_attempted():
    assert confidence_ratio(combined_overconfidence(3, 3), f_score(0, False)) is None


def test_question_outcome():
    record = ConfidenceRecord("P01", "q1", "traditional", True, 1, 4, 2)
    outcome = question_outcome(record)
    assert outcome.f_score == 4
    assert outcome.combined_overconfidence == 3.0
    assert outcome.confidence_ratio == 0.75


def test_record_validation():
    with pytest.raises(ValueError):
        ConfidenceRecord("P01", "q1", "agile", True, 0, 3, 3)
    with pytest.raises(ValueError):
        ConfidenceRecord("P01", "q1", "edm", True, -1, 3, 3)
    with pytest.raises(RangeError):
        ConfidenceRecord("P01", "q1", "edm", True, 0, 0, 3)
    # a fractional count or a text flag would be scored as if it were valid
    for attempted, errors, message in [
        ("0", 0, "attempted must be True or False, got '0'"),
        (1, 0, "attempted must be True or False, got 1"),
        (None, 0, "attempted must be True or False, got None"),
        (True, 1.5, "error count must be an integer, got 1.5"),
        (True, 1.0, "error count must be an integer, got 1.0"),
        (True, True, "error count must be an integer, got True"),
        (True, "2", "error count must be an integer, got '2'"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConfidenceRecord("P01", "q1", "edm", attempted, errors, 3, 3)


def _short(value):
    """A test id for an int too large to print in one, else pytest's own."""
    return "huge" if isinstance(value, int) and abs(value) > 2**64 else None


@pytest.mark.parametrize("participant,question,message", [
    (5, "q1", "participant_id must be a str, got 5"),
    (None, "q1", "participant_id must be a str, got None"),
    ("P01", b"q1", "question_id must be a str, got b'q1'"),
    ("P01", 1.5, "question_id must be a str, got 1.5"),
])
def test_record_ids_must_be_text(participant, question, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ConfidenceRecord(participant, question, "edm", True, 0, 3, 3)


@pytest.mark.parametrize("combined,f,message", [
    (3.0, 7, "F must be 5 or less, got 7"),
    (3.0, -1, "F must be 0 or more, got -1"),
    (3.0, True, "F must be an integer, got True"),
    (3.0, 1.5, "F must be an integer, got 1.5"),
    (3.0, 2.0, "F must be an integer, got 2.0"),
    (float("nan"), 5, "combined must be a finite number, got nan"),
    (float("inf"), 0, "combined must be a finite number, got inf"),
    (10**400, 5, "combined must be a finite number, got an integer too large for a float"),
    (True, 5, "combined must be a finite number, got True"),
    ("3", 5, "combined must be a finite number, got '3'"),
], ids=_short)
def test_confidence_ratio_takes_a_whole_f_and_a_finite_combined(combined, f, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        confidence_ratio(combined, f)


def test_summary_hand_count():
    errors = [0, 0, 1, 2, 0, 3, 0, 4, 1, 0]
    records = [
        ConfidenceRecord(f"P{i:02d}", "q1", "traditional", True, e, 3, 3)
        for i, e in enumerate(errors, start=1)
    ]
    summary = summarize_experiment(records, {"q1": 1.0})
    approach = summary.approaches[0]
    assert approach.participants == 10
    assert approach.percentage_models_with_errors == 50.0
    assert approach.percentage_accuracy == 50.0
    assert approach.mean_errors_per_question == 1.1
    question = summary.questions[0]
    assert question.attempted == 10
    assert question.percentage_accuracy == 50.0
    assert question.mean_errors == 1.1


def test_summary_orders_approaches_and_questions():
    records = [
        ConfidenceRecord("P1", "q2", "edm", True, 0, 3, 3),
        ConfidenceRecord("P1", "q1", "edm", True, 0, 3, 3),
        ConfidenceRecord("P1", "q1", "traditional", True, 2, 3, 3),
    ]
    summary = summarize_experiment(records, {"q1": 1.0, "q2": 0.5})
    assert [a.approach for a in summary.approaches] == ["traditional", "edm"]
    assert [(q.approach, q.question_id) for q in summary.questions] == [
        ("traditional", "q1"), ("edm", "q1"), ("edm", "q2"),
    ]


def test_summary_skips_unattempted_in_means():
    records = [
        ConfidenceRecord("P1", "q1", "edm", True, 2, 3, 3),
        ConfidenceRecord("P2", "q1", "edm", False, 0, 3, 3),
    ]
    summary = summarize_experiment(records, {"q1": 1.0})
    question = summary.questions[0]
    assert question.attempted == 1
    assert question.percentage_accuracy == 0.0
    assert question.mean_errors == 2.0


def test_summary_requires_known_questions_and_input():
    with pytest.raises(EmptyInputError):
        summarize_experiment([], {"q1": 1.0})
    records = [ConfidenceRecord("P1", "q9", "edm", True, 0, 3, 3)]
    with pytest.raises(UnknownQuestionError):
        summarize_experiment(records, {"q1": 1.0})


def fixture_path(name):
    return str(importlib.resources.files("sheetsmith") / "data" / name)


def test_bundled_study_fixture_headline_numbers():
    records = csvio.read_results_csv(fixture_path("experiment_results.csv"))
    complexities = csvio.read_complexities_csv(
        fixture_path("question_complexities.csv")
    )
    summary = summarize_experiment(records, complexities)
    by_name = {a.approach: a for a in summary.approaches}
    traditional = by_name["traditional"]
    assert traditional.percentage_models_with_errors == 80.0
    assert traditional.mean_errors_per_question == 4.0
    edm = by_name["edm"]
    assert edm.percentage_accuracy == 98.0
    assert edm.mean_errors_per_question == 0.3


def test_bundled_fixture_accuracy_falls_as_formulas_harden():
    records = csvio.read_results_csv(fixture_path("experiment_results.csv"))
    complexities = csvio.read_complexities_csv(
        fixture_path("question_complexities.csv")
    )
    summary = summarize_experiment(records, complexities)
    traditional = [q for q in summary.questions if q.approach == "traditional"]
    ordered = sorted(traditional, key=lambda q: q.complexity, reverse=True)
    accuracies = [q.percentage_accuracy for q in ordered]
    assert accuracies == sorted(accuracies, reverse=True)


def test_fit_recovers_a_halving_curve():
    fit = fit_accuracy_curve([(1.0, 50.0), (2.0, 25.0)])
    assert fit.a == pytest.approx(100.0, abs=1e-9)
    assert fit.b == pytest.approx(-math.log(2), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_noiseless_exponential():
    points = [(c / 10, 100 * math.exp(-2 * c / 10)) for c in range(1, 21)]
    fit = fit_accuracy_curve(points)
    assert fit.a == pytest.approx(100.0, abs=1e-9)
    assert fit.b == pytest.approx(-2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 20
    assert fit.points_dropped == 0


@pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
def test_fit_scale_moves_a_not_b(scale):
    points = [(c / 10, scale * 100 * math.exp(-2 * c / 10)) for c in range(1, 21)]
    fit = fit_accuracy_curve(points)
    assert fit.a == pytest.approx(scale * 100.0, rel=1e-12)
    assert fit.b == pytest.approx(-2.0, abs=1e-12)


def test_fit_drops_nonpositive_accuracy():
    fit = fit_accuracy_curve([(1.0, 50.0), (2.0, 25.0), (3.0, 0.0), (4.0, -5.0)])
    assert fit.points_used == 2
    assert fit.points_dropped == 2
    assert fit.b == pytest.approx(-math.log(2))


def test_fit_needs_two_usable_points():
    with pytest.raises(InsufficientPointsError):
        fit_accuracy_curve([(1.0, 50.0)])
    with pytest.raises(InsufficientPointsError):
        fit_accuracy_curve([(1.0, 50.0), (2.0, 0.0)])


def test_fit_rejects_degenerate_x():
    with pytest.raises(DegenerateXError):
        fit_accuracy_curve([(1.0, 50.0), (1.0, 25.0)])


@pytest.mark.parametrize(
    "points",
    [
        [(1e-300, 50.0), (1e300, 40.0)],
        [(1e308, 50.0), (1.7e308, 40.0)],
        [(0.0, 1e-300), (1e-300, 1e300)],
        [(1.0, 50.0), (2.0, 25.0), (float("nan"), 10.0)],
        [(1.0, 50.0), (float("inf"), 25.0)],
        [(1.0, float("inf")), (2.0, 25.0)],
        [(1.0, 50.0), (2.0, 25.0), (3.0, float("nan"))],
        [(1.0, 1e-320), (2.0, 70.0)],  # a = exp(intercept) underflows to 0
        # integers too large for a float; the last has no str() either
        [(10**400, 50.0), (1.0, 20.0)],
        [(1.0, 10**400), (2.0, 20.0)],
        [(-(10**5000), 50.0), (1.0, 20.0)],
    ],
)
def test_fit_rejects_points_with_no_finite_fit(points):
    with pytest.raises(DegenerateXError):
        fit_accuracy_curve(points)


@pytest.mark.parametrize("points,message", [
    # a huge coordinate is named in words, whichever coordinate comes first
    ([(float("nan"), 10**5000), (1, 2)],
     "points must be finite, got an integer too large for a float"),
    ([(True, 90), (2, 70)], "point (True, 90) is not finite"),
    ([(1, 90), (2, None)], "point (2, None) is not finite"),
    ([(1, 90), ("2", 70)], "point ('2', 70) is not finite"),
])
def test_fit_reads_each_coordinate_as_a_finite_number(points, message):
    with pytest.raises(DegenerateXError, match=f"^{re.escape(message)}$"):
        fit_accuracy_curve(points)


def test_fit_flat_data_has_unit_r_squared():
    fit = fit_accuracy_curve([(1.0, 50.0), (2.0, 50.0), (3.0, 50.0)])
    assert fit.a == pytest.approx(50.0)
    assert fit.b == pytest.approx(0.0, abs=1e-15)
    assert fit.r_squared == 1.0


def test_base_error_ceiling_annotation():
    low = CurveFit(a=100.0, b=-math.log(2), r_squared=1.0,
                   points_used=2, points_dropped=0)
    assert not exceeds_base_error_ceiling(low, min_complexity=1.0)
    high = CurveFit(a=200.0, b=-0.1, r_squared=1.0,
                    points_used=2, points_dropped=0)
    assert exceeds_base_error_ceiling(high, min_complexity=0.5)
    assert not exceeds_base_error_ceiling(high, min_complexity=0.5, ceiling=250.0)


@pytest.mark.parametrize("x,ceiling,message", [
    (10**400, 95.0,
     "min_complexity must be a finite number, got an integer too large for a float"),
    (float("nan"), 95.0, "min_complexity must be a finite number, got nan"),
    (True, 95.0, "min_complexity must be a finite number, got True"),
    (1.0, float("nan"), "ceiling must be a finite number, got nan"),
    (1.0, -float("inf"), "ceiling must be a finite number, got -inf"),
    (1.0, 10**400, "ceiling must be a finite number, got an integer too large for a float"),
    (1.0, None, "ceiling must be a finite number, got None"),
], ids=_short)
def test_base_error_ceiling_reads_finite_numbers(x, ceiling, message):
    fit = CurveFit(a=100.0, b=-0.5, r_squared=1.0, points_used=2, points_dropped=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        exceeds_base_error_ceiling(fit, x, ceiling)


def test_base_error_ceiling_past_the_largest_float():
    # exp(710.0) overflows: a positive a compares logs with a positive
    # ceiling and exceeds any other; a zero a exceeds only a negative one,
    # and a negative a none
    cases = (
        (1e-300, 95.0, True), (1e-320, 95.0, False),
        (1.0, 0.0, True), (1.0, -5.0, True),
        (0.0, 95.0, False), (0.0, 0.0, False), (0.0, -5.0, True),
        (-1.0, 95.0, False), (-1.0, -5.0, False),
    )
    for a, ceiling, exceeds in cases:
        fit = CurveFit(a=a, b=710.0, r_squared=1.0, points_used=2, points_dropped=0)
        assert exceeds_base_error_ceiling(fit, 1.0, ceiling) is exceeds
    # b * x can overflow to inf itself, and exp(inf) is inf, not an error
    for a, ceiling, exceeds in ((1e-320, 95.0, True), (0.0, 0.0, False),
                                (0.0, -5.0, True), (-1.0, -5.0, False)):
        fit = CurveFit(a=a, b=1e308, r_squared=1.0, points_used=2, points_dropped=0)
        assert exceeds_base_error_ceiling(fit, 2.0, ceiling) is exceeds
