"""Accuracy and self-assessment analytics for formula-building experiments.

Each participant answers each question once per approach and reports two 1..5
ratings: confidence in the answer and how easy the question felt (5 means
trivially easy). Actual performance is folded to the same scale by F:

    not attempted -> 0, 0 errors -> 5, 1 -> 4, 2 -> 3, 3 -> 2, 4+ -> 1

The combined self-rating is the equal-weight mean of confidence and
difficulty, and the calibration ratio is combined / F: 1 is a perfect match,
5 means maximal overconfidence, and values below 1 (down to 1/5) mean the
participant undersold a good answer. The ratio is absent when F is 0, since
an unattempted question says nothing about calibration.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from ._record import record
from .errors import (
    check_finite,
    check_instance,
    check_integer,
    DegenerateXError,
    EmptyInputError,
    InsufficientPointsError,
    not_finite,
    RangeError,
    UnknownQuestionError,
)

APPROACHES = ("traditional", "edm")

CONFIDENCE_WEIGHT = 0.5
DIFFICULTY_WEIGHT = 0.5

DEFAULT_BASE_ERROR_CEILING = 95.0


def _check_outcome(error_count: int, attempted: bool) -> None:
    """A ValueError unless attempted is a bool and error_count an int of 0 or more."""
    if not isinstance(attempted, bool):
        raise ValueError(f"attempted must be True or False, got {attempted!r}")
    check_integer("error count", error_count)
    if error_count < 0:
        raise ValueError("error count cannot be negative")


def f_score(error_count: int, attempted: bool) -> int:
    """Fold an error count onto the 0..5 self-rating scale."""
    _check_outcome(error_count, attempted)
    return max(5 - error_count, 1) if attempted else 0


def _check_rating(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 5:
        raise RangeError(f"{name} must be an integer from 1 to 5, got {value!r}")


def combined_overconfidence(confidence: int, difficulty: int) -> float:
    """Equal-weight blend of the two self-ratings."""
    _check_rating("confidence", confidence)
    _check_rating("difficulty", difficulty)
    return CONFIDENCE_WEIGHT * confidence + DIFFICULTY_WEIGHT * difficulty


def confidence_ratio(combined: float, f: int) -> float | None:
    """combined / F, or None when F is 0 (question not attempted). F must be
    an int from 0 to 5, not a bool, and combined a finite number."""
    check_integer("F", f, 0)
    if f > 5:
        raise ValueError(f"F must be 5 or less, got {f}")
    check_finite("combined", combined)
    if f == 0:
        return None
    return combined / f


@record
class ConfidenceRecord:
    participant_id: str
    question_id: str
    approach: str
    attempted: bool
    error_count: int
    confidence: int
    difficulty: int

    def __post_init__(self):
        for name in ("participant_id", "question_id"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a str, got {getattr(self, name)!r}")
        if self.approach not in APPROACHES:
            raise ValueError(
                f"approach must be one of {APPROACHES}, got {self.approach!r}"
            )
        _check_outcome(self.error_count, self.attempted)
        if self.error_count > 2**53:
            # a float holds every count up to here exactly, and a mean over
            # such counts cannot overflow
            raise ValueError(f"error count must be at most 2**53, got {self.error_count}")
        _check_rating("confidence", self.confidence)
        _check_rating("difficulty", self.difficulty)


@record
class QuestionOutcome:
    f_score: int
    combined_overconfidence: float
    confidence_ratio: float | None


def question_outcome(record: ConfidenceRecord) -> QuestionOutcome:
    """Scores for one answered (or skipped) question."""
    check_instance("record", record, ConfidenceRecord)
    f = f_score(record.error_count, record.attempted)
    combined = combined_overconfidence(record.confidence, record.difficulty)
    return QuestionOutcome(f, combined, confidence_ratio(combined, f))


@record
class QuestionSummary:
    approach: str
    question_id: str
    complexity: float
    attempted: int
    percentage_accuracy: float | None
    mean_errors: float | None
    mean_confidence_ratio: float | None
    mean_difficulty: float | None


@record
class ApproachSummary:
    approach: str
    participants: int
    percentage_models_with_errors: float
    percentage_accuracy: float | None
    mean_errors_per_question: float | None
    mean_confidence_ratio: float | None


@record
class ExperimentSummary:
    questions: tuple[QuestionSummary, ...]
    approaches: tuple[ApproachSummary, ...]


def summarize_experiment(
    records: Sequence[ConfidenceRecord], complexities: Mapping[str, float]
) -> ExperimentSummary:
    """Aggregate records per (approach, question) and per approach.

    Accuracy counts an attempted answer as correct when its error count is
    zero. Models-with-errors counts participants who made at least one error
    on any attempted question. Both readings of "how often people got it
    wrong" are reported side by side. Output order is fixed (traditional
    before edm, question ids sorted), so equal inputs in any order summarize
    identically. Every record must be a ConfidenceRecord, and the complexity
    of each question a record names a finite number.
    """
    if not records:
        raise EmptyInputError("no records to summarize")
    for index, record in enumerate(records):
        if not isinstance(record, ConfidenceRecord):
            raise TypeError(f"record {index} must be a ConfidenceRecord, got {record!r}")
        if record.question_id not in complexities:
            raise UnknownQuestionError(
                f"question {record.question_id!r} has no complexity entry"
            )
        check_finite(
            f"complexity of question {record.question_id!r}",
            complexities[record.question_id],
        )

    present = [a for a in APPROACHES if any(r.approach == a for r in records)]
    questions = []
    approaches = []
    for approach in present:
        mine = [r for r in records if r.approach == approach]
        attempted = [r for r in mine if r.attempted]
        participants = len({r.participant_id for r in mine})
        with_errors = len({r.participant_id for r in attempted if r.error_count})
        approaches.append(
            ApproachSummary(
                approach,
                participants,
                100.0 * with_errors / participants,
                *_rates(attempted),
            )
        )
        for question_id in sorted({r.question_id for r in mine}):
            answered = [r for r in attempted if r.question_id == question_id]
            questions.append(
                QuestionSummary(
                    approach,
                    question_id,
                    complexities[question_id],
                    len(answered),
                    *_rates(answered),
                    _mean([r.difficulty for r in answered]),
                )
            )
    return ExperimentSummary(tuple(questions), tuple(approaches))


def _rates(
    attempted: Sequence[ConfidenceRecord],
) -> tuple[float | None, float | None, float | None]:
    """Accuracy %, mean errors and mean confidence ratio, as both summaries
    order them; each is None when nothing was attempted. An attempted answer
    scores F >= 1, so every one has a confidence ratio."""
    return (
        _mean([100.0 * (r.error_count == 0) for r in attempted]),
        _mean([r.error_count for r in attempted]),
        _mean([question_outcome(r).confidence_ratio for r in attempted]),
    )


def _mean(xs: Sequence[float]) -> float | None:
    return math.fsum(xs) / len(xs) if xs else None


@record
class CurveFit:
    a: float
    b: float
    r_squared: float
    points_used: int
    points_dropped: int


def fit_accuracy_curve(points: Sequence[tuple[float, float]]) -> CurveFit:
    """Least-squares fit of accuracy = a * exp(b * complexity).

    The fit is linear in log space, so points with accuracy <= 0 cannot be
    used; they are dropped and counted. r_squared is the coefficient of
    determination of the log-space line. Non-finite points (a coordinate
    that is no finite float, such as an integer too large for one), and
    points whose fit overflows, divides by an underflowed zero or underflows
    a to zero, raise DegenerateXError.
    """
    for point in points:
        shown = list(map(not_finite, point))
        if "an integer too large for a float" in shown:
            # such a point is not printed: str() of an int past 4,300 digits raises
            raise DegenerateXError(
                "points must be finite, got an integer too large for a float")
        if any(shown):
            raise DegenerateXError(f"point {tuple(point)} is not finite")
    usable = [(x, y) for x, y in points if y > 0]
    dropped = len(points) - len(usable)
    if len(usable) < 2:
        raise InsufficientPointsError(
            f"curve fit needs at least 2 usable points, got {len(usable)}"
        )
    xs = [x for x, _ in usable]
    logy = [math.log(y) for _, y in usable]
    if min(xs) == max(xs):
        raise DegenerateXError("all points share one complexity value")
    try:
        x_mean = sum(xs) / len(xs)
        y_mean = sum(logy) / len(logy)
        slope = sum((x - x_mean) * (v - y_mean) for x, v in zip(xs, logy)) / sum(
            (x - x_mean) ** 2 for x in xs
        )
        intercept = y_mean - slope * x_mean
        ss_res = sum((v - (intercept + slope * x)) ** 2 for x, v in zip(xs, logy))
        ss_tot = sum((v - y_mean) ** 2 for v in logy)
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else float(ss_res == 0)
        a = math.exp(intercept)
        finite = a > 0 and all(map(math.isfinite, (a, slope, r_squared)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DegenerateXError("these complexity values give no finite fit")
    return CurveFit(a, slope, r_squared, len(usable), dropped)


def exceeds_base_error_ceiling(
    fit: CurveFit,
    min_complexity: float,
    ceiling: float = DEFAULT_BASE_ERROR_CEILING,
) -> bool:
    """True when the fitted curve, read at the easiest observed question,
    promises more accuracy than humans achieve on anything (default 95%).
    The fit itself is never altered; this only drives an annotation. Where
    exp(b*x) passes the largest float, the curve's sign is a's: a positive a
    exceeds a ceiling of 0 or less, and otherwise the logs of both sides
    compare; a zero a exceeds only a negative ceiling, and a negative a none.
    fit must be a CurveFit, and min_complexity and ceiling finite numbers."""
    check_instance("fit", fit, CurveFit)
    check_finite("min_complexity", min_complexity)
    check_finite("ceiling", ceiling)
    exponent = fit.b * min_complexity
    try:
        growth = math.exp(exponent)
    except OverflowError:
        growth = math.inf
    if growth != math.inf:
        return fit.a * growth > ceiling
    if fit.a <= 0:
        return fit.a == 0 and 0 > ceiling
    return ceiling <= 0 or math.log(fit.a) + exponent > math.log(ceiling)
