"""Domain exceptions raised across the toolkit.

Every error carries a stable ``code`` string so the command line can emit a
single machine-greppable line, and an ``exit_status`` that separates domain
errors (1) from unusable input files (2).

It also holds the two argument rules every layer shares: check_integer, an
int that is not a bool, and not_finite, a finite int or float that is not a
bool, where an int too large for a float is named in words; check_finite
raises that rule's usual ValueError. Every layer imports this module and it
imports no layer, so no import cycle can form.
"""

import math


def check_integer(name: str, value, least: int | None = None) -> None:
    """A ValueError unless value is an int, not a bool, of least or more if given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be {least} or more, got {value}")


def not_finite(value) -> str | None:
    """None for a finite int or float that is not a bool, else how an error
    shows value: its repr, or in words for an int too large for a float,
    whose repr can itself raise past 4,300 digits."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return repr(value)
    try:
        return None if math.isfinite(value) else repr(value)
    except OverflowError:
        return "an integer too large for a float"


def check_finite(name: str, value) -> None:
    """A ValueError unless value is a finite number, as not_finite reads it."""
    if (shown := not_finite(value)) is not None:
        raise ValueError(f"{name} must be a finite number, got {shown}")


class SheetsmithError(Exception):
    code = "Error"
    exit_status = 1


class InputFileError(SheetsmithError):
    """A CSV or argument file is missing, malformed, or violates its schema."""

    code = "InputFile"
    exit_status = 2


class UsageError(SheetsmithError):
    """A bad option or environment value, e.g. --max-depth x or --max-depth 0."""

    code = "Usage"
    exit_status = 2


class FormulaSyntaxError(SheetsmithError):
    code = "SyntaxError"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownFunctionError(SheetsmithError):
    code = "UnknownFunction"

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown function {name} (position {position})")
        self.name = name
        self.position = position


class ArityError(SheetsmithError):
    code = "ArityError"


class DegenerateFormulaError(SheetsmithError):
    code = "DegenerateFormula"


class MillerLimitError(SheetsmithError):
    """scan --fail-on-miller: a formula holds more concepts than MILLER_LIMIT."""

    code = "MillerLimit"


class EmptyExampleSetError(SheetsmithError):
    code = "EmptyExampleSet"


class DomainTooLargeError(SheetsmithError):
    code = "DomainTooLarge"


class InconsistentExamplesError(SheetsmithError):
    code = "InconsistentExamples"


class EmptyLabelError(SheetsmithError):
    code = "EmptyLabel"


class HypothesisSpaceExhaustedError(SheetsmithError):
    code = "HypothesisSpaceExhausted"

    def __init__(self, message: str, best_pass_rate: float):
        super().__init__(message)
        self.best_pass_rate = best_pass_rate


class SearchBudgetExceededError(SheetsmithError):
    code = "SearchBudgetExceeded"


class RangeError(SheetsmithError):
    """A confidence or difficulty rating fell outside the 1..5 scale."""

    code = "RangeError"


class UnknownQuestionError(SheetsmithError):
    code = "UnknownQuestion"


class EmptyInputError(SheetsmithError):
    code = "EmptyInput"


class InsufficientPointsError(SheetsmithError):
    code = "InsufficientPoints"


class DegenerateXError(SheetsmithError):
    code = "DegenerateX"
