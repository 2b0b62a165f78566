"""Domain exceptions raised across the toolkit.

Every error carries a stable ``code`` string so the command line can emit a
single machine-greppable line, and an ``exit_status`` that separates domain
errors (1) from unusable input files (2).
"""


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
