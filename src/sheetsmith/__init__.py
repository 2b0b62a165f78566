"""Spreadsheet formula risk metrics, evaluation, synthesis, and study analytics.

The package splits into four layers. ``parser``/``formulas`` turn Excel-style
formula text into an AST and render it back canonically. ``metrics`` computes
vocabulary-based risk numbers over that AST. ``evaluator`` runs formulas
against small grids and checks them against labelled examples, including
exhaustive equivalence over bounded integer domains. ``synthesis`` searches
decision lists of threshold tests and compiles the winner to nested IFs.
``confidence`` handles the study side: error scoring, overconfidence ratios,
summaries, and the exponential accuracy-vs-complexity fit. ``cli`` exposes all
of it as the ``sheetsmith`` command.

Importing the package loads none of the layers. Each public name below is
imported from its home module the first time it is used (PEP 562), so a
program that needs only the parser never pays for synthesis or statistics.
``cli`` and ``csvio`` reach the other layers through these names too, so this
table alone decides what a command loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "confidence": """
            ApproachSummary APPROACHES combined_overconfidence ConfidenceRecord
            confidence_ratio CurveFit DEFAULT_BASE_ERROR_CEILING
            exceeds_base_error_ceiling ExperimentSummary f_score
            fit_accuracy_curve question_outcome QuestionOutcome QuestionSummary
            summarize_experiment
        """,
        "errors": """
            ArityError DegenerateFormulaError DegenerateXError
            DomainTooLargeError EmptyExampleSetError EmptyInputError
            EmptyLabelError FormulaSyntaxError HypothesisSpaceExhaustedError
            InconsistentExamplesError InputFileError InsufficientPointsError
            MillerLimitError RangeError SearchBudgetExceededError
            SheetsmithError UnknownFunctionError UnknownQuestionError UsageError
        """,
        "evaluator": """
            compile_formula EvalError evaluate Grid referenced_cells
            semantic_equivalence validate_examples ValidationReport values_equal
        """,
        "formulas": """
            BinaryOp BooleanLiteral CellRef FormulaAst FunctionCall
            NumberLiteral RangeRef render SUPPORTED_FUNCTIONS TextLiteral UnaryOp
        """,
        "metrics": """
            halstead_complexity halstead_counts HalsteadCounts metrics_report
            MetricsReport MILLER_LIMIT miller_concepts
        """,
        "parser": "parse",
        "synthesis": """
            DEFAULT_AGGREGATES DEFAULT_COMPARATORS enumerate_candidates
            example_grids HypothesisConfig LabeledExample Predicate synthesize
            SynthesisResult
        """,
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES, key=str.lower)


def __getattr__(name: str):
    """Import a public name, or a layer module, on first use and keep it here."""
    if name in _HOMES.values():
        return import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
