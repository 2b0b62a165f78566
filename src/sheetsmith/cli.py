"""Command-line front end.

Subcommands:
  analyze     metrics for one formula given on the command line
  scan        risk report over a CSV of formulas, tolerant of parse errors
  synthesize  build a formula from labelled examples (optionally interactive)
  validate    check a formula against labelled examples
  confidence  experiment summary plus plot-data files
  fit         exponential accuracy-vs-complexity fit

Exit status: 0 on success, 1 for domain errors (the stderr line starts with
``error: <Code>:`` naming the module error), 2 for usage or unreadable files.
A handler returns nothing: it finishes, or raises. main alone sets the exit
status, from the error's class, and alone writes the ``error:`` line.
This module parses arguments and prints; csvio reads every file, and only
_write_report writes a report's CSV or JSON form. File outputs are
byte-identical across runs; --stamp adds a CSV timestamp line readers skip.

Each command reaches the other layers through the package's names, which
import a layer on its first use, so a process loads only the layers its
command uses: ``fit`` never loads the parser, and ``analyze`` never loads
synthesis. Likewise ``json`` is imported only in _write_report's JSON branch.
_COMMANDS is the one table of the six commands: each one's help, handler and
arguments. A call builds only its own subcommand's argument parser from it,
beside the root's; ``--help``, a root option given first, or a missing or
unknown command builds all six.
"""

from __future__ import annotations

import argparse
import os
import sys
from operator import attrgetter

import sheetsmith

from .csvio import (ascii_int, cell_text, columns, finite_float, FORMULAS_HEADER,
                    INTEGER, open_output, POINTS_HEADER, read_complexities_csv,
                    read_examples_csv, read_formulas_csv, read_points_csv,
                    read_results_csv, read_value, write_csv)
from .errors import MillerLimitError, SheetsmithError, UsageError

BUDGET_ENV_VAR = "SHEETSMITH_SEARCH_BUDGET"


def _option(name: str, field):
    """An argparse type= function: read as a CSV field of that type, or a UsageError."""
    return lambda text: read_value(field, text, name, UsageError)


def _report_table():
    """The scan report's header, and the function that makes one row of it.

    A row is the source id, the formula, the Halstead counts, every other
    MetricsReport field and the parse error; the metrics are blank where the
    formula did not parse, and the parse error is blank where it did.
    """
    counts = columns(sheetsmith.HalsteadCounts)
    fields = tuple(name for name in columns(sheetsmith.MetricsReport) if name != "counts")
    count_values, field_values = attrgetter(*counts), attrgetter(*fields)
    blank = (None,) * (len(counts) + len(fields))

    def report_row(source_id: str, formula: str,
                   report: sheetsmith.MetricsReport | None,
                   parse_error: str | None) -> tuple:
        if report is None:
            return source_id, formula, *blank, parse_error
        return (source_id, formula, *count_values(report.counts),
                *field_values(report), parse_error)

    return (*FORMULAS_HEADER, *counts, *fields, "parse_error"), report_row


def _write_report(form: str, header, rows, output="-", stamp=False, one=False):
    """Write rows as "csv" (stamped if asked) or "json" to output ('-' = stdout).

    JSON is a list of objects keyed by the header, or the one object if one is set.
    """
    if form == "csv":
        return write_csv(output, header, rows, stamp=stamp)
    import json

    objects = [dict(zip(header, row)) for row in rows]
    with open_output(output) as stream:
        stream.write(json.dumps(objects[0] if one else objects, indent=2) + "\n")


# ----- analyze ---------------------------------------------------------


def _cmd_analyze(args):
    ast = sheetsmith.parse(args.formula)
    header, report_row = _report_table()
    row = report_row("-", args.formula, sheetsmith.metrics_report(ast), None)
    if args.format == "table":
        # the metric fields sit between formula and parse_error
        metrics = list(zip(header, row))[2:-1]
        pairs = [("formula", args.formula), ("canonical", sheetsmith.render(ast)),
                 *metrics]
        width = max(len(name) for name, _ in pairs)
        for name, value in pairs:
            print(f"{name:<{width}}  {cell_text(value)}")
    else:
        _write_report(args.format, header, [row], one=True)


# ----- scan ------------------------------------------------------------


def _cmd_scan(args):
    header, report_row = _report_table()
    rows = []
    for source_id, text in read_formulas_csv(args.path):
        # a formula that does not parse is reported in its row, not raised
        try:
            report, error = sheetsmith.metrics_report(sheetsmith.parse(text)), None
        except SheetsmithError as exc:
            report, error = None, f"{exc.code}: {exc}"
        rows.append(report_row(source_id, text, report, error))
    _write_report(args.format, header, rows, args.output, args.stamp)
    miller_flag = header.index("miller_flag")
    flagged = sum(1 for row in rows if row[miller_flag])
    if args.fail_on_miller and flagged:
        # after the report is written, so the gate keeps its evidence
        raise MillerLimitError(f"{flagged} of {len(rows)} formulas exceed the concept limit")


# ----- synthesize ------------------------------------------------------


def _non_negative_int(text: str) -> int:
    """ascii_int(text); a negative number raises ValueError too."""
    if (value := ascii_int(text)) < 0:
        raise ValueError(f"negative: {text!r}")
    return value


def _search_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR, str(sheetsmith.synthesis.DEFAULT_SEARCH_BUDGET))
    return _option(BUDGET_ENV_VAR, (_non_negative_int, "a non-negative integer"))(raw)


def _cmd_synthesize(args):
    depth = args.max_depth
    if depth is None:  # the library's default
        depth = sheetsmith.HypothesisConfig.max_decision_depth
    try:
        config = sheetsmith.HypothesisConfig(max_decision_depth=depth)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    budget = _search_budget()
    examples = read_examples_csv(args.examples)
    result = sheetsmith.synthesize(examples, config, search_budget=budget)
    names = list(examples[0].attributes.keys())
    while True:
        report = result.training_report
        print(f"formula: {result.rendered}")
        print(f"training: {report.passes}/{report.total} pass")
        print(f"candidates explored: {result.candidates_explored}")
        if not args.interactive:
            return
        while True:
            try:
                line = input(
                    f"counter-example ({','.join(names)},label), blank to accept: "
                )
            except EOFError:
                return
            line = line.strip()
            if line in ("", "accept"):
                return
            parts = [part.strip() for part in line.split(",")]
            if len(parts) != len(names) + 1:
                print(
                    f"need {len(names) + 1} comma-separated fields, "
                    f"got {len(parts)}",
                    file=sys.stderr,
                )
                continue
            try:
                values = dict(zip(names, map(finite_float, parts[:-1])))
            except ValueError:
                print("attribute values must be numbers", file=sys.stderr)
                continue
            added = examples + [sheetsmith.LabeledExample(values, parts[-1])]
            try:
                result = sheetsmith.synthesize(added, config, search_budget=budget)
            except SheetsmithError as exc:
                # a row the examples reject, or one no list within the depth
                # or budget fits: it is dropped, and asked for again
                print(f"{exc.code}: {exc}", file=sys.stderr)
                continue
            examples = added
            break


# ----- validate --------------------------------------------------------


def _cmd_validate(args):
    literal = {bool: sheetsmith.BooleanLiteral, float: sheetsmith.NumberLiteral,
               str: sheetsmith.TextLiteral}

    def text(value) -> str:
        if isinstance(value, sheetsmith.EvalError):
            return f"#{value.kind}"
        return sheetsmith.formulas.token_text(literal[type(value)](value))

    ast = sheetsmith.parse(args.formula)
    examples = read_examples_csv(args.examples)
    report = sheetsmith.validate_examples(ast, sheetsmith.example_grids(examples))
    for outcome in report.outcomes:
        if outcome.passed:
            print(f"example {outcome.index + 1}: pass")
        else:
            print(
                f"example {outcome.index + 1}: FAIL expected "
                f"{text(outcome.expected)} got {text(outcome.actual)}"
            )
    print(f"{report.passes}/{report.total} pass")


# ----- confidence ------------------------------------------------------


def _summary_tables(summary: sheetsmith.ExperimentSummary) -> str:
    # the rows are unpacked whole, so a field added to a summary fails here
    lines = [
        f"{'approach':<12} {'question':<10} {'complexity':>10} {'accuracy%':>9} "
        f"{'mean_err':>8} {'mean_ratio':>10}"
    ]
    for approach, question, complexity, _, accuracy, errors, ratio, _ in map(
        _fields, summary.questions
    ):
        lines.append(
            f"{approach:<12} {question:<10} {complexity:>10.4f} "
            f"{_opt(accuracy):>9} {_opt(errors):>8} {_opt(ratio):>10}"
        )
    lines.append("")
    lines.append(
        f"{'approach':<12} {'participants':>12} {'with_errors%':>12} "
        f"{'accuracy%':>9} {'mean_err':>8} {'mean_ratio':>10}"
    )
    for approach, participants, *rates in map(_fields, summary.approaches):
        with_errors, accuracy, errors, ratio = map(_opt, rates)
        lines.append(
            f"{approach:<12} {participants:>12} {with_errors:>12} "
            f"{accuracy:>9} {errors:>8} {ratio:>10}"
        )
    return "\n".join(lines)


def _fields(row, names: tuple[str, ...] = ()) -> list:
    """A record's values of the given fields, or of all of them in order."""
    return [getattr(row, name) for name in names or row.__match_args__]


def _opt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def _cmd_confidence(args):
    records = read_results_csv(args.results)
    complexities = read_complexities_csv(args.complexities)
    summary = sheetsmith.summarize_experiment(records, complexities)
    os.makedirs(args.out_dir, exist_ok=True)

    def write(name: str, header, rows) -> None:
        _write_report("csv", header, rows, os.path.join(args.out_dir, name), args.stamp)

    keys = columns(sheetsmith.ConfidenceRecord)[:3]
    write(
        "outcomes.csv",
        keys + columns(sheetsmith.QuestionOutcome),
        [_fields(r, keys) + _fields(sheetsmith.question_outcome(r)) for r in records],
    )
    for name, cls, rows in (
        ("summary_questions.csv", sheetsmith.QuestionSummary, summary.questions),
        ("summary_approaches.csv", sheetsmith.ApproachSummary, summary.approaches),
    ):
        write(name, columns(cls), map(_fields, rows))

    ratio_columns = ("question_id", "mean_confidence_ratio", "mean_difficulty")
    for approach_row in summary.approaches:
        approach = approach_row.approach
        mine = [q for q in summary.questions if q.approach == approach]
        accuracy = sorted(mine, key=lambda q: (q.complexity, q.question_id))
        # the fit-points header, so the file feeds `fit --points` directly
        write(
            f"accuracy_vs_complexity_{approach}.csv",
            POINTS_HEADER,
            [[q.complexity, q.percentage_accuracy] for q in accuracy],
        )
        write(
            f"confidence_ratio_{approach}.csv",
            ratio_columns,
            [_fields(q, ratio_columns) for q in mine],
        )

    print(_summary_tables(summary))


# ----- fit -------------------------------------------------------------


def _ceiling(text: str) -> float:
    """A --ceiling value: an accuracy percentage above 0 and at most 100."""
    value = _option("--ceiling", (finite_float, "a finite number"))(text)
    if not 0 < value <= 100:
        raise UsageError(f"--ceiling must be above 0 and at most 100, got {text!r}")
    return value


def _cmd_fit(args):
    ceiling = (sheetsmith.DEFAULT_BASE_ERROR_CEILING if args.ceiling is None
               else args.ceiling)
    points = read_points_csv(args.points)
    fit = sheetsmith.fit_accuracy_curve(points)
    usable_x = [x for x, y in points if y > 0]
    ceiling_exceeded = sheetsmith.exceeds_base_error_ceiling(fit, min(usable_x), ceiling)
    payload = {**vars(fit), "ceiling_exceeded": ceiling_exceeded}
    if args.format == "table":
        for name, value in payload.items():
            print(f"{name}: {cell_text(value)}")
        if ceiling_exceeded:
            print(
                f"note: extrapolation at the easiest question exceeds the "
                f"{ceiling}% base-error ceiling"
            )
    else:
        _write_report(args.format, list(payload), [payload.values()], one=True)


# ----- wiring ----------------------------------------------------------


# the one table of commands: each one's help and handler, then its
# arguments, each its names and then the keywords add_argument takes
_COMMANDS = {
    "analyze": ("metrics for one formula", _cmd_analyze,
                ("formula", {}),
                ("--format", dict(choices=("table", "csv", "json"), default="table"))),
    "scan": ("risk report over a formulas CSV", _cmd_scan,
             ("path", dict(help="CSV with header source_id,formula")),
             ("--output", "-o", dict(default="-", help="output path ('-' = stdout)")),
             ("--format", dict(choices=("csv", "json"), default="csv")),
             ("--fail-on-miller", dict(
                 action="store_true",
                 help="exit 1 if any formula exceeds the concept limit")),
             ("--stamp", dict(action="store_true", help="add a timestamp comment to CSV"))),
    "synthesize": ("build a formula from examples", _cmd_synthesize,
                   ("--examples", dict(required=True, help="CSV of attributes + label")),
                   ("--max-depth", dict(type=_option("--max-depth", INTEGER))),
                   ("--interactive", dict(
                       action="store_true",
                       help="offer to add counter-examples and re-synthesize"))),
    "validate": ("check a formula against examples", _cmd_validate,
                 ("--formula", dict(required=True)),
                 ("--examples", dict(required=True))),
    "confidence": ("experiment summary and plot data", _cmd_confidence,
                   ("--results", dict(required=True)),
                   ("--complexities", dict(required=True)),
                   ("--out-dir", dict(default=".")),
                   ("--stamp", dict(action="store_true", help="add a timestamp comment"))),
    "fit": ("fit accuracy = a*exp(b*complexity)", _cmd_fit,
            ("--points", dict(required=True)),
            ("--ceiling", dict(type=_ceiling)),
            ("--format", dict(choices=("table", "csv", "json"), default="table"))),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with all six subcommands' parsers, or with command's alone."""
    parser = argparse.ArgumentParser(
        prog="sheetsmith",
        description="Spreadsheet formula risk metrics, validation, and synthesis.")
    # with one command built, the full set as metavar keeps the root usage
    # line argparse prints for a rejected argument as it is with all six
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        text, handler, *arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for *names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    # argparse reads a value such as -1e3 after an option as an option of its
    # own, unless it is joined on: --ceiling -1e3 reads as --ceiling=-1e3
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--ceiling" in argv[:-1]:
        at = argv.index("--ceiling")
        argv[at:at + 2] = [f"--ceiling={argv[at + 1]}"]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        # argparse reports a type= function's ValueError, TypeError or
        # ArgumentTypeError itself; an option's UsageError passes it to here
        args = _build_parser(command).parse_args(argv)
        args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except SheetsmithError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        print(f"error: InputFile: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
