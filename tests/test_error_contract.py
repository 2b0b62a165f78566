"""The one-line error contract, over every subcommand, in one seeded test.

Every input ends in one of three ways:
- exit 0: a right answer, with nothing on stderr (the re-prompts of
  ``synthesize --interactive`` aside) and no nan or inf in any output;
- exit 1: exactly one stderr line, ``error: <Code>: ...``, whose code a class
  in sheetsmith.errors defines with exit status 1;
- exit 2: stderr ends in such a line for an exit-2 class, or in argparse's
  usage message.

The inputs come from a fixed-seed generator: formulas from a small grammar
with edge numbers and stray characters, and CSV files that may carry a
byte-order mark, blank rows, a bad byte, a NUL, wrong widths, huge, nan and
inf numbers, or a field past the csv module's 131,072-character limit.
"""

import csv
import inspect
import io
import random
import re
import shutil
from collections import Counter
from importlib.resources import files
from pathlib import Path

import pytest

from sheetsmith import errors
from sheetsmith.cli import main

RUNS = 420
COMMANDS = ("analyze", "scan", "synthesize", "validate", "confidence", "fit")
EXIT_STATUS = {
    cls.code: cls.exit_status
    for cls in vars(errors).values()
    if inspect.isclass(cls) and issubclass(cls, errors.SheetsmithError)
}
ERROR_LINE = re.compile(r"error: (\w+): .+")
# a float's nan or inf as repr, str or JSON writes it; a cell such as INF1 is
# one word, so it does not match
NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
DATA = files("sheetsmith") / "data"

EDGE_NUMBERS = ("0", "-0", "1", "0.5", "40", "1e308", "5e-324", "1e309",
                "99999999999999999999999", "٣", "1_0")
CELLS = ("C5", "D5", "$C$5", "d5", "E5", "XFD1048576", "XFE1")
RANGES = ("C5:D5", "D5:C5", "A1:XFD1048576", "C5:Z100000")
STRAY = ("#", "(", ")", ",", "@", " ", "\x00", '"')
LABELS = ("Fail", "Pass", "Merit", "Dist")
ODD_FIELDS = ("", "1e308", "-1e308", "1e400", "9" * 400, "nan", "inf", "-inf",
              "NaN", "5e-324", "-0", "٣", "1_0", "x", "\x00")


def _formula(rng: random.Random, depth: int = 3) -> str:
    stray = rng.choice(STRAY) if rng.random() < 0.1 else ""
    return "=" + _expression(rng, depth) + stray


def _expression(rng: random.Random, depth: int) -> str:
    pick = rng.random() if depth > 0 else rng.random() * 0.5
    if pick < 0.2:
        return rng.choice(EDGE_NUMBERS)
    if pick < 0.4:
        return rng.choice(CELLS)
    if pick < 0.5:
        return rng.choice(('"Fail"', '"a""b"', "TRUE", "FALSE"))
    if pick < 0.7:
        op = rng.choice(("+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="))
        return f"{_expression(rng, depth - 1)}{op}{_expression(rng, depth - 1)}"
    if pick < 0.75:
        return f"-({_expression(rng, depth - 1)})"
    name = rng.choice(("SUM", "MIN", "MAX", "AVERAGE", "IF", "AND", "OR", "NOT",
                       "VLOOKUP"))
    args = [rng.choice(RANGES) if rng.random() < 0.3 else _expression(rng, depth - 1)
            for _ in range(rng.randint(0 if rng.random() < 0.1 else 1, 3))]
    return f"{name}({','.join(args)})"


def _csv_file(rng: random.Random, name: str, rows: list, numeric: tuple = ()) -> str:
    """Write rows (header first) to name, after zero to two mutations."""
    rows = [list(row) for row in rows]
    bom = bad_byte = False
    for _ in range(rng.choice((0, 0, 1, 2))):
        mutation = rng.choice(("bom", "blank", "byte", "width", "number", "long"))
        data_row = rng.randrange(1, len(rows)) if len(rows) > 1 else None
        if mutation == "bom":
            bom = True
        elif mutation == "blank":
            rows.insert(rng.randint(1, len(rows)), [])
        elif mutation == "byte":
            bad_byte = True
        elif data_row is None or not rows[data_row]:
            continue
        elif mutation == "width":
            if rng.random() < 0.5:
                rows[data_row].pop()
            else:
                rows[data_row].append("x")
        elif mutation == "number" and numeric:
            # a row cut short by "width" may lack the column
            if (column := rng.choice(numeric)) < len(rows[data_row]):
                rows[data_row][column] = rng.choice(ODD_FIELDS)
        elif mutation == "long":
            column = rng.randrange(len(rows[data_row]))
            rows[data_row][column] = ("9" if column in numeric else "A") * 200_000
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    raw = ("\ufeff" if bom else "").encode() + text.getvalue().encode()
    if bad_byte:
        at = rng.randrange(len(raw) + 1)
        raw = raw[:at] + b"\xff" + raw[at:]
    with open(name, "wb") as handle:
        handle.write(raw)
    return name


def _bundled(name: str) -> list:
    """The rows of a CSV file the package ships."""
    return list(csv.reader(io.StringIO((DATA / name).read_text(encoding="utf-8"))))


def _examples(rng: random.Random) -> list:
    if rng.random() < 0.3:
        return _bundled("grading_examples.csv")
    names = ["exam", "coursework", "project"][:rng.randint(1, 3)]
    rows = [names + ["label"]]
    for _ in range(rng.randint(0, 6)):
        marks = [rng.randint(0, 100) for _ in names]
        # a planted rule, so that most sets have a short answer
        label = "Fail" if min(marks) < 40 else "Pass"
        if rng.random() < 0.1:
            label = rng.choice(LABELS)
        rows.append([str(mark) for mark in marks] + [label])
    return rows


def _argv(rng: random.Random, command: str, monkeypatch) -> tuple[list, bool]:
    """A command line for one run, with its input files written; and whether
    it runs interactively."""
    interactive = False
    if command == "analyze":
        argv = ["analyze", _formula(rng)]
        if rng.random() < 0.5:
            argv += ["--format", rng.choice(("table", "csv", "json", "xml"))]
    elif command == "scan":
        rows = [["source_id", "formula"]] + [
            [f"q{n}", _formula(rng)] for n in range(rng.randint(0, 5))
        ]
        if rng.random() < 0.3:
            # 11 concepts, over the limit of 9
            rows.append(["big", "=C5+D5+E5+F5+G5+H5"])
        argv = ["scan", _csv_file(rng, "formulas.csv", rows)]
        for flag in (["--format", "json"], ["-o", "out/report"], ["--fail-on-miller"],
                     ["--stamp"]):
            if rng.random() < 0.3:
                argv += flag
    elif command in ("synthesize", "validate"):
        rows = _examples(rng)
        numeric = tuple(range(len(rows[0]) - 1))
        examples = _csv_file(rng, "examples.csv", rows, numeric)
        if command == "validate":
            argv = ["validate", "--formula", _formula(rng), "--examples", examples]
        else:
            argv = ["synthesize", "--examples", examples]
            if rng.random() < 0.2:
                argv += ["--max-depth", rng.choice(("1", "3", "0", "x"))]
            budget = rng.choice((None, "20000", "20000", "0", "-3", "x"))
            if budget is not None:
                monkeypatch.setenv("SHEETSMITH_SEARCH_BUDGET", budget)
            if rng.random() < 0.2:
                interactive = True
                argv.append("--interactive")
                width = len(rows[0])
                answers = [
                    ",".join(rng.choice((str(rng.randint(0, 100)), "nan", "x"))
                             for _ in range(width - 1)) + "," + rng.choice(LABELS + ("",))
                    for _ in range(rng.randint(0, 2))
                ] + rng.choice(([""], [], ["1,2"]))
                stdin = io.StringIO("".join(answer + "\n" for answer in answers))
                monkeypatch.setattr("sys.stdin", stdin)
    elif command == "confidence":
        results = _bundled("experiment_results.csv")
        results = results[:1] + rng.sample(results[1:], rng.randint(0, len(results) - 1))
        complexities = _bundled("question_complexities.csv")
        argv = ["confidence",
                "--results", _csv_file(rng, "results.csv", results, (3, 4, 5, 6)),
                "--complexities", _csv_file(rng, "complexities.csv", complexities, (1,)),
                "--out-dir", "out"]
        if rng.random() < 0.3:
            argv.append("--stamp")
    else:
        rows = [["complexity", "accuracy_pct"]] + [
            [rng.choice(("1", "2", "3", "4", "5", "0.2", "1e-300", "1e308")),
             rng.choice((str(rng.randint(1, 100)),) * 5 + ("0", "1e-320", "1e10"))]
            for _ in range(rng.randint(1, 5))
        ]
        argv = ["fit", "--points", _csv_file(rng, "points.csv", rows, (0, 1))]
        if rng.random() < 0.3:
            argv += ["--ceiling", rng.choice(("90", "100", "0", "nan", "-1e3", "x"))]
        if rng.random() < 0.5:
            argv += ["--format", rng.choice(("table", "csv", "json"))]
    if rng.random() < 0.03:
        argv[rng.randrange(1, len(argv))] = "absent.csv"
    return argv, interactive


def test_every_run_ends_in_an_answer_or_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2008)
    statuses = {command: Counter() for command in COMMANDS}
    for run in range(RUNS):
        command = COMMANDS[run % len(COMMANDS)]
        shutil.rmtree("out", ignore_errors=True)
        Path("out").mkdir()
        monkeypatch.delenv("SHEETSMITH_SEARCH_BUDGET", raising=False)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        argv, interactive = _argv(rng, command, monkeypatch)
        try:
            status = main(argv)
        except Exception as exc:
            pytest.fail(f"{argv!r} raised {exc!r}")
        out, err = capsys.readouterr()
        where = f"{argv!r} exited {status} with stderr {err!r}"
        statuses[command][status] += 1
        lines = err.splitlines()
        if status == 0:
            assert interactive or err == "", where
            written = [path.read_text(encoding="utf-8") for path in Path("out").iterdir()]
            for text in (out, *written):
                assert not NOT_FINITE.search(text), f"{where}: {text[:300]!r}"
        elif status == 1:
            assert interactive or len(lines) == 1, where
            match = ERROR_LINE.fullmatch(lines[-1]) if lines else None
            assert match and EXIT_STATUS.get(match[1]) == 1, where
        else:
            assert status == 2, where
            match = ERROR_LINE.fullmatch(lines[-1]) if lines else None
            usage = err.startswith("usage: sheetsmith") and ": error: " in lines[-1]
            assert usage or (match and EXIT_STATUS.get(match[1]) == 2), where
    for command, seen in statuses.items():
        assert seen[0], f"{command} never reached exit 0: {dict(seen)}"
