"""The toolkit's CSV interchange files: every reader, and the one writer.

All files are comma-separated UTF-8 with a header row and '.' as the decimal
mark; readers accept a leading byte-order mark and skip the stamp line
write_csv may put first. Readers raise InputFileError naming the file line a
bad row starts on, or only the file when it is not UTF-8.

_table reads every table by its header and field types, and read_value gives
every bad value from outside, in a field, an option or the environment, its
one shape: "<where> must be <what>, got <text>".
"""

from __future__ import annotations

import csv
import math
import sys
import time
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

import sheetsmith

from .errors import InputFileError

STAMP_PREFIX = "# generated "


def columns(cls) -> tuple[str, ...]:
    """A table's header: the fields of the record class that holds its rows."""
    return cls.__match_args__


@contextmanager
def open_output(path: str) -> Iterator[TextIO]:
    """The stream for an output path: stdout for '-', else a new UTF-8 file."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="", encoding="utf-8") as handle:
        yield handle


def cell_text(value) -> str:
    """Deterministic CSV cell: lowercase booleans, repr floats, '' for None.

    The table printers use it; write_csv gets the same text from the csv
    module, which writes None, floats, ints and strings this way itself.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header: Sequence[str], rows, stamp: bool = False) -> None:
    """Write a table to path ('-' = stdout), after a stamp line if asked.

    Each cell's text is cell_text's: the csv module writes None as '', floats
    by repr and ints and strings by str, so only booleans are mapped here.
    """
    with open_output(path) as stream:
        if stamp:
            now = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            stream.write(f"{STAMP_PREFIX}{now}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["true" if cell is True else "false" if cell is False else cell
                 for cell in row]
            )


def _rows(path: str) -> Iterator[tuple[int, list[str]]]:
    """(file line it starts on, fields) of each record, less a stamp line on top."""
    try:
        # utf-8-sig drops the byte-order mark spreadsheets put on "CSV UTF-8"
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc.strerror}") from exc
    with handle:
        reader = csv.reader(handle)
        start = 1
        try:
            for row in reader:
                if start > 1 or not row or not row[0].startswith(STAMP_PREFIX):
                    yield start, row
                start = reader.line_num + 1
        except UnicodeDecodeError as exc:
            # text is decoded a chunk at a time, ahead of the record being
            # read, so the file is named without a line
            raise InputFileError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            # e.g. a field past the csv module's limit of 131,072 characters,
            # or a NUL byte before Python 3.11
            raise InputFileError(f"{path} line {start}: {exc}") from None


def _ascii(text: str) -> str:
    """text, if ASCII with no '_': int and float read '_' and other scripts' digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return text


def finite_float(text: str) -> float:
    """float(text); '_', non-ASCII text, nan and inf raise ValueError."""
    value = float(_ascii(text))
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def ascii_int(text: str) -> int:
    """int(text); '_' and non-ASCII text raise ValueError."""
    return int(_ascii(text))


# A field type: a reader that raises ValueError on text it does not take,
# and what the text must be, for read_value's message
NUMBER = (finite_float, "a number")
INTEGER = (ascii_int, "an integer")
FLAG = (("0", "1").index, "0 or 1")


def read_value(field, text: str, where: str, error=InputFileError):
    """text read by a field type's reader; a ValueError from it becomes
    error("<where> must be <what>, got <text>")."""
    read, what = field
    try:
        return read(text)
    except ValueError:
        raise error(f"{where} must be {what}, got {text!r}") from None


def _table(path: str, header: Sequence[str], fields=(),
           rows=None) -> Iterator[tuple[int, list]]:
    """(file line, fields) of each non-blank data row, as wide as the header.

    The first row must be ``header``, unless ``rows`` is the rest of
    _rows(path) after it. Each field type in ``fields`` reads its column in
    place; a column with None or past the end of ``fields`` stays text.
    """
    if rows is None:
        rows = _rows(path)
        if next(rows, (1, None))[1] != list(header):
            raise InputFileError(f"{path}: header must be {','.join(header)}")
    typed = [(index, field, header[index])
             for index, field in enumerate(fields) if field is not None]
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise InputFileError(
                f"{path} line {line}: expected {len(header)} fields, got {len(row)}"
            )
        for index, field, name in typed:
            row[index] = read_value(field, row[index], f"{path} line {line}: {name}")
        yield line, row


def read_examples_csv(path: str) -> list[sheetsmith.LabeledExample]:
    """Attribute columns followed by a final 'label' column."""
    rows = _rows(path)
    _, header = next(rows, (1, None))
    if not header or len(header) < 2 or header[-1] != "label":
        raise InputFileError(
            f"{path}: header must name at least one attribute column "
            "and end with 'label'"
        )
    attributes = header[:-1]
    for index, name in enumerate(attributes):
        if name in attributes[:index]:
            raise InputFileError(f"{path}: attribute {name!r} is named more than once")
    return [
        sheetsmith.LabeledExample(dict(zip(attributes, row)), row[-1])
        for _, row in _table(path, header, (NUMBER,) * len(attributes), rows)
    ]


def read_results_csv(path: str) -> list[sheetsmith.ConfidenceRecord]:
    """Per-question experiment records; attempted is 0 or 1."""
    fields = (None, None, None, FLAG, INTEGER, INTEGER, INTEGER)
    records = []
    for line, row in _table(path, columns(sheetsmith.ConfidenceRecord), fields):
        try:
            # RangeError (rating off the 1..5 scale) is left alone here: it is
            # a domain finding, not a file-shape problem
            records.append(sheetsmith.ConfidenceRecord(*row[:3], row[3] == 1, *row[4:]))
        except ValueError as exc:
            raise InputFileError(f"{path} line {line}: {exc}") from None
    return records


def read_complexities_csv(path: str) -> dict[str, float]:
    """question_id,complexity pairs."""
    out: dict[str, float] = {}
    header = ("question_id", "complexity")
    for line, (question, complexity) in _table(path, header, (None, NUMBER)):
        if question in out:
            raise InputFileError(f"{path} line {line}: duplicate question {question!r}")
        out[question] = complexity
    return out


POINTS_HEADER = ("complexity", "accuracy_pct")


def read_points_csv(path: str) -> list[tuple[float, float]]:
    """complexity,accuracy_pct pairs for curve fitting."""
    return [(x, y) for _, (x, y) in _table(path, POINTS_HEADER, (NUMBER, NUMBER))]


FORMULAS_HEADER = ("source_id", "formula")


def read_formulas_csv(path: str) -> list[tuple[str, str]]:
    """source_id,formula rows for batch risk scanning."""
    return [tuple(row) for _, row in _table(path, FORMULAS_HEADER)]
