"""CSV files end to end: what the CLI writes reads back, and errors name file lines."""

import csv
import importlib.resources
import io
import json
import sys

import pytest

from sheetsmith import csvio, InputFileError
from sheetsmith.cli import main


def data(name):
    return str(importlib.resources.files("sheetsmith") / "data" / name)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


CONFIDENCE = [
    "confidence",
    "--results", data("experiment_results.csv"),
    "--complexities", data("question_complexities.csv"),
]


@pytest.mark.parametrize("approach", ["traditional", "edm"])
def test_fit_reads_a_stamped_confidence_file_as_the_plain_one(tmp_path, capsys, approach):
    assert main(CONFIDENCE + ["--out-dir", str(tmp_path / "plain")]) == 0
    assert main(CONFIDENCE + ["--out-dir", str(tmp_path / "stamped"), "--stamp"]) == 0
    capsys.readouterr()
    name = f"accuracy_vs_complexity_{approach}.csv"
    stamped = tmp_path / "stamped" / name
    assert stamped.read_text().startswith(csvio.STAMP_PREFIX)
    assert main(["fit", "--points", str(tmp_path / "plain" / name)]) == 0
    plain_out = capsys.readouterr()
    assert main(["fit", "--points", str(stamped)]) == 0
    assert capsys.readouterr() == plain_out


def test_scan_error_after_a_two_line_field_names_the_file_line(tmp_path, capsys):
    path = write(tmp_path, "f.csv", 'source_id,formula\nq1,"=A1+\nA2"\nq2\n')
    assert main(["scan", path]) == 2
    assert capsys.readouterr().err == (
        f"error: InputFile: {path} line 4: expected 2 fields, got 1\n"
    )


def test_points_error_after_a_two_line_field_names_the_file_line(tmp_path):
    path = write(tmp_path, "p.csv", 'complexity,accuracy_pct\n"1\n",90\nnan,40\n')
    with pytest.raises(InputFileError, match="line 4: complexity must be a number"):
        csvio.read_points_csv(path)


def test_two_line_fields_keep_their_text_and_later_lines_count(tmp_path):
    path = write(tmp_path, "f.csv", 'source_id,formula\n"q\n1","=A1+\n\nA2"\n\nq2,=B1\n')
    assert list(csvio._rows(path)) == [
        (1, ["source_id", "formula"]),
        (2, ["q\n1", "=A1+\n\nA2"]),
        (6, []),
        (7, ["q2", "=B1"]),
    ]


@pytest.mark.parametrize(
    "read, text, message",
    [
        (csvio.read_points_csv, "complexity,accuracy_pct\n1,90\nx,50\n",
         "line 4: complexity must be a number"),
        (csvio.read_examples_csv, "x,label\n1,a\n2\n",
         "line 4: expected 2 fields, got 1"),
        (csvio.read_complexities_csv, "question_id,complexity\nq1,1\nq1,2\n",
         "line 4: duplicate question 'q1'"),
    ],
)
def test_a_stamped_file_reports_bad_rows_at_their_file_line(tmp_path, read, text, message):
    path = write(tmp_path, "s.csv", csvio.STAMP_PREFIX + "2026-01-01T00:00:00Z\n" + text)
    with pytest.raises(InputFileError, match=message):
        read(path)


def test_only_a_first_line_stamp_is_skipped(tmp_path):
    stamp = csvio.STAMP_PREFIX + "2026-01-01T00:00:00Z\n"
    path = write(tmp_path, "p.csv", "complexity,accuracy_pct\n" + stamp + "1,90\n")
    with pytest.raises(InputFileError, match="line 2: expected 2 fields, got 1"):
        csvio.read_points_csv(path)


def test_written_tables_read_back(tmp_path):
    path = str(tmp_path / "p.csv")
    csvio.write_csv(path, csvio.POINTS_HEADER, [[1.5, 90], [2, 70.25]], stamp=True)
    assert csvio.read_points_csv(path) == [(1.5, 90.0), (2.0, 70.25)]


# cells whose text is easy to get wrong: None and empty text, text that needs
# quotes, ints past 64 bits, 1 and 1.0 beside True, and floats whose repr
# needs an exponent or names no number
CELLS = [None, "", "a,b", 'say "hi"', "two\nlines", " pad ", True, False, 1, 1.0,
         0, -1, 2**63, 2**70, -2**70, 0.0, -0.0, 0.1, 5e-324, 1e16, 1e-7,
         sys.float_info.max, float("nan"), float("inf"), float("-inf")]


def test_write_csv_writes_each_cell_as_cell_text_does(tmp_path):
    rows = [CELLS, CELLS[::-1], dict(enumerate(CELLS)).values(),
            [None], [""], [True], [0.5]]
    path = tmp_path / "t.csv"
    csvio.write_csv(str(path), ["h"], rows)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["h"])
    for row in rows:
        writer.writerow([csvio.cell_text(cell) for cell in row])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_scan_json_to_a_file_matches_stdout(tmp_path, capsys):
    path = write(tmp_path, "f.csv", "source_id,formula\nq1,=SUM(C5:D5)/2\nq2,=SUM(\n")
    assert main(["scan", path, "--format", "json"]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["scan", path, "--format", "json", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")


def test_scan_to_a_missing_directory_is_a_file_error(tmp_path, capsys):
    path = write(tmp_path, "f.csv", "source_id,formula\nq1,=A1\n")
    assert main(["scan", path, "-o", str(tmp_path / "missing" / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: InputFile:")


def test_fit_csv_format_holds_the_json_payload(tmp_path, capsys):
    path = write(tmp_path, "p.csv", "complexity,accuracy_pct\n1.0,50.0\n2.0,25.0\n")
    assert main(["fit", "--points", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["fit", "--points", path, "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "a,b,r_squared,points_used,points_dropped,ceiling_exceeded"
    assert row == ",".join(map(csvio.cell_text, payload.values()))
    assert row.endswith(",2,0,false")


def test_synthesize_on_a_header_only_file_is_an_empty_label_error(tmp_path, capsys):
    path = write(tmp_path, "ex.csv", "exam,coursework,label\n")
    assert main(["synthesize", "--examples", path]) == 1
    assert capsys.readouterr().err == (
        "error: EmptyLabel: no labelled examples were given\n"
    )


def test_results_reject_an_unknown_approach(tmp_path, capsys):
    header = "participant_id,question_id,approach,attempted,error_count,confidence,difficulty"
    results = write(tmp_path, "r.csv", header + "\np1,q1,mixed,1,0,3,3\n")
    complexities = write(tmp_path, "c.csv", "question_id,complexity\nq1,1\n")
    args = ["confidence", "--results", results, "--complexities", complexities]
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: InputFile: {results} line 2: approach must be one of "
    )


BOM = "\ufeff"


def test_scan_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    text = "source_id,formula\nq1,=SUM(C5:D5)/2\n"
    assert main(["scan", write(tmp_path, "plain.csv", text)]) == 0
    plain = capsys.readouterr().out
    assert main(["scan", write(tmp_path, "bom.csv", BOM + text)]) == 0
    assert capsys.readouterr().out == plain


def test_fit_reads_points_with_a_byte_order_mark(tmp_path, capsys):
    text = "complexity,accuracy_pct\n1,90\n2,70\n3,50\n"
    assert main(["fit", "--points", write(tmp_path, "plain.csv", text)]) == 0
    plain = capsys.readouterr().out
    assert main(["fit", "--points", write(tmp_path, "bom.csv", BOM + text)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", [["scan"], ["fit", "--points"]])
def test_a_file_that_is_not_utf8_is_a_file_error(tmp_path, capsys, command):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"source_id,formula\nq1,=SUM(A1:A2)\xff\n")
    assert main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: InputFile: {path}: not UTF-8 text (invalid start byte)\n"


def test_an_attribute_named_twice_is_a_file_error(tmp_path):
    # a dict over the header would keep one 'exam' column and drop the other
    path = write(tmp_path, "ex.csv", "exam,exam,label\n30,80,Fail\n")
    with pytest.raises(InputFileError) as caught:
        csvio.read_examples_csv(path)
    assert str(caught.value) == f"{path}: attribute 'exam' is named more than once"


@pytest.mark.parametrize("command", ["synthesize", "validate"])
def test_examples_naming_an_attribute_twice_exit_two(tmp_path, capsys, command):
    path = write(tmp_path, "ex.csv", "exam,coursework,exam,label\n30,50,80,Fail\n")
    args = [command, "--examples", path]
    if command == "validate":
        args += ["--formula", '=IF(C5<40,"Fail","Pass")']
    assert main(args) == 2
    assert capsys.readouterr() == (
        "", f"error: InputFile: {path}: attribute 'exam' is named more than once\n"
    )
