"""Numbers in the CSV files are ASCII text.

Python's int and float also read the digits of other scripts ("٣" is 3) and
'_' as a digit separator ("1_0" is 10), so a typo in a file could pass as a
number. The readers reject any number field with a non-ASCII character or an
'_', naming the file, line and column, and read every other field as before.
The parser rejects the same digits in formulas.
"""

import builtins

import pytest

from sheetsmith import csvio, InputFileError

# digits of other scripts, a fullwidth digit, a no-break space, separators
BAD = [
    "\u0661", "\u0663.\u0665", "\uff11", "\u00a01", "1_0", "1_000.5", "1e\u0663", "_1",
]

RESULTS_HEADER = (
    "participant_id,question_id,approach,attempted,error_count,confidence,difficulty\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _message(path, line, column, kind="a number"):
    # the reported text is the repr of the field, as Python prints it
    return f"{path} line {line}: {column} must be {kind}, got "


@pytest.mark.parametrize("text", BAD)
def test_points_reject_non_ascii_and_underscore(tmp_path, text):
    path = write(tmp_path, "p.csv", f"complexity,accuracy_pct\n{text},90\n2,70\n")
    with pytest.raises(InputFileError) as caught:
        csvio.read_points_csv(path)
    assert str(caught.value) == _message(path, 2, "complexity") + repr(text)


@pytest.mark.parametrize("text", BAD)
def test_examples_reject_non_ascii_and_underscore(tmp_path, text):
    content = f"exam,coursework,label\n40,50,Pass\n1,{text},Fail\n"
    path = write(tmp_path, "ex.csv", content)
    with pytest.raises(InputFileError) as caught:
        csvio.read_examples_csv(path)
    assert str(caught.value) == _message(path, 3, "coursework") + repr(text)


@pytest.mark.parametrize("text", BAD)
def test_complexities_reject_non_ascii_and_underscore(tmp_path, text):
    path = write(tmp_path, "c.csv", f"question_id,complexity\nq1,0.5\nq2,{text}\n")
    with pytest.raises(InputFileError) as caught:
        csvio.read_complexities_csv(path)
    assert str(caught.value) == _message(path, 3, "complexity") + repr(text)


@pytest.mark.parametrize("column", ["error_count", "confidence", "difficulty"])
@pytest.mark.parametrize("text", ["\u0663", "\uff13", "\u20033", "1_0", "_1"])
def test_results_reject_non_ascii_and_underscore(tmp_path, column, text):
    values = {"error_count": "0", "confidence": "3", "difficulty": "3", column: text}
    row = "P1,q1,edm,1,{error_count},{confidence},{difficulty}\n".format(**values)
    path = write(tmp_path, "r.csv", RESULTS_HEADER + row)
    with pytest.raises(InputFileError) as caught:
        csvio.read_results_csv(path)
    assert str(caught.value) == _message(path, 2, column, "an integer") + repr(text)


@pytest.mark.parametrize("text, value", [
    ("1", 1.0), (" 2.5 ", 2.5), ("+3", 3.0), ("-0.5", -0.5), ("1e2", 100.0),
    ("1E-2", 0.01), ("5.", 5.0), (".5", 0.5), ("\t7\t", 7.0), ("0x1", None),
])
def test_ascii_numbers_read_as_before(tmp_path, text, value):
    path = write(tmp_path, "p.csv", f"complexity,accuracy_pct\n{text},90\n")
    if value is None:
        with pytest.raises(InputFileError):
            csvio.read_points_csv(path)
    else:
        assert csvio.read_points_csv(path) == [(value, 90.0)]


@pytest.mark.parametrize("text, value", [("4", 4), (" 2 ", 2), ("+1", 1), ("03", 3)])
def test_ascii_integers_read_as_before(tmp_path, text, value):
    path = write(tmp_path, "r.csv", RESULTS_HEADER + f"P1,q1,edm,1,0,{text},3\n")
    assert csvio.read_results_csv(path)[0].confidence == value


@pytest.mark.parametrize("text", BAD + ["nan", "abc", ""])
def test_finite_float_rejects_what_the_readers_reject(text):
    # the interactive counter-example prompt reads its numbers with this
    with pytest.raises(ValueError):
        csvio.finite_float(text)


def test_examples_file_is_opened_once(tmp_path, monkeypatch):
    text = "exam,coursework,label\n40,50,Pass\n\n60,70,Merit\n"
    path = write(tmp_path, "ex.csv", text)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", counting_open)
    examples = csvio.read_examples_csv(path)
    monkeypatch.undo()
    assert opened.count(path) == 1
    assert [e.label for e in examples] == ["Pass", "Merit"]


@pytest.mark.parametrize("text, message", [
    ("", "header must name at least one attribute column and end with 'label'"),
    ("exam,grade\n1,a\n", "header must name at least one attribute column"),
    ("exam,label\n1,a\n\n2,b,c\n", "line 4: expected 2 fields, got 3"),
    ("exam,label\n1,a\nx,b\n", "line 3: exam must be a number, got 'x'"),
])
def test_examples_errors_keep_their_wording(tmp_path, text, message):
    path = write(tmp_path, "ex.csv", text)
    with pytest.raises(InputFileError, match=message):
        csvio.read_examples_csv(path)
