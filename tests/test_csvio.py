import pytest

from sheetsmith import csvio, InputFileError, RangeError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_examples_header_names_attributes(tmp_path):
    path = write(tmp_path, "ex.csv", "exam,coursework,label\n40,50,Pass\n")
    examples = csvio.read_examples_csv(path)
    assert len(examples) == 1
    assert examples[0].attributes == {"exam": 40.0, "coursework": 50.0}
    assert examples[0].label == "Pass"


def test_examples_blank_lines_skipped(tmp_path):
    path = write(tmp_path, "ex.csv", "x,label\n\n1,a\n\n2,b\n")
    assert len(csvio.read_examples_csv(path)) == 2


def test_examples_need_label_column(tmp_path):
    path = write(tmp_path, "ex.csv", "x,y\n1,2\n")
    with pytest.raises(InputFileError):
        csvio.read_examples_csv(path)


def test_examples_reject_bad_numbers(tmp_path):
    path = write(tmp_path, "ex.csv", "x,label\nabc,a\n")
    with pytest.raises(InputFileError, match="line 2"):
        csvio.read_examples_csv(path)


def test_examples_reject_ragged_rows(tmp_path):
    path = write(tmp_path, "ex.csv", "x,label\n1,a,extra\n")
    with pytest.raises(InputFileError):
        csvio.read_examples_csv(path)


def test_missing_file_is_an_input_error(tmp_path):
    with pytest.raises(InputFileError):
        csvio.read_examples_csv(str(tmp_path / "nope.csv"))


RESULTS_HEADER = (
    "participant_id,question_id,approach,attempted,error_count,confidence,difficulty\n"
)


def test_results_round_trip(tmp_path):
    path = write(tmp_path, "r.csv", RESULTS_HEADER + "P1,q1,edm,1,0,5,4\n")
    records = csvio.read_results_csv(path)
    assert records[0].participant_id == "P1"
    assert records[0].attempted is True
    assert records[0].confidence == 5


def test_results_attempted_must_be_zero_or_one(tmp_path):
    path = write(tmp_path, "r.csv", RESULTS_HEADER + "P1,q1,edm,yes,0,5,4\n")
    with pytest.raises(InputFileError):
        csvio.read_results_csv(path)


def test_results_header_is_exact(tmp_path):
    path = write(tmp_path, "r.csv", "who,question,approach\nP1,q1,edm\n")
    with pytest.raises(InputFileError):
        csvio.read_results_csv(path)


def test_results_off_scale_rating_is_a_domain_error(tmp_path):
    # a parseable file with a bad rating is a finding, not a file problem
    path = write(tmp_path, "r.csv", RESULTS_HEADER + "P1,q1,edm,1,0,9,4\n")
    with pytest.raises(RangeError):
        csvio.read_results_csv(path)


def test_complexities(tmp_path):
    path = write(tmp_path, "c.csv", "question_id,complexity\nq1,0.5\nq2,2.0\n")
    assert csvio.read_complexities_csv(path) == {"q1": 0.5, "q2": 2.0}


def test_complexities_reject_duplicates(tmp_path):
    path = write(tmp_path, "c.csv", "question_id,complexity\nq1,0.5\nq1,0.7\n")
    with pytest.raises(InputFileError):
        csvio.read_complexities_csv(path)


def test_points(tmp_path):
    path = write(tmp_path, "p.csv", "complexity,accuracy_pct\n1.0,50\n2.0,25\n")
    assert csvio.read_points_csv(path) == [(1.0, 50.0), (2.0, 25.0)]


def test_formulas(tmp_path):
    path = write(tmp_path, "f.csv", 'source_id,formula\nr1,=A1+A2\nr2,"=IF(A1,1,2)"\n')
    assert csvio.read_formulas_csv(path) == [
        ("r1", "=A1+A2"),
        ("r2", "=IF(A1,1,2)"),
    ]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_numbers_are_rejected(tmp_path, text):
    path = write(tmp_path, "p.csv", f"complexity,accuracy_pct\n1.0,50\n2.0,{text}\n")
    message = f"line 3: accuracy_pct must be a number, got '{text}'"
    with pytest.raises(InputFileError, match=message):
        csvio.read_points_csv(path)


@pytest.mark.parametrize(
    "read, text, message",
    [
        (csvio.read_results_csv, RESULTS_HEADER + "P1,q1,edm,2,0,3,3\n",
         "line 2: attempted must be 0 or 1, got '2'"),
        (csvio.read_points_csv, "complexity,accuracy_pct\n1,90\n2,x\n",
         "line 3: accuracy_pct must be a number, got 'x'"),
        # each row's fields are read before it is checked against earlier rows
        (csvio.read_complexities_csv, "question_id,complexity\nq1,1\nq1,x\n",
         "line 3: complexity must be a number, got 'x'"),
    ],
)
def test_a_bad_field_is_named_by_its_column(tmp_path, read, text, message):
    path = write(tmp_path, "t.csv", text)
    with pytest.raises(InputFileError) as raised:
        read(path)
    assert str(raised.value) == f"{path} {message}"
