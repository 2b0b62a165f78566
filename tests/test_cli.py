"""End-to-end runs of the command line, in process via cli.main."""

import argparse
import io
import json

import pytest

from sheetsmith import cli
from sheetsmith.cli import main
from sheetsmith.errors import UsageError

REFERENCE = (
    '=IF(MIN(C5:D5)<40,"Fail",IF(AVERAGE(C5:D5)>=70,"Dist",'
    'IF(AVERAGE(C5:D5)>=55,"Merit",IF(AVERAGE(C5:D5)>=40,"Pass"))))'
)

GRADES_CSV = (
    "exam,coursework,label\n"
    "20,30,Fail\n39,80,Fail\n80,39,Fail\n"
    "40,40,Pass\n54,55,Pass\n40,58,Pass\n"
    "40,70,Merit\n69,70,Merit\n55,57,Merit\n"
    "70,70,Dist\n41,99,Dist\n100,100,Dist\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_table(capsys):
    assert main(["analyze", "=A1+A2"]) == 0
    out = capsys.readouterr().out
    assert "complexity" in out and "0.5" in out
    assert "miller_concepts" in out and "3" in out


def test_analyze_json(capsys):
    assert main(["analyze", "=SUM(A1:A9)", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["complexity"] == 2.0
    assert row["n1"] == row["n2"] == row["N1"] == row["N2"] == 1
    assert row["parse_error"] is None


def test_analyze_csv(capsys):
    assert main(["analyze", "=A1+A2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("source_id,formula,n1,n2,N1,N2,complexity")
    assert lines[1].startswith("-,=A1+A2,1,2,1,2,0.5,false")


def test_analyze_syntax_error_exits_one(capsys):
    assert main(["analyze", "=SUM("]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SyntaxError:")


def test_analyze_unknown_function_names_its_code(capsys):
    assert main(["analyze", "=VLOOKUP(A1,B1:B9,1)"]) == 1
    assert capsys.readouterr().err.startswith("error: UnknownFunction:")


def test_scan_tolerates_parse_errors(tmp_path, capsys):
    path = write(
        tmp_path, "f.csv",
        'source_id,formula\nok,=A1+A2\nbad,=SUM(\n'
    )
    assert main(["scan", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("ok,")
    assert "SyntaxError" in lines[2]


def test_scan_records_too_deep_nesting_and_goes_on(tmp_path, capsys):
    deep = "=" + "IF(TRUE," * 200 + "1" + ",0)" * 200
    path = write(tmp_path, "f.csv", f'source_id,formula\nok,=A1+A2\ndeep,"{deep}"\n')
    assert main(["scan", path, "--format", "json"]) == 0
    ok, deep_row = json.loads(capsys.readouterr().out)
    assert ok["parse_error"] is None
    assert deep_row["parse_error"].startswith("SyntaxError:")


def test_scan_writes_a_file(tmp_path, capsys):
    src = write(tmp_path, "f.csv", "source_id,formula\nr1,=A1+A2\n")
    out = str(tmp_path / "report.csv")
    assert main(["scan", src, "--output", out]) == 0
    with open(out) as handle:
        text = handle.read()
    assert text.splitlines()[1].startswith("r1,")


def test_scan_json(tmp_path, capsys):
    src = write(tmp_path, "f.csv", "source_id,formula\nr1,=A1+A2\n")
    assert main(["scan", src, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["source_id"] == "r1"


def test_scan_of_a_header_only_file(tmp_path, capsys):
    path = write(tmp_path, "f.csv", "source_id,formula\n")
    assert main(["scan", path]) == 0
    assert capsys.readouterr().out == (
        "source_id,formula,n1,n2,N1,N2,complexity,out_of_range_flag,"
        "volume,difficulty,effort,miller_concepts,miller_flag,parse_error\n"
    )
    assert main(["scan", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_scan_stamp_goes_only_into_csv(tmp_path, capsys):
    path = write(tmp_path, "f.csv", "source_id,formula\nr1,=A1+A2\n")
    assert main(["scan", path]) == 0
    plain = capsys.readouterr().out
    assert main(["scan", path, "--stamp"]) == 0
    stamp, rest = capsys.readouterr().out.split("\n", 1)
    assert stamp.startswith("# generated ")
    assert rest == plain
    assert main(["scan", path, "--format", "json"]) == 0
    plain = capsys.readouterr().out
    assert main(["scan", path, "--format", "json", "--stamp"]) == 0
    assert capsys.readouterr().out == plain
    report = tmp_path / "report.json"
    assert main(["scan", path, "--format", "json", "--stamp", "-o", str(report)]) == 0
    assert report.read_text() == plain


def test_scan_fail_on_miller(tmp_path, capsys):
    quoted = REFERENCE.replace('"', '""')
    src = write(
        tmp_path, "f.csv",
        f'source_id,formula\nplain,=A1+A2\nbig,"{quoted}"\n',
    )
    assert main(["scan", src]) == 0
    plain = capsys.readouterr().out
    assert main(["scan", src, "--fail-on-miller"]) == 1
    captured = capsys.readouterr()
    assert "error: MillerLimit: 1 of 2" in captured.err
    # the report is written whole before the gate's one stderr line
    assert captured.err.splitlines() == [
        "error: MillerLimit: 1 of 2 formulas exceed the concept limit"
    ]
    assert captured.out == plain
    report = tmp_path / "report.csv"
    assert main(["scan", src, "--fail-on-miller", "-o", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert report.read_text() == plain


@pytest.mark.parametrize("command, text, line", [
    (["scan"], f"source_id,formula\nq1,={'A' * 200_000}\n", 2),
    (["synthesize", "--examples"], f"exam,label\n1,A\n{'2' * 200_000},B\n", 3),
], ids=["scan", "synthesize"])
def test_a_field_past_the_csv_limit_is_an_input_file_error(
    tmp_path, capsys, command, text, line
):
    # the csv module stops at 131,072 characters a field; Excel at 32,767
    path = write(tmp_path, "f.csv", text)
    assert main([*command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: InputFile: {path} line {line}: field larger than field limit (131072)\n"
    )


def test_scan_missing_file_exits_two(tmp_path, capsys):
    assert main(["scan", str(tmp_path / "absent.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: InputFile:")


def test_synthesize_grades(tmp_path, capsys):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    assert main(["synthesize", "--examples", path]) == 0
    out = capsys.readouterr().out
    assert (
        'formula: =IF(MIN(C5:D5)<39.5,"Fail",IF(AVERAGE(C5:D5)<54.75,"Pass",'
        'IF(AVERAGE(C5:D5)<69.75,"Merit","Dist")))' in out
    )
    assert "training: 12/12 pass" in out


def test_validate_on_a_header_only_examples_file_exits_one(tmp_path, capsys):
    path = write(tmp_path, "empty.csv", "exam,coursework,label\n")
    assert main(["validate", "--formula", "=1", "--examples", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: EmptyExampleSet: no examples to validate against\n"


def test_synthesize_contradiction_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "x,label\n1,a\n1,b\n")
    assert main(["synthesize", "--examples", path]) == 1
    assert capsys.readouterr().err.startswith("error: InconsistentExamples:")


def test_synthesize_depth_cap_exits_one(tmp_path, capsys):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    assert main(["synthesize", "--examples", path, "--max-depth", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: HypothesisSpaceExhausted:")
    assert "%" in err


def test_synthesize_max_depth_zero_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    assert main(["synthesize", "--examples", path, "--max-depth", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Usage:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("depth", ["٣", "1_0", "three", "2.0"])
def test_synthesize_max_depth_must_be_an_ascii_integer(tmp_path, capsys, depth):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    assert main(["synthesize", "--examples", path, "--max-depth", depth]) == 2
    assert capsys.readouterr().err == (
        f"error: Usage: --max-depth must be an integer, got {depth!r}\n"
    )


def test_synthesize_budget_env(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    monkeypatch.setenv("SHEETSMITH_SEARCH_BUDGET", "5")
    assert main(["synthesize", "--examples", path]) == 1
    assert capsys.readouterr().err.startswith("error: SearchBudgetExceeded:")


def test_synthesize_budget_env_must_be_integer(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    monkeypatch.setenv("SHEETSMITH_SEARCH_BUDGET", "lots")
    assert main(["synthesize", "--examples", path]) == 2
    assert capsys.readouterr().err.startswith("error: Usage:")


@pytest.mark.parametrize("budget", ["١٠", "1_0", "10.0"])
def test_synthesize_budget_env_must_be_an_ascii_integer(
    tmp_path, capsys, monkeypatch, budget
):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    monkeypatch.setenv("SHEETSMITH_SEARCH_BUDGET", budget)
    assert main(["synthesize", "--examples", path]) == 2
    assert capsys.readouterr().err == (
        "error: Usage: SHEETSMITH_SEARCH_BUDGET must be a non-negative "
        f"integer, got {budget!r}\n"
    )


def test_synthesize_budget_env_must_not_be_negative(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    monkeypatch.setenv("SHEETSMITH_SEARCH_BUDGET", "-3")
    assert main(["synthesize", "--examples", path]) == 2
    assert capsys.readouterr().err == (
        "error: Usage: SHEETSMITH_SEARCH_BUDGET must be a non-negative "
        "integer, got '-3'\n"
    )
    monkeypatch.setenv("SHEETSMITH_SEARCH_BUDGET", "0")
    assert main(["synthesize", "--examples", path]) == 1
    assert capsys.readouterr().err.startswith("error: SearchBudgetExceeded:")


def test_synthesize_interactive_counter_example(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ex.csv", "score,label\n35,Fail\n45,Pass\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("85,Fail\n\n"))
    assert main(["synthesize", "--examples", path, "--interactive"]) == 0
    out = capsys.readouterr().out
    assert out.count("formula:") == 2
    assert '=IF(MIN(C5)<40,"Fail","Pass")' in out
    assert "training: 3/3 pass" in out


def test_synthesize_interactive_rejects_garbage_rows(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ex.csv", "score,label\n35,Fail\n45,Pass\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("too,many,fields\nnope,Fail\n"))
    assert main(["synthesize", "--examples", path, "--interactive"]) == 0
    captured = capsys.readouterr()
    assert "fields" in captured.err
    assert "numbers" in captured.err
    assert captured.out.count("formula:") == 1


def test_synthesize_on_one_example(tmp_path, capsys):
    path = write(tmp_path, "ex.csv", "score,label\n35,A\n")
    assert main(["synthesize", "--examples", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == 'formula: ="A"'


def test_synthesize_interactive_names_the_field_count(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    monkeypatch.setattr("sys.stdin", io.StringIO("50,60\n\n"))
    assert main(["synthesize", "--examples", path, "--interactive"]) == 0
    assert capsys.readouterr().err == "need 3 comma-separated fields, got 2\n"


def test_validate_all_pass(tmp_path, capsys):
    path = write(tmp_path, "grades.csv", GRADES_CSV)
    assert main(["validate", "--formula", REFERENCE, "--examples", path]) == 0
    out = capsys.readouterr().out
    assert "12/12 pass" in out
    assert out.count(": pass") == 12


def test_validate_reports_failures_but_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "ex.csv", "exam,coursework,label\n35,80,Pass\n")
    assert main(["validate", "--formula", REFERENCE, "--examples", path]) == 0
    out = capsys.readouterr().out
    assert 'FAIL expected "Pass" got "Fail"' in out
    assert "0/1 pass" in out


def fixture(name):
    import importlib.resources

    return str(importlib.resources.files("sheetsmith") / "data" / name)


def test_confidence_writes_plot_data(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main([
        "confidence",
        "--results", fixture("experiment_results.csv"),
        "--complexities", fixture("question_complexities.csv"),
        "--out-dir", out_dir,
    ])
    assert code == 0
    for name in (
        "outcomes.csv",
        "summary_questions.csv",
        "summary_approaches.csv",
        "accuracy_vs_complexity_traditional.csv",
        "accuracy_vs_complexity_edm.csv",
        "confidence_ratio_traditional.csv",
        "confidence_ratio_edm.csv",
    ):
        assert (tmp_path / "out" / name).exists(), name
    stdout = capsys.readouterr().out
    assert "traditional" in stdout and "edm" in stdout
    approaches = (tmp_path / "out" / "summary_approaches.csv").read_text()
    assert "traditional,10,80.0,46.0,4.0" in approaches
    assert "edm,10,10.0,98.0,0.3" in approaches


def test_confidence_plot_data_feeds_fit_directly(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main([
        "confidence",
        "--results", fixture("experiment_results.csv"),
        "--complexities", fixture("question_complexities.csv"),
        "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()
    points = out_dir / "accuracy_vs_complexity_traditional.csv"
    assert points.read_text().splitlines()[0] == "complexity,accuracy_pct"
    assert main(["fit", "--points", str(points)]) == 0
    out = capsys.readouterr().out
    assert "r_squared" in out


def test_confidence_outputs_are_byte_stable(tmp_path):
    args = [
        "confidence",
        "--results", fixture("experiment_results.csv"),
        "--complexities", fixture("question_complexities.csv"),
    ]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for path in sorted((tmp_path / "a").iterdir()):
        twin = tmp_path / "b" / path.name
        assert path.read_bytes() == twin.read_bytes(), path.name


def test_confidence_stamp_is_opt_in(tmp_path):
    args = [
        "confidence",
        "--results", fixture("experiment_results.csv"),
        "--complexities", fixture("question_complexities.csv"),
    ]
    assert main(args + ["--out-dir", str(tmp_path / "plain")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "stamped"), "--stamp"]) == 0
    plain = (tmp_path / "plain" / "outcomes.csv").read_text()
    stamped = (tmp_path / "stamped" / "outcomes.csv").read_text()
    assert not plain.startswith("#")
    assert stamped.startswith("# generated ")
    assert stamped.splitlines()[1:] == plain.splitlines()


def test_fit_table_and_formats(tmp_path, capsys):
    path = write(tmp_path, "pts.csv", "complexity,accuracy_pct\n1.0,50.0\n2.0,25.0\n")
    assert main(["fit", "--points", path]) == 0
    out = capsys.readouterr().out
    assert "a: 100.0" in out
    assert "b: -0.693147" in out
    assert main(["fit", "--points", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points_used"] == 2
    assert payload["ceiling_exceeded"] is False


def test_fit_ceiling_note(tmp_path, capsys):
    # nearly flat accuracy above 95 at the easiest observed question
    path = write(
        tmp_path, "pts.csv",
        "complexity,accuracy_pct\n0.5,97.0\n1.0,96.0\n2.0,94.0\n",
    )
    assert main(["fit", "--points", path]) == 0
    out = capsys.readouterr().out
    assert "ceiling_exceeded: true" in out
    assert "note:" in out


def test_fit_note_names_the_ceiling_in_use(tmp_path, capsys):
    path = write(
        tmp_path, "pts.csv",
        "complexity,accuracy_pct\n0.5,97.0\n1.0,96.0\n2.0,94.0\n",
    )
    assert main(["fit", "--points", path]) == 0
    assert "exceeds the 95.0% base-error ceiling" in capsys.readouterr().out
    assert main(["fit", "--points", path, "--ceiling", "96.5"]) == 0
    assert "exceeds the 96.5% base-error ceiling" in capsys.readouterr().out
    assert main(["fit", "--points", path, "--ceiling", "99"]) == 0
    assert "note:" not in capsys.readouterr().out


@pytest.mark.parametrize("ceiling", ["nan", "inf", "-inf", "1e400", "٩٥", "9_5"])
def test_fit_ceiling_must_be_a_finite_ascii_number(tmp_path, capsys, ceiling):
    path = write(
        tmp_path, "pts.csv",
        "complexity,accuracy_pct\n0.5,97.0\n1.0,96.0\n2.0,94.0\n",
    )
    assert main(["fit", "--points", path, f"--ceiling={ceiling}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: Usage: --ceiling must be a finite number, got {ceiling!r}\n"
    )


@pytest.mark.parametrize("ceiling", ["-1e3", "-5", "0", "-0", "150", "100.0001"])
@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
def test_fit_ceiling_must_be_above_0_and_at_most_100(tmp_path, capsys, ceiling, joined):
    path = write(
        tmp_path, "pts.csv",
        "complexity,accuracy_pct\n0.5,97.0\n1.0,96.0\n2.0,94.0\n",
    )
    option = [f"--ceiling={ceiling}"] if joined else ["--ceiling", ceiling]
    assert main(["fit", "--points", path, *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: Usage: --ceiling must be above 0 and at most 100, got {ceiling!r}\n"
    )


@pytest.mark.parametrize("option", [["--ceiling", "100"], ["--ceiling=100"]])
def test_fit_ceiling_of_100_is_accepted(tmp_path, capsys, option):
    path = write(
        tmp_path, "pts.csv",
        "complexity,accuracy_pct\n0.5,97.0\n1.0,96.0\n2.0,94.0\n",
    )
    assert main(["fit", "--points", path, *option]) == 0
    assert "ceiling_exceeded: false" in capsys.readouterr().out


def test_fit_ceiling_below_1_is_accepted(tmp_path, capsys):
    path = write(tmp_path, "pts.csv", "complexity,accuracy_pct\n1,90\n2,70\n")
    assert main(["fit", "--points", path, "--ceiling", "0.5"]) == 0
    assert "ceiling_exceeded: true" in capsys.readouterr().out


@pytest.mark.parametrize("ceiling, exceeded", [("0.5", "true"), ("50", "false")])
def test_fit_reads_the_ceiling_at_the_easiest_usable_point(
    tmp_path, capsys, ceiling, exceeded
):
    # the curve through the usable points reads 0.01 at complexity 1, where
    # the point is dropped, 1 at 2 and 100 at 3; the easiest usable
    # question is at 2, so a ceiling of 0.5 is exceeded and one of 50 is not
    path = write(tmp_path, "pts.csv", "complexity,accuracy_pct\n1,0\n2,1.0\n3,100\n")
    assert main(["fit", "--points", path, "--ceiling", ceiling]) == 0
    assert f"ceiling_exceeded: {exceeded}" in capsys.readouterr().out


def test_fit_ceiling_before_another_option(tmp_path, capsys):
    path = write(tmp_path, "pts.csv", "complexity,accuracy_pct\n0.5,97.0\n1.0,96.0\n")
    assert main(["fit", "--ceiling", "90", "--points", path]) == 0
    assert "exceeds the 90.0% base-error ceiling" in capsys.readouterr().out


def test_fit_with_an_underflowed_or_a_tiny_a(tmp_path, capsys):
    # exp(intercept) underflows to 0: no fit
    path = write(tmp_path, "zero.csv", "complexity,accuracy_pct\n1,1e-320\n2,70\n")
    assert main(["fit", "--points", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DegenerateX: ")
    assert captured.err.count("\n") == 1
    # a is about 1.95e-303 and exp(b) overflows at the easiest question
    path = write(
        tmp_path, "tiny.csv", "complexity,accuracy_pct\n1,1e10\n1.01,1.34e13\n"
    )
    assert main(["fit", "--points", path]) == 0
    assert "ceiling_exceeded: true" in capsys.readouterr().out


def test_fit_ceiling_with_no_value_is_argparses_error(tmp_path, capsys):
    path = write(tmp_path, "pts.csv", "complexity,accuracy_pct\n1,90\n2,70\n")
    assert main(["fit", "--points", path, "--ceiling"]) == 2
    assert "--ceiling: expected one argument" in capsys.readouterr().err


def test_synthesize_default_depth_is_the_library_default(capsys):
    from sheetsmith import HypothesisConfig

    grades = fixture("grading_examples.csv")
    assert main(["synthesize", "--examples", grades]) == 0
    default = capsys.readouterr().out
    depth = str(HypothesisConfig.max_decision_depth)
    assert main(["synthesize", "--examples", grades, "--max-depth", depth]) == 0
    assert capsys.readouterr().out == default


def test_fit_insufficient_points_exits_one(tmp_path, capsys):
    path = write(tmp_path, "pts.csv", "complexity,accuracy_pct\n1.0,50.0\n")
    assert main(["fit", "--points", path]) == 1
    assert capsys.readouterr().err.startswith("error: InsufficientPoints:")


def test_fit_overflowing_points_exit_one(tmp_path, capsys):
    path = write(
        tmp_path, "pts.csv", "complexity,accuracy_pct\n1e-300,50\n1e300,40\n"
    )
    assert main(["fit", "--points", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DegenerateX:")
    assert len(err.splitlines()) == 1


def test_validate_shows_an_overflowing_product_as_an_error(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "x,label\n1,1\n")
    assert main(["validate", "--formula", "=10^300*10^300", "--examples", path]) == 0
    out = capsys.readouterr().out
    assert "got #TypeMismatch" in out
    assert "0/1 pass" in out


def test_main_reads_sys_argv_without_arguments(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["sheetsmith", "analyze", "=A1+A2"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("formula            =A1+A2\n")


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["analyze"]) == 2
    assert main(["fit", "--points"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


COMMANDS = ("analyze", "scan", "synthesize", "validate", "confidence", "fit")
PARSED_ALIKE = [
    ["analyze", "=A1+A2", "--format", "json"],
    ["scan", "f.csv", "-o", "r.csv", "--format", "json", "--fail-on-miller", "--stamp"],
    ["synthesize", "--examples", "e.csv", "--max-depth", "3", "--interactive"],
    ["validate", "--formula", "=A1", "--examples", "e.csv"],
    ["confidence", "--results", "r.csv", "--complexities", "c.csv", "--out-dir", "d",
     "--stamp"],
    ["fit", "--points", "p.csv", "--ceiling", "90", "--format", "csv"],
    *([command, "-h"] for command in COMMANDS),
    ["analyze"], ["scan"], ["synthesize"], ["validate", "--formula", "=A1"],
    ["confidence", "--results", "r.csv"], ["fit"],
    ["analyze", "=A1", "--format", "xml"], ["scan", "f.csv", "--format", "xml"],
    ["fit", "--points", "p.csv", "--format", "xml"],
    ["synthesize", "--examples", "e.csv", "--max-depth", "x"],
    ["fit", "--points", "p.csv", "--ceiling=-1e3"],
    ["scan", "x.csv", "extra"], ["analyze", "=A1", "x"], ["scan", "--", "x"],
    [], ["--help"], ["bogus"], ["Scan"], ["-h", "scan"],
]


def _parse(parser, argv, capsys):
    """The namespace argparse gives, or how it ended: exit code and output,
    or the UsageError an option raised."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()
    except UsageError as exc:
        return "UsageError", str(exc)


@pytest.mark.parametrize("argv", PARSED_ALIKE, ids=" ".join)
def test_one_command_parses_as_all_six_do(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    named = argv[0] if argv and argv[0] in COMMANDS else None
    alone = _parse(cli._build_parser(named), argv, capsys)
    assert alone == _parse(cli._build_parser(), argv, capsys)


def test_a_named_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["scan", str(tmp_path / "missing.csv")]) == 2
    assert len(built) == 2  # the root and scan
    built.clear()
    assert main(["--help"]) == 0
    assert len(built) == 7  # the root and all six


HELP = "show this help message and exit"
ON = "_StoreTrueAction"
# per command: its help, its handler, and per argument its option strings (or
# dest), default, choices, required, help, nargs, action class and type name
ARGUMENTS = {
    "analyze": ("metrics for one formula", "_cmd_analyze", [
        (["-h", "--help"], "==SUPPRESS==", None, False, HELP, 0, "_HelpAction", None),
        ("formula", None, None, True, None, None, "_StoreAction", None),
        (["--format"], "table", ("table", "csv", "json"), False, None, None,
         "_StoreAction", None),
    ]),
    "scan": ("risk report over a formulas CSV", "_cmd_scan", [
        (["-h", "--help"], "==SUPPRESS==", None, False, HELP, 0, "_HelpAction", None),
        ("path", None, None, True, "CSV with header source_id,formula", None,
         "_StoreAction", None),
        (["--output", "-o"], "-", None, False, "output path ('-' = stdout)", None,
         "_StoreAction", None),
        (["--format"], "csv", ("csv", "json"), False, None, None, "_StoreAction", None),
        (["--fail-on-miller"], False, None, False,
         "exit 1 if any formula exceeds the concept limit", 0, ON, None),
        (["--stamp"], False, None, False, "add a timestamp comment to CSV", 0, ON, None),
    ]),
    "synthesize": ("build a formula from examples", "_cmd_synthesize", [
        (["-h", "--help"], "==SUPPRESS==", None, False, HELP, 0, "_HelpAction", None),
        (["--examples"], None, None, True, "CSV of attributes + label", None,
         "_StoreAction", None),
        (["--max-depth"], None, None, False, None, None, "_StoreAction", "<lambda>"),
        (["--interactive"], False, None, False,
         "offer to add counter-examples and re-synthesize", 0, ON, None),
    ]),
    "validate": ("check a formula against examples", "_cmd_validate", [
        (["-h", "--help"], "==SUPPRESS==", None, False, HELP, 0, "_HelpAction", None),
        (["--formula"], None, None, True, None, None, "_StoreAction", None),
        (["--examples"], None, None, True, None, None, "_StoreAction", None),
    ]),
    "confidence": ("experiment summary and plot data", "_cmd_confidence", [
        (["-h", "--help"], "==SUPPRESS==", None, False, HELP, 0, "_HelpAction", None),
        (["--results"], None, None, True, None, None, "_StoreAction", None),
        (["--complexities"], None, None, True, None, None, "_StoreAction", None),
        (["--out-dir"], ".", None, False, None, None, "_StoreAction", None),
        (["--stamp"], False, None, False, "add a timestamp comment", 0, ON, None),
    ]),
    "fit": ("fit accuracy = a*exp(b*complexity)", "_cmd_fit", [
        (["-h", "--help"], "==SUPPRESS==", None, False, HELP, 0, "_HelpAction", None),
        (["--points"], None, None, True, None, None, "_StoreAction", None),
        (["--ceiling"], None, None, False, None, None, "_StoreAction", "_ceiling"),
        (["--format"], "table", ("table", "csv", "json"), False, None, None,
         "_StoreAction", None),
    ]),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_keeps_its_arguments(name):
    # help text is compared by its parts, not byte for byte: argparse lays it
    # out differently from one Python version to the next
    parser = cli._build_parser(name)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (choice,) = [a for a in sub._choices_actions if a.dest == name]
    command = sub.choices[name]
    arguments = [
        (a.option_strings or a.dest, a.default, a.choices, a.required, a.help, a.nargs,
         type(a).__name__, getattr(a.type, "__name__", None))
        for a in command._actions
    ]
    assert (choice.help, command.get_default("handler").__name__, arguments) == (
        ARGUMENTS[name]
    )


LONG_CHAIN = "=" + "+".join(["C5"] * 2000)


def test_analyze_long_flat_chain(capsys):
    assert main(["analyze", LONG_CHAIN]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["canonical", LONG_CHAIN]
    assert "miller_concepts    2000" in lines


def test_validate_long_flat_chain(tmp_path, capsys):
    path = write(tmp_path, "ex.csv", "x,label\n1,a\n")
    assert main(["validate", "--formula", LONG_CHAIN, "--examples", path]) == 0
    assert capsys.readouterr().out == (
        'example 1: FAIL expected "a" got 2000\n0/1 pass\n'
    )


def test_fit_rejects_nan_points(tmp_path, capsys):
    path = write(
        tmp_path, "pts.csv", "complexity,accuracy_pct\n1.0,50.0\nnan,40.0\n2.0,25.0\n"
    )
    assert main(["fit", "--points", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: InputFile: {path} line 3: complexity must be a number, got 'nan'\n"
    )


def test_synthesize_rejects_infinite_attributes(tmp_path, capsys):
    path = write(tmp_path, "ex.csv", "x,label\n1,a\ninf,b\n")
    assert main(["synthesize", "--examples", path]) == 2
    assert capsys.readouterr().err == (
        f"error: InputFile: {path} line 3: x must be a number, got 'inf'\n"
    )


@pytest.mark.parametrize("count", [2**53 + 1, 10**400])
def test_confidence_rejects_an_error_count_no_float_holds(tmp_path, capsys, count):
    # a mean over such counts rounded, or overflowed into a traceback
    def run(error_count):
        path = write(
            tmp_path, "results.csv",
            "participant_id,question_id,approach,attempted,error_count,confidence,"
            f"difficulty\nP1,q1,edm,1,{error_count},3,3\n",
        )
        return path, main(["confidence", "--results", path, "--out-dir", str(tmp_path),
                           "--complexities", fixture("question_complexities.csv")])

    path, status = run(count)
    assert status == 2
    assert capsys.readouterr().err == (
        f"error: InputFile: {path} line 2: "
        f"error count must be at most 2**53, got {count}\n"
    )
    assert run(2**53)[1] == 0


def test_validate_prints_values_as_formula_text(tmp_path, capsys):
    path = write(tmp_path, "ex.csv", 'x,label\n1,"a""b"\n2,c\n3,d\n')
    formula = '=IF(C5=1,"x",IF(C5=2,C5/0,C5*2.5))'
    assert main(["validate", "--formula", formula, "--examples", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        'example 1: FAIL expected "a""b" got "x"',
        'example 2: FAIL expected "c" got #DivideByZero',
        'example 3: FAIL expected "d" got 7.5',
        "0/3 pass",
    ]


def test_scan_header_is_the_report_columns(tmp_path, capsys):
    path = write(tmp_path, "f.csv", "source_id,formula\nbad,=SUM(\n")
    assert main(["scan", path]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == (
        "source_id,formula,n1,n2,N1,N2,complexity,out_of_range_flag,"
        "volume,difficulty,effort,miller_concepts,miller_flag,parse_error"
    )
    assert row.startswith('bad,=SUM(,,,,,,,,,,,,"SyntaxError: ')


def test_confidence_headers_and_fit_keys(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main([
        "confidence",
        "--results", fixture("experiment_results.csv"),
        "--complexities", fixture("question_complexities.csv"),
        "--out-dir", str(out_dir),
    ]) == 0
    headers = {
        "outcomes.csv": "participant_id,question_id,approach,"
        "f_score,combined_overconfidence,confidence_ratio",
        "summary_questions.csv": "approach,question_id,complexity,attempted,"
        "percentage_accuracy,mean_errors,mean_confidence_ratio,mean_difficulty",
        "summary_approaches.csv": "approach,participants,"
        "percentage_models_with_errors,percentage_accuracy,"
        "mean_errors_per_question,mean_confidence_ratio",
        "accuracy_vs_complexity_traditional.csv": "complexity,accuracy_pct",
        "accuracy_vs_complexity_edm.csv": "complexity,accuracy_pct",
        "confidence_ratio_traditional.csv": "question_id,mean_confidence_ratio,"
        "mean_difficulty",
        "confidence_ratio_edm.csv": "question_id,mean_confidence_ratio,"
        "mean_difficulty",
    }
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(headers)
    for name, header in headers.items():
        assert (out_dir / name).read_text().splitlines()[0] == header, name
    capsys.readouterr()
    points = str(out_dir / "accuracy_vs_complexity_edm.csv")
    assert main(["fit", "--points", points, "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "a", "b", "r_squared", "points_used", "points_dropped", "ceiling_exceeded"
    ]


def test_synthesize_interactive_rejects_nan_and_inf(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ex.csv", "score,label\n35,Fail\n45,Pass\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("inf,Fail\nnan,Pass\n\n"))
    assert main(["synthesize", "--examples", path, "--interactive"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("attribute values must be numbers") == 2
    assert captured.out.count("formula:") == 1


def test_synthesize_interactive_drops_a_row_the_examples_reject(capsys, monkeypatch):
    # the first row contradicts the bundled 20,30,Fail and the second has no
    # label: each is reported, dropped and asked for again
    monkeypatch.setattr("sys.stdin", io.StringIO("20,30,Pass\n35,80,\n\n"))
    examples = fixture("grading_examples.csv")
    assert main(["synthesize", "--examples", examples, "--interactive"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("formula:") == 1
    assert captured.err == (
        "InconsistentExamples: identical rows (20.0, 30.0) are labelled both "
        "'Fail' and 'Pass'\n"
        "EmptyLabel: example 12 has an empty label\n"
    )


@pytest.mark.parametrize(
    "option,budget,message",
    [
        (["--max-depth", "1"], None,
         "HypothesisSpaceExhausted: no decision list up to depth 1 fits all 3 "
         "examples; best candidate passes 66.7%"),
        ([], "2", "SearchBudgetExceeded: synthesis stopped after 2 candidate placements"),
    ],
    ids=("depth", "budget"),
)
def test_synthesize_interactive_drops_a_row_no_list_fits(
    tmp_path, capsys, monkeypatch, option, budget, message
):
    # the two rows fit within the depth and the budget; with the third
    # none does, so the third is reported, dropped and asked for again
    path = write(tmp_path, "two.csv", "exam,label\n1,A\n2,B\n")
    if budget is not None:
        monkeypatch.setenv("SHEETSMITH_SEARCH_BUDGET", budget)
    monkeypatch.setattr("sys.stdin", io.StringIO("1.2,C\n\n"))
    assert main(["synthesize", "--examples", path, "--interactive", *option]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("formula:") == 1
    assert 'formula: =IF(MIN(C5)<1.5,"A","B")' in captured.out
    assert captured.err == message + "\n"


HUGE_NUMBER = "=" + "9" * 400


def test_analyze_number_out_of_range_is_a_syntax_error(capsys):
    assert main(["analyze", HUGE_NUMBER]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: SyntaxError: number out of range (position 1)\n"
    )


def test_scan_records_number_out_of_range_and_keeps_other_rows(tmp_path, capsys):
    path = write(tmp_path, "f.csv", f"source_id,formula\nok,=A1+A2\nhuge,{HUGE_NUMBER}\n")
    assert main(["scan", path, "--format", "json"]) == 0
    ok, huge = json.loads(capsys.readouterr().out)
    assert (ok["n1"], ok["n2"], ok["complexity"], ok["parse_error"]) == (1, 2, 0.5, None)
    assert huge["complexity"] is None
    assert huge["parse_error"] == "SyntaxError: number out of range (position 1)"


@pytest.mark.parametrize(
    "args,message",
    [
        (["synthesize", "--max-depth", "x", "--examples"],
         "--max-depth must be an integer, got 'x'"),
        (["synthesize", "--max-depth", "0", "--examples"],
         "max_decision_depth must be 1 or more, got 0"),
        (["fit", "--ceiling", "nan", "--points"],
         "--ceiling must be a finite number, got 'nan'"),
    ],
)
def test_options_are_read_before_any_file(tmp_path, capsys, args, message):
    assert main(args + [str(tmp_path / "missing.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: Usage: {message}\n")


def test_the_budget_variable_is_read_before_the_examples(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHEETSMITH_SEARCH_BUDGET", "lots")
    assert main(["synthesize", "--examples", str(tmp_path / "missing.csv")]) == 2
    assert capsys.readouterr() == ("", (
        "error: Usage: SHEETSMITH_SEARCH_BUDGET must be a non-negative "
        "integer, got 'lots'\n"
    ))
