"""Byte-for-byte pins of the command line's outputs on the bundled data, on
one fixed formula for analyze and on a seeded sheet of formulas for scan.

Each pin is the sha256 of the exact bytes a command writes, so a refactor
that keeps behaviour keeps every digest, and any change to a number's
digits, a column or a line ending shows up here.
"""

import csv
import hashlib
import os
import random
import subprocess
import sys

import sheetsmith
from sheetsmith import (
    enumerate_candidates,
    HypothesisSpaceExhaustedError,
    SearchBudgetExceededError,
    synthesize,
)
from sheetsmith.cli import main
from test_cli import fixture, REFERENCE
from test_pinned_parses import PIECES
from test_synthesis import every_comparator_set, random_example_set

CONFIDENCE = {
    "accuracy_vs_complexity_edm.csv":
        "c14190f7f76a99d1048ff12ad51fa394447386d35deb71b78c06a4324104681d",
    "accuracy_vs_complexity_traditional.csv":
        "124cbaab18f8d45281348dfc328f0a9aa561b4ded0a04f9ef2662b82e8641721",
    "confidence_ratio_edm.csv":
        "c08aa9048760ef9a1576c6438504e2da150c0a17a48479f5c1aa12eebe6093ca",
    "confidence_ratio_traditional.csv":
        "bda7bf4a780f0478bacb382473cc0d25698199b98285dac757bd6efafe5f808a",
    "outcomes.csv": "f4924ea7888d8fe7c8b02a357b92120d3f746fa104cf00412b7ac8b9521efdf9",
    "summary_approaches.csv":
        "33f0125a6bfb2349fa79183ceec8514807882a9e73e3c2786477b55803319520",
    "summary_questions.csv":
        "4a9475dea577dfdb808204c70cefedff1e162b551de2fb6e1e66cc1cadf81488",
    "stdout": "47d713eb8d0d2cec8a78be7d0d75ff5e760331c90eae9069059548f64f03d94f",
}

FIT_JSON = {
    "traditional": "b3541dfada9fd0f75e107817d91c0511a7478b2ec41ce1df4381f31699560c98",
    "edm": "081b7d040439479870a55a2b0684ff0279b951f0e79b376944ad69015cbbc9ee",
}

# fit's table and csv forms on the same files
FIT_FORMS = {
    ("table", "traditional"):
        "d0367cbf9345015cd756bde259cd4ba0ee89a7f89088f19a2cc4f572051370ec",
    ("table", "edm"): "1af864940250c50bbc0f7fb635d98f72fc86581bebfc898315354ad092edfdba",
    ("csv", "traditional"):
        "2ae1fdf8a7b8b7386439d05d4fe1268a2e097265ba9dbbb177f58f89b4a34576",
    ("csv", "edm"): "c3f0cc7d2e1e06bbb48038d278c2aeac32a78ec7ee4aa265a211fe6d989a621d",
}

# analyze's three forms on the reference grading formula
ANALYZE = {
    "table": "88df079939f693662299f24bc4b20cda2b6323f25bffd41ec5844fe810ff916d",
    "csv": "95155ffd5d942300cd52829241cd8fd8b683a0c0cee0069cf1bee227150cb7ac",
    "json": "3d8a3049d57c3f943d23bec927dde6db0a1ccb1d5f604aafcb423a28e15c73b5",
}

SYNTHESIZE_STDOUT = "0af9c51e685da4a4c92776b851fdd24e567ed816ef3de966b0615955a41e831a"
VALIDATE_STDOUT = "dc3c0d6849936f936f4777fd4da8d2557462dbb223f7ccb52c1cde16e2db106c"

SCAN_REPORT = "05a3426dae5f76f0047a6d1213783f964fe99bf23e1f8827751fcefeeab0cd3e"
SCAN_JSON = "a3e58a7d9c3041f64294e913b960c1cb098c2b729d1bec147602f187d928001d"

# synthesize's output on the seeded example sets at each budget, and
# enumerate_candidates on the same sets
SEARCHES = {
    10**7: "02fc55070068d3813571e47e2c98089b4a95c73ebd0f1452ac566271bf010968",
    50: "b03e538d3e9d5756b6e520920218d52053703cee9737b19b00414169b73131bc",
}
CANDIDATES = "43b381e036503e62c8fbf3697d5003b6804ab5e74e58d7c896f911d35bbff600"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return sha256(capsys.readouterr().out.encode())


def _confidence(out_dir, capsys) -> dict:
    stdout = _stdout(capsys, [
        "confidence",
        "--results", fixture("experiment_results.csv"),
        "--complexities", fixture("question_complexities.csv"),
        "--out-dir", str(out_dir),
    ])
    digests = {path.name: sha256(path.read_bytes()) for path in out_dir.iterdir()}
    return {**digests, "stdout": stdout}


def test_confidence_files_and_stdout_are_pinned(tmp_path, capsys):
    assert _confidence(tmp_path, capsys) == CONFIDENCE


def test_fit_json_on_both_accuracy_files_is_pinned(tmp_path, capsys):
    _confidence(tmp_path, capsys)
    for approach, pinned in FIT_JSON.items():
        points = str(tmp_path / f"accuracy_vs_complexity_{approach}.csv")
        argv = ["fit", "--points", points, "--format", "json"]
        assert _stdout(capsys, argv) == pinned, approach


def test_fit_table_and_csv_on_both_accuracy_files_are_pinned(tmp_path, capsys):
    _confidence(tmp_path, capsys)
    for (form, approach), pinned in FIT_FORMS.items():
        points = str(tmp_path / f"accuracy_vs_complexity_{approach}.csv")
        argv = ["fit", "--points", points, "--format", form]
        assert _stdout(capsys, argv) == pinned, (form, approach)


def test_analyze_in_each_form_is_pinned(capsys):
    for form, pinned in ANALYZE.items():
        assert _stdout(capsys, ["analyze", REFERENCE, "--format", form]) == pinned, form


def test_synthesize_on_the_bundled_grades_is_pinned(capsys):
    argv = ["synthesize", "--examples", fixture("grading_examples.csv")]
    assert _stdout(capsys, argv) == SYNTHESIZE_STDOUT


def test_validate_on_the_bundled_grades_is_pinned(capsys):
    argv = [
        "validate", "--formula", REFERENCE,
        "--examples", fixture("grading_examples.csv"),
    ]
    assert _stdout(capsys, argv) == VALIDATE_STDOUT


def _fresh_stdout(probe: str) -> str:
    """What probe prints in a new interpreter that imports this sheetsmith."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sheetsmith.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout


def test_importing_the_cli_leaves_statistics_unloaded():
    probe = (
        "import sys, sheetsmith.cli; "
        "print(sorted({'statistics', 'fractions'} & set(sys.modules)))"
    )
    out = _fresh_stdout(probe)
    assert out == "[]\n"


def test_a_csv_report_leaves_json_unloaded():
    probe = (
        "import io, sys, contextlib; from sheetsmith.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['analyze', '=1+A1', '--format', 'csv'])\n"
        "print('json' in sys.modules)"
    )
    assert _fresh_stdout(probe) == "False\n"


SPACES = ["", "", "", "", " ", "\t", "\xa0"]


def _cell(rng):
    marks = rng.choice(["", "", "", "$"]), rng.choice(["", "", "", "$"])
    return f"{marks[0]}{rng.choice('CDEcde')}{marks[1]}{rng.randint(2, 40)}"


def _marks(rng):
    pick = rng.random()
    if pick < 0.5:
        name = rng.choice(["MIN", "max", "Average", "SUM"])
        return [name, "(", _cell(rng), ":", _cell(rng), ")"]
    if pick < 0.7:
        return [_cell(rng)]
    weight = rng.choice(["0.25", "0.4", "0.5"])
    return [_cell(rng), "*", weight, "+", _cell(rng), "*", "0.6"]


def _test(rng):
    tokens = _marks(rng) + [rng.choice(["<", "<=", ">", ">=", "=", "<>"]),
                            str(rng.randint(0, 20) * 5)]
    if rng.random() < 0.3:
        other = _marks(rng) + [">=", str(rng.randint(0, 100))]
        return [rng.choice(["AND", "or"]), "("] + tokens + [","] + other + [")"]
    return tokens


def _grading_formula(rng):
    """IFs nested 1 to 4 deep over tests of marks, in any case and spacing."""
    outcomes = ['"Fail"', '"Pass"', '"say ""hi"""', "TRUE", "0", "-5", "2.5"]
    tokens = [rng.choice(outcomes)]
    for _ in range(rng.randint(1, 4)):
        tokens = ["if", "("] + _test(rng) + [",", rng.choice(outcomes), ","] + tokens + [")"]
    return "=" + "".join(rng.choice(SPACES) + token for token in tokens)


def _scan_sheet(path):
    """2,000 rows; every tenth has a piece of the parse corpus put in it."""
    rng = random.Random(20081019)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("source_id", "formula"))
        for index in range(2000):
            text = _grading_formula(rng) + rng.choice(SPACES)
            if index % 10 == 0:
                cut = rng.randint(1, len(text))
                text = text[:cut] + rng.choice(PIECES) + text[cut:]
            writer.writerow((f"q{index}", text))


def test_scan_report_of_a_seeded_sheet_is_pinned(tmp_path):
    sheet, report = tmp_path / "sheet.csv", tmp_path / "report.csv"
    _scan_sheet(sheet)
    assert main(["scan", str(sheet), "-o", str(report)]) == 0
    assert sha256(report.read_bytes()) == SCAN_REPORT


def test_scan_json_of_a_seeded_sheet_is_pinned(tmp_path, capsys):
    sheet, report = tmp_path / "sheet.csv", tmp_path / "report.json"
    _scan_sheet(sheet)
    assert _stdout(capsys, ["scan", str(sheet), "--format", "json"]) == SCAN_JSON
    argv = ["scan", str(sheet), "--format", "json", "-o", str(report)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert sha256(report.read_bytes()) == SCAN_JSON


def _example_sets():
    """The 1,000 seeded sets test_synthesis checks placements on."""
    for make, seeds in ((random_example_set, 400), (every_comparator_set, 600)):
        for seed in range(seeds):
            yield make(random.Random(seed))


def test_search_on_seeded_sets_is_pinned():
    lines = {budget: [] for budget in SEARCHES}
    candidates = []
    for examples, config in _example_sets():
        for budget, out in lines.items():
            try:
                result = synthesize(examples, config, budget)
            except (HypothesisSpaceExhaustedError, SearchBudgetExceededError) as exc:
                out.append(f"{exc.code}: {exc}")
            else:
                out.append(f"{result.rendered} {result.candidates_explored}")
        candidates.append(" ".join(
            f"{p.aggregate}:{p.attribute}{p.comparator}{p.threshold!r}"
            for p in enumerate_candidates(examples, config)
        ))
    digests = {
        budget: sha256("\n".join(out).encode()) for budget, out in lines.items()
    }
    assert digests == SEARCHES
    assert sha256("\n".join(candidates).encode()) == CANDIDATES
