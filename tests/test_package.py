"""The package surface, and which layers each command loads.

``import sheetsmith`` loads no layer; a public name is imported from its home
module on first use. Each CLI command imports only the layers it needs, so
the checks below run every command in a fresh interpreter and list the
``sheetsmith`` modules it loaded.
"""

import importlib
import os
import subprocess
import sys

import pytest

import sheetsmith

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sheetsmith.__file__)))
DATA = os.path.join(SRC, "sheetsmith", "data")


def _loaded_modules(code: str, *flags: str) -> set:
    """The modules a fresh interpreter, given flags, holds after running code.

    The probe imports nothing itself, so it can tell whether code loaded json.
    """
    probe = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, *flags, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return set(out.splitlines()[-1].split())


def _loaded_layers(code: str) -> set:
    """The sheetsmith.* modules a fresh interpreter holds after running code."""
    return {name.split(".", 1)[1] for name in _loaded_modules(code)
            if name.startswith("sheetsmith.")}


def test_every_public_name_resolves_from_its_home_module():
    assert len(sheetsmith.__all__) == len(set(sheetsmith.__all__)) == 70
    for name in sheetsmith.__all__:
        value = getattr(sheetsmith, name)
        home = importlib.import_module(f"sheetsmith.{sheetsmith._HOMES[name]}")
        assert value is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sheetsmith import *", namespace)
    assert set(sheetsmith.__all__) <= set(namespace)
    assert namespace["parse"] is sheetsmith.parser.parse


def test_dir_lists_every_public_name():
    listed = dir(sheetsmith)
    assert set(sheetsmith.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sheetsmith.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sheetsmith import no_such_name", {})
    assert not hasattr(sheetsmith, "no_such_name")


def test_layers_are_attributes_of_the_package():
    for layer in ("confidence", "errors", "evaluator", "formulas", "metrics",
                  "parser", "synthesis"):
        module = importlib.import_module(f"sheetsmith.{layer}")
        assert getattr(sheetsmith, layer) is module


def test_importing_the_package_loads_no_layer():
    assert _loaded_layers("import sheetsmith") <= {"errors"}


def _command(*args) -> str:
    return f"from sheetsmith import cli\nassert cli.main({list(args)!r}) == 0"


def test_analyze_loads_no_evaluator_synthesis_or_statistics():
    loaded = _loaded_layers(_command("analyze", "=SUM(C5:D5)/2", "--format", "json"))
    assert "parser" in loaded
    assert not loaded & {"synthesis", "confidence", "evaluator"}


def test_study_commands_load_no_formula_layer(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("complexity,accuracy_pct\n1,90\n2,70\n3,50\n")
    commands = [
        ("fit", "--points", str(points)),
        ("confidence", "--results", os.path.join(DATA, "experiment_results.csv"),
         "--complexities", os.path.join(DATA, "question_complexities.csv"),
         "--out-dir", str(tmp_path)),
    ]
    for command in commands:
        loaded = _loaded_layers(_command(*command))
        assert "confidence" in loaded
        assert not loaded & {"parser", "formulas", "metrics", "evaluator", "synthesis"}


def test_synthesis_commands_load_no_study_analytics():
    grades = os.path.join(DATA, "grading_examples.csv")
    commands = [
        ("synthesize", "--examples", grades),
        ("validate", "--formula", '=IF(MIN(C5:D5)<40,"Fail","Pass")',
         "--examples", grades),
    ]
    for command in commands:
        loaded = _loaded_layers(_command(*command))
        assert "synthesis" in loaded
        assert "confidence" not in loaded


def test_only_commands_that_print_json_load_json(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("complexity,accuracy_pct\n1,90\n2,70\n3,50\n")
    grades = os.path.join(DATA, "grading_examples.csv")
    commands = [
        ("validate", "--formula", "=MIN(C5:D5)", "--examples", grades),
        ("synthesize", "--examples", grades),
        ("confidence", "--results", os.path.join(DATA, "experiment_results.csv"),
         "--complexities", os.path.join(DATA, "question_complexities.csv"),
         "--out-dir", str(tmp_path)),
        ("fit", "--points", str(points), "--format", "table"),
    ]
    for command in commands:
        assert "json" not in _loaded_modules(_command(*command)), command[0]
    assert "json" in _loaded_modules(_command("analyze", "=A1", "--format", "json"))


def test_each_command_loads_exactly_its_layers(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("complexity,accuracy_pct\n1,90\n2,70\n3,50\n")
    formulas = tmp_path / "formulas.csv"
    formulas.write_text("source_id,formula\nq1,=SUM(C5:D5)/2\nq2,=IF(1)#\n")
    grades = os.path.join(DATA, "grading_examples.csv")
    formula_layers = {"_record", "cli", "csvio", "errors", "formulas", "metrics",
                      "parser"}
    study_layers = {"_record", "cli", "confidence", "csvio", "errors"}
    commands = [
        (("analyze", "=SUM(C5:D5)/2"), formula_layers),
        (("scan", str(formulas), "-o", str(tmp_path / "report.csv")), formula_layers),
        (("validate", "--formula", "=MIN(C5:D5)", "--examples", grades),
         formula_layers | {"evaluator", "synthesis"}),
        (("synthesize", "--examples", grades),
         formula_layers | {"evaluator", "synthesis"}),
        (("confidence", "--results", os.path.join(DATA, "experiment_results.csv"),
          "--complexities", os.path.join(DATA, "question_complexities.csv"),
          "--out-dir", str(tmp_path)), study_layers),
        (("fit", "--points", str(points)), study_layers),
    ]
    for command, layers in commands:
        assert _loaded_layers(_command(*command)) == layers, command[0]


def test_no_command_loads_typing(tmp_path):
    # -S keeps site out: a .pth file can import typing on its own and so hide
    # an import of it here
    points = tmp_path / "points.csv"
    points.write_text("complexity,accuracy_pct\n1,90\n2,70\n3,50\n")
    formulas = tmp_path / "formulas.csv"
    formulas.write_text("source_id,formula\nq1,=SUM(C5:D5)/2\nq2,=IF(1)#\n")
    grades = os.path.join(DATA, "grading_examples.csv")
    runs = [_command(*command) for command in [
        ("analyze", "=SUM(C5:D5)/2"),
        ("scan", str(formulas), "-o", str(tmp_path / "report.csv")),
        ("validate", "--formula", "=MIN(C5:D5)", "--examples", grades),
        ("synthesize", "--examples", grades),
        ("confidence", "--results", os.path.join(DATA, "experiment_results.csv"),
         "--complexities", os.path.join(DATA, "question_complexities.csv"),
         "--out-dir", str(tmp_path)),
        ("fit", "--points", str(points)),
    ]]
    runs.append("import sheetsmith.confidence, sheetsmith.evaluator, "
                "sheetsmith.synthesis")
    for code in runs:
        assert "typing" not in _loaded_modules(code, "-S"), code


def test_the_package_getattr_imports_a_layer_module_by_name():
    assert sheetsmith.__getattr__("evaluator") is importlib.import_module(
        "sheetsmith.evaluator")
