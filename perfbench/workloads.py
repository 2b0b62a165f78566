"""The four workloads: seeded input generators, the timed operation, and checks.

A workload object is built from the seed alone. ``item(i)`` gives the input
of operation ``i`` (the same seed always gives the same sequence),
``run(item)`` is the one call that is timed, and ``check(item, out)`` returns
a list of mismatches against values the benchmark computes itself with
``oracle``. Operations are attempted in rounds of ``ROUND`` so every run does
whole rounds. sheetsmith is imported inside the methods, so generating inputs
never imports it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import calibrate
import oracle

LABELS = ("Fail", "Pass", "Merit", "Dist")


def rng_for(seed: int, *parts) -> random.Random:
    """A generator fixed by the seed and a label; str seeds hash stably."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


# ----- formulas of the grading kind (scan, cli analyze) --------------------

MAX_IF_DEPTH = 5  # parse recursion grows with nesting; it overflows near 140 IFs


def _cell(rng, col=None, row=None):
    return (
        "cell",
        col or rng.choice("CDEFG"),
        row or rng.randint(2, 40),
        rng.random() < 0.15,
        rng.random() < 0.15,
    )


def _marks(rng):
    """An aggregate, a single cell, or a weighted sum of marks."""
    pick = rng.random()
    row = rng.randint(2, 40)
    if pick < 0.5:
        first = rng.randint(3, 5)
        width = rng.randint(1, 3)
        a = _cell(rng, oracle.col_name(first), row)
        b = _cell(rng, oracle.col_name(first + width), row)
        if rng.random() < 0.1:
            a, b = b, a  # corners given in reverse still name the same range
        return ("call", rng.choice(oracle.AGGREGATES), (("range", a, b),))
    if pick < 0.65:
        cells = tuple(_cell(rng, c, row) for c in rng.sample("CDEF", rng.randint(2, 3)))
        return ("call", rng.choice(oracle.AGGREGATES), cells)
    if pick < 0.85:
        return _cell(rng)
    weight = rng.choice((0.2, 0.25, 0.3, 0.4, 0.5))
    return (
        "bin", "+",
        ("bin", "*", _cell(rng, "C", row), ("num", weight)),
        ("bin", "*", _cell(rng, "D", row), ("num", round(1 - weight, 2))),
    )


def _test(rng):
    compare = ("bin", rng.choice(oracle.COMPARE[:4]), _marks(rng),
               ("num", float(rng.randint(0, 20) * 5)))
    pick = rng.random()
    if pick < 0.6:
        return compare
    if pick < 0.85:
        other = ("bin", rng.choice(oracle.COMPARE[:4]), _marks(rng),
                 ("num", float(rng.randint(0, 20) * 5)))
        return ("call", rng.choice(("AND", "OR")), (compare, other))
    return ("call", "NOT", (compare,))


def _outcome(rng):
    pick = rng.random()
    if pick < 0.6:
        return ("text", rng.choice(LABELS + ("Resit", 'Refer "A"')))
    if pick < 0.75:
        return ("num", float(rng.randint(0, 100)))
    if pick < 0.85:
        return ("neg", ("num", float(rng.randint(1, 10))))
    if pick < 0.92:
        return ("bool", rng.random() < 0.5)
    return _marks(rng)


def grading_formula(rng):
    """IF(test, outcome, IF(...)) nested 1 to MAX_IF_DEPTH deep."""
    node = _outcome(rng)
    for _ in range(rng.randint(1, MAX_IF_DEPTH)):
        node = ("call", "IF", (_test(rng), _outcome(rng), node))
    return node


def formula_text(rng, tree) -> str:
    text = oracle.write(tree, rng)
    return ("= " if rng.random() < 0.1 else "=") + text


# Deliberately malformed rows and the error code sheetsmith must record.
def _malformed(rng, tree):
    text = oracle.write(tree)
    pick = rng.randrange(5)
    if pick == 0:
        return "=IF(MEDIAN(C5:E5)<40,\"Fail\"," + text + ")", "UnknownFunction"
    if pick == 1:
        return "=IF(" + text + ")", "ArityError"
    if pick == 2:
        return "=" + text + ")", "SyntaxError"
    if pick == 3:
        return "=" + text + "+", "SyntaxError"
    return "=C0+" + text, "SyntaxError"


class Scan:
    """cli scan over generated CSVs of grading formulas."""

    ROUND = 4
    FORMULAS = 200
    MALFORMED = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.pool = [self._make(i) for i in range(self.ROUND)]

    def _make(self, index: int) -> dict:
        rng = rng_for(self.seed, "scan", index)
        bad = set(rng.sample(range(self.FORMULAS), self.MALFORMED))
        rows, expected = [], []
        for n in range(self.FORMULAS):
            tree = grading_formula(rng)
            source_id = f"f{index}-{n}"
            if n in bad:
                text, code = _malformed(rng, tree)
                expected.append((source_id, text, code))
            else:
                text = formula_text(rng, tree)
                expected.append((source_id, text, oracle.expected_metrics(tree)))
            rows.append((source_id, text))
        path = os.path.join(self.workdir, f"scan{index}.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("source_id", "formula"))
            writer.writerows(rows)
        return {"path": path, "out": path[:-4] + "_report.csv", "expected": expected}

    def item(self, i: int) -> dict:
        return self.pool[i % self.ROUND]

    def run(self, item):
        from sheetsmith import cli

        return cli.main(["scan", item["path"], "-o", item["out"]])

    def check(self, item, status) -> list[str]:
        if status != 0:
            return [f"scan exit status {status}"]
        with open(item["out"], newline="", encoding="utf-8") as handle:
            got = list(csv.DictReader(handle))
        return check_report_rows(got, item["expected"])


def check_report_rows(got: list[dict], expected: list) -> list[str]:
    problems = []
    if len(got) != len(expected):
        return [f"{len(got)} report rows for {len(expected)} formulas"]
    for row, (source_id, text, want) in zip(got, expected):
        if row["source_id"] != source_id or row["formula"] != text:
            problems.append(f"row {source_id} out of order")
        elif isinstance(want, str):
            if not row["parse_error"].startswith(want + ": ") or row["n1"] != "":
                problems.append(f"{source_id}: wanted {want}, got {row['parse_error']!r}")
        else:
            problems += compare_metrics(source_id, row, want)
    return problems


def compare_metrics(name: str, got: dict, want: dict) -> list[str]:
    problems = []
    for key, value in want.items():
        text = got.get(key)
        if isinstance(value, bool):
            ok = str(text).lower() == str(value).lower()
        elif isinstance(value, int):
            ok = str(text) == str(value)
        else:
            ok = math.isclose(float(text), value, rel_tol=1e-12)
        if not ok:
            problems.append(f"{name}: {key} is {text}, counted {value}")
    return problems


# ----- synth ----------------------------------------------------------------


def planted_label(marks, fail, merit, dist) -> str:
    """The planted four-label list over MIN and AVERAGE of whole marks."""
    if min(marks) < fail:
        return "Fail"
    average = sum(marks) / len(marks)
    if average < merit:
        return "Pass"
    if average < dist:
        return "Merit"
    return "Dist"


def example_set(rng, rows: int, attributes: int) -> list:
    """rows // 4 rows of each label, marks 0..100, under seeded thresholds."""
    fail, merit, dist = rng.randint(35, 45), rng.randint(52, 60), rng.randint(65, 75)
    per_label = {label: [] for label in LABELS}
    while any(len(v) < rows // 4 for v in per_label.values()):
        marks = tuple(rng.randint(0, 100) for _ in range(attributes))
        bucket = per_label[planted_label(marks, fail, merit, dist)]
        if len(bucket) < rows // 4 and marks not in bucket:
            bucket.append(marks)
    out = [(m, label) for label, ms in per_label.items() for m in ms]
    rng.shuffle(out)
    return out


def cells_of(marks) -> dict:
    """sheetsmith's default layout: attributes along row 5 from C5."""
    return {f"{oracle.col_name(3 + k)}5": float(v) for k, v in enumerate(marks)}


def check_decision_list(text: str, rows, rules: int) -> list[str]:
    try:
        tree = oracle.read(text)
    except ValueError as exc:
        return [f"unreadable formula {text!r}: {exc}"]
    problems = []
    if rules is not None and oracle.count_rules(tree) != rules:
        problems.append(f"{text} has {oracle.count_rules(tree)} rules, not {rules}")
    for marks, label in rows:
        got = oracle.evaluate(tree, cells_of(marks))
        if got != label:
            problems.append(f"{text} gives {got!r} for {marks}, not {label!r}")
    return problems


class Synth:
    """synthesize on 12-row, two-mark sets labelled by a planted list."""

    ROUND = 8
    ROWS = 12
    NAMES = ("exam", "coursework")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def item(self, i: int):
        return example_set(rng_for(self.seed, "synth", i), self.ROWS, len(self.NAMES))

    def run(self, rows):
        from sheetsmith import LabeledExample, synthesize

        examples = [
            LabeledExample({n: float(v) for n, v in zip(self.NAMES, marks)}, label)
            for marks, label in rows
        ]
        return synthesize(examples)

    def check(self, rows, result) -> list[str]:
        return check_decision_list(result.rendered, rows, rules=3)


# ----- equiv ----------------------------------------------------------------

TWO = ("A1", "B1")
THREE = ("A1", "B1", "C1")


def equiv_pairs(seed: int) -> list:
    """One pair per template; the seed picks thresholds and the order.

    Non-equivalent pairs are boundary slips (>= against >) whose first
    differing grid comes after at least 96% of the enumeration.
    """
    rng = rng_for(seed, "equiv")
    t2 = rng.randint(5, 28)
    t3 = rng.randint(2, 8)
    hi = rng.choice((61, 62))
    top = rng.choice((30, 31))
    pairs = [
        ("=IF(A1>=B1,A1,B1)", "=MAX(A1,B1)", TWO),
        (f"=AND(A1>={t2},B1>={t2})", f"=NOT(OR(A1<{t2},B1<{t2}))", TWO),
        (f'=IF(MIN(A1:C1)<{t3},"Fail","Pass")',
         f'=IF(OR(A1<{t3},B1<{t3},C1<{t3}),"Fail","Pass")', THREE),
        ("=IF(A1>=B1,A1-B1,B1-A1)", "=IF(A1>B1,A1-B1,B1-A1)", TWO),
        (f'=IF(A1+B1>={hi},"hi","lo")', f'=IF(A1+B1>{hi},"hi","lo")', TWO),
        (f"=MIN(A1,B1)>={top}", f"=AND(A1>{top},B1>{top})", TWO),
        ('=IF(SUM(A1:C1)>=27,"Dist","Pass")', '=IF(A1+B1+C1>27,"Dist","Pass")', THREE),
        ("=SUM(A1:C1)-A1", "=C1+B1", THREE),
    ]
    rng.shuffle(pairs)
    return pairs


def domain_for(cells) -> dict:
    """0..31 for two cells (1024 grids), 0..9 for three (1000 grids)."""
    top = 31 if len(cells) == 2 else 9
    return {cell: list(range(top + 1)) for cell in cells}


def first_difference(a: str, b: str, domain: dict):
    """First grid, first cell varying slowest, where the two formulas differ."""
    ta, tb = oracle.read(a), oracle.read(b)
    names = list(domain)
    for combo in itertools.product(*domain.values()):
        cells = {n: float(v) for n, v in zip(names, combo)}
        if not oracle.same_value(oracle.evaluate(ta, cells), oracle.evaluate(tb, cells)):
            return cells
    return None


class Equiv:
    """parse both formulas, then semantic_equivalence over a fixed domain."""

    ROUND = 8

    def __init__(self, seed: int, workdir: str):
        self.pool = []
        for a, b, cells in equiv_pairs(seed):
            domain = domain_for(cells)
            self.pool.append((a, b, domain, first_difference(a, b, domain)))

    def item(self, i: int):
        return self.pool[i % self.ROUND]

    def run(self, item):
        from sheetsmith import parse, semantic_equivalence

        a, b, domain, _ = item
        return semantic_equivalence(parse(a), parse(b), domain)

    def check(self, item, result) -> list[str]:
        a, b, _, witness = item
        same, grid = result
        if witness is None:
            return [] if (same, grid) == (True, None) else [f"{a} vs {b}: not equal"]
        if same or grid is None or grid.cells() != witness:
            return [f"{a} vs {b}: got {grid!r}, first difference is {witness}"]
        return []


# ----- cli ------------------------------------------------------------------


def read_results(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def accuracy(records) -> float:
    """Percentage of attempted answers with no errors."""
    attempted = [r for r in records if r["attempted"] == "1"]
    return 100.0 * sum(r["error_count"] == "0" for r in attempted) / len(attempted)


def log_fit(points) -> dict:
    """Least squares of log(accuracy) on complexity with plain sums."""
    usable = [(x, math.log(y)) for x, y in points if y > 0]
    n = len(usable)
    mx = sum(x for x, _ in usable) / n
    my = sum(y for _, y in usable) / n
    sxx = sum((x - mx) ** 2 for x, _ in usable)
    sxy = sum((x - mx) * (y - my) for x, y in usable)
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - intercept - slope * x) ** 2 for x, y in usable)
    ss_tot = sum((y - my) ** 2 for _, y in usable)
    return {"a": math.exp(intercept), "b": slope, "r_squared": 1 - ss_res / ss_tot}


class Cli:
    """Fresh sheetsmith processes, one at a time, over the bundled data."""

    ROUND = 5

    def __init__(self, seed: int, workdir: str, src: str):
        self.seed = seed
        self.src = src
        data = os.path.join(src, "sheetsmith", "data")
        self.results = os.path.join(data, "experiment_results.csv")
        self.complexities = os.path.join(data, "question_complexities.csv")
        self.grades = os.path.join(data, "grading_examples.csv")
        self.out_dir = os.path.join(workdir, "confidence")
        records = read_results(self.results)
        with open(self.complexities, newline="", encoding="utf-8") as handle:
            complexity = {r["question_id"]: float(r["complexity"]) for r in csv.DictReader(handle)}
        self.accuracy = {
            (approach, q): accuracy([r for r in records if r["approach"] == approach
                                     and (q is None or r["question_id"] == q)])
            for approach in ("traditional", "edm")
            for q in [None] + sorted(complexity)
        }
        self.points = [(complexity[q], self.accuracy[("traditional", q)]) for q in sorted(complexity)]
        self.points_path = os.path.join(workdir, "points.csv")
        with open(self.points_path, "w", encoding="utf-8") as handle:
            handle.write("complexity,accuracy_pct\n")
            handle.writelines(f"{x!r},{y!r}\n" for x, y in self.points)
        with open(self.grades, newline="", encoding="utf-8") as handle:
            self.grade_rows = [
                ((float(r["exam"]), float(r["coursework"])), r["label"])
                for r in csv.DictReader(handle)
            ]

    def item(self, i: int):
        kind = ("analyze", "validate", "synthesize", "confidence", "fit")[i % self.ROUND]
        rng = rng_for(self.seed, "cli", i)
        if kind == "analyze":
            tree = grading_formula(rng)
            text = "=" + oracle.write(tree)
            return kind, ["analyze", text, "--format", "json"], tree
        if kind == "validate":
            fail, merit, dist = rng.randint(35, 45), rng.randint(50, 60), rng.randint(65, 75)
            text = (f'=IF(MIN(C5:D5)<{fail},"Fail",IF(AVERAGE(C5:D5)<{merit},"Pass",'
                    f'IF(AVERAGE(C5:D5)<{dist},"Merit","Dist")))')
            return kind, ["validate", "--formula", text, "--examples", self.grades], text
        if kind == "synthesize":
            return kind, ["synthesize", "--examples", self.grades], None
        if kind == "confidence":
            return kind, ["confidence", "--results", self.results,
                          "--complexities", self.complexities, "--out-dir", self.out_dir], None
        return kind, ["fit", "--points", self.points_path, "--format", "json"], None

    def run(self, item, stats_path=None):
        """(exit status, stdout, peak RSS in KiB, calibrated s, raw s) of one process.

        The child (``child.py cli``) times the calibration kernel as it starts
        and before it exits and reports both on its last stderr line; the time
        it spent on them is taken off the wall time.
        """
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, child, "cli", self.src, stats_path or "-"] + item[1],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        try:
            out = proc.stdout.read()
            err = proc.stderr.read().decode("utf-8", "replace")
        finally:
            proc.stdout.close()
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        took = time.perf_counter() - started
        err, _, calibration = err.rstrip("\n").rpartition("\n")
        if err:
            sys.stderr.write(err + "\n")
        _, before, after, spent = calibration.split()
        raw = took - float(spent)
        scaled = raw / calibrate.speed(float(before), float(after), calibrate.PROCESS_SENSITIVITY)
        return proc.returncode, out.decode("utf-8"), usage.ru_maxrss, scaled, raw

    def check(self, item, result) -> list[str]:
        kind, args, extra = item
        status, out = result[:2]
        if status != 0:
            return [f"{kind} exit status {status}"]
        if kind == "analyze":
            return compare_metrics(args[1], json.loads(out), oracle.expected_metrics(extra))
        if kind == "validate":
            tree = oracle.read(extra)
            passes = sum(oracle.evaluate(tree, cells_of(m)) == label for m, label in self.grade_rows)
            want = f"{passes}/{len(self.grade_rows)} pass"
            last = out.strip().splitlines()[-1]
            return [] if last == want else [f"validate printed {last!r}, counted {want!r}"]
        if kind == "synthesize":
            line = out.splitlines()[0]
            if not line.startswith("formula: "):
                return [f"synthesize printed {line!r}"]
            return check_decision_list(line[len("formula: "):], self.grade_rows, rules=None)
        if kind == "confidence":
            return self._check_confidence()
        got = json.loads(out)
        want = log_fit(self.points)
        return [
            f"fit {key} is {got[key]}, least squares gives {value}"
            for key, value in want.items()
            if not math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-12)
        ]

    def _check_confidence(self) -> list[str]:
        problems = []
        for name in ("summary_approaches.csv", "summary_questions.csv"):
            for row in read_results(os.path.join(self.out_dir, name)):
                key = (row["approach"], row.get("question_id"))
                want = self.accuracy[key]
                if not math.isclose(float(row["percentage_accuracy"]), want, rel_tol=1e-12):
                    problems.append(f"{name} {key}: accuracy {row['percentage_accuracy']}, recount {want}")
        return problems


WORKLOADS = {"scan": Scan, "synth": Synth, "equiv": Equiv, "cli": Cli}


def build(name: str, seed: int, workdir: str, src: str):
    if name == "cli":
        return Cli(seed, workdir, src)
    return WORKLOADS[name](seed, workdir)


def warm_up(workload) -> None:
    """One operation on the first input, output discarded, as a user's first call."""
    if isinstance(workload, Cli):
        from sheetsmith import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(workload.item(0)[1])
        return
    workload.run(workload.item(0))
