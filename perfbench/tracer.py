"""Spans around sheetsmith's public functions, installed from outside the package.

``install()`` replaces each traced function with a wrapper in every
``sheetsmith`` module that holds a reference to it, so calls made between
modules (``cli`` calling ``parse``, ``synthesize`` calling ``evaluate``) are
seen too. A wrapper records a span: name, start, end, parent span and the
operation it belongs to. Per name it keeps calls, inclusive time and self time
(inclusive minus the time its traced children cover). Spans and counts are
kept only while ``first_round`` is set, so counts describe one round of
operations and repeat exactly for a given seed; timings cover the whole run.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# module -> public functions traced; helpers called per token or per cell
# (number_text, cells_in_range, canonical_ref) are left out to keep the
# tracer from dominating what it measures.
TRACED = {
    "cli": ("main",),
    "csvio": ("read_examples_csv", "read_results_csv", "read_complexities_csv",
              "read_points_csv", "read_formulas_csv"),
    "parser": ("parse",),
    "formulas": ("render",),
    "metrics": ("metrics_report",),
    "evaluator": ("evaluate", "validate_examples", "semantic_equivalence"),
    "synthesis": ("synthesize", "enumerate_candidates"),
    "confidence": ("summarize_experiment", "fit_accuracy_curve"),
}

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.first_round = True
        self.op = 0
        self._stack: list[list] = []  # [span id, name, child time]
        self._next_id = 0

    def count(self, name: str, amount: int = 1) -> None:
        if self.first_round:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, counter=None):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[2] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[2]
                if self.first_round:
                    self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1
                    if parent is not None:
                        key = f"{name}.under.{parent[1]}"
                        self.counts[key] = self.counts.get(key, 0) + 1
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((frame[0], parent[0] if parent else 0,
                                           self.op, name, start, end))
            if counter is not None:
                self.count(*counter(result))
            return result

        return traced

    def install(self) -> None:
        import sheetsmith

        replace = {}
        for short, names in TRACED.items():
            module = importlib.import_module(f"sheetsmith.{short}")
            for fn_name in names:
                fn = getattr(module, fn_name)
                counter = _COUNTERS.get(f"{short}.{fn_name}")
                replace[id(fn)] = self.wrap(f"{short}.{fn_name}", fn, counter)
        grid = sheetsmith.evaluator.Grid
        grid.__init__ = self.wrap("evaluator.Grid", grid.__init__)
        modules = [sheetsmith] + [
            importlib.import_module(f"sheetsmith.{short}") for short in TRACED
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "spans": self.spans}

    def merge(self, other: dict, first_round: bool) -> None:
        """Fold in what a traced child process recorded for operation ``self.op``."""
        for name, (calls, total, own) in other["stats"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0])
            mine[0] += calls
            mine[1] += total
            mine[2] += own
        if first_round:
            for name, amount in other["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + amount
            room = MAX_SPANS - len(self.spans)
            self.spans += [(i, p, self.op, n, s, e) for i, p, _, n, s, e in other["spans"][:room]]


_COUNTERS = {
    "synthesis.enumerate_candidates": lambda result: ("synthesis.candidates", len(result)),
    "synthesis.synthesize": lambda result: (
        "synthesis.candidates_explored", result.candidates_explored),
}


def layer_metrics(tracer: Tracer, import_ms: float, numpy_ms: float, speed: float) -> dict:
    """The per-layer figures BENCHMARK.json names, in its units.

    Times are means per call, divided by ``speed`` (the run's median ratio of
    raw to reference-speed time) like the end-to-end times.
    """

    def mean(names, field, scale):
        calls = sum(tracer.stats.get(n, [0, 0.0, 0.0])[0] for n in names)
        total = sum(tracer.stats.get(n, [0, 0.0, 0.0])[field] for n in names)
        return total / calls * scale / speed if calls else 0.0

    readers = [f"csvio.{n}" for n in TRACED["csvio"]]
    counts = tracer.counts
    return {
        "cli.import_ms": import_ms,
        "cli.import_numpy_ms": numpy_ms,
        "cli.self_ms": mean(["cli.main"], 2, 1e3),
        "csvio.read_ms": mean(readers, 1, 1e3),
        "parser.parse_us": mean(["parser.parse"], 1, 1e6),
        "parser.parse_calls": counts.get("parser.parse.calls", 0),
        "formulas.render_us": mean(["formulas.render"], 1, 1e6),
        "metrics.metrics_report_us": mean(["metrics.metrics_report"], 1, 1e6),
        "evaluator.grid_us": mean(["evaluator.Grid"], 1, 1e6),
        "evaluator.evaluate_us": mean(["evaluator.evaluate"], 1, 1e6),
        "evaluator.evaluate_calls": counts.get("evaluator.evaluate.calls", 0),
        "evaluator.grids_enumerated": counts.get(
            "evaluator.Grid.under.evaluator.semantic_equivalence", 0),
        "evaluator.validate_examples_ms": mean(["evaluator.validate_examples"], 1, 1e3),
        "synthesis.enumerate_candidates_ms": mean(["synthesis.enumerate_candidates"], 1, 1e3),
        "synthesis.search_ms": mean(["synthesis.synthesize"], 2, 1e3),
        "synthesis.candidates": counts.get("synthesis.candidates", 0),
        "synthesis.candidates_explored": counts.get("synthesis.candidates_explored", 0),
        "confidence.summarize_experiment_ms": mean(["confidence.summarize_experiment"], 1, 1e3),
        "confidence.fit_accuracy_curve_ms": mean(["confidence.fit_accuracy_curve"], 1, 1e3),
    }
