"""Synthesis of grading formulas from labelled example rows.

The hypothesis space is decision lists over threshold predicates: each rule
compares one aggregate of the row (MIN, MAX, AVERAGE, SUM, or a single
attribute) against a constant and emits a label; an example falls through to
the first rule whose predicate it satisfies, or to the default label. A list
compiles to nested IFs, so the output is an ordinary formula that can be
audited with the metrics module like any hand-written one.

Search is deterministic and returns the first consistent list in a fixed
total order: depth 1 upward, and within a depth a depth-first walk that tries
candidates at every slot in the order enumerate_candidates lists them. Four
prunings keep the walk short, and none changes which list is reached first:

1. A rule's label is forced by the examples it captures, so a rule whose
   capture would mix labels is pruned.
2. A rule capturing nothing is skipped.
3. Failed states are remembered. What can follow a rule depends only on the
   rows still unclassified and the slots left, not on the rules before it,
   so a (rows, slots) state that has failed once, at any depth, fails again
   and is not walked twice.
4. Each capture is placed once. A predicate capturing exactly the rows of an
   earlier one leads to the same states, which have already failed, and a
   predicate capturing no row at all leads nowhere; neither is placed. A
   family whose tie groups repeat an earlier one's is skipped (see below).

One _Walk object, built per search, holds all of the search's state: the
capture masks, each label's rows, the budget, the placements tried so far
and the failed states. Its methods are the walk's steps, so a step that
needs more state adds it there.

The walk never enters a state whose rows all share one label. The first
state holds every example, and synthesize returns a one-label set at once.
Say the walk entered one at depth d, after the rules P. With that label as
the default P fits every example, so the walk at depth len(P) < d, which
runs first, ends at P's last rule in its last slot unless an earlier list
ends it. A failed state cannot block P there: it has no completion, and
P's states have one. So depth d is never reached, every state holds two
labels or more, and no rule captures all of its rows.

The last slot of a list is filled in one pass over the capture masks, not
one placement at a time. A placement there ends the list when its capture
is pure and leaves a pure rest, so the label parts of the rows still alive
decide which captures qualify: with two parts a capture that is one part
whole, with three or more none. The first qualifying index gives the
placements tried, the same count and the same budget check as a walk that
tries them one by one.

The best pass rate reported on failure is a maximum over the states walked,
and skipping a state walked before leaves it unchanged. It is worked out
once, after a failed search, from the failed states: each one, and for each
failed last-slot state the rows that every pure capture there leaves
unclassified. A search that succeeds never computes it.

Predicates mean what the printed formula means: each attribute's values
are read into a column of floats, and a family's values come from the
evaluator's column kernel, evaluator.aggregate_columns, over those columns,
which falls back to evaluator.aggregate on each row where its overflow
check fails. A family's tie groups, the rows of each distinct value in
ascending order, give its thresholds: each group's value, with the groups
before it below it and its own too up to it, and between two groups their
midpoint, with the groups before it below and up to it. A midpoint that
rounds onto an end, as (1.0 + 1.0000000000000002) / 2 does, cuts as that
end; one that overflows to inf or -inf is no threshold, as no formula
prints it. Each comparator's rows are one of those sets or its complement,
as formulas.ORDERING would pick them, and a midpoint's are also a value's
under that comparator, so the tie groups fix what a family captures. A
family whose aggregate is an error on some row (a SUM or AVERAGE past the
largest float) is left out, as a rule testing it returns that error on any
such row it reaches.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from itertools import accumulate
from operator import or_

from ._record import record
from .errors import (
    check_finite,
    check_instance,
    check_integer,
    EmptyLabelError,
    HypothesisSpaceExhaustedError,
    InconsistentExamplesError,
    SearchBudgetExceededError,
)
from .evaluator import (
    _validate,
    aggregate_columns,
    canonical_ref,
    Column,
    Grid,
    ValidationReport,
)
from .formulas import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    cell_ref,
    cells_in_range,
    column_index,
    column_letters,
    FormulaAst,
    FunctionCall,
    Node,
    NumberLiteral,
    ORDERING,
    RangeRef,
    render,
    TextLiteral,
    UnaryOp,
)
from .metrics import MetricsReport, metrics_report
from .parser import parse

SINGLE_ATTRIBUTE = "ATTRIBUTE"

# every aggregate is searched unless a config narrows the set
DEFAULT_AGGREGATES = AGGREGATE_FUNCTIONS + (SINGLE_ATTRIBUTE,)

# The two comparators the studied grading formulas actually use; keeping the
# default set this small also keeps the searched space and output style tight.
DEFAULT_COMPARATORS = ("<", ">=")

DEFAULT_SEARCH_BUDGET = 10_000_000


@record
class LabeledExample:
    """One training row: attribute name -> numeric value, plus its label.

    The attributes must be a mapping. A value must be a finite int or float.
    A bool is not one: a grid keeps it as TRUE/FALSE, which no threshold
    test reads as a number. The label must be a str, as the formula prints
    it as text.
    """

    attributes: dict[str, float]
    label: str

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a str, got {self.label!r}")
        if not isinstance(self.attributes, Mapping):
            raise ValueError(
                f"attributes must be a mapping of names to numbers, got {self.attributes!r}"
            )
        for name, value in self.attributes.items():
            check_finite(f"attribute {name!r}", value)


@record
class HypothesisConfig:
    aggregates: tuple[str, ...] = DEFAULT_AGGREGATES
    comparators: tuple[str, ...] = DEFAULT_COMPARATORS
    max_decision_depth: int = 5
    cell_assignment: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        for kind, names, allowed in (
            ("aggregate", self.aggregates, DEFAULT_AGGREGATES),
            ("comparator", self.comparators, tuple(ORDERING)),
        ):
            # iterating a str or bytes would give its characters or byte values
            if isinstance(names, (str, bytes)):
                raise ValueError(
                    f"{kind}s must be a sequence of names,"
                    f" got the {type(names).__name__} {names!r}"
                )
            if not names:
                raise ValueError(f"{kind}s must name at least one of {allowed}")
            for index, name in enumerate(names):
                if name not in allowed:
                    raise ValueError(f"{kind} {name!r} is not one of {allowed}")
                if name in names[:index]:
                    raise ValueError(f"{kind} {name!r} is named more than once")
        check_integer("max_decision_depth", self.max_decision_depth, 1)
        _cell_assignment((), self.cell_assignment)  # a map the search can place


@record
class Predicate:
    """aggregate(row) comparator threshold, e.g. AVERAGE < 54.75."""

    aggregate: str
    comparator: str
    threshold: float
    attribute: str | None = None


@record
class SynthesisResult:
    formula: FormulaAst
    rendered: str
    training_report: ValidationReport
    candidates_explored: int
    metrics: MetricsReport


def _attribute_names(examples: Sequence[LabeledExample]) -> tuple[str, ...]:
    """The attribute names every example has, in order; none for no examples."""
    names = None
    for index, example in enumerate(examples):
        # not check_instance, which would format a name for every example
        if not isinstance(example, LabeledExample):
            raise TypeError(f"example {index} must be a LabeledExample, got {example!r}")
        if names is None:
            names = tuple(example.attributes.keys())
        elif tuple(example.attributes.keys()) != names:
            raise ValueError("examples disagree on attribute names or order")
    return names or ()


def _check_examples(examples: Sequence[LabeledExample]) -> tuple[str, ...]:
    """Reject an unusable training set; return its attribute names."""
    if not examples:
        raise EmptyLabelError("no labelled examples were given")
    names = _attribute_names(examples)
    seen: dict[tuple, str] = {}
    for index, example in enumerate(examples):
        if example.label == "":
            raise EmptyLabelError(f"example {index} has an empty label")
        row = tuple(example.attributes.values())
        if seen.setdefault(row, example.label) != example.label:
            raise InconsistentExamplesError(
                f"identical rows {row} are labelled both "
                f"{seen[row]!r} and {example.label!r}"
            )
    return names


Family = tuple[str, str | None]  # (aggregate, attribute or None)
Rules = list[tuple[int, str]]  # (the capture of a placement, its label)


def _float_columns(
    examples: Sequence[LabeledExample], names: Sequence[str]
) -> dict[str, list[float]]:
    """Each attribute's values as floats, in example order."""
    rows = zip(*(example.attributes.values() for example in examples))
    return {name: [*map(float, values)] for name, values in zip(names, rows)}


def _tie_groups(
    columns: Mapping[str, list[float]], config: HypothesisConfig
) -> dict[Family, tuple[list[float], tuple[int, ...]]]:
    """Each family's distinct values ascending, and for each k the rows of
    its k smallest values as a bit mask, row i being bit i."""
    lists = list(columns.values())
    families: dict[Family, list[float]] = {}
    for kind in config.aggregates:
        if kind == SINGLE_ATTRIBUTE:
            for attribute, values in columns.items():
                families[kind, attribute] = values
        elif lists:  # with no attribute every aggregate is an error
            # a column of another kind holds an error value, such as an overflow
            value_kind, values = aggregate_columns(kind, lists)
            if value_kind is float:
                families[kind, None] = values
    groups = {}
    for family, values in families.items():
        ties: dict[float, int] = {}  # the rows of each value; -0.0 is 0.0
        for i, value in enumerate(values):
            ties[value] = ties.get(value, 0) | 1 << i
        distinct = sorted(ties)
        prefix = tuple(accumulate(map(ties.get, distinct), or_, initial=0))
        groups[family] = distinct, prefix
    return groups


def _cuts(distinct: list[float], prefix: tuple[int, ...]) -> list[tuple]:
    """A family's thresholds ascending, each with its (below, up-to) rows."""
    cuts = [(distinct[0], (0, prefix[1]))]
    for k in range(1, len(distinct)):
        low, high = distinct[k - 1], distinct[k]
        mid = (low + high) / 2
        if not math.isinf(mid):  # no formula prints one that overflowed
            # a midpoint rounded onto an end cuts as that end
            cuts.append((mid, (prefix[k - (mid == low)], prefix[k + (mid == high)])))
        cuts.append((high, (prefix[k], prefix[k + 1])))
    return cuts


def _placements(
    columns: Mapping[str, list[float]],
    count: int,
    config: HypothesisConfig,
) -> dict[int, tuple]:
    """Each non-empty capture of the count rows of the float columns, in
    search order, and the Predicate fields of the first candidate that
    captures it (pruning 4)."""
    # a comparator captures the rows below (<) or up to (<=) a threshold, or
    # the rest (> and >=): (index into the below/up-to pair, mask to flip by)
    full_mask = (1 << count) - 1
    shapes = {"<": (0, 0), "<=": (1, 0), ">": (1, full_mask), ">=": (0, full_mask)}
    picks = [(comparator, *shapes[comparator]) for comparator in config.comparators]
    placements: dict[int, tuple] = {}
    seen = set()  # a family with an earlier one's tie groups captures nothing new
    groups = _tie_groups(columns, config)
    for (kind, attribute), (distinct, prefix) in groups.items():
        if prefix in seen:
            continue
        seen.add(prefix)
        for threshold, pair in _cuts(distinct, prefix):
            for comparator, bound, flip in picks:
                mask = pair[bound] ^ flip
                if mask and mask not in placements:
                    placements[mask] = kind, comparator, threshold, attribute
    return placements


def enumerate_candidates(
    examples: Sequence[LabeledExample], config: HypothesisConfig | None = None
) -> list[Predicate]:
    """All threshold predicates for an example set, in search order.

    Order is: aggregates as configured (each attribute in turn for the
    single-attribute family), then thresholds ascending, then comparators as
    configured. Thresholds are the observed aggregate values plus the finite
    midpoints of adjacent distinct values. A family whose aggregate is an
    error on some row has no candidates.
    """
    config = HypothesisConfig() if config is None else config
    check_instance("config", config, HypothesisConfig)
    columns = _float_columns(examples, _check_examples(examples))
    return [
        Predicate(kind, comparator, threshold, attribute)
        for (kind, attribute), groups in _tie_groups(columns, config).items()
        for threshold, _ in _cuts(*groups)
        for comparator in config.comparators
    ]


def default_cell_assignment(names: Sequence[str]) -> dict[str, str]:
    """First attribute in C5, then D5, E5, ... along row 5."""
    start = column_index("C")
    return {name: f"{column_letters(start + i)}5" for i, name in enumerate(names)}


def _cell_assignment(
    names: Sequence[str], given: Mapping[str, str] | None
) -> dict[str, str]:
    """The given assignment in canonical refs, one cell per attribute."""
    if given is not None and not isinstance(given, Mapping):
        raise ValueError(f"cell assignment must be a mapping or None, got {given!r}")
    if not given:
        return default_cell_assignment(names)
    unplaced = [name for name in names if name not in given]
    if unplaced:
        raise ValueError(f"cell assignment gives no cell to attributes {unplaced}")
    attribute_of: dict[str, str] = {}
    for name, ref in given.items():
        cell = canonical_ref(ref)
        if attribute_of.setdefault(cell, name) != name:
            raise ValueError(
                f"cell assignment maps {attribute_of[cell]!r} and {name!r} "
                f"to one cell, {cell}"
            )
    return {name: cell for cell, name in attribute_of.items()}


def _aggregate_node(
    predicate: Predicate, names: Sequence[str], assignment: Mapping[str, str]
) -> Node:
    if predicate.aggregate == SINGLE_ATTRIBUTE:
        return cell_ref(assignment[predicate.attribute])
    refs = [cell_ref(assignment[name]) for name in names]
    if len(refs) == 1:
        return FunctionCall(predicate.aggregate, (refs[0],))
    # cells side by side along one row print as the range that covers them
    span = RangeRef(refs[0], refs[-1])
    if refs[0].row == refs[-1].row and list(cells_in_range(span)) == [
        ref.canonical() for ref in refs
    ]:
        return FunctionCall(predicate.aggregate, (span,))
    return FunctionCall(predicate.aggregate, tuple(refs))


def _number_node(value: float) -> Node:
    if value < 0:
        return UnaryOp(NumberLiteral(-value))
    return NumberLiteral(value)


def _compile(
    rules: Sequence[tuple[Predicate, str]],
    default: str,
    names: Sequence[str],
    assignment: Mapping[str, str],
) -> FormulaAst:
    node: Node = TextLiteral(default)
    for predicate, label in reversed(rules):
        condition = BinaryOp(
            predicate.comparator,
            _aggregate_node(predicate, names, assignment),
            _number_node(predicate.threshold),
        )
        node = FunctionCall("IF", (condition, TextLiteral(label), node))
    return FormulaAst(node)


def example_grids(
    examples: Sequence[LabeledExample],
    assignment: Mapping[str, str] | None = None,
) -> list[tuple[Grid, str]]:
    """(grid, expected label) pairs for validating against the examples."""
    cells = _cell_assignment(_attribute_names(examples), assignment)
    return [
        (Grid({cells[name]: value for name, value in ex.attributes.items()}), ex.label)
        for ex in examples
    ]


class _Walk:
    """The search over one example set: its captures, labels and budget, the
    placements tried so far and the failed states (pruning 3)."""

    __slots__ = ("masks", "label_masks", "row_labels", "budget", "explored", "failed")

    def __init__(self, masks: list[int], labels: Sequence[str], budget: int) -> None:
        self.masks = masks
        # each label's rows, the labels in order of appearance
        self.label_masks: dict[str, int] = {}
        for i, label in enumerate(labels):
            self.label_masks[label] = self.label_masks.get(label, 0) | 1 << i
        # each row's label and the rows that share it
        self.row_labels = [(label, self.label_masks[label]) for label in labels]
        self.budget = budget
        self.explored = 0
        self.failed: set[tuple[int, int]] = set()

    def shared_label(self, rows: int) -> str | None:
        """The label every row in a set shares, or None if the set is empty or
        its rows' labels differ."""
        label, same = self.row_labels[(rows & -rows).bit_length() - 1]
        return label if rows and rows & same == rows else None

    def over_budget(self) -> SearchBudgetExceededError:
        return SearchBudgetExceededError(
            f"synthesis stopped after {self.budget} candidate placements"
        )

    def last_rule(self, alive: int) -> tuple[Rules, str] | None:
        """The one rule left for the rows in alive, and a default: the first
        placement that ends the list, found in one pass over the captures."""
        parts = [alive & rows for rows in self.label_masks.values() if alive & rows]
        end = index = len(self.masks)
        # alive has two parts or more (see the module docstring); with three
        # or more every placement leaves a mixed rest
        if len(parts) == 2:
            # a capture that is one part whole; the parts follow the captures,
            # so a part no capture equals is found at end or after it, and the
            # first part at end at most
            captures = [alive & mask for mask in self.masks] + parts
            index = min(map(captures.index, parts))
        tried = min(index + 1, end)
        if self.explored + tried > self.budget:
            raise self.over_budget()
        self.explored += tried
        if index == end:
            return None
        mask = self.masks[index]
        rule = mask, self.shared_label(alive & mask)
        return [rule], self.shared_label(alive & ~mask)

    def extend(self, alive: int, slots: int) -> tuple[Rules, str] | None:
        """Rules for the rows in alive, at most slots of them, and a default."""
        if (alive, slots) in self.failed:  # pruning 3
            return None
        if slots > 1:
            for mask in self.masks:
                self.explored += 1
                if self.explored > self.budget:
                    raise self.over_budget()
                rule_label = self.shared_label(alive & mask)
                if rule_label is None:
                    continue  # empty, or mixed: every completion would misclassify
                found = self.extend(alive & ~mask, slots - 1)
                if found is not None:
                    found[0].insert(0, (mask, rule_label))
                    return found
        elif (found := self.last_rule(alive)) is not None:
            return found
        self.failed.add((alive, slots))
        return None

    def best_passes(self) -> int:
        """The most rows a list walked classifies, once the search has failed."""
        # Every state entered ends in failed, as no search below it succeeded.
        # Each pure capture in a failed last-slot state left a mixed rest,
        # which a full list of those rules leaves unclassified.
        leftovers = {
            alive & ~mask
            for alive, slots in self.failed
            if slots == 1
            for mask in self.masks
            if self.shared_label(alive & mask) is not None
        }
        return max(
            len(self.row_labels) - alive.bit_count()
            + max((alive & m).bit_count() for m in self.label_masks.values())
            for alive in leftovers | {alive for alive, _ in self.failed}
        )


def synthesize(
    examples: Sequence[LabeledExample],
    config: HypothesisConfig | None = None,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> SynthesisResult:
    """Find the first decision list consistent with every example.

    The budget counts candidate placements actually tried during the search,
    after the prunings above, a memo hit counting none; exceeding it raises
    SearchBudgetExceeded, and a budget that is not an int of 0 or more is a
    ValueError. The rendered text of a consistent list is parsed again and
    re-checked through the evaluator, on the examples' float columns, before
    being returned, so the training report always shows a full pass for the
    text users copy: it equals validate_examples of that text on
    example_grids.
    """
    check_integer("search_budget", search_budget, 0)
    config = HypothesisConfig() if config is None else config
    check_instance("config", config, HypothesisConfig)
    names = _check_examples(examples)
    assignment = _cell_assignment(names, config.cell_assignment)
    # the examples as float columns, which the search cuts and, as a block,
    # the final check evaluates; neither changes a column
    columns = _float_columns(examples, names)
    block = {assignment[name]: (float, values) for name, values in columns.items()}
    labels = [example.label for example in examples]
    if len(set(labels)) == 1:
        return _checked_result(FormulaAst(TextLiteral(labels[0])), block, labels, 0)

    count = len(examples)
    placements = _placements(columns, count, config)
    walk = _Walk(list(placements), labels, search_budget)
    for depth in range(1, config.max_decision_depth + 1):
        found = walk.extend((1 << count) - 1, depth)
        if found is not None:
            rules = [(Predicate(*placements[mask]), label) for mask, label in found[0]]
            formula = _compile(rules, found[1], names, assignment)
            return _checked_result(formula, block, labels, walk.explored)
    rate = 100.0 * walk.best_passes() / count
    raise HypothesisSpaceExhaustedError(
        f"no decision list up to depth {config.max_decision_depth} fits all "
        f"{count} examples; best candidate passes {rate:.1f}%",
        best_pass_rate=rate,
    )


def _checked_result(
    formula: FormulaAst, block: Mapping[str, Column], labels: list[str], explored: int
) -> SynthesisResult:
    # validate the text a user copies, not the tree it was printed from
    rendered = render(formula)
    report = _validate(parse(rendered), block, labels)
    if not report.all_passed:
        raise AssertionError("synthesized formula failed its own training set")
    return SynthesisResult(
        formula=formula,
        rendered=rendered,
        training_report=report,
        candidates_explored=explored,
        metrics=metrics_report(formula),
    )
