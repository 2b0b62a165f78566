"""A byte-for-byte pin of what the parser makes of a seeded corpus.

The corpus is 60,000 strings built from formula pieces, most of them broken:
row-0 cells, a lone '$' or '"', '""' escapes, tabs, non-ASCII digits (which
are unexpected characters, not numbers) and letters, every function name in
both cases, '3.', numbers too large for a float, and nestings either side of
the parser's limit. The outcome of each string is its rendered tree, or the
error's class, message and position, and the sha256 of all outcomes is
pinned, so a change to any tree, message or position shows up here. The
corpus is parsed twice, in opposite orders, after the parser's caches are
cleared, so what the caches hold cannot change an answer.
"""

import hashlib
import random

from sheetsmith import formulas, parser, parse, render
from sheetsmith.errors import SheetsmithError

CORPUS_SIZE = 60_000

PARSE_OUTCOMES = "028b4810d7f04c777c62447587ca03a8515b5636aef858099f562f10bedcaeed"

FUNCTIONS = [
    spelling
    for name in ("IF", "AND", "OR", "NOT", "MIN", "MAX", "AVERAGE", "SUM")
    for spelling in (name, name.lower())
]

OPERATORS = ["+", "-", "*", "/", "^", "<", "<=", ">", ">=", "=", "<>"]

OPERANDS = [
    "0", "7", "40", "3.", "3.5", "007.250", "٣", "٣.٥", "9" * 320,
    '"a"', '""', '"Pass"', '"say ""hi"""', '"', '"""',
    "A1", "c5", "$C$5", "d$5", "$e5", "AA10", "a01", "A0", "$B$0", "A٣",
    "TRUE", "false", "True", "x", "MEDIAN",
]

OTHERS = ["(", ")", ",", ":", "$", "é", "#", "!", " ", "\t", "  \t", "\n"]

PIECES = OPERATORS + OPERANDS + OTHERS + FUNCTIONS


def _spaced(rng, text):
    return rng.choice(["", "", "", " ", "\t"]) + text


def _expression(rng, depth):
    """A formula sketch that is mostly well formed."""
    roll = rng.random()
    if depth > 3 or roll < 0.35:
        text = rng.choice(OPERANDS)
        if rng.random() < 0.15:
            text += ":" + rng.choice(OPERANDS)
    elif roll < 0.6:
        text = (_expression(rng, depth + 1) + _spaced(rng, rng.choice(OPERATORS))
                + _expression(rng, depth + 1))
    elif roll < 0.7:
        text = "-" + _expression(rng, depth + 1)
    elif roll < 0.8:
        text = "(" + _expression(rng, depth + 1) + ")"
    else:
        args = [_expression(rng, depth + 1) for _ in range(rng.randint(0, 3))]
        text = rng.choice(FUNCTIONS) + "(" + ",".join(args) + ")"
    return _spaced(rng, text)


def corpus():
    rng = random.Random(20081)
    texts = []
    for index in range(CORPUS_SIZE):
        if index % 500 == 0:
            depth = rng.randint(60, 68)
            opener = rng.choice(["(", "-", "if(1,", "SUM("])
            text = opener * depth + "1" + ("" if opener == "-" else ")" * depth)
        elif index % 2:
            text = _expression(rng, 0)
            if rng.random() < 0.2:
                cut = rng.randint(0, len(text))
                text = text[:cut] + rng.choice(PIECES) + text[cut:]
        else:
            text = "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 8)))
        texts.append(rng.choice(["=", "", "=", " ="]) + text)
    return texts


def outcome(text):
    try:
        return render(parse(text))
    except SheetsmithError as error:
        return f"{type(error).__name__}|{error}|{getattr(error, 'position', None)}"


def _clear_caches():
    for module in (parser, formulas):
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()


def test_parse_outcomes_are_pinned_and_independent_of_order():
    texts = corpus()
    _clear_caches()
    forward = [outcome(text) for text in texts]
    backward = [outcome(text) for text in reversed(texts)]
    assert backward[::-1] == forward
    digest = hashlib.sha256("\n".join(forward).encode()).hexdigest()
    assert digest == PARSE_OUTCOMES
