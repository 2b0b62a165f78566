"""Every formula of one to four tokens over a small alphabet, parsed.

The alphabet holds an operand of each kind, '-' (prefix or binary), '+',
'^' and '<' at three precedence levels, both brackets, ',' and ':' and a
function name. Its strings of one to four tokens, joined by spaces so each
stays one token, number 30,940. Each string's outcome is its rendered tree,
or the error's class, message and position, and the sha256 of all outcomes
is pinned; every tree that parses must render to text that parses back to
it. Where the seeded corpus of test_pinned_parses samples long formulas,
this checks every short one: a small scope in which, for instance, each
pair of operators and each operator at each end of a formula occurs.
"""

import hashlib
from itertools import product

from sheetsmith import parse, render
from sheetsmith.errors import SheetsmithError

ALPHABET = ["-", "(", ")", ",", "+", "^", "<", "1", "A1", ":", "IF", '"x"', "TRUE"]

OUTCOMES = "7324b827d9e6ff24bb6b00a7ced47a5dd7ec3eca391d4c8e010d163b5c18864e"


def strings():
    for length in range(1, 5):
        for tokens in product(ALPHABET, repeat=length):
            yield " ".join(tokens)


def test_every_short_string_has_its_pinned_outcome_and_trees_round_trip():
    outcomes = []
    for text in strings():
        try:
            tree = parse(text)
        except SheetsmithError as error:
            outcomes.append(
                f"{type(error).__name__}|{error}|{getattr(error, 'position', None)}")
            continue
        rendered = render(tree)
        assert parse(rendered) == tree, text
        outcomes.append(rendered)
    assert len(outcomes) == 30_940
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == OUTCOMES
