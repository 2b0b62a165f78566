import random
import re
import time

import pytest

from sheetsmith import (
    ArityError,
    BinaryOp,
    BooleanLiteral,
    CellRef,
    FormulaAst,
    FormulaSyntaxError,
    FunctionCall,
    NumberLiteral,
    parse,
    RangeRef,
    render,
    TextLiteral,
    UnaryOp,
    UnknownFunctionError,
)
from sheetsmith import parser
from sheetsmith.formulas import CELL_PATTERN, children
from test_pinned_parses import corpus

# Canonical corpus: each entry survives parse -> render byte-for-byte.
CANONICAL = [
    '=A1+A2',
    '=SUM(A1:A9)',
    '=IF(MIN(C5:D5)<40,"Fail",IF(AVERAGE(C5:D5)>=70,"Dist",'
    'IF(AVERAGE(C5:D5)>=55,"Merit",IF(AVERAGE(C5:D5)>=40,"Pass"))))',
    '=IF(C5>=40,"Pass","Fail")',
    '=IF(AND(C5>=40,D5>=40),"Pass","Fail")',
    '=AVERAGE(B2:D4)*2-MIN(B2:B4)',
    '=-A1^2',
    '=2^3^4',
    '=(A1+A2)*A3',
    '=A1*(A2+A3)-A4/A5',
    '=NOT(OR(A1>5,B1<=3))',
    '=IF(A1=B1,"eq",IF(A1<>B1,"ne","x"))',
    '=MAX(A1,B1,C1)',
    '=MIN($C$5:D9)',
    '="label"',
    '=TRUE',
    '=IF(NOT(FALSE),1,0)',
    '=A1<=B1',
    '=SUM(A1:A3)+SUM(B1:B3)/3',
    '=IF(MIN(C5:D5)<40,"Fail",IF(AVERAGE(C5:D5)>=40,"Pass",FALSE))',
]


def test_corpus_is_twenty_formulas():
    assert len(CANONICAL) == 20


@pytest.mark.parametrize("text", CANONICAL)
def test_round_trip(text):
    ast = parse(text)
    rendered = render(ast)
    assert rendered == text
    assert parse(rendered) == ast


def test_rendering_is_stable():
    for text in CANONICAL:
        once = render(parse(text))
        assert render(parse(once)) == once


def test_parsing_is_deterministic():
    text = CANONICAL[2]
    assert parse(text) == parse(text)


def test_ast_shape_of_simple_sum():
    ast = parse("=A1+A2")
    assert ast.root == BinaryOp(
        "+", CellRef("A", 1), CellRef("A", 2)
    )


def test_case_and_whitespace_normalisation():
    assert parse('=sum( a1 : a9 )') == parse('=SUM(A1:A9)')
    assert render(parse('= if ( a1 < 2 , "x" , "y" )')) == '=IF(A1<2,"x","y")'


def test_leading_equals_is_optional():
    assert parse("A1+A2") == parse("=A1+A2")


def test_redundant_parens_are_dropped():
    assert render(parse("=((A1))+(((2)))")) == "=A1+2"
    assert render(parse("=A1+(2*3)")) == "=A1+2*3"


def test_needed_parens_survive():
    assert render(parse("=(A1+2)*3")) == "=(A1+2)*3"
    assert render(parse("=-(A1+1)")) == "=-(A1+1)"


def test_left_associativity():
    # a-b-c groups left; the right-hand grouping needs parentheses
    assert parse("=A1-A2-A3") == parse("=(A1-A2)-A3")
    assert render(parse("=A1-(A2-A3)")) == "=A1-(A2-A3)"
    assert parse("=2^3^4") == parse("=(2^3)^4")
    assert render(parse("=2^(3^4)")) == "=2^(3^4)"


def test_unary_minus_binds_tighter_than_power():
    assert parse("=-A1^2") == parse("=(-A1)^2")


def test_comparison_binds_loosest():
    ast = parse("=A1+1>B1*2")
    assert isinstance(ast.root, BinaryOp)
    assert ast.root.op == ">"


def test_number_literals():
    assert parse("=1.5").root == NumberLiteral(1.5)
    assert render(parse("=1.50")) == "=1.5"
    assert render(parse("=3.0")) == "=3"
    assert render(parse("=0.25")) == "=0.25"


def test_text_literal_with_doubled_quote():
    ast = parse('="he said ""hi"""')
    assert ast.root == TextLiteral('he said "hi"')
    assert render(ast) == '="he said ""hi"""'


def test_booleans_are_literals_not_functions():
    assert parse("=TRUE").root == BooleanLiteral(True)
    assert parse("=false").root == BooleanLiteral(False)


def test_absolute_markers_round_trip_but_compare_relative():
    ast = parse("=$C$5")
    ref = ast.root
    assert isinstance(ref, CellRef)
    assert ref.column_absolute and ref.row_absolute
    assert render(ast) == "=$C$5"
    assert ref.canonical() == "C5"


def test_range_normalises_corner_order():
    assert parse("=SUM(D9:A1)") == parse("=SUM(A1:D9)")
    node = parse("=SUM(B2:B2)").root
    assert isinstance(node, FunctionCall)
    assert isinstance(node.args[0], RangeRef)


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("=SUM($A1:A2)", "=SUM($A1:A2)"),
        ("=$C$5:$e5", "=$C$5:$E5"),
        ("=SUM(A$1:A1)", "=SUM(A$1:A1)"),
        ("=SUM(B2:$A1)", "=SUM($A1:B2)"),
    ],
)
def test_range_corners_tied_on_a_side_keep_their_own_markers(text, rendered):
    assert render(parse(text)) == rendered
    assert render(parse(rendered)) == rendered


def test_multiletter_columns():
    ast = parse("=AA10+AB1")
    assert ast.root == BinaryOp("+", CellRef("AA", 10), CellRef("AB", 1))


def test_unary_minus_node():
    ast = parse("=-3")
    assert ast.root == UnaryOp(NumberLiteral(3.0))


def test_function_arity_errors():
    with pytest.raises(ArityError, match="IF takes"):
        parse("=IF(A1>1)")
    with pytest.raises(ArityError, match="NOT takes exactly 1"):
        parse("=NOT(A1,A2)")
    with pytest.raises(ArityError, match="IF takes"):
        parse('=IF(A1,1,2,3)')


def test_unknown_function():
    with pytest.raises(UnknownFunctionError) as info:
        parse("=COUNT(A1:A9)")
    assert info.value.name == "COUNT"
    assert info.value.position == 1


def test_unknown_bare_name():
    with pytest.raises(UnknownFunctionError):
        parse("=banana")


def test_known_function_without_parens():
    with pytest.raises(FormulaSyntaxError, match="after function name SUM"):
        parse("=SUM")


def test_syntax_error_positions():
    with pytest.raises(FormulaSyntaxError) as info:
        parse("=A1+")
    assert info.value.position == 4
    with pytest.raises(FormulaSyntaxError, match="position 0"):
        parse("")
    with pytest.raises(FormulaSyntaxError):
        parse("=1 2")
    with pytest.raises(FormulaSyntaxError, match="unterminated"):
        parse('="abc')
    with pytest.raises(FormulaSyntaxError):
        parse("=A1 & B1")
    with pytest.raises(FormulaSyntaxError):
        parse("=SUM(A1,)")
    with pytest.raises(FormulaSyntaxError):
        parse("=(A1")


def test_row_zero_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse("=A0")


def _nested_ifs(levels):
    return "=" + "IF(TRUE," * levels + "1" + ",0)" * levels


@pytest.mark.parametrize("text", [
    _nested_ifs(64),
    "=" + "(" * 64 + "1" + ")" * 64,
    "=" + "-" * 64 + "1",
    "=" + "-(" * 32 + "A1" + ")" * 32,
    "=" + "1<1+1*1^IF(TRUE," * 64 + "1" + ",0)" * 64,
], ids=["calls", "groups", "minus", "mixed", "operators-between-calls"])
def test_sixty_four_nesting_levels_parse(text):
    ast = parse(text)
    assert render(parse(render(ast))) == render(ast)


@pytest.mark.parametrize("text", [
    _nested_ifs(65),
    "=" + "(" * 65 + "1" + ")" * 65,
    "=" + "-" * 1000 + "1",
    "=" + "-(" * 32 + "-A1" + ")" * 32,
], ids=["calls", "groups", "minus-run", "mixed"])
def test_deeper_nesting_is_a_syntax_error(text):
    with pytest.raises(FormulaSyntaxError, match="nests deeper than 64") as info:
        parse(text)
    assert info.value.position is not None


def _calls(levels):
    return "IF(TRUE," * levels + "1" + ",0)" * levels


def _groups(levels):
    return "(" * levels + "1" + ")" * levels


def test_each_construct_gives_its_nesting_level_back():
    # siblings each start at the depth around them, so a level that leaked
    # out of a call, a group or an argument would push a later one past 64
    text = "=" + "+".join([_calls(64)] * 3)
    assert len(text) == 2118
    parse(text)
    parse("=SUM(" + ",".join([_groups(63)] * 3) + ")")
    # the 65th level fails at the token that opens it, not at one inside it
    for text, position in [
        (_nested_ifs(65), 513),
        ("=" + _groups(65), 65),
        ("=" + "-" * 65 + "1", 65),
        ("=" + "+".join([_calls(64), _calls(64), _calls(65)]), 1925),
        ("=SUM(" + ",".join([_groups(63), _groups(63), _groups(64)]) + ")", 324),
    ]:
        with pytest.raises(FormulaSyntaxError, match="nests deeper than 64") as info:
            parse(text)
        assert info.value.position == position, text[:40]


def test_tiny_number_keeps_its_value():
    ast = parse("=0.00000000000000000001")
    assert render(ast) == "=0.00000000000000000001"
    assert parse(render(ast)) == ast


def test_huge_number_is_stable_under_render_and_parse():
    once = render(parse("=123456789012345678901"))
    assert render(parse(once)) == once
    assert parse(once) == parse("=123456789012345678901")


def _has_negative_literal(node):
    if isinstance(node, NumberLiteral):
        return node.value < 0
    return any(_has_negative_literal(child) for child in children(node))


def test_round_trip_over_generated_trees():
    # a negative literal renders as '-3' and parses back as unary minus, so
    # only trees without one must come back equal; every tree's text is stable
    from test_acceptance import _random_node

    rng = random.Random(20261018)
    for _ in range(3000):
        tree = FormulaAst(_random_node(rng, depth=4))
        text = render(tree)
        assert render(parse(text)) == text, text
        if not _has_negative_literal(tree.root):
            assert parse(text) == tree, text


def test_long_flat_chains_render_back_to_their_text():
    mixed = "=" + "-".join(["A1*2"] * 3000) + "/B1^2<" + "+".join(["C1"] * 3000)
    assert render(parse(mixed)) == mixed
    grouped = "=" + "+".join(["A1"] * 3000) + "-(B1-C1)*2"
    assert render(parse(grouped)) == grouped


def test_number_too_large_for_a_float_is_a_syntax_error():
    huge = "9" * 400
    with pytest.raises(FormulaSyntaxError, match="number out of range") as info:
        parse(f"={huge}<1")
    assert info.value.position == 1
    with pytest.raises(FormulaSyntaxError) as info:
        parse(f"=A1+{huge}")
    assert info.value.position == 4
    # the largest literal a float holds still parses
    assert parse("=" + "9" * 308).root == NumberLiteral(float("9" * 308))


# Positions and the unexpected-character check are worked out only once a
# parse has failed; these messages and positions are the ones the parser
# gave when it classified every token up front.
@pytest.mark.parametrize("text, message", [
    ("=IF(1)#", "unexpected character '#' (position 6)"),
    ("=COUNT(A1)+é", "unexpected character 'é' (position 11)"),
    ("=" + "(" * 65 + "1" + ")" * 65 + "#", "unexpected character '#' (position 132)"),
    ("=A0+1#", "unexpected character '#' (position 5)"),
    ("=" + "9" * 400 + '+"abc', "unterminated text literal (position 402)"),
    ("=" + "9" * 400 + "+A٣", "unexpected character '٣' (position 403)"),
], ids=["arity", "unknown-function", "nesting", "row-0", "number-range", "digit"])
def test_an_unexpected_character_wins_over_an_earlier_error(text, message):
    with pytest.raises(FormulaSyntaxError) as info:
        parse(text)
    assert type(info.value) is FormulaSyntaxError
    assert str(info.value) == message


@pytest.mark.parametrize("text, error, message", [
    ("=A1\t+\xa0#", FormulaSyntaxError, "unexpected character '#' (position 6)"),
    ("=　SUM(A1,)", FormulaSyntaxError,
     "expected a number, text, cell, function, or '(', found ')' (position 9)"),
    ("=\xa0　COUNT(A1)", UnknownFunctionError, "unknown function COUNT (position 3)"),
    ("=A1\xa0:\t7", FormulaSyntaxError,
     "expected a cell reference after ':', found '7' (position 6)"),
    ("=\t1　\xa02", FormulaSyntaxError, "expected end of formula, found '2' (position 5)"),
], ids=["tab-nbsp", "ideographic", "unknown-function", "range-corner", "end"])
def test_positions_count_tabs_and_unicode_spaces(text, error, message):
    with pytest.raises(error) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    "=A1+  ", "=A1+\n", "=SUM(A1　\n", "=(A1\t\t", "=A1:\xa0", "=SUM(A1\r\n",
])
def test_end_of_formula_is_at_the_length_of_the_source(text):
    with pytest.raises(FormulaSyntaxError, match="found end of formula") as info:
        parse(text)
    assert info.value.position == len(text)


def test_arity_error_after_trailing_whitespace_has_no_position():
    with pytest.raises(ArityError) as info:
        parse("=NOT(1,2)\t ")
    assert str(info.value) == "NOT takes exactly 1 argument(s), got 2"


def test_trailing_whitespace_is_read_in_linear_time():
    # a pattern that skips the whitespace before a token backtracks over a
    # whitespace tail from every position in it, which takes seconds here;
    # the parser's pattern has no whitespace part
    start = time.perf_counter()
    assert render(parse("=A1" + " " * 50_000)) == "=A1"
    with pytest.raises(FormulaSyntaxError) as info:
        parse("=A1+" + "\t" * 50_000)
    assert info.value.position == 50_004
    assert time.perf_counter() - start < 2


def test_inner_whitespace_is_read_in_linear_time():
    start = time.perf_counter()
    assert render(parse("=A1+" + " " * 50_000 + "B1")) == "=A1+B1"
    with pytest.raises(FormulaSyntaxError) as info:
        parse("=SUM(A1," + "\t" * 50_000 + ")")
    assert info.value.position == 50_008
    assert time.perf_counter() - start < 2


# The tokenizer's earlier rule: a pattern that skips the whitespace before a
# token and captures the token, run over the source less its trailing
# whitespace. The tokenizer must give the same texts at the same positions.
_SPACED_TOKEN_RE = re.compile(
    rf'\s*([(),:+\-*/^=]|{CELL_PATTERN}|[A-Za-z]+|[0-9]+(?:\.[0-9]+)?|"(?:[^"]|"")*"'
    r"|<[=>]?|>=?|\S)"
)


def _spaced_tokens(source):
    return [(m[1], m.start(1)) for m in _SPACED_TOKEN_RE.finditer(source.rstrip())]


def _spaced_error_position(source, tokens, index):
    """Where the earlier rule put an error at token ``index`` of ``tokens``."""
    for text, position in tokens:
        if len(text) == 1 and text not in parser._ONE_CHARACTER_TOKENS:
            return position
    return ([position for _, position in tokens] + [len(source)])[index]


WHITESPACE = [" ", "\t", "\n", "\r\n", "\xa0", "\u2003", "\u3000", "\x0b\x0c", "\x1c"]


def _whitespace_heavy(texts):
    """The texts with whitespace runs of every kind put in at random places,
    and long runs of whitespace around and inside formulas."""
    rng = random.Random(24)
    spaced = [
        " " * 10_000 + "=A1+1",
        "=A1" + " " * 50_000,
        "=A1+" + " " * 50_000 + "B1",
        "=SUM(A1:B2" + "\u3000" * 50_000,
        "\t=\tSUM(\tA1\t,\nB2\n)\n",
        "=A1\xa0+\u2003B1\u3000",
        '=" a\t""\u3000 "&\xa0A1 #',
        "", " ", "\t\n\xa0\u2003\u3000",
    ]
    for text in texts:
        for _ in range(3):
            at = rng.randint(0, len(text))
            run = "".join(rng.choice(WHITESPACE) for _ in range(rng.randint(1, 4)))
            text = text[:at] + run + text[at:]
        spaced.append(text)
    return spaced


def test_tokenizer_keeps_the_texts_and_positions_of_the_earlier_rule():
    texts = corpus()
    for source in texts + _whitespace_heavy(CANONICAL + texts[::50]):
        tokens = _spaced_tokens(source)
        assert parser._TOKEN_RE.findall(source) == [text for text, _ in tokens]
        found = [(m[0], m.start()) for m in parser._TOKEN_RE.finditer(source)]
        assert found == tokens
        for index in {len(tokens) // 2, len(tokens)}:
            error = parser._error(source, FormulaSyntaxError, "x", index)
            assert error.position == _spaced_error_position(source, tokens, index)


def test_rendering_a_tree_that_holds_no_formula_node_raises():
    with pytest.raises(TypeError, match="not a formula node: <object object"):
        render(FormulaAst(object()))
    with pytest.raises(TypeError, match="not a formula node: <object object"):
        render(FormulaAst(BinaryOp("+", object(), NumberLiteral(1.0))))
