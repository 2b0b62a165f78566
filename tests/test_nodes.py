"""Value semantics of the AST node classes: construction, equality, hash, repr.

Nodes are immutable values. Parsed leaves are cached and shared between
trees, so two nodes are the same when they are equal, and only a node of the
same class can be equal: a boolean TRUE is not the number 1.
"""

import copy
import pickle

import pytest

from sheetsmith import (
    BinaryOp,
    BooleanLiteral,
    CellRef,
    FormulaAst,
    FunctionCall,
    NumberLiteral,
    RangeRef,
    TextLiteral,
    UnaryOp,
)

C5 = CellRef("C", 5)
D5 = CellRef("D", 5, True, True)

# one node of each class, and an equal one built apart from it
PAIRS = [
    (NumberLiteral(1.0), NumberLiteral(1.0)),
    (TextLiteral("Pass"), TextLiteral("Pass")),
    (BooleanLiteral(True), BooleanLiteral(True)),
    (C5, CellRef("C", 5, False, False)),
    (RangeRef(C5, D5), RangeRef(CellRef("C", 5), CellRef("D", 5, True, True))),
    (FunctionCall("SUM", (C5, D5)), FunctionCall("SUM", (C5, D5))),
    (BinaryOp("+", C5, D5), BinaryOp("+", C5, D5)),
    (UnaryOp(C5), UnaryOp(C5, "-")),
    (FormulaAst(C5), FormulaAst(CellRef("C", 5))),
]


@pytest.mark.parametrize("node, twin", PAIRS, ids=lambda node: type(node).__name__)
def test_equal_nodes_hash_alike(node, twin):
    assert node is not twin
    assert node == twin and not node != twin
    assert hash(node) == hash(twin)
    assert len({node, twin}) == 1


def test_only_nodes_of_one_class_compare_equal():
    assert BooleanLiteral(True) != NumberLiteral(1.0)
    assert BooleanLiteral(False) != NumberLiteral(0.0)
    assert TextLiteral("1") != NumberLiteral(1.0)
    assert NumberLiteral(1.0) != 1.0
    assert NumberLiteral(1.0) != (1.0,)
    assert len({BooleanLiteral(True), NumberLiteral(1.0)}) == 2
    assert FormulaAst(C5) != UnaryOp(C5)
    nodes = [node for node, _ in PAIRS]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert a != b


def test_unequal_fields_make_unequal_nodes():
    assert CellRef("C", 5) != CellRef("C", 5, True)
    assert CellRef("C", 5) != CellRef("C", 5, row_absolute=True)
    assert BinaryOp("+", C5, D5) != BinaryOp("-", C5, D5)
    assert BinaryOp("+", C5, D5) != BinaryOp("+", D5, C5)
    assert FunctionCall("SUM", (C5,)) != FunctionCall("MIN", (C5,))
    assert UnaryOp(C5) != UnaryOp(D5)


def test_defaults_and_keyword_construction():
    assert (C5.column_absolute, C5.row_absolute) == (False, False)
    assert UnaryOp(NumberLiteral(2.0)).op == "-"
    assert CellRef(row=5, column="C", row_absolute=True) == CellRef("C", 5, False, True)
    assert BinaryOp(left=C5, right=D5, op="*") == BinaryOp("*", C5, D5)
    assert RangeRef(end=D5, start=C5).start == C5
    assert FunctionCall(name="IF", args=(C5,)).args == (C5,)
    assert FormulaAst(root=C5).root == C5
    assert NumberLiteral(value=2.5).value == 2.5
    assert UnaryOp(operand=C5, op="-") == UnaryOp(C5)


def test_construction_checks_its_arguments():
    with pytest.raises(TypeError):
        CellRef("C")
    with pytest.raises(TypeError):
        NumberLiteral(1.0, 2.0)
    with pytest.raises(TypeError):
        NumberLiteral(value=1.0, other=2.0)
    with pytest.raises(TypeError):
        NumberLiteral(1.0, value=1.0)


def test_repr_names_every_field():
    assert repr(NumberLiteral(1.0)) == "NumberLiteral(value=1.0)"
    assert repr(TextLiteral('say "hi"')) == "TextLiteral(value='say \"hi\"')"
    assert repr(BooleanLiteral(False)) == "BooleanLiteral(value=False)"
    assert repr(C5) == (
        "CellRef(column='C', row=5, column_absolute=False, row_absolute=False)"
    )
    assert repr(UnaryOp(NumberLiteral(2.0))) == (
        "UnaryOp(operand=NumberLiteral(value=2.0), op='-')"
    )
    assert repr(FormulaAst(FunctionCall("SUM", (NumberLiteral(1.0),)))) == (
        "FormulaAst(root=FunctionCall(name='SUM', args=(NumberLiteral(value=1.0),)))"
    )
    assert repr(BinaryOp("+", TextLiteral("a"), BooleanLiteral(True))) == (
        "BinaryOp(op='+', left=TextLiteral(value='a'), "
        "right=BooleanLiteral(value=True))"
    )


@pytest.mark.parametrize("node, _", PAIRS, ids=lambda node: type(node).__name__)
def test_nodes_refuse_assignment_and_deletion(node, _):
    field = {
        NumberLiteral: "value", TextLiteral: "value", BooleanLiteral: "value",
        CellRef: "row", RangeRef: "start", FunctionCall: "args",
        BinaryOp: "op", UnaryOp: "op", FormulaAst: "root",
    }[type(node)]
    before = getattr(node, field)
    with pytest.raises(AttributeError):
        setattr(node, field, before)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert getattr(node, field) == before


def test_cell_and_range_canonical_text():
    assert CellRef("C", 5, True, True).canonical() == "C5"
    assert RangeRef(CellRef("A", 1, True), CellRef("AB", 12)).canonical() == "A1:AB12"


@pytest.mark.parametrize("node, _", PAIRS, ids=lambda node: type(node).__name__)
def test_copies_and_pickles_are_equal_values(node, _):
    clones = [copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))]
    for clone in clones:
        assert clone == node and type(clone) is type(node)
        assert repr(clone) == repr(node)


def test_nodes_match_positional_patterns():
    match BinaryOp("+", C5, UnaryOp(D5)):
        case BinaryOp(op, CellRef(column, row), UnaryOp(operand, "-")):
            assert (op, column, row, operand) == ("+", "C", 5, D5)
        case _:
            pytest.fail("pattern did not match")
