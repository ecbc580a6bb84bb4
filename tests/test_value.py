"""The value contract: what every record class of the engines keeps.

Each class below (all but core.CategoricalPair) is a ``__slots__`` class on
refshift.value.Value.  One instance of each is checked for equality with
its copy and its pickle, equal hashes, inequality across types,
immutability, positional and keyword construction in field order, and the
``Name(field=value, ...)`` repr.
"""

import copy
import pickle

import pytest

from refshift import core, fixpoint, godel, lawvere, reflexive, smullyan

PAIR = core.russell_pair()
ARROW = core.parse_arrow(PAIR, "R -> ~#")
STEP = core.DerivationStep("axiom", ARROW, "a note")
TERM = fixpoint.Apply(fixpoint.Atom("F"), fixpoint.FreeVar("x"))
FORMULA = godel.parse("~P(#x)")
CODE = godel.encode(FORMULA)
AXIOM = core.RefArrow(godel.Num(CODE), godel.Fml(FORMULA))
TF = lawvere.FinSet(("0", "1"))
NEG = lawvere.bool_negation()
TABLE = lawvere.CurriedMap(TF, TF, (("0", "1"), ("1", "1")))

# one instance of every value class, with its fields in constructor order
VALUES = [
    (core.Generator("#", "O", "O", True), ("name", "dom", "cod", "is_sharp")),
    (core.RewriteRule(("u", "?v"), ("?v",)), ("pattern", "replacement")),
    (PAIR.base, ("objects", "generators", "rules", "rewrite_budget")),
    (ARROW, ("src", "dst")),
    (STEP, ("rule", "arrow", "note")),
    (core.Derivation((STEP,)), ("steps",)),
    (core.ShiftSequence((ARROW,), ("shift",), "not-composable"), ("arrows", "rules", "stop_reason")),
    (fixpoint.Atom("F"), ("name",)),
    (fixpoint.FreeVar("x"), ("name",)),
    (TERM, ("left", "right")),
    (fixpoint.ReflexiveDef("g", "x", TERM), ("name", "var", "body")),
    (fixpoint.ReduceResult(TERM, 3, True), ("term", "steps_used", "exhausted")),
    (FORMULA, ("runs",)),
    (CODE, ("runs",)),
    (godel.Fml(FORMULA), ("formula",)),
    (godel.Num(CODE), ("number",)),
    (godel.SHARP, ()),
    (godel.FormalComposite((godel.Fml(godel.parse("P")), godel.SHARP)), ("parts",)),
    (godel.GodelPair((AXIOM,)), ("axioms",)),
    (TF, ("elements",)),
    (NEG, ("dom", "cod", "table")),
    (TABLE, ("dom", "cod_base", "rows")),
    (lawvere.diagonal_report(TABLE, NEG), ("diagonal", "representations")),
    (reflexive.LINK, ("rows",)),
    (reflexive.build(reflexive.LINK), ("category",)),
    (smullyan.Classification("~R", "~R"), ("kind", "body")),
    (smullyan.MachineModel({"~R~R", "P]"}), ("printable",)),
]
IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal_with_equal_hashes(value, fields):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value) and other == value and not other != value
        assert hash(other) == hash(value)


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(value, fields):
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_construction_takes_the_fields_by_position_and_by_keyword(value, fields):
    values = [getattr(value, name) for name in fields]
    assert type(value)(*values) == value
    assert type(value)(**dict(zip(fields, values))) == value


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_repr_names_the_class_and_its_fields(value, fields):
    if type(value) is fixpoint.Apply:
        assert repr(value) == "Apply(F x)"  # Apply prints its term instead
        return
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{type(value).__name__}({shown})"


@pytest.mark.parametrize("left,right", [
    (fixpoint.Atom("a"), fixpoint.FreeVar("a")),
    (godel.Fml(FORMULA), godel.Num(CODE)),
    (lawvere.FinSet(()), reflexive.ArcTable(())),  # equal fields, different types
    (lawvere.FinSet(("0",)), ("0",)),  # nor is a value the tuple of its fields
])
def test_values_of_different_types_are_unequal(left, right):
    assert left != right and right != left and not left == right


def test_keyword_defaults():
    sharp = core.Generator("#", "O", "O", is_sharp=True)
    assert sharp.is_sharp and not core.Generator("F", "O", "O").is_sharp
    cat = core.Category(frozenset({"O"}), (sharp,), rewrite_budget=5)
    assert cat.rules == () and cat.rewrite_budget == 5
    assert core.Category({"O"}, [sharp]).rewrite_budget == core.DEFAULT_REWRITE_BUDGET
    assert core.ShiftSequence((), ()).stop_reason is None
    assert core.DerivationStep("axiom", ARROW).note == ""


def test_derived_state_takes_no_part_in_equality():
    # Category's compiled rule table is built from its fields, so two builds are equal
    spec = ({"O"}, [core.Generator("u", "O", "O")], [core.RewriteRule(("u", "u"), ("u",))])
    assert core.Category(*spec) == core.Category(*spec)
    assert hash(core.Category(*spec)) == hash(core.Category(*spec))
    assert "_starts" not in repr(core.Category(*spec))
    # FinSet's member set is derived from its elements: the same set in another order is
    # another FinSet, and copies rebuild the set
    assert lawvere.FinSet(("1", "0")) != TF and hash(lawvere.FinSet(("0", "1"))) == hash(TF)
    for other in (copy.copy(TF), copy.deepcopy(TF), pickle.loads(pickle.dumps(TF))):
        assert other == TF and other._members == frozenset(("0", "1"))
    assert "_members" not in repr(TF)
    # so is ReflexiveDef's template, from its body
    defs = [fixpoint.ReflexiveDef("g", "x", fixpoint.parse_term("F (x x)", var="x")) for _ in range(2)]
    assert defs[0] == defs[1] and hash(defs[0]) == hash(defs[1])
    assert "_spine" not in repr(defs[0]) and "_shared" not in repr(defs[0])
