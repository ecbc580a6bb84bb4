import itertools

import pytest

from refshift import core
from refshift.errors import DanglingArc, InvalidDefinition
from refshift.reflexive import (
    LINK,
    TREFOIL,
    ArcTable,
    DiagramCategory,
    build,
    enumerate_composites,
    is_reflexive,
    parse_arc_table,
)


def test_trefoil_table():
    cat = build(TREFOIL)
    assert set(cat.category.objects) == {"A", "B", "C"}
    table = {g.name: (g.dom, g.cod) for g in cat.category.generators}
    assert table == {"A": ("C", "B"), "B": ("A", "C"), "C": ("B", "A")}


def test_link_categorical_linking():
    # each arc is a self-morphism of the other
    cat = build(LINK)
    table = {g.name: (g.dom, g.cod) for g in cat.category.generators}
    assert table == {"A": ("B", "B"), "B": ("A", "A")}


def test_single_arc_loop():
    cat = build(ArcTable((("a", "a", "a"),)))
    assert is_reflexive(cat)
    assert {str(w) for w in enumerate_composites(cat, 3)} == {"a", "aa", "aaa"}


def test_reflexivity():
    assert is_reflexive(build(TREFOIL))
    assert is_reflexive(build(LINK))
    # a digraph category names objects differently from its generators
    assert not is_reflexive(DiagramCategory(core.category_from_digraph(["X", "Y"], [("g", "X", "Y")]).base))
    assert not is_reflexive(DiagramCategory(core.category_from_digraph(["X"], []).base))


def test_enumerate_trefoil_by_brute_force():
    cat = build(TREFOIL)
    words = enumerate_composites(cat, 2)
    names = {str(w) for w in words}
    assert {"A", "B", "C"} <= names
    # oracle: chain every ordered pair by hand from the arc table
    table = {"A": ("C", "B"), "B": ("A", "C"), "C": ("B", "A")}
    expected_pairs = {
        first + second
        for first, second in itertools.product("ABC", repeat=2)
        if table[first][0] == table[second][1]  # dom(first) == cod(second)
    }
    assert names == {"A", "B", "C"} | expected_pairs
    assert expected_pairs == {"AB", "BC", "CA"}


def test_enumerate_link_exact():
    cat = build(LINK)
    assert {str(w) for w in enumerate_composites(cat, 2)} == {"A", "B", "AA", "BB"}


def test_enumeration_monotone_and_extending():
    cat = build(TREFOIL)
    by_len = {k: enumerate_composites(cat, k) for k in (1, 2, 3, 4)}
    for k in (1, 2, 3):
        assert by_len[k] <= by_len[k + 1]
        longer = {w for w in by_len[k + 1] if len(w) == k + 1}
        for w in longer:
            prefix = core.Word.from_generators(w.gens[:-1]) if len(w) > 1 else None
            if prefix is not None:
                assert prefix in by_len[k]


def test_enumerate_requires_positive_length():
    with pytest.raises(InvalidDefinition):
        enumerate_composites(build(LINK), 0)


def test_parse_arc_table():
    text = """
    ; the three-arc cycle
    A: C -> B
    B: A -> C
    C: B -> A
    """
    assert parse_arc_table(text) == TREFOIL


def test_parse_arc_table_errors():
    with pytest.raises(DanglingArc):
        parse_arc_table("A: B -> A")
    with pytest.raises(InvalidDefinition):
        parse_arc_table("A is an arc")
    with pytest.raises(InvalidDefinition):
        parse_arc_table("A: A -> A\nA: A -> A")
