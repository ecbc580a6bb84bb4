import pytest
from hypothesis import given, strategies as st

from refshift import core, reflexive, smullyan
from refshift.core import Word
from refshift.errors import InvalidDefinition
from refshift.runs import check_runs, merge_runs

# names that are a digit or longer than one character force the spaced form
MIXED_NAMES = core.load_pair_text(
    "object O\ngenerator a : O -> O\ngenerator 2 : O -> O\ngenerator gg : O -> O\n"
).base

CATEGORIES = {
    "simplest": core.simplest_pair().base,
    "next-simplest": core.next_simplest_pair().base,
    "russell": core.russell_pair().base,
    "smullyan": smullyan.smullyan_category(),
    "trefoil": reflexive.build(reflexive.TREFOIL).category,
    "link": reflexive.build(reflexive.LINK).category,
    "mixed-names": MIXED_NAMES,
}


@st.composite
def chained_words(draw, cat):
    """A chainable word in runs of 1-6; a generator that is no self-morphism runs once."""
    picks = draw(st.lists(st.tuples(st.sampled_from(cat.generators), st.integers(1, 6)),
                          min_size=1, max_size=8))
    gens = []
    for g, k in picks:
        if gens and gens[-1].dom != g.cod:
            continue
        gens.extend([g] * (k if g.dom == g.cod else 1))
    return Word.from_generators(gens)


@pytest.mark.parametrize("name", sorted(CATEGORIES))
@given(data=st.data())
def test_printed_word_reads_back(name, data):
    cat = CATEGORIES[name]
    w = data.draw(chained_words(cat))
    assert cat.word(str(w)) == w


def test_spaced_form_keeps_counts_apart_from_digit_names():
    cat = MIXED_NAMES
    w = cat.word(["a"] * 4 + ["2"])
    assert str(w) == "a^4 2"  # side by side, a^42 would read back as 42 a's
    assert str(cat.word("a a")) == "aa"
    assert str(cat.word("gg^5")) == "gg^5"
    assert len(cat.word("a2")) == 2  # a lone token that is no generator holds single characters


def test_machine_words_print_literally_and_equal_plain_words():
    w = smullyan.word("P]]]]")
    plain = smullyan.smullyan_category().word("P]^4")
    assert str(w) == "P]]]]" and str(plain) == "P]^4"
    assert w == plain and plain == w and hash(w) == hash(plain)


@pytest.mark.parametrize("text", ["F^", "F^0", "F^x", "F^-1", "F#^"])
def test_bad_counts_are_invalid_definitions(text):
    with pytest.raises(InvalidDefinition):
        CATEGORIES["next-simplest"].word(text)


def test_merge_runs_fuses_neighbours_and_counts_their_length():
    assert merge_runs([("a", 1), ("a", 2), ("b", 1), ("a", 3)], InvalidDefinition) == (
        (("a", 3), ("b", 1), ("a", 3)), 7)
    assert merge_runs([], InvalidDefinition) == ((), 0)
    with pytest.raises(InvalidDefinition, match="run count must be >= 1, got 0"):
        merge_runs([("a", 1), ("b", 0)], InvalidDefinition)


def test_check_runs_returns_the_tuple_of_maximal_runs():
    assert check_runs([["a", 2], ("b", 1)], "ab", InvalidDefinition) == (("a", 2), ("b", 1))
    for bad in ([("c", 1)], [("a", 0)], [("a", 1), ("a", 1)]):
        with pytest.raises(InvalidDefinition):
            check_runs(bad, "ab", InvalidDefinition)
