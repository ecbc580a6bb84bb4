import random

import pytest
from hypothesis import example, given, strategies as st

from refshift import core, fixpoint
from refshift.errors import InvalidDefinition, VarNotFree
from refshift.fixpoint import (
    Apply,
    Atom,
    FreeVar,
    Rewriter,
    check_fixed_point,
    fixed_point,
    parse_term,
    reduce,
    reflexive_name,
)


def _leaves(t):
    """The Atom and FreeVar leaves of t, by an explicit stack, since t may be deep."""
    todo, leaves = [t], []
    while todo:
        x = todo.pop()
        if type(x) is Apply:
            todo += (x.left, x.right)
        else:
            leaves.append(x)
    return leaves


def test_reflexive_name_installs_rule():
    r = Rewriter()
    body = parse_term("a((bx)x)", var="x")
    g = reflexive_name(body, "x", r)
    out = reduce(Apply(g, Atom("c")), r, 1)
    assert out.term == parse_term("a((bc)c)")
    assert out.steps_used == 1


def test_reflexive_name_requires_variable():
    r = Rewriter()
    with pytest.raises(VarNotFree):
        reflexive_name(Atom("a"), "x", r)


def test_fixed_point_one_step():
    r = Rewriter()
    t = fixed_point(Atom("F"), r)
    assert t == Apply(Atom("g0"), Atom("g0"))
    assert reduce(t, r, 1).term == Apply(Atom("F"), t)


def test_fixed_point_three_steps():
    r = Rewriter()
    F = Atom("F")
    t = fixed_point(F, r)
    expected = Apply(F, Apply(F, Apply(F, t)))
    assert reduce(t, r, 3).term == expected


def test_identity_atom_cycles_in_two_steps():
    r = Rewriter()
    r.define("I", "x", FreeVar("x"))
    t = fixed_point(Atom("I"), r)
    assert reduce(t, r, 2).term == t


def test_check_fixed_point_for_compound_terms():
    r = Rewriter()
    assert check_fixed_point(Atom("F"), r)
    assert check_fixed_point(Apply(Atom("a"), Atom("b")), r)


def test_reduce_on_atom_is_noop():
    r = Rewriter()
    out = reduce(Atom("a"), r, 5)
    assert out.term == Atom("a") and out.steps_used == 0 and not out.exhausted


def test_reduce_flags_exhaustion():
    r = Rewriter()
    t = fixed_point(Atom("F"), r)
    out = reduce(t, r, 2)
    assert out.steps_used == 2 and out.exhausted


def test_reduce_respects_fuel():
    r = Rewriter(fuel=3)
    with pytest.raises(InvalidDefinition):
        reduce(Atom("a"), r, 4)


def test_zero_fuel_allows_zero_steps():
    r = Rewriter(fuel=0)
    t = Apply(Atom("F"), Atom("a"))
    out = reduce(t, r, 0)
    assert (out.term, out.steps_used, out.exhausted) == (t, 0, False)
    with pytest.raises(InvalidDefinition, match="requested 1 steps but the fuel budget is 0"):
        reduce(t, r, 1)


def test_normal_order_is_leftmost_outermost():
    r = Rewriter()
    r.define("d", "x", Apply(FreeVar("x"), FreeVar("x")))
    # the outer redex fires first: d(da) duplicates the unreduced argument
    inner = Apply(Atom("d"), Atom("a"))
    term = Apply(Atom("d"), inner)
    assert reduce(term, r, 1).term == Apply(inner, inner)


def test_freshness_skips_taken_names():
    r = Rewriter()
    body = Apply(Atom("g0"), FreeVar("x"))
    g = reflexive_name(body, "x", r)
    assert g.name != "g0"
    assert Atom(g.name) not in _leaves(body)


def test_fresh_names_keep_their_order():
    r = Rewriter()
    r.define("g1", "x", Apply(Atom("g3"), FreeVar("x")))
    names = [fixed_point(Atom("F"), r).left.name for _ in range(3)]
    names.append(reflexive_name(Apply(Atom("g6"), FreeVar("x")), "x", r).name)
    assert names == ["g0", "g2", "g4", "g5"]
    assert fixed_point(Atom("F"), r).left.name == "g7"


def test_fresh_name_walks_no_earlier_body(monkeypatch):
    # naming a map walks its own body twice, however many maps the rewriter
    # already holds: once for the fresh name, once for the template
    walks = []
    for helper in ("_tokens", "_template"):
        walk = getattr(fixpoint, helper)
        monkeypatch.setattr(fixpoint, helper, lambda *a, walk=walk: walks.append(a[0]) or walk(*a))
    r = Rewriter()
    per_call = []
    for i in range(20):
        before = len(walks)
        fixed_point(Atom(f"F{i}"), r)
        per_call.append(len(walks) - before)
    assert per_call == [2] * 20


def test_definition_name_cannot_occur_in_body():
    r = Rewriter()
    with pytest.raises(InvalidDefinition):
        r.define("g", "x", Apply(Atom("g"), FreeVar("x")))


def _instantiate(body, arg):
    """One rewrite of g arg under g x = body: the template of body with arg for x."""
    r = Rewriter()
    g = r.define("g", "x", body)
    out = reduce(Apply(g, arg), r, 1)
    assert out.steps_used == 1
    return out.term


def test_substitution_is_capture_free():
    body = Apply(Atom("x"), FreeVar("x"))
    assert _instantiate(body, Atom("c")) == Apply(Atom("x"), Atom("c"))


def test_determinism():
    def run():
        r = Rewriter()
        t = fixed_point(Apply(Atom("a"), Atom("b")), r)
        return reduce(t, r, 4).term

    assert run() == run()


def test_parse_dense_and_spaced():
    dense = parse_term("a((bx)x)")
    assert dense == Apply(Atom("a"), Apply(Apply(Atom("b"), Atom("x")), Atom("x")))
    spaced = parse_term("(g0 g0)")
    assert spaced == Apply(Atom("g0"), Atom("g0"))
    assert parse_term("abc") == Apply(Apply(Atom("a"), Atom("b")), Atom("c"))


def test_parse_errors():
    with pytest.raises(InvalidDefinition):
        parse_term("(a")
    with pytest.raises(InvalidDefinition):
        parse_term("")
    with pytest.raises(InvalidDefinition):
        parse_term("a)b")


def _model_tokenize(text):
    """The character loop that _tokenize replaced, kept as its model."""
    dense = " " not in text and "\t" not in text
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            if dense:
                tokens.append(ch)
                i += 1
            else:
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(text[i:j])
                i = j
        else:
            raise InvalidDefinition(f"unexpected character {ch!r} in term")
    return tokens


# names: ASCII and non-ASCII letters and digits (superscript two, Arabic-Indic
# three, Roman twelve); whitespace: ASCII, no-break, em, ideographic, the
# separators \x1c and \x85; bad: punctuation, zero-width space, a combining accent
_NAME_CHARS = "aZ09_\xe9\xdf\u03bb\xb2\u0663\u216b"
_SPACE_CHARS = " \t\n\r\x0b\x0c\xa0\u2003\u3000\x1c\x85"
_BAD_CHARS = "+-*#.\\\u200b\u0301"


def _term_texts(chars):
    parts = st.one_of(st.text(alphabet=chars, max_size=4), st.sampled_from(["(", ")", "()"]))
    return st.lists(parts, max_size=12).map("".join)


@given(st.one_of(
    _term_texts("()" + _NAME_CHARS + _SPACE_CHARS),  # spaced
    _term_texts("()" + _NAME_CHARS + _SPACE_CHARS.replace(" ", "").replace("\t", "")),  # dense
    _term_texts("()" + _NAME_CHARS + _SPACE_CHARS + _BAD_CHARS),
    _term_texts("()" + _NAME_CHARS + "\n\xa0" + _BAD_CHARS),
))
@example("a_1 (b\xb2 \u0663c)\u3000d")
@example("ab\n(c\xa0d)")  # dense: a newline or a no-break space does not make text spaced
@example("ab\t(cd)")  # a tab alone makes text spaced
@example("(a b)+c#")  # the first bad character is named
def test_tokenize_matches_the_character_loop(text):
    try:
        want = _model_tokenize(text)
    except InvalidDefinition as refused:
        with pytest.raises(InvalidDefinition) as got:
            fixpoint._tokenize(text)
        assert str(got.value) == str(refused)
    else:
        assert fixpoint._tokenize(text) == want


def test_parse_shares_one_leaf_per_name():
    t = parse_term("(x a) (a x)", var="x")
    assert t.left.left is t.right.right and type(t.left.left) is FreeVar
    assert t.left.right is t.right.left and t.left.right == Atom("a")


terms = st.recursive(
    st.sampled_from([Atom("a"), Atom("b"), Atom("F")]),
    lambda children: st.builds(Apply, children, children),
    max_leaves=12,
)


@given(terms)
def test_every_term_has_a_fixed_point(F):
    assert check_fixed_point(F, Rewriter())


@given(terms)
def test_print_parse_round_trip(t):
    assert parse_term(str(t)) == t


def test_bridge_to_reference_shift():
    # the fixed-point equation gg = F(gg), read as a reference arrow in a
    # lambda pair with the sharp-expansion relation, is the shifted arrow
    rule = core.RewriteRule(("#", "?a"), ("?a", "?a"))
    cat = core.category_from_digraph(
        ["O"], [("g", "O", "O"), ("F", "O", "O")], rules=(rule,)
    ).base
    pair = core.CategoricalPair(cat, is_lambda_pair=True)
    arrow = core.parse_arrow(pair, "g -> F #")
    shifted = core.shift_step(pair, arrow)[0]
    assert [g.name for g in shifted.src.gens] == ["g", "g"]
    assert [g.name for g in shifted.dst.gens] == ["F", "g", "g"]

    r = Rewriter()
    t = fixed_point(Atom("F"), r)
    reduced = reduce(t, r, 1).term

    def flat(term):
        if isinstance(term, Apply):
            return flat(term.left) + flat(term.right)
        return [term.name]

    rename = {"g0": "g", "F": "F"}
    assert [rename[n] for n in flat(t)] == [g.name for g in shifted.src.gens]
    assert [rename[n] for n in flat(reduced)] == [g.name for g in shifted.dst.gens]


# --- deep terms: nothing recurses ---

DEPTH = 5000


def test_fixed_point_tower_of_5000():
    # every level holds the definition's own F, an atom or a 100-atom chain
    for F in (Atom("F"), parse_term(" ".join(f"a{i}" for i in range(100)))):
        r = Rewriter()
        t = fixed_point(F, r)
        out = reduce(t, r, DEPTH)
        assert out.steps_used == DEPTH and out.exhausted
        node = out.term
        for _ in range(DEPTH):
            assert type(node) is Apply and node.left is F
            node = node.right
        assert node == t


def test_projection_chain_steps_back_up():
    # I I I ... I a nests to the left; each rewrite leaves the defined atom I
    # as a left child, so its parent is the next redex
    r = Rewriter()
    r.define("I", "x", FreeVar("x"))
    t = parse_term(" ".join(["I"] * DEPTH + ["a"]))
    out = reduce(t, r, DEPTH + 1)
    assert out.term == Atom("a") and out.steps_used == DEPTH and not out.exhausted


def test_deep_term_round_trips():
    rng = random.Random(5)
    text = "a"
    for _ in range(DEPTH):
        text = f"({text} b)" if rng.random() < 0.5 else f"(c {text})"
    t = parse_term(text)
    assert str(t) == text
    same = parse_term(text)  # shares no node with t
    assert t == same and hash(t) == hash(same) and repr(t) == f"Apply{text}"
    assert t != parse_term(text.replace("a", "d"))
    assert set(_leaves(t)) == {Atom("a"), Atom("b"), Atom("c")}


# --- the stack-based reduce against a recursive, restart-from-the-root model ---


def _model_substitute(t, var, value):
    if isinstance(t, FreeVar) and t.name == var:
        return value
    if isinstance(t, Apply):
        return Apply(_model_substitute(t.left, var, value), _model_substitute(t.right, var, value))
    return t


def _model_step(t, defs):
    """One leftmost-outermost rewrite found from the root, or None."""
    if isinstance(t, Apply):
        if isinstance(t.left, Atom) and t.left.name in defs:
            d = defs[t.left.name]
            return _model_substitute(d.body, d.var, t.right)
        left = _model_step(t.left, defs)
        if left is not None:
            return Apply(left, t.right)
        right = _model_step(t.right, defs)
        if right is not None:
            return Apply(t.left, right)
    return None


NAMES = ["a", "b", "I", "p", "q"]


def _terms(names, var=None):
    leaves = [Atom(n) for n in names] + ([FreeVar(var)] if var else [])
    return st.recursive(
        st.sampled_from(leaves), lambda c: st.builds(Apply, c, c), max_leaves=8
    )


def _count_leaf(t, name):
    return str(t).replace("(", " ").replace(")", " ").split().count(name)


def _bodies(names):
    """Bodies over names and x, with some subterm objects shared at two places."""
    leaves = [Atom(n) for n in names] + [FreeVar("x")]
    return st.recursive(
        st.sampled_from(leaves),
        lambda c: st.one_of(st.builds(Apply, c, c), c.map(lambda s: Apply(s, s))),
        max_leaves=8,
    )


_X, _SX, _SA = FreeVar("x"), Apply(FreeVar("x"), Atom("a")), Apply(Atom("a"), Atom("b"))


@given(
    st.one_of(st.just(FreeVar("x")), _bodies(["a", "b", "x"])),
    _terms(["a", "b", "g", "x"]),
)
@example(_X, Apply(Atom("g"), Atom("x")))  # the bare variable
@example(Apply(Apply(_X, Atom("a")), Apply(Atom("b"), _X)), Atom("c"))  # x on both sides
@example(Apply(_SX, Apply(_SX, Atom("b"))), Atom("c"))  # one body object at two places
@example(Apply(_SA, Apply(_X, _SA)), _SA)  # a shared var-free part, also as the argument
def test_template_instance_matches_model_substitution(body, arg):
    if FreeVar("x") not in _leaves(body):
        body = Apply(body, FreeVar("x"))
    assert _instantiate(body, arg) == _model_substitute(body, "x", arg)


@given(st.data())
def test_reduce_matches_restarting_model(data):
    r = Rewriter()
    r.define("I", "x", FreeVar("x"))  # a projection: may leave I as a left child
    for name, least in (("p", 1), ("q", 2)):  # q duplicates its argument
        body = data.draw(_terms([n for n in NAMES if n != name], "x"))
        for _ in range(least - _count_leaf(body, "x")):
            body = Apply(body, FreeVar("x"))
        r.define(name, "x", body)
    t = data.draw(_terms(NAMES))
    seq = [t]
    while len(seq) <= 12 and len(str(seq[-1])) < 8000:
        nxt = _model_step(seq[-1], r.defs)
        if nxt is None:
            break
        seq.append(nxt)
    for k, want in enumerate(seq):
        out = reduce(t, r, k)
        assert str(out.term) == str(want)
        assert out.steps_used == k
        assert out.exhausted == (_model_step(want, r.defs) is not None)
    out = reduce(t, r, -1)  # a negative allowance acts as 0
    assert (out.term, out.steps_used, out.exhausted) == (t, 0, len(seq) > 1)
    if _model_step(seq[-1], r.defs) is None:  # a normal form: extra allowance is unused
        out = reduce(t, r, len(seq) + 3)
        assert str(out.term) == str(seq[-1])
        assert (out.steps_used, out.exhausted) == (len(seq) - 1, False)
