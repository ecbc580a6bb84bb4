import itertools
import json
import pickle
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from refshift import cli, core, runs, smullyan
from refshift.core import (
    Category,
    CategoricalPair,
    Generator,
    RefArrow,
    RewriteRule,
    ShiftSequence,
    Word,
    category_from_digraph,
    compose,
    iterate_shift,
    load_pair_text,
    parse_arrow,
    shift_step,
    srt1,
    vertical_compose,
)
from refshift.errors import (
    ChainMismatch,
    DanglingEdge,
    DomainError,
    EndpointMismatch,
    InvalidDefinition,
    InvalidRule,
    NoSharpGenerator,
    NotComposable,
    NotSrt1Shape,
    RewriteBudgetExceeded,
)
from refshift.runs import RLE_MIN, read_count


def two_object_pair():
    # g: X -> X, F: X -> Y, plus sharps #X, #Y
    return category_from_digraph(["X", "Y"], [("g", "X", "X"), ("F", "X", "Y")])


def free_pair(names="ab", lambda_pair=False):
    base = category_from_digraph(["O"], [(n, "O", "O") for n in names]).base
    return CategoricalPair(base, is_lambda_pair=lambda_pair)


# --- words and composition ---


def test_compose_concatenates():
    pair = two_object_pair()
    cat = pair.base
    F, g = cat.generator("F"), cat.generator("g")
    word = compose(cat, Word.from_generators((F,)), Word.from_generators((g,)))
    assert word.gens == (F, g)
    assert word.dom == "X" and word.cod == "Y"


def test_identity_laws():
    pair = two_object_pair()
    cat = pair.base
    g = cat.word("g")
    assert compose(cat, cat.identity("X"), g) == g
    assert compose(cat, g, cat.identity("X")) == g


def test_compose_chain_mismatch_stops_sequence():
    # g: Z -> X then F: X -> Y composes once; composing Fg with g again fails
    pair = category_from_digraph(["Z", "X", "Y"], [("g", "Z", "X"), ("F", "X", "Y")])
    cat = pair.base
    F, g = cat.word("F"), cat.word("g")
    Fg = compose(cat, F, g)
    assert (Fg.dom, Fg.cod) == ("Z", "Y")
    with pytest.raises(ChainMismatch):
        compose(cat, Fg, g)


def test_word_validation():
    a = Generator("a", "X", "Y")
    b = Generator("b", "Y", "Z")
    with pytest.raises(ChainMismatch):
        Word((a, b), "X", "Z")  # a after b does not chain
    Word((b, a), "X", "Z")
    with pytest.raises(ChainMismatch):
        Word((), "X", "Y")


def test_word_str_run_length():
    sharp = Generator("#", "O", "O", is_sharp=True)
    a = Generator("a", "O", "O")
    assert str(Word.from_generators((sharp,) * 6)) == "#^6"
    assert str(Word.from_generators((a, a))) == "aa"
    assert str(Word.from_generators((sharp, sharp, sharp))) == "###"
    assert str(Word((), "O", "O")) == "1_O"
    long_name = Generator("#Z", "O", "O")
    assert str(Word.from_generators((long_name, a))) == "#Z a"
    assert (str(sharp), str(long_name)) == ("#", "#Z")


# --- composable references and the shift ---


def test_shift_applies_exactly_to_composable_references():
    pair = two_object_pair()
    cat = pair.base
    g, F = cat.word("g"), cat.word("F")
    assert str(shift_step(pair, RefArrow(g, F))[0]) == "#X g -> Fg"  # cod g = dom F = X
    with pytest.raises(NotComposable):
        shift_step(pair, RefArrow(F, F))  # F: X -> Y not self
    empty = RefArrow(cat.identity("X"), cat.identity("X"))
    assert str(shift_step(pair, empty)[0]) == "#X -> 1_X"


def test_shift_simplest_first_step():
    pair = core.simplest_pair()
    ident = pair.base.identity("O")
    shifted = shift_step(pair, RefArrow(ident, ident))[0]
    assert str(shifted) == "# -> 1_O"
    assert shifted.src == Word.from_generators((pair.base.sharp_at("O"),))
    assert shifted.dst == ident


def test_shift_soundness_exact_words():
    # source is # prepended to src, target is dst then src, no more, no less
    pair = free_pair()
    cat = pair.base
    sharp = cat.sharp_at("O")
    a, b = cat.generator("a"), cat.generator("b")
    r = RefArrow(Word.from_generators((a, b)), Word.from_generators((b,)))
    shifted = shift_step(pair, r)[0]
    assert shifted.src.gens == (sharp, a, b)
    assert shifted.dst.gens == (b, a, b)


def test_shift_requires_composability():
    pair = two_object_pair()
    cat = pair.base
    F = cat.word("F")
    with pytest.raises(NotComposable):
        shift_step(pair, RefArrow(F, F))


def test_shift_requires_sharp():
    cat = Category(frozenset({"O"}), (Generator("a", "O", "O"),))
    pair = CategoricalPair(cat)
    a = cat.word("a")
    with pytest.raises(NoSharpGenerator):
        shift_step(pair, RefArrow(a, a))


def test_shift_of_identity_reference_doubles():
    # next-simplest setting: shifting (F -> F) gives #F -> FF
    pair = core.next_simplest_pair()
    F = pair.base.word("F")
    shifted = shift_step(pair, RefArrow(F, F))[0]
    assert str(shifted) == "#F -> FF"


def test_lambda_pair_shift():
    pair = free_pair(names="aF", lambda_pair=True)
    cat = pair.base
    a, F = cat.word("a"), cat.word("F")
    shifted = shift_step(pair, RefArrow(a, F))[0]
    assert shifted.src.gens == a.gens + a.gens
    assert shifted.dst.gens == F.gens + a.gens


def test_lambda_pair_sharp_self_reference():
    # shifting the identity reference on # itself gives ## -> ##
    pair = free_pair(names="F", lambda_pair=True)
    sharp = Word.from_generators((pair.base.sharp_at("O"),))
    shifted = shift_step(pair, RefArrow(sharp, sharp))[0]
    assert shifted == RefArrow(
        Word.from_generators(sharp.gens * 2), Word.from_generators(sharp.gens * 2)
    )


# --- srt1 ---


def test_srt1_shape_and_conclusion():
    pair = free_pair(names="gF")
    cat = pair.base
    sharp = cat.sharp_at("O")
    g = cat.word("g")
    F_sharp = Word.from_generators((cat.generator("F"), sharp))
    derivation = srt1(pair, RefArrow(g, F_sharp))
    assert [s.rule for s in derivation.steps] == ["axiom", "shift"]
    final = derivation.final
    h = final.src
    assert h == compose(cat, Word.from_generators((sharp,)), g)
    # the conclusion has shape (h -> Fh): target is F applied after h
    assert final.dst == compose(cat, cat.word("F"), h)
    assert final.dst == compose(cat, F_sharp, g)


def test_srt1_russell_instance():
    pair = core.russell_pair()
    derivation = srt1(pair, parse_arrow(pair, "R -> ~ #"))
    assert str(derivation.final) == "#R -> ~#R"


def test_srt1_identity_reference_on_f_sharp():
    # taking the identity reference for F# yields #F# -> F#F#
    pair = free_pair(names="F")
    cat = pair.base
    F_sharp = cat.word("F #")
    derivation = srt1(pair, RefArrow(F_sharp, F_sharp))
    assert str(derivation.final) == "#F# -> F#F#"


def test_srt1_rejects_wrong_shape():
    pair = free_pair(names="gF")
    cat = pair.base
    g, F = cat.word("g"), cat.word("F")
    with pytest.raises(NotSrt1Shape):
        srt1(pair, RefArrow(g, F))


# --- iteration ---


def test_iterate_matches_worked_sequence():
    pair = two_object_pair()
    cat = pair.base
    g, F, sharp = cat.generator("g"), cat.generator("F"), cat.sharp_at("X")
    seq = iterate_shift(pair, RefArrow(Word.from_generators((g,)), Word.from_generators((F,))), 3)
    assert seq.stop_reason is None
    expected = [
        ((sharp, g), (F, g)),
        ((sharp, sharp, g), (F, g, sharp, g)),
        ((sharp, sharp, sharp, g), (F, g, sharp, g, sharp, sharp, g)),
    ]
    got = [(a.src.gens, a.dst.gens) for a in seq.arrows]
    assert got == expected


def test_iterate_closed_form_twelve():
    pair = core.simplest_pair()
    sharp = pair.base.sharp_at("O")
    ident = pair.base.identity("O")
    seq = iterate_shift(pair, RefArrow(ident, ident), 12)
    assert len(seq) == 12
    for k, arrow in enumerate(seq.arrows, start=1):
        src = Word.from_generators((sharp,) * k)
        n = k * (k - 1) // 2
        dst = Word.from_generators((sharp,) * n) if n else ident
        assert arrow == RefArrow(src, dst)


def test_iterate_stops_across_objects():
    pair = category_from_digraph(
        ["Z", "X", "Y"], [("g", "Z", "X"), ("F", "X", "Y")]
    )
    cat = pair.base
    r = RefArrow(cat.word("g"), cat.word("F"))
    seq = iterate_shift(pair, r, 2)
    assert len(seq) == 1
    assert seq.stop_reason == "not-composable"
    assert seq.arrows[-1].src.gens == (cat.sharp_at("X"), cat.generator("g"))


def test_iterate_stops_on_two_node_graph():
    # with g: Z -> X and F a self-morphism of X, exactly one shift is possible
    pair = category_from_digraph(["Z", "X"], [("g", "Z", "X"), ("F", "X", "X")])
    cat = pair.base
    r = RefArrow(cat.word("g"), cat.word("F"))
    seq = iterate_shift(pair, r, 2)
    assert len(seq) == 1 and seq.stop_reason == "not-composable"


def test_iterate_rejects_nonpositive():
    pair = core.simplest_pair()
    ident = pair.base.identity("O")
    with pytest.raises(InvalidDefinition, match="^n must be at least 1, got 0$"):
        iterate_shift(pair, RefArrow(ident, ident), 0)


def stepwise_oracle(pair, r, n):
    """One shift_step per shift, NotComposable and NoSharpGenerator read as stop reasons."""
    if n < 1:
        raise InvalidDefinition(f"n must be at least 1, got {n}")
    arrows, labels, reason = [], [], None
    current = r
    for _ in range(n):
        try:
            current, label = shift_step(pair, current)
        except NotComposable:
            reason = "not-composable"
            break
        except NoSharpGenerator:
            reason = "no-sharp-generator"
            break
        arrows.append(current)
        labels.append(label)
    return ShiftSequence(tuple(arrows), tuple(labels), reason)


# X and Y with s: X -> X, t: Y -> Y, f: X -> Y and k: Y -> X; a free pair may lack either sharp
SHIFT_EDGES = (("s", "X", "X"), ("t", "Y", "Y"), ("f", "X", "Y"), ("k", "Y", "X"))
# typed rules for the rule-bearing pair, which has both sharps.  s #X => #X s moves every s
# past every #X, so its steps grow along a sequence and a budget of 0-20 runs out partway
SHIFT_RULES = (
    RewriteRule(("s", "#X"), ("#X", "s")),
    RewriteRule(("#Y", "f"), ("f", "#X")),
    RewriteRule(("t", "t"), ()),
    RewriteRule(("k", "f"), ("s",)),
)


def shift_pair(sharps, rules=(), budget=core.DEFAULT_REWRITE_BUDGET, lambda_pair=False):
    gens = [Generator(*edge) for edge in SHIFT_EDGES]
    gens += [Generator(f"#{obj}", obj, obj, is_sharp=True) for obj in sorted(sharps)]
    base = Category(frozenset("XY"), tuple(gens), tuple(rules), rewrite_budget=budget)
    return CategoricalPair(base, is_lambda_pair=lambda_pair)


@st.composite
def shift_cases(draw, rules=True):
    """A pair, a starting arrow (self or not, composable or not) and a shift count.

    With rules=False every drawn pair is free: its base has no rules.
    """
    lambda_pair = draw(st.booleans())
    if rules and draw(st.booleans()):
        pair = shift_pair("XY", SHIFT_RULES, draw(st.integers(0, 20)), lambda_pair)
    else:
        pair = shift_pair(draw(st.sampled_from(["XY", "X", "Y", ""])), lambda_pair=lambda_pair)

    def word(dom):
        gens, obj = [], dom  # innermost first
        for _ in range(draw(st.integers(0, 4))):
            gens.append(draw(st.sampled_from([g for g in pair.base.generators if g.dom == obj])))
            obj = gens[-1].cod
        return Word(reversed(gens), dom, obj)

    src = word(draw(st.sampled_from("XY")))
    dst = word(draw(st.sampled_from([src.cod, "X", "Y"])))
    return pair, RefArrow(src, dst), draw(st.integers(1, 8))


def _shift_outcome(iterate, pair, r, n):
    """The sequence, or the type and message of the error iterating raises."""
    try:
        return iterate(pair, r, n)
    except DomainError as exc:
        return type(exc), str(exc)


BUDGET_PAIR = shift_pair("X", SHIFT_RULES[:1], budget=3)
S_WORD = BUDGET_PAIR.base.word("s")


@settings(max_examples=300)
@given(shift_cases())
# the third shift needs 6 rewrite steps under s #X => #X s, past the budget of 3
@example((BUDGET_PAIR, RefArrow(S_WORD, S_WORD), 5))
@example((BUDGET_PAIR, RefArrow(S_WORD, S_WORD), 0))
def test_iterate_matches_stepwise_oracle(case):
    pair, r, n = case
    assert _shift_outcome(iterate_shift, pair, r, n) == _shift_outcome(stepwise_oracle, pair, r, n)


def tuple_model(pair, r, n):
    """iterate_shift on a pair without rules, rebuilt from generator tuples and Word(gens, dom, cod).

    It shares no code with the shift kernel: src' = sharp + src, or src + src
    for a self-morphism source in a lambda pair, and dst' = dst + src.
    """
    src, dst, dom, cod, dst_dom = r.src.gens, r.dst.gens, r.src.dom, r.src.cod, r.dst.dom
    sharps = tuple(g for g in pair.base.generators if g.is_sharp and g.dom == cod)
    arrows, labels, reason = [], [], None
    for _ in range(n):
        if cod != dst_dom:
            reason = "not-composable"
            break
        if pair.is_lambda_pair and dom == cod:
            shifted, label = src + src, "shift-lambda"
        elif sharps:
            shifted, label = sharps + src, "shift-sharp-fallback" if pair.is_lambda_pair else "shift"
        else:
            reason = "no-sharp-generator"
            break
        src, dst, dst_dom = shifted, dst + src, dom
        arrows.append(RefArrow(Word(src, dom, cod), Word(dst, dom, r.dst.cod)))
        labels.append(label)
    return ShiftSequence(tuple(arrows), tuple(labels), reason)


@settings(max_examples=300)
@given(shift_cases(rules=False))
def test_iterate_without_rules_matches_a_tuple_model(case):
    pair, r, n = case
    assert iterate_shift(pair, r, n) == tuple_model(pair, r, n)


def test_a_base_without_rules_never_normalizes(monkeypatch):
    def refuse(cat, word):
        raise AssertionError(f"normalize({word}) on a base without rules")

    monkeypatch.setattr(Category, "normalize", refuse)
    cases = [(shift_pair("XY", lambda_pair=lam), "s -> f") for lam in (False, True)]
    cases += [(core.simplest_pair(), "1_O -> 1_O"), (core.russell_pair(), "R -> ~#")]
    for pair, text in cases:
        arrow = parse_arrow(pair, text)
        assert len(iterate_shift(pair, arrow, 6)) == 6
        assert shift_step(pair, arrow)[0] == iterate_shift(pair, arrow, 1).arrows[-1]


def test_rewrite_budget_runs_out_partway_through_a_sequence():
    assert len(iterate_shift(BUDGET_PAIR, RefArrow(S_WORD, S_WORD), 2)) == 2
    with pytest.raises(RewriteBudgetExceeded, match="budget of 3 steps$"):
        iterate_shift(BUDGET_PAIR, RefArrow(S_WORD, S_WORD), 3)


def _cli_iterate(capsys, tmp_path, text, arrow, n):
    path = tmp_path / "pair.txt"
    path.write_text(text)
    assert cli.run(["iterate", "--category", str(path), "--arrow", arrow, "--n", str(n), "--json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_iterate_without_a_sharp_stops_before_the_first_shift(capsys, tmp_path):
    text = "object O\ngenerator F : O -> O\n"
    pair = load_pair_text(text)
    assert iterate_shift(pair, parse_arrow(pair, "F -> F"), 3) == ShiftSequence((), (), "no-sharp-generator")
    result = _cli_iterate(capsys, tmp_path, text, "F -> F", 3)
    assert result == {"arrows": [], "rules": [], "stop_reason": "no-sharp-generator"}


def test_lambda_pair_falls_back_to_the_sharp_for_a_non_self_source(capsys, tmp_path):
    # g: X -> O is no self-morphism, so #g uses the sharp at O; then #g ends at O but Fg starts at X
    text = "object X O\ngenerator g : X -> O\ngenerator F : O -> O\nsharp # : O\nflags lambda\n"
    pair = load_pair_text(text)
    seq = iterate_shift(pair, parse_arrow(pair, "g -> F"), 3)
    assert ([str(a) for a in seq.arrows], seq.rules) == (["#g -> Fg"], ("shift-sharp-fallback",))
    result = _cli_iterate(capsys, tmp_path, text, "g -> F", 3)
    assert result == {"arrows": ["#g -> Fg"], "rules": ["shift-sharp-fallback"],
                      "stop_reason": "not-composable"}


# --- reference arrows ---


def test_vertical_compose():
    pair = free_pair(names="abc")
    w = pair.base.word
    assert vertical_compose(pair, RefArrow(w("b"), w("c")), RefArrow(w("a"), w("b"))) == RefArrow(
        w("a"), w("c")
    )
    ident_ref = RefArrow(w("a"), w("a"))
    assert vertical_compose(pair, ident_ref, ident_ref) == ident_ref
    with pytest.raises(EndpointMismatch):
        vertical_compose(pair, RefArrow(w("c"), w("c")), RefArrow(w("a"), w("b")))


def test_compose_associative_exhaustive():
    pair = category_from_digraph(["X", "Y"], [("u", "X", "Y"), ("v", "Y", "X")])
    cat = pair.base
    gens = [cat.generator("u"), cat.generator("v")]
    words = [cat.identity("X"), cat.identity("Y")]
    layer = list(words)
    for _ in range(3):
        layer = [
            Word.from_generators((g,) + w.gens) for w in layer for g in gens if g.dom == w.cod
        ]
        words.extend(layer)
    for f, g, h in itertools.product(words, repeat=3):
        if f.dom != g.cod or g.dom != h.cod:
            continue
        assert compose(cat, compose(cat, f, g), h) == compose(cat, f, compose(cat, g, h))


# --- digraph construction ---


def test_digraph_simplest():
    pair = category_from_digraph(["O"], [])
    assert pair.base.objects == frozenset({"O"})
    assert pair.base.sharp_at("O") is not None
    assert pair.arrows == ()


def test_digraph_multi_node_sharp_names():
    pair = category_from_digraph(["Z", "X"], [("g", "Z", "X")])
    assert pair.base.sharp_at("Z").name == "#Z"
    assert pair.base.sharp_at("X").name == "#X"


def test_digraph_dangling_edge():
    with pytest.raises(DanglingEdge):
        category_from_digraph(["X"], [("g", "X", "Y")])


def test_digraph_empty():
    pair = category_from_digraph([], [])
    assert pair.base.objects == frozenset()
    assert pair.base.generators == ()


# --- rewrite rules ---


def test_rewrite_normalization():
    # collapse uu to the empty word
    rule = RewriteRule(("u", "u"), ())
    pair = category_from_digraph(["O"], [("u", "O", "O")], rules=(rule,))
    cat = pair.base
    u = cat.generator("u")
    w = Word.from_generators((u,) * 4)
    assert cat.normalize(w) == cat.identity("O")
    assert cat.normalize(Word.from_generators((u,) * 3)) == Word.from_generators((u,))


def test_rewrite_budget_exceeded():
    # u -> uu grows forever
    rule = RewriteRule(("u",), ("u", "u"))
    pair = category_from_digraph(["O"], [("u", "O", "O")], rules=(rule,))
    cat = pair.base
    with pytest.raises(RewriteBudgetExceeded):
        cat.normalize(cat.word("u"))


def test_rewrite_identity_shaped_rule_terminates():
    # sharp expansion maps ## to ## in place; the no-progress guard keeps it a normal form
    rule = RewriteRule(("#", "?a"), ("?a", "?a"))
    pair = category_from_digraph(["O"], [("g", "O", "O"), ("F", "O", "O")], rules=(rule,))
    cat = pair.base
    assert str(cat.normalize(cat.word("F # g"))) == "Fgg"
    assert str(cat.normalize(cat.word("# #"))) == "##"


def test_rewrite_keeps_a_placeholder_bound_to_a_generator_named_1():
    # the rule's own 1 tokens are dropped first, then ?a binds; a bound 1 is a generator
    rule = RewriteRule(("#", "?a"), ("?a", "?a"))
    cat = category_from_digraph(["O"], [("1", "O", "O")], rules=(rule,)).base
    assert cat.normalize(cat.word("# 1")) == cat.word("1 1")


def test_rewrite_bindings_cap():
    # 99 edges and the sharp #: ?a ?b binds 100^2 = 10000 name pairs, exactly the cap;
    # one generator more is past it
    gens = [(f"g{i}", "O", "O") for i in range(99)]
    rule = RewriteRule(("?a", "?b"), ("1",))
    cat = category_from_digraph(["O"], gens, rules=(rule,)).base
    assert cat.normalize(cat.word("g1 # g2 g3")) == cat.identity("O")
    message = "^rule \\?a \\?b => 1 takes the category past 10000 placeholder bindings$"
    with pytest.raises(InvalidDefinition, match=message):
        category_from_digraph(["O"], gens + [("g99", "O", "O")], rules=(rule,))


def test_rewrite_placeholder_must_bind():
    with pytest.raises(InvalidDefinition):
        RewriteRule(("u",), ("?x",))


def rewrite(rule, segment, cat):
    """The generators rule puts for a pattern-long segment, or None if no match/progress.

    The oracles' own matcher: it binds each placeholder to a Generator as it
    meets it, so it shares nothing with the rule table Category compiles.
    """
    binding = {}
    for tok, gen in zip(rule.pattern, segment):
        bound = binding.setdefault(tok, gen) if tok.startswith("?") else cat.generator(tok)
        if bound != gen:
            return None
    repl = tuple(binding[tok] if tok.startswith("?") else cat.generator(tok)
                 for tok in rule.replacement if tok != "1")
    return None if repl == tuple(segment) else repl


def apply_at(rule, gens, pos, cat):
    """The generator tuple with rule rewritten at pos, or None if no match/progress there."""
    size = len(rule.pattern)
    if pos + size > len(gens):
        return None
    repl = rewrite(rule, gens[pos : pos + size], cat)
    return None if repl is None else gens[:pos] + repl + gens[pos + size :]


def test_rewrite_confluence_under_random_application_order():
    # the sharp-expansion relation reaches the same normal form no matter
    # where rewrites fire, so leftmost normalization is a canonical choice
    import random

    rng = random.Random(17)
    rule = RewriteRule(("#", "?a"), ("?a", "?a"))
    pair = category_from_digraph(["O"], [("g", "O", "O"), ("F", "O", "O")], rules=(rule,))
    cat = pair.base

    def random_order_normalize(word):
        gens = word.gens
        for _ in range(10_000):
            matches = [
                p for p in range(len(gens)) if apply_at(rule, gens, p, cat) is not None
            ]
            if not matches:
                return Word(gens, word.dom, word.cod)
            gens = apply_at(rule, gens, rng.choice(matches), cat)
        raise AssertionError("random-order rewriting failed to terminate")

    names = ["#", "g", "F"]
    for _ in range(200):
        k = rng.randrange(0, 6)
        word = (
            cat.identity("O")
            if k == 0
            else Word.from_generators(tuple(cat.generator(rng.choice(names)) for _ in range(k)))
        )
        assert random_order_normalize(word) == cat.normalize(word)


# --- pair file format ---


PAIR_TEXT = """
; a one-object pair with a relation uu => 1
object O
generator u : O -> O
generator F : O -> O
sharp # : O
rule u u =>
arrow u -> F
flags lambda
"""


def test_load_pair_text():
    pair = load_pair_text(PAIR_TEXT)
    assert pair.is_lambda_pair
    assert len(pair.arrows) == 1
    cat = pair.base
    assert cat.normalize(cat.word("u u u")) == cat.word("u")
    arrow = pair.arrows[0]
    assert str(arrow) == "u -> F"


def test_readme_pair_file_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```text\nobject O\n", 1)[1].split("```", 1)[0]
    pair = load_pair_text("object O\n" + block)
    arrow = srt1(pair, pair.arrows[0]).final
    assert str(arrow) == "#R -> ~#R"


def test_load_pair_rejects_unknown_directive():
    with pytest.raises(InvalidDefinition):
        load_pair_text("widget O")
    with pytest.raises(InvalidDefinition, match="^unknown flag 'two-category'$"):
        load_pair_text("object O\nflags two-category")


def test_load_pair_rejects_duplicate_names():
    text = "object O\ngenerator u : O -> O\nsharp u : O\n"
    with pytest.raises(InvalidDefinition):
        load_pair_text(text)


def test_category_refuses_a_generator_name_used_twice():
    # the edge #a has the name of a's sharp; word("#a") could not say which it means
    with pytest.raises(InvalidDefinition, match="used more than once"):
        category_from_digraph(["a", "b"], [("#a", "b", "b")])


def test_category_refuses_a_negative_rewrite_budget():
    with pytest.raises(InvalidDefinition, match="^fuel must be non-negative$"):
        Category(frozenset({"O"}), (), rewrite_budget=-1)
    assert Category(frozenset({"O"}), (), rewrite_budget=0).rewrite_budget == 0


@pytest.mark.parametrize("pattern, replacement", [(("u",), ("w",)), (("w", "u"), ()), (("u", "1"), ())])
def test_category_refuses_a_rule_token_that_names_no_generator(pattern, replacement):
    # a replacement would fail mid-normalize; a pattern would silently never match
    with pytest.raises(InvalidDefinition, match="names no generator"):
        category_from_digraph(["O"], [("u", "O", "O")], rules=(RewriteRule(pattern, replacement),))


def _simplest_with_arrow(word):
    return CategoricalPair(core.simplest_pair().base, (RefArrow(word, word),))


@pytest.mark.parametrize("build,message", [
    (lambda: Generator("s", "A", "B", is_sharp=True),
     "sharp generator s must be a self-morphism, got A -> B"),
    (lambda: Word.from_generators(()),
     "from_generators needs at least one generator; use Category.identity"),
    (lambda: _simplest_with_arrow(Word((), "Q", "Q")),
     "arrow 1_Q -> 1_Q uses objects outside the base category"),
    # the simplest base has only the sharp #, so an F from elsewhere is foreign
    (lambda: _simplest_with_arrow(Word.from_generators([Generator("F", "O", "O")])),
     "arrow F -> F uses generators outside the base category"),
    (lambda: category_from_digraph(["O", "O"], []), "duplicate node names"),
])
def test_refusals_name_their_cause(build, message):
    with pytest.raises(InvalidDefinition) as refused:
        build()
    assert refused.value.code == "invalid-definition"
    assert str(refused.value) == message


def test_parse_arrow_requires_arrow_syntax():
    pair = core.simplest_pair()
    with pytest.raises(InvalidDefinition):
        parse_arrow(pair, "just a word")


# --- property tests ---


word_lists = st.lists(st.sampled_from("ab#"), min_size=0, max_size=5)


@given(word_lists, word_lists)
def test_shift_soundness_property(src_names, dst_names):
    pair = free_pair(names="ab")
    cat = pair.base
    sharp = cat.sharp_at("O")

    def to_word(names):
        if not names:
            return cat.identity("O")
        return Word.from_generators(tuple(cat.generator(n) for n in names))

    src, dst = to_word(src_names), to_word(dst_names)
    shifted = shift_step(pair, RefArrow(src, dst))[0]
    assert shifted.src.gens == (sharp,) + src.gens
    assert shifted.dst.gens == dst.gens + src.gens


@given(word_lists, word_lists, word_lists)
def test_compose_associative_property(xs, ys, zs):
    pair = free_pair(names="ab")
    cat = pair.base

    def to_word(names):
        if not names:
            return cat.identity("O")
        return Word.from_generators(tuple(cat.generator(n) for n in names))

    f, g, h = to_word(xs), to_word(ys), to_word(zs)
    assert compose(cat, compose(cat, f, g), h) == compose(cat, f, compose(cat, g, h))


def test_derivation_json_schema():
    pair = core.russell_pair()
    derivation = srt1(pair, parse_arrow(pair, "R -> ~ #"))
    data = derivation.to_json()
    assert set(data) == {"steps"}
    for step in data["steps"]:
        assert set(step) == {"rule", "src_word", "dst_word", "note"}
    assert data["steps"][-1]["src_word"] == "#R"
    assert data["steps"][-1]["dst_word"] == "~#R"


# --- run-length words ---

# X and Y with self-morphisms s, t (and the sharps) plus f: X -> Y and h: Y -> X
RUN_PAIR = category_from_digraph(
    ["X", "Y"], [("s", "X", "X"), ("t", "Y", "Y"), ("f", "X", "Y"), ("h", "Y", "X")]
)


@st.composite
def chainable_gens(draw):
    """A word's endpoints and a generator sequence, outermost first, that chains."""
    cat = RUN_PAIR.base
    cod = draw(st.sampled_from(sorted(cat.objects)))
    gens, obj = [], cod
    for _ in range(draw(st.integers(0, 12))):
        g = draw(st.sampled_from([g for g in cat.generators if g.cod == obj]))
        gens.append(g)
        obj = g.dom
    return tuple(gens), obj, cod


def _fresh(gens):
    """Equal generators that are distinct objects."""
    return tuple(Generator(g.name, g.dom, g.cod, g.is_sharp) for g in gens)


@given(chainable_gens(), chainable_gens())
def test_run_words_agree_with_generator_tuples(left, right):
    (gens, dom, cod), (other, odom, ocod) = left, right
    word = Word(gens, dom, cod)
    assert word.gens == gens and len(word) == len(gens)
    assert sum(count for _, count in word.runs) == len(gens)
    assert all(a != b for (a, _), (b, _) in zip(word.runs, word.runs[1:]))  # maximal runs
    assert Word.from_runs([(g, 1) for g in gens], dom, cod) == word
    twin = Word(_fresh(gens), dom, cod)
    assert twin == word and hash(twin) == hash(word) and twin.runs == word.runs
    assert pickle.loads(pickle.dumps(word)) == word
    with pytest.raises(AttributeError):
        word.runs = ()
    same = (gens, dom, cod) == (other, odom, ocod)
    assert (Word(other, odom, ocod) == word) == same
    if same:
        assert hash(Word(other, odom, ocod)) == hash(word)


def _scan_error(gens, dom, cod):
    """The ChainMismatch message of a generator-by-generator check, or None."""
    for left, right in zip(gens, gens[1:]):
        if left.dom != right.cod:
            return (f"generators {left.name}:{left.dom}->{left.cod} and "
                    f"{right.name}:{right.dom}->{right.cod} do not chain")
    if gens and (dom != gens[-1].dom or cod != gens[0].cod):
        return "word endpoints do not match its generator sequence"
    if not gens and dom != cod:
        return "the empty word is an identity and needs dom == cod"
    return None


@given(
    st.lists(st.sampled_from(RUN_PAIR.base.generators), max_size=8),
    st.sampled_from(["X", "Y"]),
    st.sampled_from(["X", "Y"]),
)
def test_run_chain_check_matches_generator_scan(gens, dom, cod):
    gens = tuple(gens)
    expected = _scan_error(gens, dom, cod)
    for build in (lambda: Word(gens, dom, cod),
                  lambda: Word.from_runs([(g, 1) for g in gens], dom, cod)):
        if expected is None:
            assert build().gens == gens
        else:
            with pytest.raises(ChainMismatch) as err:
                build()
            assert str(err.value) == expected


def test_run_of_non_self_generator_does_not_chain():
    f = RUN_PAIR.base.generator("f")  # X -> Y
    message = "generators f:X->Y and f:X->Y do not chain"
    with pytest.raises(ChainMismatch, match=message):
        Word((f, f), "X", "Y")
    with pytest.raises(ChainMismatch, match=message):
        Word.from_runs([(f, 2)], "X", "Y")
    with pytest.raises(ChainMismatch, match=message):
        Word.from_runs([(f, 1), (f, 1)], "X", "Y")
    with pytest.raises(InvalidDefinition):
        Word.from_runs([(f, 0)], "X", "Y")


def test_iterate_simplest_stays_one_run():
    pair = core.simplest_pair()
    n = 20_000
    final = iterate_shift(pair, parse_arrow(pair, "1_O -> 1_O"), n).arrows[-1]
    assert str(final) == f"#^{n} -> #^{n * (n - 1) // 2}"
    assert len(final.src.runs) == 1 and len(final.dst.runs) == 1
    assert len(final.dst) == 199_990_000


def test_iterate_russell_runs():
    # (#R -> ~#R) shifts k times to (#^(k+1) R -> ~ #R #R ##R ... #^k R)
    pair = core.russell_pair()
    start = srt1(pair, parse_arrow(pair, "R -> ~#")).final
    n = 2000
    final = iterate_shift(pair, start, n).arrows[-1]
    runs = [(g.name, count) for g, count in final.dst.runs]
    assert len(runs) == 2 * n + 3
    assert runs == [("~", 1), ("#", 1), ("R", 1)] + [
        run for j in range(1, n + 1) for run in (("#", j), ("R", 1))
    ]
    assert [(g.name, count) for g, count in final.src.runs] == [("#", n + 1), ("R", 1)]


# --- resumed normalization ---

# words use a, b and c; rules may also name d (never in a word) and h: O -> P,
# which no generator can follow, so a replacement holding h ends in InvalidRule
WORD_NAMES = ("a", "b", "c")
RULE_NAMES = WORD_NAMES + ("d", "h")


@st.composite
def rule_sets(draw):
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        pattern = draw(st.lists(st.sampled_from(RULE_NAMES + ("?x", "?y")), min_size=1, max_size=3))
        bound = tuple(sorted({tok for tok in pattern if tok.startswith("?")}))
        replacement = draw(st.lists(st.sampled_from(RULE_NAMES + ("1",) + bound), max_size=3))
        rules.append(RewriteRule(tuple(pattern), tuple(replacement)))
    if draw(st.booleans()):
        # a literal rule that makes no progress, such as u => u
        still = tuple(draw(st.lists(st.sampled_from(RULE_NAMES), min_size=1, max_size=2)))
        rules.insert(draw(st.integers(0, len(rules))), RewriteRule(still, still))
    return tuple(rules)


def resumed_oracle(cat, word):
    """Leftmost rewriting over single generators, resuming longest pattern - 1 back."""
    if not cat.rules:
        return word
    gens = list(word.gens)
    reach = max(len(rule.pattern) for rule in cat.rules) - 1
    steps = pos = 0
    while pos < len(gens):
        for rule in cat.rules:
            size = len(rule.pattern)
            if rule.pattern[0] == gens[pos].name or rule.pattern[0].startswith("?"):
                if pos + size <= len(gens):
                    repl = rewrite(rule, gens[pos : pos + size], cat)
                    if repl is not None:
                        break
        else:
            pos += 1
            continue
        steps += 1
        if steps > cat.rewrite_budget:
            raise RewriteBudgetExceeded(
                f"normalization of {word} exceeded the budget of {cat.rewrite_budget} steps"
            )
        gens[pos : pos + size] = repl
        pos = max(0, pos - reach)
    return _typed(cat, gens, word)


def restart_normalize(cat, word):
    """Leftmost rewriting that rescans from position 0 after every step."""
    gens, steps = word.gens, 0
    while True:
        for pos in range(len(gens)):
            found = next((r for r in (apply_at(rule, gens, pos, cat) for rule in cat.rules)
                          if r is not None), None)
            if found is not None:
                break
        else:
            return _typed(cat, gens, word)
        steps += 1
        if steps > cat.rewrite_budget:
            raise RewriteBudgetExceeded(
                f"normalization of {word} exceeded the budget of {cat.rewrite_budget} steps"
            )
        gens = found


def _typed(cat, gens, word):
    try:
        return Word(gens, word.dom, word.cod)
    except ChainMismatch as exc:
        raise InvalidRule(f"rewriting {word} produced an ill-typed word") from exc


def _outcome(normalize, cat, word):
    """The normal form, or the type and message of the error normalizing raises."""
    try:
        return normalize(cat, word)
    except (RewriteBudgetExceeded, InvalidRule) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(
    rule_sets(),
    st.lists(st.tuples(st.sampled_from(WORD_NAMES), st.integers(1, 5)), max_size=6),
    st.integers(0, 20),
)
# b => a makes the redex a a start one place left of the rewrite
@example((RewriteRule(("b",), ("a",)), RewriteRule(("a", "a"), ())), [("a", 1), ("b", 1)], 20)
def test_resumed_normalize_matches_restart(rules, runs, budget):
    gens = [Generator(n, "O", "O") for n in RULE_NAMES[:-1]] + [Generator("h", "O", "P")]
    cat = Category(frozenset({"O", "P"}), tuple(gens), rules, rewrite_budget=budget)
    word = Word.from_runs([(cat.generator(n), count) for n, count in runs], "O", "O")
    expected = _outcome(restart_normalize, cat, word)
    assert _outcome(resumed_oracle, cat, word) == expected
    assert _outcome(Category.normalize, cat, word) == expected


UV_SHARP = load_pair_text("""\
object O
generator u : O -> O
generator v : O -> O
sharp # : O
rule u v =>
""")


def test_normalize_leaves_a_word_no_rule_starts_in_o_runs():
    # spelling #^(10^12) out as generators could not finish
    cat = UV_SHARP.base
    word = Word.from_runs([(cat.sharp_at("O"), 10**12)], "O", "O")
    assert cat.normalize(word) is word
    final = iterate_shift(UV_SHARP, parse_arrow(UV_SHARP, "1_O -> 1_O"), 2000).arrows[-1]
    assert str(final) == "#^2000 -> #^1999000"


def test_normalize_refuses_a_generator_outside_the_category():
    cat = UV_SHARP.base
    stranger = Generator("u", "O", "O", is_sharp=True)  # named like u, but not u
    with pytest.raises(InvalidDefinition, match="^generator u:O->O is not in the category$"):
        cat.normalize(Word.from_generators((stranger, cat.generator("v"))))


# --- the lambda shift against horizontal composition ---

# one rule, so the composites are normalized; h leaves O, so targets may end at P
LAMBDA_PAIR = load_pair_text("""\
object O P
sharp # : O
sharp % : P
generator F : O -> O
generator G : O -> O
generator h : O -> P
rule G F => F G
flags lambda
""")


@st.composite
def self_words(draw):
    """A self-morphism of O as runs over F, G and the sharp #."""
    runs = draw(st.lists(st.tuples(st.sampled_from("FG#"), st.integers(1, 4)), max_size=4))
    return Word.from_runs([(LAMBDA_PAIR.base.generator(n), c) for n, c in runs], "O", "O")


@given(self_words(), self_words(), st.sampled_from([(), ("h",), ("%", "h")]))
def test_lambda_shift_is_horizontal_composition_with_the_source(src, dst, prefix):
    # #a = aa: shifting (a -> b) is the horizontal composite (a -> b) o0 (a -> a)
    if prefix:
        dst = compose(LAMBDA_PAIR.base, LAMBDA_PAIR.base.word(list(prefix)), dst)
    r = RefArrow(src, dst)
    base = LAMBDA_PAIR.base
    oracle = RefArrow(compose(base, src, src), compose(base, dst, src))
    assert shift_step(LAMBDA_PAIR, r) == (oracle, "shift-lambda")


# --- the run-at-a-time builders against the generator-at-a-time ones ---

# The builders before they grouped runs at C speed: one lookup, one merge and
# one neighbour comparison per generator, kept here as the oracle.


def oracle_runs(runs, dom, cod):
    """Fuse (generator, count) runs neighbour by neighbour, then check the chain run by run."""
    out, length = [], 0
    for g, count in runs:
        if count < 1:
            raise InvalidDefinition(f"run count must be >= 1, got {count}")
        length += count
        if out and (out[-1][0] is g or (out[-1][0].name == g.name and out[-1][0] == g)):
            out[-1] = (out[-1][0], out[-1][1] + count)
        else:
            out.append((g, count))
    for (left, _), (right, count) in zip([(None, 0)] + out, out):
        for a, b in [(left, right)] * (left is not None) + [(right, right)] * (count > 1):
            if a.dom != b.cod:
                raise ChainMismatch(f"generators {a.name}:{a.dom}->{a.cod} and "
                                    f"{b.name}:{b.dom}->{b.cod} do not chain")
    if out and (dom != out[-1][0].dom or cod != out[0][0].cod):
        raise ChainMismatch("word endpoints do not match its generator sequence")
    if not out and dom != cod:
        raise ChainMismatch("the empty word is an identity and needs dom == cod")
    return tuple(out), dom, cod, length


def oracle_word(gens, dom, cod):
    return oracle_runs(((g, 1) for g in gens), dom, cod)


def oracle_token(token):
    name, caret, digits = token.partition("^")
    return name, read_count(digits, token, InvalidDefinition) if caret else 1


def oracle_parse(text, names):
    """Spaced tokens, or one character at a time when a lone token is no known name[^N]."""
    tokens = text.split()
    if len(tokens) == 1:
        name, _, digits = tokens[0].partition("^")
        if name not in names or digits.strip("0123456789"):
            runs = []
            for ch, caret, digits in re.findall(r"(.)(\^([0-9]*))?", tokens[0], re.DOTALL):
                runs.append((ch, read_count(digits, tokens[0], InvalidDefinition) if caret else 1))
            return runs
    return [oracle_token(token) for token in tokens]


def oracle_category_word(cat, spec):
    names = {g.name: g for g in cat.generators}
    if isinstance(spec, str):
        s = spec.strip()
        if s.startswith("1_"):
            if s[2:] not in cat.objects:
                raise InvalidDefinition(f"unknown object {s[2:]!r}")
            return (), s[2:], s[2:], 0
        runs = oracle_parse(s, names)
    else:
        runs = [oracle_token(token) for token in spec]
    if not runs:
        raise InvalidDefinition("empty word spec; use 1_<object> for an identity")
    for name, _ in runs:
        if name not in names:
            raise InvalidDefinition(f"unknown generator {name!r}")
    runs = [(names[name], count) for name, count in runs]
    return oracle_runs(runs, runs[-1][0].dom, runs[0][0].cod)


def oracle_text(runs, dom):
    """A word's text, one generator at a time."""
    if not runs:
        return f"1_{dom}"
    names = [g.name for g, count in runs for _ in range(count)]
    spaced = any(len(name) != 1 or name in "0123456789" for name in names)
    pieces = [f"{g.name}^{count}" if count >= RLE_MIN else (" " if spaced else "").join([g.name] * count)
              for g, count in runs]
    return (" " if spaced else "").join(pieces)


def _built(build, *args):
    """A word's runs, endpoints, length and text, or the type and message of the refusal."""
    try:
        found = build(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    if isinstance(found, Word):
        return found.runs, found.dom, found.cod, len(found), str(found)
    return found + (oracle_text(found[0], found[1]),)


# one- and multi-character names, "ab" glued from a and b, digits, and X -> Y generators
BUILDER_NAMES = ("a", "b", "ab", "#", "~", "c1", "2", "F", "uv")


@st.composite
def builder_categories(draw):
    names = draw(st.lists(st.sampled_from(BUILDER_NAMES), min_size=1, max_size=6, unique=True))
    ends = [draw(st.sampled_from([("X", "X"), ("X", "X"), ("Y", "Y"), ("X", "Y"), ("Y", "X")]))
            for _ in names]
    return Category({"X", "Y"}, [Generator(n, dom, cod) for n, (dom, cod) in zip(names, ends)])


@st.composite
def builder_specs(draw, cat):
    """A name list or a text for cat: repeats, name^N tokens, unknown names and bad counts."""
    known = [g.name for g in cat.generators]
    tokens = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(known + ["zz", "a"] if draw(st.integers(0, 5)) == 0 else known))
        suffix = draw(st.sampled_from(["", "", "", "^2", "^4", "^11", "^0", "^", "^x"]))
        tokens += [name + suffix] * draw(st.integers(1, 3))
    form = draw(st.sampled_from(["names", "spaced", "glued", "identity", "raw"]))
    if form == "names":
        return tokens
    if form == "raw":  # carets and digits anywhere
        return draw(st.text(alphabet="ab#~c12^ ", max_size=10))
    if form == "identity":
        return draw(st.sampled_from(["1_X", " 1_Y ", "1_Q"]))
    return (" " if form == "spaced" else "").join(tokens) + draw(st.sampled_from(["", " "]))


@settings(max_examples=300)
@given(st.data())
def test_category_word_matches_the_generator_at_a_time_builder(data):
    cat = data.draw(builder_categories())
    spec = data.draw(builder_specs(cat))
    assert _built(cat.word, spec) == _built(oracle_category_word, cat, spec)


@settings(max_examples=300)
@given(st.data())
def test_word_matches_the_generator_at_a_time_builder(data):
    cat = data.draw(builder_categories())
    gens = data.draw(st.lists(st.sampled_from(cat.generators), max_size=8))
    gens = [Generator(g.name, g.dom, g.cod) if data.draw(st.booleans()) else g for g in gens]  # equal, not same
    dom, cod = data.draw(st.sampled_from(["X", "Y"])), data.draw(st.sampled_from(["X", "Y"]))
    assert _built(Word, gens, dom, cod) == _built(oracle_word, gens, dom, cod)
    if gens:
        expected = _built(oracle_word, gens, gens[-1].dom, gens[0].cod)
        assert _built(Word.from_generators, iter(gens)) == expected
        assert _built(Word.from_runs, [(g, 1) for g in gens], gens[-1].dom, gens[0].cod) == expected


@given(st.text(alphabet=smullyan.ALPHABET + "x^ ", max_size=12))
def test_machine_words_match_the_generator_at_a_time_builder(s):
    plain = _built(lambda: Word(map(smullyan.smullyan_category().generator, s), "O", "O"))
    machine = _built(smullyan.word, s)
    if len(plain) == 2:  # a character outside the alphabet
        assert machine == plain
    else:  # the same runs, printed as the machine string itself (P]]]], not P]^4)
        assert machine == plain[:-1] + (s or "1_O",)


def _lines_run(build):
    """Lines run in refshift.core, refshift.runs and refshift.smullyan while build() runs."""
    files = {core.__file__, runs.__file__, smullyan.__file__}
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename not in files:
            return None
        lines += event == "line"
        return trace

    sys.settrace(trace)
    try:
        build()
    finally:
        sys.settrace(None)
    return lines


def _word_work(per_run):
    """Lines run to build a word of six runs of per_run generators each way, and to print it."""
    cat = load_pair_text("object O\ngenerator u : O -> O\ngenerator v : O -> O\nsharp # : O\n").base
    names = [name for name in "uv#uv#" for _ in range(per_run)]
    gens = [cat.generator(name) for name in names]
    word = cat.word(names)
    assert len(word.runs) == 6 and str(word) == f"u^{per_run}v^{per_run}#^{per_run}" * 2
    machine = "".join(ch * per_run for ch in "P[~]R[")
    return {how: _lines_run(build) for how, build in {
        "names": lambda: cat.word(names),
        "glued text": lambda: cat.word("".join(names)),
        "glued text with a count": lambda: cat.word("".join(names) + "u^2"),
        "spaced text": lambda: cat.word(" ".join(names)),
        "printed text": lambda: cat.word(str(word)),
        "generators": lambda: Word(gens, "O", "O"),
        "print": lambda: str(word),
        "machine string": lambda: smullyan.word(machine),
    }.items()}


def test_building_and_printing_a_word_take_steps_per_run_not_per_generator():
    # counted, not clocked: the lines run must not grow with the generators in a run
    few = _word_work(10)
    assert all(few.values()) and _word_work(10_000) == few
