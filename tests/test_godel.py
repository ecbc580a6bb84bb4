import random

import pytest
from hypothesis import example, given, settings, strategies as st

from refshift import godel
from refshift.godel import (
    SHARP,
    Fml,
    Formula,
    FormalComposite,
    GodelNumber,
    Num,
    build_self_refuter,
    compose_morphisms,
    compose_numbers,
    decode,
    encode,
    numeral,
    parse,
    parse_compact,
    reference_pair,
    sharp_decimal,
    substitute,
)
from refshift.errors import (
    DomainError,
    EmptyFormula,
    InvalidAxiom,
    InvalidSymbol,
    MaterializeTooLarge,
    NoFreeVariable,
    NotComposable,
    NotSrt1Shape,
)
from refshift.value import RefArrow


def gn(n: int) -> GodelNumber:
    return GodelNumber.from_int(n)


# --- parsing ---


def test_parse_worked_formula():
    f = parse("~P(x)")
    assert f.runs == (("~", 1), ("P", 1), ("(", 1), ("x", 1), (")", 1))


def test_parse_slash_run():
    assert parse("|||").runs == (("|", 3),)


def test_parse_empty():
    assert parse("") == Formula(())


def test_parse_rejects_foreign_symbols():
    with pytest.raises(InvalidSymbol):
        parse("~P(y)")


def test_parse_compact_round_trip():
    f = parse_compact("~P(#|^341752)")
    assert f.runs == (("~", 1), ("P", 1), ("(", 1), ("#", 1), ("|", 341752), (")", 1))
    assert parse_compact(str(f)) == f


# --- coding ---


def test_encode_worked_values():
    assert encode(parse("~P(x)")) == gn(34152)
    assert encode(parse("~P(#x)")) == gn(341752)
    assert encode(parse("|||")) == gn(666)


def test_encode_empty_formula():
    with pytest.raises(EmptyFormula):
        encode(Formula(()))


def test_decode_worked_values():
    assert decode(gn(34152)) == parse("~P(x)")
    assert decode(gn(7)) == parse("#")
    # oracle: re-encode P(|||) through the digit map
    oracle = encode(parse("P(|||)"))
    assert oracle == gn(416662)
    assert decode(gn(416662)) == parse("P(|||)")


def test_number_validation():
    with pytest.raises(InvalidSymbol):
        GodelNumber.from_int(800)  # digits 8 and 0 are outside the coding range
    with pytest.raises(InvalidSymbol):
        GodelNumber(((5, 0),))
    with pytest.raises(InvalidSymbol):
        GodelNumber(((5, 1), (5, 2)))  # runs must be merged
    with pytest.raises(InvalidSymbol):
        GodelNumber(())


def test_number_value_and_length():
    assert gn(34152).value() == 34152
    assert GodelNumber(((6, 3),)).value() == 666
    assert GodelNumber(((3, 1), (6, 5), (2, 1))).value() == 3666662
    assert GodelNumber(((6, 34152),)).digit_length == 34152


def horner_value(runs):
    """The value read run by run, left to right: the oracle for GodelNumber.value()."""
    v = 0
    for digit, count in runs:
        v = v * 10**count + digit * (10**count - 1) // 9
    return v


# a few fixed counts make repeated run lengths, which share one power in value()
run_counts = st.one_of(st.sampled_from([1, 2, 3, 9, 64]), st.integers(1, 200))


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(1, 7), run_counts), min_size=1, max_size=300))
@example([(5, 1)])
@example([(d % 7 + 1, 1) for d in range(17)])
@example([(d % 7 + 1, 64) for d in range(33)])
def test_value_matches_horner(runs):
    g = GodelNumber(normalize_runs(runs))
    assert g.value() == horner_value(g.runs)


SQUARE_BITS = godel._SQUARE_BITS
POW5_MIN = godel._POW5_MIN


def square_input(bits, kind, negative, seed):
    """A bits-long int: random, all ones (carries through every limb) or two set bits (sparse limbs)."""
    if kind == "ones":
        x = (1 << bits) - 1
    elif kind == "sparse":
        x = 1 << (bits - 1) | 1
    else:
        x = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
    return -x if negative else x


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(st.sampled_from([SQUARE_BITS - 1, SQUARE_BITS, SQUARE_BITS + 1]),
              st.integers(1, 21).flatmap(lambda e: st.integers(2 ** (e - 1) + 1, 2**e))),
    st.sampled_from(["random", "ones", "sparse"]),
    st.booleans(),
    st.integers(0, 2**32),
)
@example(SQUARE_BITS - 1, "random", False, 0)
@example(SQUARE_BITS, "ones", True, 0)
@example(4 * SQUARE_BITS + 3, "sparse", False, 0)
@example(2**21, "random", True, 1)
def test_toom4_square_is_the_builtin_square(bits, kind, negative, seed):
    # the recursion squares negative evaluations such as p(-1), so the sign must not matter
    x = square_input(bits, kind, negative, seed)
    assert godel._square(x) == x * x


@settings(deadline=None, max_examples=40)
@given(st.lists(
    st.tuples(st.integers(1, 7), st.one_of(st.integers(1, 9), st.integers(POW5_MIN - 64, 3 * POW5_MIN))),
    min_size=1, max_size=4))
@example([(6, POW5_MIN - 1)])
@example([(6, POW5_MIN)])
@example([(3, 1), (6, POW5_MIN + 1), (2, 1)])
@example([(6, 60000)])
@example([(3, 1), (4, 1), (1, 1), (7, 1), (6, 341752), (2, 1)])  # the self-refuter's runs
@example([(6, 341752), (2, 1), (5, 200001)])
def test_value_matches_horner_across_the_toom4_crossover(runs):
    g = GodelNumber(normalize_runs(runs))
    assert g.value() == horner_value(g.runs)


def test_value_below_the_crossover_never_reaches_the_kernel(monkeypatch):
    def refuse(n):
        raise AssertionError("the Toom-4 kernel was reached")

    monkeypatch.setattr(godel, "_square", refuse)
    monkeypatch.setattr(godel, "_pow5", refuse)
    runs = ((3, 1), (6, POW5_MIN - 1), (2, 5), (5, 17))
    assert GodelNumber(runs).value() == horner_value(runs)
    with pytest.raises(AssertionError, match="kernel was reached"):
        GodelNumber(((6, POW5_MIN),)).value()


def test_value_past_the_materialize_cap_is_refused_before_any_power(monkeypatch):
    # 10**11 digits would take minutes to form; the refusal must not form a power first
    with pytest.raises(MaterializeTooLarge, match="a value of 99999999999 digits exceeds"):
        GodelNumber(((6, 99999999999),)).value()
    # many runs each under the cap, together over it
    with pytest.raises(MaterializeTooLarge, match="a value of 2000000 digits exceeds"):
        GodelNumber(tuple((5 + i % 2, 20000) for i in range(100))).value()
    # a length past the int/str digit limit is still reported as decimal text
    with pytest.raises(MaterializeTooLarge, match="a value of 1{5001} digits exceeds"):
        GodelNumber(((6, (10**5001 - 1) // 9),)).value()
    monkeypatch.setattr(godel, "_MATERIALIZE_CAP", 10)
    assert GodelNumber(((3, 1), (6, 9))).value() == 3666666666
    with pytest.raises(MaterializeTooLarge):
        GodelNumber(((3, 2), (6, 9))).value()


def test_self_refuter_value_mod_prime():
    number, _ = build_self_refuter()
    p = 2**61 - 1
    inverse_nine = pow(9, -1, p)
    residue = 0
    for digit, count in number.runs:
        t = pow(10, count, p)
        residue = (residue * t + digit * (t - 1) * inverse_nine) % p
    assert number.value() % p == residue


def test_wire_format():
    s = sharp_decimal(gn(34152))
    assert s.wire() == "341 6x34152 2"
    assert GodelNumber.from_wire("341 6x34152 2") == s
    assert GodelNumber.from_wire("34152") == gn(34152)
    assert GodelNumber.from_wire("3 4 1 5 2") == gn(34152)
    with pytest.raises(InvalidSymbol):
        GodelNumber.from_wire("6y2")


formula_runs = st.lists(
    st.tuples(st.sampled_from(godel.ALPHABET), st.integers(1, 1000)),
    min_size=1,
    max_size=8,
)


def normalize_runs(runs):
    out = []
    for ch, n in runs:
        if out and out[-1][0] == ch:
            out[-1] = (ch, out[-1][1] + n)
        else:
            out.append((ch, n))
    return tuple(out)


@given(formula_runs)
def test_round_trip_both_ways(runs):
    f = Formula(normalize_runs(runs))
    assert decode(encode(f)) == f
    g = encode(f)
    assert encode(decode(g)) == g


# counts past the interpreter's 4300-digit int/str limit must print and read back
@given(formula_runs)
@example([("~", 1), ("|", 10**5000 + 7), (")", 2)])
def test_compact_text_round_trips(runs):
    f = Formula(normalize_runs(runs))
    assert parse_compact(str(f)) == f


@given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 1000)), min_size=1, max_size=8))
@example([(3, 1), (6, 10**5000 + 7), (2, 1)])
def test_wire_round_trips(runs):
    g = GodelNumber(normalize_runs(runs))
    assert GodelNumber.from_wire(g.wire()) == g


# --- sharp and number composition ---


def test_sharp_worked_values():
    assert sharp_decimal(gn(34152)).runs == ((3, 1), (4, 1), (1, 1), (6, 34152), (2, 1))
    assert sharp_decimal(gn(34152)).digit_length == 34156
    assert sharp_decimal(gn(341752)).runs == ((3, 1), (4, 1), (1, 1), (7, 1), (6, 341752), (2, 1))
    assert sharp_decimal(gn(66)) == gn(66)


def test_compose_numbers_worked_values():
    # oracle: substitute ||| into P(x) textually and re-encode
    oracle = encode(substitute(parse("P(x)"), numeral(3)))
    assert compose_numbers(gn(4152), gn(3)) == oracle == gn(416662)
    assert compose_numbers(gn(34152), gn(34152)) == sharp_decimal(gn(34152))
    assert compose_numbers(gn(666), gn(3)) == gn(666)


def test_compose_numbers_merges_adjacent_sixes():
    # 656: the replaced five sits between sixes, so the runs fuse
    n = GodelNumber.from_digits("656")
    out = compose_numbers(n, gn(2))
    assert out.runs == ((6, 4),)


def test_sharp_length_law():
    rng = random.Random(5)
    for _ in range(50):
        runs = []
        last = None
        for _ in range(rng.randrange(1, 6)):
            d = rng.choice([d for d in range(1, 8) if d != last])
            runs.append((d, rng.randrange(1, 50)))
            last = d
        g = GodelNumber(tuple(runs))
        fives = sum(c for d, c in g.runs if d == 5)
        s = sharp_decimal(g)
        assert s.digit_length == g.digit_length + (g.value() - 1) * fives


def test_sharp_idempotent_after_substitution():
    # once the variable digit is gone, sharping again changes nothing
    for n in (34152, 341752, 4152, 15, 5):
        once = sharp_decimal(gn(n))
        assert sharp_decimal(once) == once


# --- substitution ---


def test_substitute_simple():
    assert substitute(parse("~P(x)"), numeral(3)) == parse("~P(|||)")


def test_substitute_large_numeral():
    out = substitute(parse("~P(x)"), numeral(34152))
    assert out.runs == (("~", 1), ("P", 1), ("(", 1), ("|", 34152), (")", 1))


def test_substitute_requires_variable():
    with pytest.raises(NoFreeVariable):
        substitute(parse("P"), numeral(1))


def test_substitute_all_occurrences():
    out = substitute(parse("x(x)x"), numeral(2))
    assert out == parse("||(||)||")


def test_substitute_merges_boundary_runs():
    out = substitute(parse("|x|"), numeral(3))
    assert out.runs == (("|", 5),)


def test_substitute_one_run_merges_at_both_seams():
    k = 1000
    assert substitute(parse_compact(f"|x^{k}|"), parse("|")).runs == (("|", k + 2),)


# --- the coding category ---


def test_compose_formula_with_number():
    assert compose_morphisms(Fml(parse("~P(x)")), Num(gn(3))) == Fml(parse("~P(|||)"))


def test_compose_formula_with_numeral_formula():
    assert compose_morphisms(Fml(parse("~P(x)")), Fml(parse("|||"))) == Fml(parse("~P(|||)"))


def test_compose_substitution_of_formula():
    out = compose_morphisms(Fml(parse("P(x)")), Fml(parse("~P(x)")))
    assert out == Fml(parse("P(~P(x))"))


def test_compose_sharp_with_number():
    assert compose_morphisms(SHARP, Num(gn(34152))) == Num(sharp_decimal(gn(34152)))


def test_compose_sharp_formal_on_closed_code():
    out = compose_morphisms(SHARP, Num(gn(666)))
    assert out == FormalComposite((SHARP, Num(gn(666))))


def test_compose_numbers_formal_without_variable():
    out = compose_morphisms(Num(gn(666)), Num(gn(666)))
    assert isinstance(out, FormalComposite)


def test_compose_closed_formulas_formal():
    out = compose_morphisms(Fml(parse("P")), Fml(parse("~P(|||)")))
    assert out == FormalComposite((Fml(parse("P")), Fml(parse("~P(|||)"))))


def test_compose_number_then_sharp_formal():
    assert isinstance(compose_morphisms(Num(gn(34152)), SHARP), FormalComposite)
    assert isinstance(compose_morphisms(Fml(parse("P(x)")), SHARP), FormalComposite)


def test_sharp_on_numeral_standing_for_code():
    # rule on numerals: # applied to the numeral of 152 names the numeral of sharp(152)
    out = compose_morphisms(SHARP, Fml(numeral(152)))
    expected_count = sharp_decimal(gn(152)).value()
    assert out == Fml(Formula((("|", expected_count),)))


def test_sharp_on_numeral_without_code_stays_formal():
    # 90 has digits outside 1..7, so the numeral of 90 codes nothing
    out = compose_morphisms(SHARP, Fml(numeral(90)))
    assert isinstance(out, FormalComposite)


def test_reassociation_of_sharp_then_number():
    # (S(x) o #) o g  ==  S(x) o (# o g)  ==  S with the numeral of sharp(g)
    S = Fml(parse("P(x)"))
    g = Num(gn(152))
    left = compose_morphisms(compose_morphisms(S, SHARP), g)
    right = compose_morphisms(S, compose_morphisms(SHARP, g))
    assert left == right
    assert left == Fml(Formula((("P", 1), ("(", 1), ("|", sharp_decimal(gn(152)).value()), (")", 1))))


@pytest.mark.parametrize("build,code,message", [
    (lambda: numeral(0), "empty-formula", "numerals start at 1; zero has no slash representation"),
    (lambda: GodelNumber.from_int(0), "invalid-symbol", "Goedel numbers are positive"),
    (lambda: FormalComposite((SHARP,)), "invalid-symbol", "a formal composite has at least two factors"),
    (lambda: FormalComposite((SHARP, FormalComposite((SHARP, SHARP)))),
     "invalid-symbol", "formal composites must be flattened"),
])
def test_refusals_name_their_cause(build, code, message):
    with pytest.raises(DomainError) as refused:
        build()
    assert (refused.value.code, str(refused.value)) == (code, message)


def test_formal_composites_flatten():
    a, b, c = Fml(parse("P")), Num(gn(666)), SHARP
    nested = compose_morphisms(compose_morphisms(a, b), c)
    assert nested == FormalComposite((a, b, c))
    assert str(nested) == "P o 6x3 o #"
    assert nested == compose_morphisms(a, compose_morphisms(b, c))


# --- coherence of the two substitution levels ---


@given(
    st.lists(st.tuples(st.sampled_from("()~P|#"), st.integers(1, 30)), min_size=0, max_size=4),
    st.lists(st.tuples(st.sampled_from("()~P|#"), st.integers(1, 30)), min_size=0, max_size=4),
    st.integers(1, 4),
    st.integers(1, 9999),
)
def test_substitution_coherence(prefix, suffix, var_count, seed):
    digits = "1234567"
    n_digits = "".join(digits[seed * (i + 3) % 7] for i in range(1 + seed % 4))
    value = int(n_digits)
    runs = normalize_runs(list(prefix) + [("x", var_count)] + list(suffix))
    formula = Formula(runs)
    left = encode(substitute(formula, numeral(value)))
    right = compose_numbers(encode(formula), GodelNumber.from_digits(n_digits))
    assert left == right


# --- the self-refuter ---


def hand_built_self_refuter():
    """The self-refuter built by hand, as an oracle for the srt1 route: sharp the
    code of ~P(#x), and decode the result."""
    number = sharp_decimal(gn(341752))
    return number, decode(number)


def test_build_self_refuter():
    number, formula = build_self_refuter()
    assert (number, formula) == hand_built_self_refuter()
    assert number.runs == ((3, 1), (4, 1), (1, 1), (7, 1), (6, 341752), (2, 1))
    assert number.digit_length == 341757
    assert formula.runs == (("~", 1), ("P", 1), ("(", 1), ("#", 1), ("|", 341752), (")", 1))
    assert encode(formula) == number
    assert decode(number) == formula


# --- reference arrows over the coding category ---


def test_reference_pair_validates_axioms():
    with pytest.raises(InvalidAxiom):
        reference_pair([(gn(34152), parse("P(x)"))])


def test_reference_pair_shift():
    pair = reference_pair([(gn(34152), parse("~P(x)"))])
    shifted = pair.shift(pair.axioms[0])
    assert shifted.src == Num(sharp_decimal(gn(34152)))
    assert shifted.dst == Fml(substitute(parse("~P(x)"), numeral(34152)))


def test_reference_pair_srt1_self_description():
    pair = reference_pair([(gn(341752), parse("~P(#x)"))])
    derivation = pair.srt1(pair.axioms[0])
    assert [s.rule for s in derivation.steps] == ["axiom", "shift"]
    final = derivation.final
    number, formula = hand_built_self_refuter()
    assert final.src == Num(number)
    assert final.dst == Fml(formula)


def test_reference_pair_srt1_rejects_plain_formula():
    pair = reference_pair([(gn(34152), parse("~P(x)"))])
    with pytest.raises(NotSrt1Shape):
        pair.srt1(pair.axioms[0])


def test_reference_pair_shift_needs_variable():
    pair = reference_pair([(gn(666), parse("|||"))])
    with pytest.raises(NotComposable):
        pair.shift(pair.axioms[0])


def test_reference_pair_shift_needs_number_to_formula():
    pair = reference_pair([(gn(34152), parse("~P(x)"))])
    with pytest.raises(NotComposable, match=r"the shift applies to \(number -> formula\) arrows"):
        pair.shift(RefArrow(Fml(parse("~P(x)")), Num(gn(34152))))


def test_reference_pair_srt1_needs_formula_target():
    pair = reference_pair([(gn(34152), parse("~P(x)"))])
    with pytest.raises(NotSrt1Shape, match="expected a formula target"):
        pair.srt1(RefArrow(Num(gn(34152)), Num(gn(34152))))


# formulas of at most five symbols, so codes stay below 10**5
formulas_with_var = st.builds(lambda a, b: parse(a + "x" + b),
                              st.text(godel.ALPHABET, max_size=2), st.text(godel.ALPHABET, max_size=2))


@given(formulas_with_var)
def test_reference_pair_is_closed_under_the_shift(f):
    pair = reference_pair([(encode(f), f)])
    shifted = pair.shift(pair.axioms[0])
    assert encode(shifted.dst.formula) == shifted.src.number


def rescan_compose(a, b):
    """The earlier compose_morphisms: compose the leftmost defined pair, then rescan from 0."""
    seq = list(godel._flatten(a) + godel._flatten(b))
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            result = godel._compose_pair(seq[i], seq[i + 1])
            if result is not None:
                seq[i : i + 2] = [result]
                changed = True
                break
    return seq[0] if len(seq) == 1 else FormalComposite(tuple(seq))


# small codes and formulas keep every composite's values to a few hundred digits
morphism_atoms = st.sampled_from(
    [SHARP] + [Num(gn(n)) for n in (3, 5, 12, 15, 25, 51, 152)]
    + [Fml(parse(t)) for t in ("x", "P(x)", "~#x", "P", "|||||", "||")]
)
morphisms = st.lists(morphism_atoms, min_size=1, max_size=4).map(
    lambda parts: parts[0] if len(parts) == 1 else FormalComposite(tuple(parts))
)


@given(morphisms, morphisms)
def test_compose_fold_matches_the_leftmost_rescan(a, b):
    assert compose_morphisms(a, b) == rescan_compose(a, b)
