"""Acceptance gate: one test per shipped criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each test prints its PASS line only after every assertion in it
has held.
"""

import itertools
import random
import time

from refshift import core, fixpoint, godel, lawvere, reflexive, smullyan
from refshift.core import RefArrow, Word
from refshift.errors import NotSurjective
from refshift.godel import GodelNumber


def _ok(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_acceptance_01_godel_worked_example():
    t0 = time.perf_counter()
    formula = godel.parse("~P(x)")
    number = godel.encode(formula)
    assert number == GodelNumber.from_int(34152)
    assert godel.decode(GodelNumber.from_int(34152)) == formula
    sharp = godel.sharp_decimal(GodelNumber.from_int(34152))
    assert sharp.runs == ((3, 1), (4, 1), (1, 1), (6, 34152), (2, 1))
    assert sharp.digit_length == 34156
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    _ok(1, f"encode/decode 34152 and sharp with 34156 digits in {elapsed * 1000:.2f} ms")


def test_acceptance_02_self_refuter():
    t0 = time.perf_counter()
    number, formula = godel.build_self_refuter()
    assert number.runs == ((3, 1), (4, 1), (1, 1), (7, 1), (6, 341752), (2, 1))
    assert number.digit_length == 341757
    assert formula.runs == (("~", 1), ("P", 1), ("(", 1), ("#", 1), ("|", 341752), (")", 1))
    assert godel.encode(formula) == number
    assert godel.decode(number) == formula
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    _ok(2, f"self-refuter 3417 6^341752 2 verified on run-length form in {elapsed * 1000:.2f} ms")


def test_acceptance_03_substitution_coherence():
    rng = random.Random(2024)
    symbols = "()~P|#"
    checked = 0
    for _ in range(200):
        runs = []
        last = None
        for _ in range(rng.randrange(0, 4)):
            ch = rng.choice([c for c in symbols if c != last])
            runs.append((ch, rng.randrange(1, 40)))
            last = ch
        if last == "x":
            runs.pop()
        runs.append(("x", rng.randrange(1, 3)))
        last = "x"
        for _ in range(rng.randrange(0, 4)):
            ch = rng.choice([c for c in symbols if c != last])
            runs.append((ch, rng.randrange(1, 40)))
            last = ch
        formula = godel.Formula(tuple(runs))
        while True:
            n = rng.randrange(1, 1001)
            if all(d in "1234567" for d in str(n)):
                break
        left = godel.encode(godel.substitute(formula, godel.numeral(n)))
        right = godel.compose_numbers(godel.encode(formula), GodelNumber.from_int(n))
        assert left == right, f"coherence failed for {formula} with N={n}"
        checked += 1
    assert checked == 200
    _ok(3, "textual and digit-level substitution agree on 200 random formulas, N <= 1000")


def test_acceptance_04_simplest_closed_form():
    pair = core.simplest_pair()
    sharp = pair.base.sharp_at("O")
    ident = pair.base.identity("O")
    last = 100_000
    seq = core.iterate_shift(pair, RefArrow(ident, ident), last)
    assert seq.stop_reason is None and len(seq) == last
    for k, arrow in enumerate(seq.arrows[:12], start=1):
        n = k * (k - 1) // 2
        expected = RefArrow(
            Word.from_generators((sharp,) * k),
            Word.from_generators((sharp,) * n) if n else ident,
        )
        assert arrow == expected, f"k={k}"
    assert str(seq.arrows[2]) == "### -> ###"  # self-reference at the third step
    # past k = 12 the words are checked through their runs: one run of # a side
    final = seq.arrows[-1]
    assert final.src.runs == ((sharp, last),)
    assert final.dst.runs == ((sharp, last * (last - 1) // 2),)
    assert str(final) == "#^100000 -> #^4999950000"
    _ok(4, "iterated shift from (1 -> 1) is (#^k -> #^(k(k-1)/2)): exact words for k = 1..12, "
           "one run a side at k = 100000")


def test_acceptance_05_srt1_shape():
    rng = random.Random(41)
    for case in range(50):
        names = [chr(ord("a") + i) for i in range(rng.randrange(1, 5))]
        pair = core.category_from_digraph(["O"], [(n, "O", "O") for n in names])
        cat = pair.base
        sharp = cat.sharp_at("O")
        gens = [cat.generator(n) for n in names]

        def word(max_len):
            k = rng.randrange(0, max_len + 1)
            if k == 0:
                return cat.identity("O")
            return Word.from_generators(tuple(rng.choice(gens) for _ in range(k)))

        g, F = word(3), word(3)
        f_sharp = Word(F.gens + (sharp,), "O", "O")
        derivation = core.srt1(pair, RefArrow(g, f_sharp))
        final = derivation.final
        assert final.src.gens == (sharp,) + g.gens, f"case {case}"
        assert final.dst == core.compose(cat, f_sharp, g), f"case {case}"
    russell = core.russell_pair()
    final = core.srt1(russell, core.parse_arrow(russell, "R -> ~ #")).final
    assert str(final) == "#R -> ~#R"
    _ok(5, "srt1 gives (#g -> F#g) on 50 random one-object categories; Russell arrow #R -> ~#R")


def test_acceptance_06_smullyan_miniature():
    assert str(smullyan.reference_arrow("RR")) == "RR -> P[RR]"
    assert str(smullyan.reference_arrow("~R~R")) == "~R~R -> ~P[~R~R]"
    rng = random.Random(271)
    universe = [
        "".join(p)
        for k in range(5)
        for p in itertools.product(smullyan.ALPHABET, repeat=k)
    ]
    truthful_seen = 0
    refuter_models = 0
    for i in range(1000):
        sample = set(rng.sample(universe, rng.randrange(0, 25)))
        if i % 10 == 1:  # odd: survives the truthful-ification of even indices
            sample.add("~R~R")  # keeps the second clause non-vacuous
        model = smullyan.MachineModel(frozenset(sample))
        if i % 2 == 0:
            model = smullyan.make_truthful(model)
        violations = smullyan.truthfulness_violations(model)
        if not violations:
            truthful_seen += 1
            assert "~R~R" not in model.printable
            assert smullyan.semantics("~R~R", model) is True
        if "~R~R" in model.printable:
            refuter_models += 1
            assert violations, "a model printing ~R~R must violate truthfulness"
            assert "~R~R" in violations
    assert truthful_seen >= 400 and refuter_models >= 50
    _ok(
        6,
        f"1000 sampled models: {truthful_seen} truthful all exclude ~R~R and make it true; "
        f"{refuter_models} models printing it all violate",
    )


def test_acceptance_07_cantor_exhaustive():
    t0 = time.perf_counter()
    counts = {}
    for n in (1, 2, 3):
        X = lawvere.FinSet(tuple(f"x{i}" for i in range(n)))
        total = 0
        for F in lawvere.all_curried_maps(X, lawvere.BOOL):
            C = lawvere.cantor_diagonal(F, lawvere.bool_negation())
            assert lawvere.find_representation(F, C) is None
            total += 1
        counts[n] = total
    assert counts == {1: 2, 2: 16, 3: 512}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    _ok(7, f"negation diagonal unrepresented in all {sum(counts.values())} tables in {elapsed:.3f} s")


def test_acceptance_08_lawvere_soundness():
    rng = random.Random(1009)
    accepted = 0
    attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 500_000, "rejection sampling failed to find representable instances"
        n, zsize = rng.randrange(1, 4), rng.randrange(1, 4)
        X = lawvere.FinSet(tuple(f"x{i}" for i in range(n)))
        Z = lawvere.FinSet(tuple(str(i) for i in range(zsize)))
        F = lawvere.CurriedMap(
            X, Z, tuple(tuple(rng.choice(Z.elements) for _ in range(n)) for _ in range(n))
        )
        alpha = lawvere.FinMap(Z, Z, tuple(rng.choice(Z.elements) for _ in range(zsize)))
        if lawvere.find_representation(F, lawvere.cantor_diagonal(F, alpha)) is None:
            continue
        value, witness = lawvere.lawvere_fixed_point(F, alpha)
        assert alpha(value) == value
        assert value == F.row(witness)(witness)
        accepted += 1

    refused = 0
    for n in (1, 2, 3):
        X = lawvere.FinSet(tuple(f"x{i}" for i in range(n)))
        for F in lawvere.all_curried_maps(X, lawvere.BOOL):
            try:
                lawvere.lawvere_fixed_point(F, lawvere.bool_negation())
                raise AssertionError("negation cannot acquire a fixed point")
            except NotSurjective:
                refused += 1
    assert refused == 2 + 16 + 512

    X3 = lawvere.FinSet(("p", "q", "r"))
    compared = 0
    for F in lawvere.all_curried_maps(X3, lawvere.BOOL):
        for table in itertools.product(lawvere.BOOL.elements, repeat=2):
            alpha = lawvere.FinMap(lawvere.BOOL, lawvere.BOOL, table)
            pointwise = lawvere.FinMap(
                X3, lawvere.BOOL, tuple(alpha(F.row(x)(x)) for x in X3)
            )
            assert lawvere.diagonal_via_delta(F, alpha) == pointwise
            compared += 1
    assert compared == 2048
    _ok(
        8,
        "1000 representable diagonals all yield alpha-fixed points; negation refused in all "
        f"{refused} exhaustive cases; delta route agrees on {compared} instances",
    )


def test_acceptance_09_three_valued_escape():
    X = lawvere.FinSet(("p", "q"))
    representable = 0
    tables = 0
    for F in lawvere.all_curried_maps(X, lawvere.TRI):
        tables += 1
        report = lawvere.three_valued_diagonal_analysis(F)
        for z in report.representations:
            assert F.row(z)(z) == "J"
        representable += bool(report.representations)
    assert tables == 81
    assert representable >= 1
    _ok(9, f"all 81 three-valued tables: every representation sits at J ({representable} witnessed)")


def test_acceptance_10_church_curry():
    rng = random.Random(77)

    def random_term(depth):
        if depth == 0 or rng.random() < 0.35:
            return fixpoint.Atom(rng.choice("abcF"))
        return fixpoint.Apply(random_term(depth - 1), random_term(depth - 1))

    for case in range(200):
        F = random_term(5)
        assert fixpoint.check_fixed_point(F, fixpoint.Rewriter()), f"case {case}: {F}"

    r = fixpoint.Rewriter()
    F = fixpoint.Atom("F")
    t = fixpoint.fixed_point(F, r)
    assert fixpoint.reduce(t, r, 3).term == fixpoint.Apply(
        F, fixpoint.Apply(F, fixpoint.Apply(F, t))
    )
    _ok(10, "fixed points verified for 200 random terms of depth <= 5; gg reduces to F(F(F(gg)))")


def test_acceptance_11_reflexive_categories():
    trefoil = reflexive.build(reflexive.TREFOIL)
    link = reflexive.build(reflexive.LINK)
    assert reflexive.is_reflexive(trefoil)
    assert reflexive.is_reflexive(link)
    words = reflexive.enumerate_composites(link, 2)
    assert {str(w) for w in words} == {"A", "B", "AA", "BB"}
    # brute-force the chaining table over all four ordered pairs
    table = {g.name: (g.dom, g.cod) for g in link.category.generators}
    chainable = {
        first + second
        for first, second in itertools.product("AB", repeat=2)
        if table[first][0] == table[second][1]
    }
    assert chainable == {"AA", "BB"}
    _ok(11, "trefoil and link categories reflexive; link words at length 2 are {A, B, AA, BB}")
