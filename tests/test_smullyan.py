import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from refshift import smullyan
from refshift.errors import InvalidDefinition
from refshift.smullyan import (
    Classification,
    MachineModel,
    classify,
    goedel_miniature_report,
    make_truthful,
    reference_arrow,
    semantics,
    truthfulness_violations,
)

machine_strings = st.text(alphabet=smullyan.ALPHABET, max_size=8)


def model_of(*strings) -> MachineModel:
    return MachineModel(frozenset(strings))


# --- classification ---


@pytest.mark.parametrize(
    "s,kind,body",
    [
        ("~R~R", "~R", "~R"),
        ("RR", "R", "R"),
        ("PX", None, None),  # X is not in the alphabet, but classify only reads the prefix
        ("P", "P", ""),
        ("~P[]", "~P", "[]"),
        ("R[R]", "R", "[R]"),
    ],
)
def test_classify_prefixes(s, kind, body):
    c = classify(s)
    if kind is None and s == "PX":
        # prefix P matches; remainder is whatever follows
        assert c == Classification("P", "X")
    elif kind is None:
        assert c is None
    else:
        assert c == Classification(kind, body)


@pytest.mark.parametrize("s", ["[]", "", "~~R", "~", "]["])
def test_classify_not_interpretable(s):
    assert classify(s) is None


@given(machine_strings)
def test_classify_total_and_tilde_prefix(s):
    c = classify(s)
    assert c is None or c.kind in ("P", "~P", "R", "~R")
    tilde = classify("~" + s)
    # never a bare-tilde reading: either a negated kind or nothing
    assert tilde is None or tilde.kind in ("~P", "~R")


# --- reference arrows ---


def test_reference_arrows_exact():
    assert str(reference_arrow("RR")) == "RR -> P[RR]"
    assert str(reference_arrow("~R~R")) == "~R~R -> ~P[~R~R]"
    assert str(reference_arrow("P[]")) == "P[] -> P[[]]"
    assert str(reference_arrow("~P~P")) == "~P~P -> ~P[~P]"
    assert str(reference_arrow("P]]]]")) == "P]]]] -> P[]]]]]"  # literally, not as ]^4
    assert reference_arrow("]]") is None


@given(st.text(alphabet=smullyan.ALPHABET + "x^ ", max_size=12))
@example("P]]]]")
@example("Px^P")
@example("x~R")
def test_reference_arrow_is_none_a_refusal_or_an_arrow_that_agrees_with_classify(s):
    c = classify(s)
    foreign = [ch for ch in s if ch not in smullyan.ALPHABET]
    if c is None:  # no check: a string with no meaning names no morphism
        assert reference_arrow(s) is None
    elif foreign:
        with pytest.raises(InvalidDefinition) as refusal:
            reference_arrow(s)
        assert str(refusal.value) == f"unknown generator {foreign[0]!r}"
    else:
        arrow = reference_arrow(s)
        subject = c.body * 2 if c.kind.endswith("R") else c.body
        prefix = "~P" if c.kind.startswith("~") else "P"
        assert (arrow.src, arrow.dst) == (s, f"{prefix}[{subject}]")


def test_rule_three_substitution_consistency():
    # the R-rule template with remainder R is exactly the indirect self-reference
    c = classify("RR")
    assert c == Classification("R", "R")
    arrow = reference_arrow("RR")
    assert (arrow.src, arrow.dst) == ("RR", "P[RR]")


# --- semantics ---


def test_semantics_cases():
    assert semantics("~R~R", model_of()) is True
    assert semantics("PR", model_of("R")) is True
    assert semantics("PR", model_of()) is False
    assert semantics("[[", model_of("[[")) is None
    assert semantics("~R~R", model_of("~R~R")) is False  # XX = ~R~R is printed


def test_semantics_r_doubles():
    assert semantics("RR", model_of("RR")) is True  # asserts RR printable
    assert semantics("RRR", model_of("RRRR")) is True  # X = RR doubled
    assert semantics("~RR", model_of("RR")) is False


# --- truthfulness ---


def test_violations_empty_model():
    assert truthfulness_violations(model_of()) == frozenset()


def test_violation_of_self_refuter():
    assert truthfulness_violations(model_of("~R~R")) == frozenset({"~R~R"})


def test_violations_r_members_case_by_case():
    # brute-force oracle: re-evaluate each printed string by hand
    model = model_of("RR", "RRRR")
    expected = set()
    for s in model.printable:
        c = classify(s)
        if c is None:
            continue
        subject = c.body + c.body if c.kind in ("R", "~R") else c.body
        holds = (subject in model.printable) == (not c.kind.startswith("~"))
        if not holds:
            expected.add(s)
    assert truthfulness_violations(model) == frozenset(expected)
    # concretely: RR asserts RR (printed, fine), RRRR asserts RRRRRR (absent)
    assert truthfulness_violations(model) == frozenset({"RRRR"})


def test_model_of_rr_alone_is_truthful():
    assert truthfulness_violations(model_of("RR")) == frozenset()


def rounds_oracle(printable: frozenset[str]) -> frozenset[str]:
    """make_truthful's defining process: drop every printed falsehood at once, until none is left."""
    printable = set(printable)
    while True:
        model = model_of(*printable)
        bad = {s for s in printable if semantics(s, model) is False}
        if not bad:
            return frozenset(printable)
        printable -= bad


def test_make_truthful_reaches_fixed_point():
    rng = random.Random(7)
    universe = ["".join(p) for k in range(5) for p in itertools.product(smullyan.ALPHABET, repeat=k)]
    for _ in range(50):
        sample = rng.sample(universe, rng.randrange(0, 30))
        truthful = make_truthful(MachineModel(frozenset(sample)))
        assert truthfulness_violations(truthful) == frozenset()
        assert truthful.printable == rounds_oracle(frozenset(sample))


@st.composite
def talking_universes(draw):
    """Machine strings, each either free or a claim about (a prefix or half of) an earlier one."""
    strings: list[str] = []
    for _ in range(draw(st.integers(0, 16))):
        if strings and draw(st.booleans()):
            x = draw(st.sampled_from(strings))
            body = draw(st.sampled_from([x, x[: len(x) // 2], x[: draw(st.integers(0, len(x)))]]))
            strings.append(draw(st.sampled_from(["P", "~P", "R", "~R"])) + body)
        else:
            strings.append(draw(machine_strings))
    return frozenset(strings)


def chain(links: int) -> frozenset[str]:
    """P], PP], PPP], ...: each claims the previous is printed, and ] is not."""
    return frozenset("P" * k + "]" for k in range(1, links + 1))


@given(talking_universes(), st.none())
@example(frozenset({"P]", "~PP]"}), frozenset())  # both false at the start, so both go at once
@example(frozenset({"P]", "~PP]", "]"}), frozenset({"P]", "]"}))
@example(chain(2000), frozenset())  # 2000 rounds of the oracle: the expected set is pinned instead
def test_make_truthful_matches_rounds_oracle(printable, expected):
    if expected is None:
        expected = rounds_oracle(printable)
    assert make_truthful(MachineModel(printable)).printable == expected


def _model_sweep(printable):
    """_sweep's two results, read off _claim one string at a time."""
    false, claims = [], {}
    for s in printable:
        claim = smullyan._claim(s)
        if claim is None:
            continue
        subject, positive = claim
        if (subject in printable) != positive:
            false.append(s)
        elif positive:
            claims.setdefault(subject, []).append(s)
    return false, claims


@given(st.one_of(talking_universes(), st.frozensets(st.text(alphabet=smullyan.ALPHABET + "X"), max_size=12)))
@example(frozenset({"", "~", "~~R", "R", "~R", "P", "~P", "RX", "XP"}))
def test_sweep_agrees_with_claim(printable):
    assert smullyan._sweep(printable) == _model_sweep(printable)


# --- arrow/semantics coherence ---


@given(machine_strings, st.frozensets(machine_strings, max_size=6))
@example("P]]]]", frozenset())  # a run of four must print literally, not as ]^4
def test_arrow_matches_semantics(s, printable):
    arrow = reference_arrow(s)
    model = MachineModel(printable)
    if arrow is None:
        assert semantics(s, model) is None
        return
    text = str(arrow.dst)
    assert text.endswith("]")
    negated = text.startswith("~")
    subject = text[(2 if negated else 1) + 1 : -1]
    assert semantics(s, model) is ((subject in printable) != negated)


def test_arrow_chains_compose_vertically():
    # stacking the bracketing arrow on its own output: PX -> P[X] -> P[[X]]
    first = reference_arrow("P]")  # body "]"
    second = reference_arrow("P[]]")  # the codomain string, classified afresh
    assert str(first) == "P] -> P[]]"
    assert str(second) == "P[]] -> P[[]]]"
    assert first.dst == second.src  # so the two stack into P] -> P[[]]]


# --- the miniature incompleteness report ---


def test_report_names_the_self_refuter():
    report = goedel_miniature_report()
    assert [s.rule for s in report.steps] == ["axiom", "violation", "unprintable", "true"]
    assert str(report.steps[0].arrow) == "~R~R -> ~P[~R~R]"
    assert report.steps[-1].note.endswith("~R~R is true but unprintable")


def test_sampled_truthful_models_exclude_self_refuter():
    rng = random.Random(99)
    universe = ["".join(p) for k in range(5) for p in itertools.product(smullyan.ALPHABET, repeat=k)]
    for _ in range(100):
        sample = frozenset(rng.sample(universe, rng.randrange(0, 25)))
        model = MachineModel(sample)
        if truthfulness_violations(model):
            continue
        assert "~R~R" not in model.printable
        assert semantics("~R~R", model) is True
