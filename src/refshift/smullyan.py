"""The Smullyan printing machine as a categorical pair.

The base category is the free monoid on {~, P, R, [, ]}, which ``str``
already is, so the machine strings themselves are its morphisms and the
engine loads no word category.  Strings are classified by their leading
marker; the four marked shapes are read as assertions about what the
machine can print: PX about X, RX about XX, with ~ negating.  Each
interpretable string gets a reference arrow to the bracketed assertion it
makes, and semantics is evaluated against a finite printable set.  The
string ~R~R asserts its own unprintability, so a machine that only prints
truths can never print it.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

from .errors import InvalidDefinition
from .value import Derivation, DerivationStep, RefArrow, Value, setfield

if TYPE_CHECKING:
    from .core import Category

ALPHABET = "~PR[]"
FOREIGN = re.compile(f"[^{re.escape(ALPHABET)}]")  # one search finds a string's first foreign symbol


def smullyan_category() -> Category:
    """One object; one generator per alphabet symbol; composition is concatenation."""
    from .core import Category, Generator

    return Category(frozenset({"O"}), tuple(Generator(ch, "O", "O") for ch in ALPHABET))


class Classification(Value):
    def __init__(self, kind: str, body: str):
        setfield(self, "kind", kind)  # one of "P", "~P", "R", "~R"
        setfield(self, "body", body)  # the remainder X, possibly empty


class MachineModel(Value):
    """A machine identified with the finite set of strings it prints."""

    def __init__(self, printable: Iterable[str]):
        setfield(self, "printable", frozenset(printable))


# kind -> (the subject doubles the body, asserted printable): P/~P talk
# about X itself, R/~R about the doubling XX; the ~ forms assert
# unprintability
_KINDS = {
    "P": (False, True),
    "~P": (False, False),
    "R": (True, True),
    "~R": (True, False),
}


def _split(s: str) -> tuple[str, str] | None:
    """(kind, body) for the kind that prefixes s, ~ forms first; else None."""
    kind = s[:2] if s[:1] == "~" else s[:1]
    return (kind, s[len(kind):]) if kind in _KINDS else None


def _claim(s: str) -> tuple[str, bool] | None:
    """(subject, asserted_printable) for an interpretable string, else None:
    the string whose printability s asserts, and whether it asserts it."""
    split = _split(s)
    if split is None:
        return None
    kind, body = split
    doubles, positive = _KINDS[kind]
    return (body + body if doubles else body), positive


def classify(s: str) -> Classification | None:
    """Longest-prefix classification; None when the string is not interpretable.

    ~P and ~R take precedence over bare ~, so "~~R" is not interpretable.
    """
    split = _split(s)
    return None if split is None else Classification(*split)


def reference_arrow(s: str) -> RefArrow | None:
    """The rule arrow for an interpretable string, e.g. RX -> P[XX]; else None.

    Both ends are machine strings.  A symbol outside ALPHABET raises
    InvalidDefinition, naming the first one.
    """
    claim = _claim(s)
    if claim is None:
        return None
    foreign = FOREIGN.search(s)
    if foreign:
        raise InvalidDefinition(f"unknown generator {foreign.group()!r}")
    subject, positive = claim
    prefix = "P" if positive else "~P"
    return RefArrow(s, f"{prefix}[{subject}]")


def semantics(s: str, m: MachineModel) -> bool | None:
    """Truth of s against the machine model; None when s has no meaning."""
    claim = _claim(s)
    if claim is None:
        return None
    subject, positive = claim
    return (subject in m.printable) == positive


def _sweep(printable: frozenset[str]) -> tuple[list[str], dict[str, list[str]]]:
    """Classify every printed string once against `printable`.

    Returns the printed falsehoods, and the printed true positive claims
    (P.../R...) indexed by their subject: the claims that become false if
    that subject is no longer printed.  Each string is read in the loop
    itself, by the rule of `_split` and `_claim`, without calling them or
    building a tuple per string.
    """
    false: list[str] = []
    claims: dict[str, list[str]] = {}
    kinds = _KINDS
    for s in printable:
        kind = s[:2] if s[:1] == "~" else s[:1]
        claim = kinds.get(kind)
        if claim is None:
            continue
        doubles, positive = claim
        subject = s[len(kind):] * 2 if doubles else s[len(kind):]
        if (subject in printable) != positive:
            false.append(s)
        elif positive:
            claims.setdefault(subject, []).append(s)
    return false, claims


def truthfulness_violations(m: MachineModel) -> frozenset[str]:
    """Printed interpretable strings that are false under the model itself."""
    return frozenset(_sweep(m.printable)[0])


def make_truthful(m: MachineModel) -> MachineModel:
    """Shrink a model to a truthful one by discarding printed falsehoods.

    Discarding every printed falsehood at once, and repeating until none is
    left, is the defining process; one sweep and one propagation give the
    same fixed point.  A claim's truth changes only when its subject leaves
    the printed set, and the set only shrinks.  A negative claim false at
    the start is discarded in the first round, even if its subject goes in
    that same round (so {P], ~PP]} becomes {}); a negative claim whose
    subject is gone is true and stays true.  After the first round, then,
    only positive claims go, each once its subject has gone.  So the sweep
    collects the first round's falsehoods and indexes the true positive
    claims by subject, and a worklist discards the claims about each
    discarded string, transitively: O(total string length), however many
    rounds the defining process takes.  The discard list grows while it is
    walked, each string joins it at most once (a claim has one subject), and
    one set difference removes them all.
    """
    gone, claims = _sweep(m.printable)
    for s in gone:
        gone += claims.pop(s, ())
    return MachineModel(m.printable.difference(gone))


SELF_REFUTER = "~R~R"


def goedel_miniature_report() -> Derivation:
    """The truth-but-unprintability argument for ~R~R as a checked derivation.

    Each step re-verifies its claim concretely before it is recorded: the
    one-string model exhibits the violation, and the empty model (like every
    model that omits ~R~R) makes the string true.
    """
    arrow = reference_arrow(SELF_REFUTER)
    assert arrow is not None
    if truthfulness_violations(MachineModel(frozenset({SELF_REFUTER}))) != frozenset({SELF_REFUTER}):
        raise AssertionError("~R~R failed to witness its own violation")
    if semantics(SELF_REFUTER, MachineModel(frozenset())) is not True:
        raise AssertionError("~R~R failed to come out true when unprinted")
    notes = (
        ("axiom", "printing ~R~R asserts that ~R~R is not printable"),
        ("violation", "a machine whose printable set contains ~R~R prints a falsehood, witness ~R~R"),
        ("unprintable", "hence a truthful machine never prints ~R~R"),
        ("true", "every truthful machine omits ~R~R, so ~R~R is true but unprintable"),
    )
    return Derivation(tuple(DerivationStep(rule, arrow, note) for rule, note in notes))
