"""A seven-symbol formal language with decimal Goedel coding.

Symbols ( ) ~ P x | # map to digits 1..7; the code of a formula is the
digit string of its symbols read in decimal.  Substituting a number g into
the variable x replaces it with a run of g vertical slashes, so at the digit
level every 5 becomes a run of value(g) sixes.  Those runs reach hundreds of
thousands of digits, so both formulas and numbers are maximal (symbol,
count) / (digit, count) runs, built and checked by refshift.runs in one
class body that Formula and GodelNumber share.  Counts are ordinary Python
integers; nothing is ever expanded to unary, and digit strings are only
materialized on demand.

The sharp operation is self-substitution: sharp(g) composes g with itself,
giving the code of the decoded formula applied to its own numeral.  Applied
to the code of ~P(#x) this produces a formula that talks about its own code.

Reference arrows (code -> formula) are value.RefArrows, shifted by value.shift
with compose_morphisms and SHARP, so no word category is loaded: (g -> F)
becomes (#g -> Fg).
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import (
    EmptyFormula,
    InvalidAxiom,
    InvalidSymbol,
    MaterializeTooLarge,
    NoFreeVariable,
    NotComposable,
    NotSrt1Shape,
)
from .runs import check_runs, count_text, merge_runs, parse_glued, read_count, render, runs_of
from .value import Derivation, RefArrow, Value, setfield, shift, shift_derivation

ALPHABET = "()~Px|#"
CHAR_TO_DIGIT = {ch: i + 1 for i, ch in enumerate(ALPHABET)}
DIGIT_TO_CHAR = {i + 1: ch for i, ch in enumerate(ALPHABET)}

_MATERIALIZE_CAP = 10**6


class _Runs(Value):
    """Maximal (name, count) runs over the alphabet NAMES; a nonempty EMPTY is the error for no runs."""

    EMPTY = ""

    def __init__(self, runs):
        runs = check_runs(runs, self.NAMES, InvalidSymbol)
        if self.EMPTY and not runs:
            raise InvalidSymbol(self.EMPTY)
        setfield(self, "runs", runs)

    @classmethod
    def from_runs(cls, runs):
        return cls(merge_runs(runs, InvalidSymbol)[0])

    @property
    def length(self) -> int:
        return sum(count for _, count in self.runs)

    def text(self, cap: int = _MATERIALIZE_CAP) -> str:
        if self.length > cap:
            raise MaterializeTooLarge(
                f"{count_text(self.length)} symbols exceed the materialize cap of {cap}")
        return "".join(str(name) * count for name, count in self.runs)


class Formula(_Runs):
    """A run-length encoded string over the seven-symbol alphabet."""

    NAMES = CHAR_TO_DIGIT

    @property
    def has_var(self) -> bool:
        return any(ch == "x" for ch, _ in self.runs)

    @property
    def is_numeral(self) -> bool:
        return len(self.runs) == 1 and self.runs[0][0] == "|"

    def __str__(self):
        return render(self.runs)


def parse(text: str) -> Formula:
    """Tokenize plain alphabet text; every alphabet string is a formula."""
    return Formula(runs_of(text))


def parse_compact(text: str) -> Formula:
    """Parse display text that may compress runs as in "~P(#|^341752)"."""
    return Formula.from_runs(parse_glued(text, InvalidSymbol))


def numeral(n: int) -> Formula:
    """The in-language number n: a run of n slashes."""
    if n < 1:
        raise EmptyFormula("numerals start at 1; zero has no slash representation")
    return Formula((("|", n),))


class GodelNumber(_Runs):
    """A decimal number over digits 1..7, run-length encoded."""

    NAMES = DIGIT_TO_CHAR
    EMPTY = "a Goedel number has at least one digit"

    @classmethod
    def from_int(cls, n: int) -> "GodelNumber":
        if n < 1:
            raise InvalidSymbol("Goedel numbers are positive")
        return cls.from_digits(count_text(n))

    @classmethod
    def from_digits(cls, digits: str) -> "GodelNumber":
        return cls(tuple((int(d), count) for d, count in runs_of(digits)))

    @classmethod
    def from_wire(cls, text: str) -> "GodelNumber":
        """Parse the wire format: whitespace-separated "dxN" runs or digit groups."""
        runs: list[tuple[int, int]] = []
        for tok in text.split():
            if "x" in tok:
                digit, _, count = tok.partition("x")
                if len(digit) != 1 or not (digit.isascii() and digit.isdigit()):
                    raise InvalidSymbol(f"bad run token {tok!r}; expected dxN")
                runs.append((int(digit), read_count(count, tok, InvalidSymbol)))
            else:
                if not (tok.isascii() and tok.isdigit()):  # isdigit() alone also takes '²'
                    raise InvalidSymbol(f"bad digit token {tok!r}")
                runs.extend((int(d), 1) for d in tok)
        return cls.from_runs(runs)

    digit_length = _Runs.length
    digits = _Runs.text

    @property
    def has_five(self) -> bool:
        return any(d == 5 for d, _ in self.runs)

    def value(self) -> int:
        """The numeric value, evaluated on the runs without expanding digits.

        Each distinct run length c gets one power 10**c, formed as 5**c << c,
        which serves both the run's shift and its repunit d*(10**c - 1)//9,
        so the cost is one power per distinct run length plus one multiply
        per run.  The pass that collects the run lengths also sums them, so
        a value past the materialize cap is refused before any power is
        formed.  Nothing is kept between calls.
        """
        powers = {}
        length = 0
        for _, count in self.runs:
            length += count
            powers[count] = None
        if length > _MATERIALIZE_CAP:
            raise MaterializeTooLarge(
                f"a value of {count_text(length)} digits exceeds the materialize cap of {_MATERIALIZE_CAP}")
        for count in powers:
            powers[count] = 5**count << count
        v = 0
        for digit, count in self.runs:
            q = powers[count]
            v = v * q + digit * (q - 1) // 9
        return v

    def wire(self) -> str:
        """Wire format: runs of one as grouped digits, longer runs as dxN ("341 6x34152 2")."""
        pieces = []
        singles = []
        for digit, count in self.runs:
            if count == 1:
                singles.append(str(digit))
            else:
                if singles:
                    pieces.append("".join(singles))
                    singles = []
                pieces.append(f"{digit}x{count_text(count)}")
        if singles:
            pieces.append("".join(singles))
        return " ".join(pieces)

    def __str__(self):
        return self.wire()


def encode(f: Formula) -> GodelNumber:
    """Digit code of a nonempty formula; runs carry over one-for-one."""
    if not f.runs:
        raise EmptyFormula("the empty formula has no Goedel number")
    return GodelNumber(tuple((CHAR_TO_DIGIT[ch], count) for ch, count in f.runs))


def decode(g: GodelNumber) -> Formula:
    return Formula(tuple((DIGIT_TO_CHAR[d], count) for d, count in g.runs))


def compose_numbers(n: GodelNumber, m: GodelNumber) -> GodelNumber:
    """Replace every digit 5 in n by value(m) consecutive sixes.

    This is the digit-level image of substituting m's numeral for the
    variable; when n has no 5 the composition leaves n untouched.
    """
    if not n.has_five:
        return n
    count = m.value()
    runs = []
    for digit, k in n.runs:
        runs.append((6, k * count) if digit == 5 else (digit, k))
    return GodelNumber.from_runs(runs)


def sharp_decimal(g: GodelNumber) -> GodelNumber:
    """Self-substitution on digit strings: sharp(g) = g composed with itself."""
    return compose_numbers(g, g)


def substitute(s: Formula, t: Formula) -> Formula:
    """Replace every occurrence of the variable x in s by the formula t."""
    if not s.has_var:
        raise NoFreeVariable(f"{s} has no occurrence of the variable x")
    runs: list[tuple[str, int]] = []
    for ch, count in s.runs:
        if ch != "x":
            runs.append((ch, count))
        elif len(t.runs) == 1:
            # x^k over one run (c, n) is the one run (c, n*k); from_runs merges the seams
            (c, n), = t.runs
            runs.append((c, n * count))
        else:
            for _ in range(count):
                runs.extend(t.runs)
    return Formula.from_runs(runs)


# --- the coding category: formulas, outside numbers, and the sharp operator ---


class Fml(Value):
    def __init__(self, formula: Formula):
        setfield(self, "formula", formula)

    def __str__(self):
        return str(self.formula)


class Num(Value):
    def __init__(self, number: GodelNumber):
        setfield(self, "number", number)

    def __str__(self):
        return str(self.number)


class SharpOp(Value):
    def __str__(self):
        return "#"


SHARP = SharpOp()


class FormalComposite(Value):
    """A composition the language leaves unevaluated, kept flat for associativity."""

    def __init__(self, parts: Iterable[LMorphism]):
        parts = tuple(parts)
        if len(parts) < 2:
            raise InvalidSymbol("a formal composite has at least two factors")
        if any(isinstance(p, FormalComposite) for p in parts):
            raise InvalidSymbol("formal composites must be flattened")
        setfield(self, "parts", parts)

    def __str__(self):
        return " o ".join(str(p) for p in self.parts)


LMorphism = Union[Fml, Num, SharpOp, FormalComposite]


def _numeral_code(f: Formula):
    """The slash count of a numeral as a GodelNumber, if its digits allow one."""
    count = f.runs[0][1]
    try:
        return GodelNumber.from_int(count)
    except InvalidSymbol:
        return None


def _compose_pair(a: LMorphism, b: LMorphism):
    """One defined composition step, or None when the pair stays formal."""
    if isinstance(a, Fml):
        if isinstance(b, Fml) and a.formula.has_var:
            return Fml(substitute(a.formula, b.formula))
        if isinstance(b, Num) and a.formula.has_var:
            return Fml(substitute(a.formula, numeral(b.number.value())))
        return None
    if isinstance(a, Num):
        if isinstance(b, Num) and a.number.has_five:
            return Num(compose_numbers(a.number, b.number))
        return None
    if isinstance(a, SharpOp):
        if isinstance(b, Num):
            return Num(sharp_decimal(b.number)) if b.number.has_five else None
        if isinstance(b, Fml) and b.formula.is_numeral:
            code = _numeral_code(b.formula)
            if code is not None and code.has_five:
                return Fml(numeral(sharp_decimal(code).value()))
        return None
    return None


def _flatten(m: LMorphism) -> tuple[LMorphism, ...]:
    return m.parts if isinstance(m, FormalComposite) else (m,)


def compose_morphisms(a: LMorphism, b: LMorphism) -> LMorphism:
    """Compose two morphisms of the coding category.

    Defined cases: substitution into a formula with a free variable (of a
    formula, numeral, or outside number), digit composition of numbers whose
    left factor has a 5, and sharp applied to such numbers or to numerals
    standing for them.  Everything else is a formal composite; composites
    are flattened and folded left to right, each result retried against its
    left neighbour, so the leftmost defined composition always goes first and
    associativity and reassociations like (S(x) o #) o g = S(#g) hold.
    """
    stack: list[LMorphism] = []
    for part in _flatten(a) + _flatten(b):
        while stack and (result := _compose_pair(stack[-1], part)) is not None:
            stack.pop()
            part = result
        stack.append(part)
    return stack[0] if len(stack) == 1 else FormalComposite(tuple(stack))


# --- reference arrows from numbers to the formulas they code ---


class GodelPair(Value):
    """Finite axiom arrows (code -> formula), closed under the shift."""

    def __init__(self, axioms: tuple[RefArrow, ...]):
        setfield(self, "axioms", axioms)

    def shift(self, arrow: RefArrow) -> RefArrow:
        """(g -> F) becomes (sharp g -> F with g's numeral substituted)."""
        if not isinstance(arrow.src, Num) or not isinstance(arrow.dst, Fml):
            raise NotComposable("the shift applies to (number -> formula) arrows")
        if not arrow.src.number.has_five:
            raise NotComposable("the coded formula has no free variable, so no shift applies")
        return shift(compose_morphisms, SHARP, arrow)

    def srt1(self, arrow: RefArrow) -> Derivation:
        """Shift an axiom whose formula mentions #x, yielding self-description."""
        if not isinstance(arrow.dst, Fml):
            raise NotSrt1Shape("expected a formula target")
        runs = arrow.dst.formula.runs
        if not any(a == "#" and b == "x" for (a, _), (b, _) in zip(runs, runs[1:])):
            raise NotSrt1Shape(f"{arrow.dst} does not apply # to its variable")
        return shift_derivation(arrow, self.shift(arrow), "shift")


def reference_pair(axioms: Iterable[tuple[GodelNumber, Formula]]) -> GodelPair:
    """Validate axiom arrows (number must code the formula) and build the pair."""
    checked = []
    for g, f in axioms:
        if encode(f) != g:
            raise InvalidAxiom(f"{g.wire()} is not the code of {f}")
        checked.append(RefArrow(Num(g), Fml(f)))
    return GodelPair(tuple(checked))


SELF_REFUTER_SEED = 341752  # code of ~P(#x)


def self_refuter_derivation() -> Derivation:
    """srt1 of the axiom (341752 -> ~P(#x)) in the coding category.

    The shift takes 341752 to its sharp and ~P(#x) to ~P(# |^341752), whose
    code is that very sharp, so the final arrow is the self-refuter.  The
    round trip is verified on run-length form without materializing digits.
    """
    pair = reference_pair([(GodelNumber.from_int(SELF_REFUTER_SEED), parse("~P(#x)"))])
    derivation = pair.srt1(pair.axioms[0])
    final = derivation.final
    if encode(final.dst.formula) != final.src.number:
        raise AssertionError("self-refuter round trip failed")
    return derivation


def build_self_refuter() -> tuple[GodelNumber, Formula]:
    """The formula asserting its own code's unprintability, with that code:
    the final arrow of self_refuter_derivation()."""
    final = self_refuter_derivation().final
    return final.src.number, final.dst.formula
