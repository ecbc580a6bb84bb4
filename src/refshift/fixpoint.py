"""A free non-associative applicative algebra with named one-variable maps.

Any term body with a free variable can be named: defining g by g x = body
installs the rewrite Apply(g, t) => body[x := t].  Naming x -> F(xx) and
applying the name to itself gives a term gg that rewrites in one step to
F(gg), so every term F has a fixed point.  That rewrite never terminates as
a whole, so reduction is fuel-bounded and normal-order (leftmost-outermost;
an innermost strategy would loop before exposing even one F).

Terms print fully parenthesized, "(F (g g))".  The parser accepts either
spaced multi-character names or dense single-character juxtaposition: text
containing no spaces, like "a((bx)x)", is read one character at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import InvalidDefinition, VarNotFree


@dataclass(frozen=True)
class Atom:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class FreeVar:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Apply:
    left: "Term"
    right: "Term"

    def __str__(self):
        return f"({self.left} {self.right})"


Term = Union[Atom, FreeVar, Apply]


@dataclass(frozen=True)
class ReflexiveDef:
    """A named map: Apply(name, t) rewrites to body with t for the variable."""

    name: str
    var: str
    body: Term

    def __post_init__(self):
        if not contains_var(self.body, self.var):
            raise VarNotFree(f"variable {self.var!r} does not occur in the body")
        if self.name in atom_names(self.body):
            raise InvalidDefinition(f"definition name {self.name!r} occurs in its own body")


def atom_names(t: Term) -> set[str]:
    if isinstance(t, Atom):
        return {t.name}
    if isinstance(t, Apply):
        return atom_names(t.left) | atom_names(t.right)
    return set()


def contains_var(t: Term, var: str) -> bool:
    if isinstance(t, FreeVar):
        return t.name == var
    if isinstance(t, Apply):
        return contains_var(t.left, var) or contains_var(t.right, var)
    return False


def substitute_term(t: Term, var: str, value: Term) -> Term:
    """Replace FreeVar(var) only; atoms that share the variable's name stay put."""
    if isinstance(t, FreeVar) and t.name == var:
        return value
    if isinstance(t, Apply):
        return Apply(substitute_term(t.left, var, value), substitute_term(t.right, var, value))
    return t


class Rewriter:
    """A mutable registry of definitions with a reduction fuel budget.

    One rewriter is single-threaded; independent rewriters share nothing.
    """

    def __init__(self, fuel: int = 10_000):
        if fuel < 0:
            raise InvalidDefinition("fuel must be non-negative")
        self.fuel = fuel
        self.defs: dict[str, ReflexiveDef] = {}
        self._counter = 0

    def define(self, name: str, var: str, body: Term) -> Atom:
        """Install a definition under an explicit name."""
        if name in self.defs:
            raise InvalidDefinition(f"{name!r} is already defined")
        self.defs[name] = ReflexiveDef(name, var, body)
        return Atom(name)

    def fresh_name(self, avoid: set[str]) -> str:
        taken = set(self.defs) | avoid
        for d in self.defs.values():
            taken |= atom_names(d.body)
        while True:
            candidate = f"g{self._counter}"
            self._counter += 1
            if candidate not in taken:
                return candidate


def reflexive_name(body: Term, var: str, r: Rewriter) -> Atom:
    """Name a one-variable map with a fresh atom and install its rewrite."""
    if not contains_var(body, var):
        raise VarNotFree(f"variable {var!r} does not occur in the body")
    name = r.fresh_name(atom_names(body))
    return r.define(name, var, body)


def fixed_point(F: Term, r: Rewriter) -> Term:
    """The term gg where g names x -> F(xx); one step later it is F(gg)."""
    var = FreeVar("x")
    g = reflexive_name(Apply(F, Apply(var, var)), "x", r)
    return Apply(g, g)


def _step(t: Term, defs: dict[str, ReflexiveDef]):
    """One normal-order (leftmost-outermost) rewrite, or None in normal form."""
    if isinstance(t, Apply):
        if isinstance(t.left, Atom) and t.left.name in defs:
            d = defs[t.left.name]
            return substitute_term(d.body, d.var, t.right)
        left = _step(t.left, defs)
        if left is not None:
            return Apply(left, t.right)
        right = _step(t.right, defs)
        if right is not None:
            return Apply(t.left, right)
    return None


@dataclass(frozen=True)
class ReduceResult:
    term: Term
    steps_used: int
    exhausted: bool  # a redex remained when the step allowance ran out

    def __iter__(self):
        return iter((self.term, self.steps_used))


def reduce(t: Term, r: Rewriter, steps: int) -> ReduceResult:
    """At most `steps` rewrites under the rewriter's definitions."""
    if steps > r.fuel:
        raise InvalidDefinition(f"requested {steps} steps but the fuel budget is {r.fuel}")
    used = 0
    while used < steps:
        nxt = _step(t, r.defs)
        if nxt is None:
            return ReduceResult(t, used, False)
        t = nxt
        used += 1
    return ReduceResult(t, used, _step(t, r.defs) is not None)


def check_fixed_point(F: Term, r: Rewriter) -> bool:
    """One rewrite of the fixed-point term must reproduce Apply(F, that term)."""
    t = fixed_point(F, r)
    return reduce(t, r, 1).term == Apply(F, t)


# --- parsing ---


def _tokenize(text: str) -> list[str]:
    dense = " " not in text and "\t" not in text
    tokens: list[str] = []
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


def parse_term(text: str, var: str | None = None) -> Term:
    """Parse applicative notation; juxtaposition associates to the left.

    Occurrences of `var` become free variables; everything else is an atom.
    """
    tokens = _tokenize(text)
    pos = 0

    def parse_item():
        nonlocal pos
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            inner = parse_seq()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise InvalidDefinition("unbalanced parentheses in term")
            pos += 1
            return inner
        if tok == ")":
            raise InvalidDefinition("unexpected ')' in term")
        pos += 1
        return FreeVar(tok) if tok == var else Atom(tok)

    def parse_seq():
        nonlocal pos
        term = parse_item()
        while pos < len(tokens) and tokens[pos] != ")":
            term = Apply(term, parse_item())
        return term

    if not tokens:
        raise InvalidDefinition("empty term")
    term = parse_seq()
    if pos != len(tokens):
        raise InvalidDefinition("trailing tokens in term")
    return term
