"""A free non-associative applicative algebra with named one-variable maps.

Any term body with a free variable can be named: defining g by g x = body
installs the rewrite Apply(g, t) => body[x := t].  Naming x -> F(xx) and
applying the name to itself gives a term gg that rewrites in one step to
F(gg), so every term F has a fixed point.  That rewrite never terminates as
a whole, so reduction is fuel-bounded and normal-order (leftmost-outermost;
an innermost strategy would loop before exposing even one F).

A definition compiles its body once into a template, the nodes above the
variable; a rewrite builds only those and shares the body's var-free parts,
such as F, into the result, so a step of the fixed-point tower builds two
nodes whatever the size of F.

Terms print fully parenthesized, "(F (g g))".  The parser accepts either
spaced multi-character names or dense single-character juxtaposition: text
containing no spaces, like "a((bx)x)", is read one character at a time.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import InvalidDefinition, VarNotFree
from .value import Value, setfield


class Atom(Value):
    def __init__(self, name: str):
        setfield(self, "name", name)

    def __str__(self):
        return self.name


class FreeVar(Value):
    def __init__(self, name: str):
        setfield(self, "name", name)

    def __str__(self):
        return self.name


class Apply(Value):
    def __init__(self, left: Term, right: Term):
        setfield(self, "left", left)
        setfield(self, "right", right)

    def __str__(self):
        return "".join([x if type(x) is str else x.name for x in _tokens(self)])

    def __repr__(self):
        return f"Apply{self}"

    def __eq__(self, other):
        """Structural equality without recursion; shared subterms compare by identity."""
        if type(other) is not Apply:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is Apply and type(b) is Apply:
                todo += ((a.right, b.right), (a.left, b.left))
            elif a != b:
                return False
        return True

    def __hash__(self):
        # computed when asked, not at construction, so building terms stays cheap
        return hash(tuple(_tokens(self)))


Term = Union[Atom, FreeVar, Apply]


class ReflexiveDef(Value):
    """A named map: Apply(name, t) rewrites to body with t for the variable.

    The body is compiled once into a template: the Apply nodes that sit
    above an occurrence of the variable, in post-order.  A rewrite builds
    those nodes and no others; every var-free child of the body is shared
    into the result as the body's own object.
    """

    __slots__ = ("_shared", "_spine", "_atoms")

    def __init__(self, name: str, var: str, body: Term):
        template = _template(body, var)
        if template is None:
            raise VarNotFree(f"variable {var!r} does not occur in the body")
        if name in template[2]:
            raise InvalidDefinition(f"definition name {name!r} occurs in its own body")
        setfield(self, "name", name)
        setfield(self, "var", var)
        setfield(self, "body", body)
        setfield(self, "_shared", template[0])
        setfield(self, "_spine", template[1])
        setfield(self, "_atoms", template[2])


def _template(body: Term, var: str) -> tuple[tuple[Term, ...], tuple[tuple[int, int], ...], set[str]] | None:
    """(shared, spine, atom names) for body, or None when `var` does not occur in it.

    An instance is built in one list of nodes: slot 0 holds the argument,
    slots 1..len(shared) the var-free children, and each (i, j) of the
    spine appends Apply(nodes[i], nodes[j]); the last node is the instance.
    A subterm that occurs at several places (by identity) gets one slot.
    The same walk, post-order and without recursion, gathers the names of
    the body's atoms, so a definition walks its body once.
    """
    atoms: set[str] = set()
    shared: list[Term] = []
    slot_of_shared: dict[int, int] = {}
    spine: list[tuple[int, int]] = []
    # id of a walked node -> its slot: 0 for the variable, -(j + 1) for spine
    # node j (renumbered at the end), None when the node is var-free
    slot: dict[int, int | None] = {}
    todo: list = [body]
    while todo:
        x = todo.pop()
        if x is None:  # both children of the next node are done
            x = todo.pop()
            pair = [slot[id(x.left)], slot[id(x.right)]]
            if pair == [None, None]:
                slot[id(x)] = None
                continue
            for k, child in enumerate((x.left, x.right)):
                if pair[k] is None:
                    if id(child) not in slot_of_shared:
                        shared.append(child)
                        slot_of_shared[id(child)] = len(shared)
                    pair[k] = slot_of_shared[id(child)]
            spine.append(tuple(pair))
            slot[id(x)] = -len(spine)
        elif id(x) in slot:
            continue
        elif type(x) is Apply:
            todo += (x, None, x.right, x.left)
        elif type(x) is Atom:
            atoms.add(x.name)
            slot[id(x)] = None
        else:
            slot[id(x)] = 0 if type(x) is FreeVar and x.name == var else None
    if slot[id(body)] is None:
        return None
    m = len(shared)
    return tuple(shared), tuple((i if i >= 0 else m - i, j if j >= 0 else m - j) for i, j in spine), atoms


def _tokens(t: Term) -> list:
    """The printed form of t as a flat list, without recursion: the strings
    "(", " " and ")" between the Atom and FreeVar leaves, left to right."""
    out: list = []
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is Apply:
            out.append("(")
            todo += (")", x.right, " ", x.left)
        else:
            out.append(x)
    return out


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
        self._taken: set[str] = set()  # every defined name and every atom of a body

    def define(self, name: str, var: str, body: Term) -> Atom:
        """Install a definition under an explicit name."""
        if name in self.defs:
            raise InvalidDefinition(f"{name!r} is already defined")
        d = self.defs[name] = ReflexiveDef(name, var, body)
        self._taken.add(name)
        self._taken |= d._atoms
        return Atom(name)

    def check_steps(self, steps: int) -> None:
        """Refuse a request for more reduction steps than the fuel budget."""
        if steps > self.fuel:
            raise InvalidDefinition(f"requested {steps} steps but the fuel budget is {self.fuel}")

    def fresh_name(self, avoid: set[str]) -> str:
        """The next unused g<k>: no defined name, no atom of a body, nothing in avoid."""
        while True:
            candidate = f"g{self._counter}"
            self._counter += 1
            if candidate not in self._taken and candidate not in avoid:
                return candidate


def reflexive_name(body: Term, var: str, r: Rewriter) -> Atom:
    """Name a one-variable map with a fresh atom and install its rewrite."""
    leaves = _tokens(body)  # one walk for both checks
    if not any(type(x) is FreeVar and x.name == var for x in leaves):
        raise VarNotFree(f"variable {var!r} does not occur in the body")
    name = r.fresh_name({x.name for x in leaves if type(x) is Atom})
    return r.define(name, var, body)


def fixed_point(F: Term, r: Rewriter) -> Term:
    """The term gg where g names x -> F(xx); one step later it is F(gg)."""
    var = FreeVar("x")
    g = reflexive_name(Apply(F, Apply(var, var)), "x", r)
    return Apply(g, g)


class ReduceResult(Value):
    def __init__(self, term: Term, steps_used: int, exhausted: bool):
        setfield(self, "term", term)
        setfield(self, "steps_used", steps_used)
        setfield(self, "exhausted", exhausted)  # a redex remained when the step allowance ran out


def reduce(t: Term, r: Rewriter, steps: int) -> ReduceResult:
    """At most `steps` normal-order (leftmost-outermost) rewrites.

    One pre-order search over an explicit path (a zipper) visits the term:
    `path` holds (parent, right) for each Apply above the focus, with
    `right` true where the focus is the parent's right child.  A rewrite
    replaces the focus with an instance of the definition's template and
    the search resumes there, since every redex before it in normal order
    was already ruled out.  The one exception is a rewrite that leaves a
    defined atom as a left child: its parent is then the next redex.
    Ancestors are rebuilt on the way up, and only when a child changed.

    So k steps build O(k * spine) nodes, where the spine is the body's
    nodes above the variable, and search the nodes before each redex in
    normal order.  A var-free part shared into an instance is searched
    again wherever it is met: the fixed-point tower of F builds two nodes a
    step but searches F at every level, O(|F| * k) in all.  Nothing
    recurses.
    """
    r.check_steps(steps)
    defs = r.defs
    path: list[tuple[Apply, bool]] = []
    focus = t
    used = 0
    while True:
        # advance the focus to the next redex in pre-order, if any
        while True:
            if type(focus) is Apply:
                left = focus.left
                if type(left) is Atom and left.name in defs:
                    break
                if type(left) is Apply:
                    path.append((focus, False))
                    focus = left
                else:  # a leaf holds no redex
                    path.append((focus, True))
                    focus = focus.right
                continue
            while path:
                parent, right = path.pop()
                if right:
                    focus = parent if focus is parent.right else Apply(parent.left, focus)
                    continue
                if focus is not parent.left:
                    parent = Apply(focus, parent.right)
                path.append((parent, True))
                focus = parent.right
                break
            else:
                return ReduceResult(focus, used, False)
        if used >= steps:
            break
        d = defs[focus.left.name]
        nodes = [focus.right, *d._shared]
        for i, j in d._spine:
            nodes.append(Apply(nodes[i], nodes[j]))
        focus = nodes[-1]
        used += 1
        if type(focus) is Atom and focus.name in defs and path and not path[-1][1]:
            parent, _ = path.pop()
            focus = Apply(focus, parent.right)
    while path:  # rebuild the ancestors of the focus, each at most once
        parent, right = path.pop()
        if right:
            focus = parent if focus is parent.right else Apply(parent.left, focus)
        else:
            focus = parent if focus is parent.left else Apply(focus, parent.right)
    return ReduceResult(focus, used, True)


def check_fixed_point(F: Term, r: Rewriter) -> bool:
    """One rewrite of the fixed-point term must reproduce Apply(F, that term)."""
    t = fixed_point(F, r)
    return reduce(t, r, 1).term == Apply(F, t)


# --- parsing ---


_BAD_CHAR = re.compile(r"[^\w\s()]")  # \w is str.isalnum() or "_", \s is str.isspace()


def _tokenize(text: str) -> list[str]:
    """The parentheses and names of text, in order; whitespace separates.

    A name is a run of letters, digits and underscores, or a single one of
    them in dense text, which has no space or tab.  One search refuses the
    first character that is none of these; str methods then cut the
    tokens, split around parentheses padded with spaces, or, in dense text,
    one character each once the whitespace is dropped.
    """
    bad = _BAD_CHAR.search(text)
    if bad:
        raise InvalidDefinition(f"unexpected character {bad.group()!r} in term")
    if " " in text or "\t" in text:
        return text.replace("(", " ( ").replace(")", " ) ").split()
    return list("".join(text.split()))


def parse_term(text: str, var: str | None = None) -> Term:
    """Parse applicative notation; juxtaposition associates to the left.

    Occurrences of `var` become free variables; everything else is an atom.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise InvalidDefinition("empty term")
    outer: list[Term | None] = []  # the enclosing sequences, read so far
    term: Term | None = None  # the innermost open sequence, read so far
    leaves: dict[str, Term] = {}  # one Atom or FreeVar per distinct name, shared
    for tok in tokens:
        if tok == "(":
            outer.append(term)
            term = None
            continue
        if tok == ")":
            if term is None:
                raise InvalidDefinition("unexpected ')' in term")
            if not outer:
                raise InvalidDefinition("trailing tokens in term")
            item, term = term, outer.pop()
        else:
            item = leaves.get(tok)
            if item is None:
                item = leaves[tok] = FreeVar(tok) if tok == var else Atom(tok)
        term = item if term is None else Apply(term, item)
    if outer:
        raise InvalidDefinition("unbalanced parentheses in term")
    return term
