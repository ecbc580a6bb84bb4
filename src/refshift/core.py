"""Two-level word categories and the indicative shift.

The base level is a category presented by generators and optional rewrite
rules: morphisms are chainable words of generators, composition is
concatenation followed by normalization under the rules.  The second level
consists of reference arrows between those words.  ``shift``, from
``value``, turns a composable (a -> b) into (#a -> ba) for the sharp #
each engine picks: the sharp generator at a's codomain, a itself in a
lambda pair (#a = aa), or godel's SHARP.  Iterating it yields indirect
self-reference; srt1 packages the one-step derivation (g -> F#) => (#g -> F#g).

Words are stored outermost-first: the word F#g means F after # after g, so
its first generator is the last one applied.  Equality of morphisms is word
equality after normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    ChainMismatch,
    DanglingEdge,
    EndpointMismatch,
    InvalidDefinition,
    InvalidRule,
    NoSharpGenerator,
    NotComposable,
    NotSrt1Shape,
    RewriteBudgetExceeded,
)
from .runs import merge_runs, parse, parse_tokens, render, runs_of
from .value import Derivation, DerivationStep, RefArrow, Value, setfield, shift, shift_derivation

DEFAULT_REWRITE_BUDGET = 10_000
# placeholder bindings one category compiles its rules to, over all rules; rules
# come from pair files, and a rule binds (generator count)^(placeholder count)
MAX_RULE_BINDINGS = 10_000


class Generator(Value):
    """A named generating morphism dom -> cod of the base category."""

    def __init__(self, name: str, dom: str, cod: str, is_sharp: bool = False):
        if not name:
            raise InvalidDefinition("generator name must be nonempty")
        if any(ch.isspace() for ch in name) or "^" in name:
            raise InvalidDefinition(f"generator name {name!r} may not contain spaces or '^'")
        if is_sharp and dom != cod:
            raise InvalidDefinition(f"sharp generator {name} must be a self-morphism, got {dom} -> {cod}")
        setfield(self, "name", name)
        setfield(self, "dom", dom)
        setfield(self, "cod", cod)
        setfield(self, "is_sharp", is_sharp)

    def __str__(self):
        return self.name


class Word:
    """A chainable sequence of generators, outermost (last applied) first.

    The sequence is stored as its maximal (generator, count) runs, so a word
    like #^199990000 takes one run, and equality and hashing compare runs.
    Building, checking and printing take one step per run.  The empty
    sequence is the identity of its object, so dom == cod is required when
    there are no generators.  Words are immutable.
    """

    __slots__ = ("_runs", "_dom", "_cod", "_len")

    runs = property(attrgetter("_runs"), doc="The maximal (generator, count) runs, outermost first.")
    dom = property(attrgetter("_dom"))
    cod = property(attrgetter("_cod"))

    def __init__(self, gens: Iterable[Generator], dom: str, cod: str):
        runs = runs_of(gens)
        self._runs, self._dom, self._cod, self._len = runs, dom, cod, _chain_length(runs, dom, cod)

    @classmethod
    def _trusted(cls, runs: tuple, dom: str, cod: str, length: int) -> "Word":
        """A word of runs the caller knows to be maximal and chained from dom to cod."""
        word = object.__new__(cls)
        word._runs, word._dom, word._cod, word._len = runs, dom, cod, length
        return word

    @classmethod
    def _checked(cls, runs: tuple, dom: str, cod: str) -> "Word":
        """The word of maximal (generator, count) runs, checked by _chain_length."""
        return cls._trusted(runs, dom, cod, _chain_length(runs, dom, cod))

    @classmethod
    def from_runs(cls, runs, dom: str, cod: str) -> "Word":
        """The word of (generator, count) runs; adjacent equal generators are merged."""
        return cls._checked(merge_runs(runs, InvalidDefinition)[0], dom, cod)

    @classmethod
    def from_generators(cls, gens: Iterable[Generator]) -> "Word":
        gens = tuple(gens)
        if not gens:
            raise InvalidDefinition("from_generators needs at least one generator; use Category.identity")
        return cls(gens, gens[-1].dom, gens[0].cod)

    @property
    def gens(self) -> tuple[Generator, ...]:
        """The generators one by one; as long as the word, so meant for short words."""
        out: list[Generator] = []
        for g, count in self.runs:
            out += [g] * count
        return tuple(out)

    @property
    def is_self_morphism(self) -> bool:
        return self.dom == self.cod

    def __len__(self):
        return self._len

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self._runs == other._runs and self._dom == other._dom and self._cod == other._cod

    def __hash__(self):
        return hash((self._runs, self._dom, self._cod))

    def __repr__(self):
        return f"Word(runs={self.runs!r}, dom={self.dom!r}, cod={self.cod!r})"

    def __str__(self):
        if not self._runs:
            return f"1_{self._dom}"
        return render([(g.name, count) for g, count in self._runs])


def _chain_length(runs: tuple, dom: str, cod: str) -> int:
    """The length of maximal (generator, count) runs, checked in one step per run: a run of
    two or more copies chains only for a self-morphism, and adjacent runs at one seam.
    ChainMismatch names the pair a generator-by-generator scan would find first."""
    length, left = 0, None
    for g, count in runs:
        if left is not None and left.dom != g.cod or count > 1 and g.dom != g.cod:
            left = left if left is not None and left.dom != g.cod else g  # the seam, else the run
            raise ChainMismatch(f"generators {left.name}:{left.dom}->{left.cod} and "
                                f"{g.name}:{g.dom}->{g.cod} do not chain")
        left = g
        length += count
    if runs:
        if dom != runs[-1][0].dom or cod != runs[0][0].cod:
            raise ChainMismatch("word endpoints do not match its generator sequence")
    elif dom != cod:
        raise ChainMismatch("the empty word is an identity and needs dom == cod")
    return length


class RewriteRule(Value):
    """Subword rewrite over generator names; "?v" tokens are placeholders.

    A placeholder matches exactly one generator and may be repeated (both
    occurrences must then match the same generator).  Replacement tokens are
    placeholders bound by the pattern, literal generator names, or "1"
    (which contributes nothing).
    """

    def __init__(self, pattern: Sequence[str], replacement: Sequence[str]):
        pattern, replacement = tuple(pattern), tuple(replacement)
        if not pattern:
            raise InvalidDefinition("rewrite pattern must be nonempty")
        bound = {t for t in pattern if t.startswith("?")}
        for tok in replacement:
            if tok.startswith("?") and tok not in bound:
                raise InvalidDefinition(f"replacement placeholder {tok} is not bound by the pattern")
        setfield(self, "pattern", pattern)
        setfield(self, "replacement", replacement)

    def __str__(self):
        return f"{' '.join(self.pattern)} => {' '.join(self.replacement) or '1'}"


class _Names(dict):
    """Generators by name; looking up a name outside it raises InvalidDefinition."""

    def __missing__(self, name):
        raise InvalidDefinition(f"unknown generator {name!r}")


class Category(Value):
    """A base category presented by objects, generators, and rewrite rules."""

    # built from the fields: name -> its generator, object -> its sharp, name ->
    # the compiled (size, pattern, replacement) name lists whose pattern starts
    # with it, and normalize's back-off (longest pattern - 1)
    __slots__ = ("_by_name", "_sharps", "_starts", "_reach")

    def __init__(self, objects: Iterable[str], generators: Iterable[Generator],
                 rules: Iterable[RewriteRule] = (), rewrite_budget: int = DEFAULT_REWRITE_BUDGET):
        objects, generators, rules = frozenset(objects), tuple(generators), tuple(rules)
        if rewrite_budget < 0:
            raise InvalidDefinition("fuel must be non-negative")
        by_name = _Names()
        sharps: dict[str, Generator] = {}
        for g in generators:
            if g.dom not in objects or g.cod not in objects:
                raise InvalidDefinition(f"generator {g.name}: {g.dom} -> {g.cod} uses unknown objects")
            if g.name in by_name:
                raise InvalidDefinition(f"generator name {g.name!r} is used more than once")
            by_name[g.name] = g
            if g.is_sharp:
                if g.dom in sharps:
                    raise InvalidDefinition(f"object {g.dom} has more than one sharp generator")
                sharps[g.dom] = g
        # the compiled rules: (size, pattern, replacement) name lists in
        # declaration order, under the name each pattern starts with.  A
        # placeholder matches exactly one generator, so a rule is compiled once
        # for each binding of its distinct placeholders to generator names; a
        # binding whose replacement is its pattern never makes progress, so it
        # is left out.
        starts: dict[str, list] = {}
        reach = bindings = 0
        for rule in rules:
            # in a replacement "1" is the empty word, but a placeholder bound to a
            # generator named 1 stays; in a pattern "1" is a name like any other
            replacement = [tok for tok in rule.replacement if tok != "1"]
            literals = rule.pattern + tuple(replacement)
            unknown = [t for t in literals if not t.startswith("?") and t not in by_name]
            if unknown:
                raise InvalidDefinition(f"rule {rule} names no generator {unknown[0]!r}")
            holes = tuple(dict.fromkeys(t for t in rule.pattern if t.startswith("?")))
            bindings += len(by_name) ** len(holes)
            if bindings > MAX_RULE_BINDINGS:
                raise InvalidDefinition(
                    f"rule {rule} takes the category past {MAX_RULE_BINDINGS} placeholder bindings"
                )
            size = len(rule.pattern)
            for names in product(by_name, repeat=len(holes)):
                bound = dict(zip(holes, names))
                pattern = [bound.get(tok, tok) for tok in rule.pattern]
                found = [bound.get(tok, tok) for tok in replacement]
                if found != pattern:
                    starts.setdefault(pattern[0], []).append((size, pattern, found))
                    reach = max(reach, size - 1)
        setfield(self, "objects", objects)
        setfield(self, "generators", generators)
        setfield(self, "rules", rules)
        setfield(self, "rewrite_budget", rewrite_budget)
        setfield(self, "_by_name", by_name)
        setfield(self, "_sharps", sharps)
        setfield(self, "_starts", {name: tuple(found) for name, found in starts.items()})
        setfield(self, "_reach", reach)

    def generator(self, name: str) -> Generator:
        return self._by_name[name]

    def sharp_at(self, obj: str):
        return self._sharps.get(obj)

    def identity(self, obj: str) -> Word:
        if obj not in self.objects:
            raise InvalidDefinition(f"unknown object {obj!r}")
        return Word((), obj, obj)

    def word(self, spec) -> Word:
        """Build a Word from a string ("F # g", "#^5", "RR", "1_O") or a name sequence, a run at a time."""
        if isinstance(spec, str):
            s = spec.strip()
            if s.startswith("1_"):
                return self.identity(s[2:])
            runs = parse(s, self._by_name, InvalidDefinition)
        else:
            runs = parse_tokens(spec, self._by_name, InvalidDefinition)
        if not runs:
            raise InvalidDefinition("empty word spec; use 1_<object> for an identity")
        return Word._checked(runs, runs[-1][0].dom, runs[0][0].cod)

    def normalize(self, w: Word) -> Word:
        """Exhaustive leftmost rewriting under this category's rules.

        A word none of whose run generators starts a rule is returned as it
        is, in one step per run.  Otherwise the word is spelled out as
        generator names.  A rewrite at pos leaves every window that ends
        before pos as it was, and none of those matched, so the search for
        the next leftmost redex resumes at pos - reach (the longest pattern
        less one) instead of at 0.  At each position only the compiled rules
        whose pattern starts with that name are tried, in their order, each
        by comparing names: placeholders were bound when the category was
        built.
        """
        starts = self._starts
        if not starts or not any(g.name in starts for g, _ in w.runs):
            return w
        lookup = self._by_name
        names: list[str] = []
        for g, count in w.runs:
            known = lookup.get(g.name)
            if known is not g and known != g:
                raise InvalidDefinition(f"generator {g.name}:{g.dom}->{g.cod} is not in the category")
            names += [g.name] * count
        reach, budget = self._reach, self.rewrite_budget
        steps = pos = 0
        length = len(names)
        while pos < length:
            for size, pattern, repl in starts.get(names[pos], ()):
                if names[pos:pos + size] == pattern:
                    break
            else:
                pos += 1
                continue
            steps += 1
            if steps > budget:
                raise RewriteBudgetExceeded(f"normalization of {w} exceeded the budget of {budget} steps")
            names[pos:pos + size] = repl
            length += len(repl) - size
            pos = pos - reach if pos > reach else 0
        if not steps:
            return w
        try:
            runs = tuple([(lookup[name], count) for name, count in runs_of(names)])
            return Word._checked(runs, w.dom, w.cod)  # one generator per name keeps the runs maximal
        except ChainMismatch as exc:
            raise InvalidRule(f"rewriting {w} produced an ill-typed word") from exc

    def words_equal(self, u: Word, v: Word) -> bool:
        return self.normalize(u) == self.normalize(v)


@dataclass(frozen=True)  # the one dataclass left: perfbench/wl_shift.py copies a pair as a dataclass
class CategoricalPair:
    """A base category together with reference arrows between its words.

    In a lambda pair, shifting a self-morphism a uses aa for #a.
    """

    base: Category
    arrows: tuple[RefArrow, ...] = ()
    is_lambda_pair: bool = False

    def __post_init__(self):
        object.__setattr__(self, "arrows", tuple(self.arrows))
        gens = set(self.base.generators)
        for arrow in self.arrows:
            for word in (arrow.src, arrow.dst):
                if word.dom not in self.base.objects or word.cod not in self.base.objects:
                    raise InvalidDefinition(f"arrow {arrow} uses objects outside the base category")
                if any(g not in gens for g, _ in word.runs):
                    raise InvalidDefinition(f"arrow {arrow} uses generators outside the base category")


class ShiftSequence(Value):
    """Arrows produced by iterating the shift, with the reason for an early stop."""

    def __init__(self, arrows: tuple[RefArrow, ...], rules: tuple[str, ...], stop_reason: str | None = None):
        setfield(self, "arrows", arrows)
        setfield(self, "rules", rules)
        setfield(self, "stop_reason", stop_reason)

    def __len__(self):
        return len(self.arrows)


def concat(f: Word, g: Word) -> Word:
    """The free composite fg ("f after g"), not normalized; requires cod(g) == dom(f)."""
    if f._dom != g._cod:
        raise ChainMismatch(
            f"cannot compose {f} after {g}: codomain {g.cod} does not match domain {f.dom}"
        )
    # both words chain and meet at f.dom == g.cod, so only the seam can merge
    left, right = f._runs, g._runs
    if left and right:
        (inner, count), (outer, more) = left[-1], right[0]
        if inner is outer or (inner.name == outer.name and inner == outer):  # most differ by name
            runs = left[:-1] + ((inner, count + more),) + right[1:]
        else:
            runs = left + right
    else:
        runs = left or right
    word = object.__new__(Word)
    word._runs, word._dom, word._cod, word._len = runs, g._dom, f._cod, f._len + g._len
    return word


def compose(cat: Category, f: Word, g: Word) -> Word:
    """The word fg ("f after g"), normalized; requires cod(g) == dom(f)."""
    return cat.normalize(concat(f, g))


def _shift_plan(pair: CategoricalPair, r: RefArrow) -> tuple[Callable, Word | None, str]:
    """The composer, the sharp and the inference label for shifting r.

    The composer is concat itself when the base has no compiled rules: a
    category without rules has only normal forms, so normalize is the
    identity there.  Otherwise it is compose in the base, which normalizes
    and refuses foreign generators.  In a lambda pair a self-morphism source
    a is its own sharp, #a = aa (sharp None, label "shift-lambda");
    otherwise the sharp generator at the source's codomain is the sharp
    (label "shift", or "shift-sharp-fallback" when a lambda pair falls back
    to a free sharp for a non-self source).  The shift keeps a's endpoints,
    since #a and aa both run from a's domain to its codomain, so the plan of
    r holds for every arrow shifted from it.
    """
    if r.src.cod != r.dst.dom:
        raise NotComposable(
            f"{r} is not a composable reference: codomain {r.src.cod} != domain {r.dst.dom}"
        )
    base = pair.base
    composer = partial(compose, base) if base._starts else concat
    if pair.is_lambda_pair and r.src.is_self_morphism:
        return composer, None, "shift-lambda"
    gen = base.sharp_at(r.src.cod)
    if gen is None:
        raise NoSharpGenerator(f"no sharp generator at object {r.src.cod!r}")
    sharp = Word._trusted(((gen, 1),), gen.dom, gen.cod, 1)
    return composer, sharp, "shift-sharp-fallback" if pair.is_lambda_pair else "shift"


def shift_step(pair: CategoricalPair, r: RefArrow) -> tuple[RefArrow, str]:
    """The shifted arrow plus the inference label used to produce it.

    The composer, the sharp and the label are those of _shift_plan: a itself
    in a lambda pair when a is a self-morphism ("shift-lambda"), else the
    sharp generator at a's codomain ("shift", or "shift-sharp-fallback" in a
    lambda pair); both composites are normalized only when the base has
    rules.  Raises NotComposable or NoSharpGenerator when the shift does not
    apply.
    """
    composer, sharp, label = _shift_plan(pair, r)
    return shift(composer, r.src if sharp is None else sharp, r), label


def srt1(pair: CategoricalPair, r: RefArrow) -> Derivation:
    """First self-reference derivation: (g -> F#) shifts to (#g -> F#g).

    The final arrow has the shape (h -> Fh) with h = #g.
    """
    last = r.dst.runs[-1][0] if r.dst.runs else None
    if last is None or not last.is_sharp or last.dom != r.src.cod:
        raise NotSrt1Shape(
            f"{r} does not end in the sharp of {r.src.cod!r}; expected a target of shape F#"
        )
    return shift_derivation(r, *shift_step(pair, r))


def iterate_shift(pair: CategoricalPair, r: RefArrow, n: int) -> ShiftSequence:
    """Apply the shift up to n times, stopping early when it no longer applies.

    The result is that of calling shift_step n times, with NotComposable and
    NoSharpGenerator read as the stop reasons "not-composable" and
    "no-sharp-generator".  Since the shift keeps a's endpoints, the
    composer, the sharp and the label are resolved once, from r (see
    _shift_plan).  Each step then costs one endpoint comparison (after the
    first shift, that a is a self-morphism), two seam joins and one arrow;
    the joins are normalized only when the base has rules.
    """
    if n < 1:
        raise InvalidDefinition(f"n must be at least 1, got {n}")
    try:
        composer, sharp, label = _shift_plan(pair, r)
    except NotComposable:
        return ShiftSequence((), (), "not-composable")
    except NoSharpGenerator:
        return ShiftSequence((), (), "no-sharp-generator")
    arrows: list[RefArrow] = []
    current, reason = r, None
    for _ in range(n):
        if current.src._cod != current.dst._dom:
            reason = "not-composable"
            break
        current = shift(composer, current.src if sharp is None else sharp, current)
        arrows.append(current)
    return ShiftSequence(tuple(arrows), (label,) * len(arrows), reason)


def vertical_compose(pair: CategoricalPair, gamma: RefArrow, alpha: RefArrow) -> RefArrow:
    """(b -> c) after (a -> b) is (a -> c): reference arrows compose by transitivity."""
    if not pair.base.words_equal(alpha.dst, gamma.src):
        raise EndpointMismatch(
            f"cannot compose vertically: {alpha} does not end where {gamma} begins"
        )
    return RefArrow(alpha.src, gamma.dst)


def category_from_digraph(
    nodes: Sequence[str],
    edges: Sequence[tuple[str, str, str]],
    rules: Sequence[RewriteRule] = (),
) -> CategoricalPair:
    """Free categorical pair on a directed graph.

    One object per node, one sharp self-morphism per node, one generator per
    edge (name, dom, cod); multiple edges and loops are allowed but edge
    names must differ from each other and from the sharps' names ("#" for
    one node, "#NODE" otherwise).  The arrow set starts empty.
    """
    node_list = list(nodes)
    if len(set(node_list)) != len(node_list):
        raise InvalidDefinition("duplicate node names")
    gens: list[Generator] = []
    for node in node_list:
        sharp_name = "#" if len(node_list) == 1 else f"#{node}"
        gens.append(Generator(sharp_name, node, node, is_sharp=True))
    for name, dom, cod in edges:
        if dom not in node_list or cod not in node_list:
            raise DanglingEdge(f"edge {name}: {dom} -> {cod} has an endpoint outside the node set")
        gens.append(Generator(name, dom, cod))
    cat = Category(frozenset(node_list), tuple(gens), tuple(rules))
    return CategoricalPair(cat)


def simplest_pair() -> CategoricalPair:
    """One object, one sharp generator; shifting (1_O -> 1_O) walks out #^k -> #^(k(k-1)/2)."""
    return category_from_digraph(["O"], [])


def next_simplest_pair() -> CategoricalPair:
    """One object with a sharp generator and one extra morphism F."""
    return category_from_digraph(["O"], [("F", "O", "O")])


def russell_pair() -> CategoricalPair:
    """One object with sharp, a predicate R, and negation ~; feed (R -> ~#) to srt1."""
    return category_from_digraph(["O"], [("R", "O", "O"), ("~", "O", "O")])


BUILTIN_PAIRS = {
    "simplest": simplest_pair,
    "next-simplest": next_simplest_pair,
    "russell": russell_pair,
}


def parse_arrow(pair: CategoricalPair, text: str) -> RefArrow:
    """Parse "SRC -> DST" where each side is a word spec for the base category."""
    if "->" not in text:
        raise InvalidDefinition(f"arrow spec {text!r} needs the form 'SRC -> DST'")
    left, right = text.split("->", 1)
    return RefArrow(pair.base.word(left.strip()), pair.base.word(right.strip()))


def load_pair_text(text: str) -> CategoricalPair:
    """Load a pair from the declarative text format.

    Directives (one per line, '#'-to-end-of-line comments are NOT supported
    because '#' names sharp generators; use ';' for comments):

        object NAME [NAME ...]
        generator NAME : DOM -> COD
        sharp NAME : OBJ
        rule TOK [TOK ...] => TOK [TOK ...]
        arrow WORD -> WORD
        flags lambda
    """
    objects: list[str] = []
    gens: list[Generator] = []
    rule_specs: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    arrow_specs: list[str] = []
    lambda_flag = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "object":
                objects.extend(rest.split())
            elif head == "generator":
                name, arrow_part = (s.strip() for s in rest.split(":", 1))
                dom, cod = (s.strip() for s in arrow_part.split("->", 1))
                gens.append(Generator(name, dom, cod))
            elif head == "sharp":
                name, obj = (s.strip() for s in rest.split(":", 1))
                gens.append(Generator(name, obj, obj, is_sharp=True))
            elif head == "rule":
                pat, repl = rest.split("=>", 1)
                rule_specs.append((tuple(pat.split()), tuple(repl.split())))
            elif head == "arrow":
                arrow_specs.append(rest)
            elif head == "flags":
                for flag in rest.split():
                    if flag == "lambda":
                        lambda_flag = True
                    else:
                        raise InvalidDefinition(f"unknown flag {flag!r}")
            else:
                raise InvalidDefinition(f"unknown directive {head!r}")
        except ValueError as exc:
            raise InvalidDefinition(f"line {lineno}: cannot parse {line!r}") from exc

    rules = tuple(RewriteRule(p, r) for p, r in rule_specs)
    cat = Category(frozenset(objects), tuple(gens), rules)
    free = CategoricalPair(cat)  # parse_arrow reads its base alone
    return CategoricalPair(cat, tuple(parse_arrow(free, spec) for spec in arrow_specs), lambda_flag)
