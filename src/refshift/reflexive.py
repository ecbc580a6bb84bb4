"""Reflexive categories from arc tables of knot and link diagrams.

Each arc of an oriented diagram begins on one arc and ends on another, so
the arcs serve simultaneously as the objects and the generating morphisms
of a category: every object is a morphism, so every table that loads builds
a reflexive category.  The trefoil table cycles three arcs; the
two-component link table makes each arc a self-morphism of the other.
Composition is free, so the category has more morphisms than objects,
enumerable by word length.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .core import Category, Generator, Word, concat
from .errors import DanglingArc, EnumerationCapExceeded, InvalidDefinition
from .value import Value, setfield

ENUMERATION_CAP = 10**5


class ArcTable(Value):
    """Rows (arc, dom, cod); every endpoint must itself be an arc."""

    def __init__(self, rows: Iterable[tuple[str, str, str]]):
        rows = tuple(tuple(r) for r in rows)
        names = [name for name, _, _ in rows]
        if len(set(names)) != len(names):
            raise InvalidDefinition("arc names must be distinct")
        arcs = set(names)
        for name, dom, cod in rows:
            if dom not in arcs or cod not in arcs:
                raise DanglingArc(f"arc {name}: {dom} -> {cod} references a missing arc")
        setfield(self, "rows", rows)

    @property
    def arcs(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.rows)


TREFOIL = ArcTable((("A", "C", "B"), ("B", "A", "C"), ("C", "B", "A")))
LINK = ArcTable((("A", "B", "B"), ("B", "A", "A")))
BUILTIN_TABLES = {"trefoil": TREFOIL, "link": LINK}


def parse_arc_table(text: str) -> ArcTable:
    """One arc per line, "name: dom -> cod"; blank lines and ;-comments skipped."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        try:
            name, rest = (s.strip() for s in line.split(":", 1))
            dom, cod = (s.strip() for s in rest.split("->", 1))
        except ValueError:
            raise InvalidDefinition(f"line {lineno}: expected 'name: dom -> cod'") from None
        rows.append((name, dom, cod))
    return ArcTable(tuple(rows))


class DiagramCategory(Value):
    """The category induced by an arc table: objects are the arcs themselves."""

    def __init__(self, category: Category):
        setfield(self, "category", category)


def build(table: ArcTable) -> DiagramCategory:
    """Objects = arcs, one generator per arc; identities are the empty words."""
    gens = tuple(Generator(name, dom, cod) for name, dom, cod in table.rows)
    return DiagramCategory(Category(frozenset(table.arcs), gens))


def is_reflexive(diagram: DiagramCategory) -> bool:
    """Every object must be the name of a generating morphism that is not a sharp.

    True of every diagram ``build`` makes: each arc is both an object and a
    generator, and ArcTable refuses a dangling endpoint.  Only a diagram over
    another category, such as ``DiagramCategory(pair.base)``, can fail.
    """
    named = {g.name for g in diagram.category.generators if not g.is_sharp}
    return all(obj in named for obj in diagram.category.objects)


def enumerate_composites(diagram: DiagramCategory, max_len: int) -> set[Word]:
    """All chainable generator words of length 1..max_len under free composition.

    Raises EnumerationCapExceeded before building a length whose words would
    bring the total past ENUMERATION_CAP.
    """
    if max_len < 1:
        raise InvalidDefinition("max_len must be at least 1")
    singles = [Word.from_generators((g,)) for g in diagram.category.generators if not g.is_sharp]
    into = Counter(g.cod for g in singles)  # object -> generators that end there
    frontier = singles
    words: set[Word] = set(frontier)
    for length in range(2, max_len + 1):
        if not frontier:  # no word extends, so no longer word exists
            break
        total = len(words) + sum(into[w.dom] for w in frontier)
        if total > ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"{total} composites of length at most {length} exceed the cap of {ENUMERATION_CAP}"
            )
        frontier = [concat(w, g) for w in frontier for g in singles if g.cod == w.dom]
        words.update(frontier)
    return words
