"""Diagonal arguments over explicit finite sets.

A curried map F: X -> [X, Z] is a table of rows; the diagonal construction
post-composes the trace x -> F(x)(x) with a map alpha on Z.  ``diagonal_report``
builds that diagonal once and scans the rows once for it; every verdict here
is read off its report.  If some row F(a) equals the diagonal C, then
F(a)(a) = C(a) = alpha(F(a)(a)) is a fixed point of alpha (Lawvere).  With
Z = {0,1} and negation there is no fixed point, so the diagonal is a map
X -> Z that no row equals, and F is not surjective onto [X, Z] (Cantor): the
verdict needs no enumeration of the |Z|^|X| candidate maps.  Over the
three-valued set {0,1,J} with ~J = J representable diagonals exist, but
only with value J on the diagonal.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import InvalidDefinition, NotSurjective
from .value import Value, setfield


class FinSet(Value):
    __slots__ = ("_members",)  # the elements as a frozenset, for membership checks

    def __init__(self, elements: Iterable[str]):
        elements = tuple(elements)
        members = frozenset(elements)
        if len(members) != len(elements):
            raise InvalidDefinition("finite set labels must be distinct")
        setfield(self, "elements", elements)
        setfield(self, "_members", members)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise InvalidDefinition(f"label {label!r} is not in {self.elements}") from None

    def __iter__(self):
        return iter(self.elements)


class FinMap(Value):
    """A total map between finite sets, tabulated in domain order."""

    def __init__(self, dom: FinSet, cod: FinSet, table: Iterable[str]):
        table = tuple(table)
        if len(table) != len(dom.elements):
            raise InvalidDefinition("table must assign a value to every domain element")
        if not cod._members.issuperset(table):
            v = next(v for v in table if v not in cod._members)
            raise InvalidDefinition(f"value {v!r} is outside the codomain")
        setfield(self, "dom", dom)
        setfield(self, "cod", cod)
        setfield(self, "table", table)

    @classmethod
    def from_dict(cls, dom: FinSet, cod: FinSet, mapping: dict) -> "FinMap":
        """The map x -> mapping[x]; mapping must assign every element of dom and nothing else."""
        missing = [x for x in dom if x not in mapping]
        if missing:
            raise InvalidDefinition(f"the map assigns no value to {', '.join(missing)}")
        unknown = [x for x in mapping if x not in dom.elements]
        if unknown:
            raise InvalidDefinition(f"{', '.join(unknown)} not in the domain {', '.join(dom)}")
        return cls(dom, cod, tuple(mapping[x] for x in dom))

    def __call__(self, x: str) -> str:
        return self.table[self.dom.index(x)]


class CurriedMap(Value):
    """F: X -> [X, Z], stored as one row of Z-values per element of X."""

    def __init__(self, dom: FinSet, cod_base: FinSet, rows: Iterable[Iterable[str]]):
        rows = tuple(map(tuple, rows))
        n = len(dom.elements)
        if len(rows) != n:
            raise InvalidDefinition("one row per domain element required")
        cod = cod_base._members
        for row in rows:
            if len(row) != n:
                raise InvalidDefinition("each row must cover the whole domain")
            if not cod.issuperset(row):
                raise InvalidDefinition("row value outside the base codomain")
        setfield(self, "dom", dom)
        setfield(self, "cod_base", cod_base)
        setfield(self, "rows", rows)

    def row(self, x: str) -> FinMap:
        return FinMap(self.dom, self.cod_base, self.rows[self.dom.index(x)])


BOOL = FinSet(("0", "1"))
TRI = FinSet(("0", "1", "J"))


def identity_map(s: FinSet) -> FinMap:
    return FinMap(s, s, s.elements)


def bool_negation() -> FinMap:
    return FinMap(BOOL, BOOL, ("1", "0"))


def tri_negation() -> FinMap:
    """Lukasiewicz negation: swaps 0 and 1, fixes J."""
    return FinMap(TRI, TRI, ("1", "0", "J"))


def _check_post_map(F: CurriedMap, post: FinMap):
    if post.dom != F.cod_base or post.cod != F.cod_base:
        raise InvalidDefinition("the post-map must be an endomap of the base codomain")


def cantor_diagonal(F: CurriedMap, neg: FinMap) -> FinMap:
    """The map x -> neg(F(x)(x))."""
    _check_post_map(F, neg)
    image = dict(zip(neg.dom.elements, neg.table))
    return FinMap(F.dom, F.cod_base, [image[row[i]] for i, row in enumerate(F.rows)])


def _representations(F: CurriedMap, C: FinMap) -> tuple[str, ...]:
    """The one row scan: every element whose row equals C, in domain order."""
    return tuple(x for x, row in zip(F.dom.elements, F.rows) if row == C.table)


def find_representation(F: CurriedMap, C: FinMap):
    """The first element whose row equals C pointwise, or None."""
    if C.dom != F.dom or C.cod != F.cod_base:
        raise InvalidDefinition("candidate map must go from the domain to the base codomain")
    reps = _representations(F, C)
    return reps[0] if reps else None


class DiagonalReport(Value):
    """The diagonal C(x) = alpha(F(x)(x)) of a table and every element whose row is C."""

    def __init__(self, diagonal: FinMap, representations: tuple[str, ...]):
        setfield(self, "diagonal", diagonal)
        setfield(self, "representations", representations)

    @property
    def witnessed(self) -> bool:
        return bool(self.representations)

    @property
    def fixed_point(self) -> tuple[str, str] | None:
        """(value, witness) at the first representation a, where value = F(a)(a) = C(a)."""
        if not self.representations:
            return None
        a = self.representations[0]
        return self.diagonal(a), a


def diagonal_report(F: CurriedMap, alpha: FinMap) -> DiagonalReport:
    """One diagonal and one row scan; alpha fixes F(a)(a) for each representation a."""
    C = cantor_diagonal(F, alpha)
    reps = _representations(F, C)
    for a in reps:
        value = F.row(a)(a)
        if alpha(value) != value:
            raise AssertionError("represented diagonal failed to yield a fixed point")
    return DiagonalReport(C, reps)


def lawvere_fixed_point(F: CurriedMap, alpha: FinMap) -> tuple[str, str]:
    """A fixed point of alpha with its witness, whenever the diagonal is a row.

    If the diagonal C = F(a), then F(a)(a) is fixed by alpha and (value, a)
    is returned.  Otherwise C itself is a map X -> Z that no row equals, so
    F is not surjective onto [X, Z] and NotSurjective is raised.
    """
    fixed = diagonal_report(F, alpha).fixed_point
    if fixed is None:
        raise NotSurjective(
            "the diagonal is not represented, so F is not surjective onto the map set"
        )
    return fixed


def diagonal_via_delta(F: CurriedMap, alpha: FinMap) -> FinMap:
    """The diagonal built compositionally: alpha . eval . (F x I) . delta."""
    _check_post_map(F, alpha)
    values = []
    for x in F.dom:
        duplicated = (x, x)  # delta
        fn, arg = F.row(duplicated[0]), duplicated[1]  # F x I
        evaluated = fn(arg)  # eval
        values.append(alpha(evaluated))  # alpha
    return FinMap(F.dom, F.cod_base, tuple(values))


def three_valued_diagonal_analysis(F: CurriedMap) -> DiagonalReport:
    """Diagonalize with Lukasiewicz negation and collect every representing row.

    Representation is possible here (unlike the two-valued case), but each
    representing element z must satisfy F(z)(z) = J since J is the only
    fixed point of the negation.
    """
    if F.cod_base != TRI:
        raise InvalidDefinition("three-valued analysis needs the base codomain {0, 1, J}")
    report = diagonal_report(F, tri_negation())
    for z in report.representations:
        if F.row(z)(z) != "J":
            raise AssertionError("a represented diagonal left a non-J value on the diagonal")
    return report


def all_curried_maps(dom: FinSet, cod_base: FinSet):
    """Every curried map dom -> [dom, cod_base], for exhaustive desk-scale checks.

    The |cod_base|^n possible rows are built once, and each table is a
    choice of n of them; the tables come in the order of their n * n cells
    read row by row, the first cell varying slowest.
    """
    n = len(dom.elements)
    rows = tuple(itertools.product(cod_base.elements, repeat=n))
    for table in itertools.product(rows, repeat=n):
        yield CurriedMap(dom, cod_base, table)
