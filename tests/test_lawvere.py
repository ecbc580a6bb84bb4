import itertools
import random

import pytest
from hypothesis import given, strategies as st

from refshift.errors import InvalidDefinition, NotSurjective
from refshift.lawvere import (
    BOOL,
    TRI,
    CurriedMap,
    FinMap,
    FinSet,
    all_curried_maps,
    bool_negation,
    cantor_diagonal,
    diagonal_via_delta,
    find_representation,
    identity_map,
    lawvere_fixed_point,
    three_valued_diagonal_analysis,
)

AB = FinSet(("a", "b"))
ABC = FinSet(("a", "b", "c"))
SWAP = CurriedMap(AB, BOOL, (("0", "1"), ("1", "0")))


def test_finset_rejects_duplicates():
    with pytest.raises(InvalidDefinition):
        FinSet(("a", "a"))


def test_finmap_totality():
    with pytest.raises(InvalidDefinition):
        FinMap(AB, BOOL, ("0",))
    with pytest.raises(InvalidDefinition):
        FinMap(AB, BOOL, ("0", "2"))


@pytest.mark.parametrize("build,message", [
    (lambda: FinMap(AB, BOOL, ("0",)), "table must assign a value to every domain element"),
    (lambda: FinMap(ABC, BOOL, ("0", "2", "3")), "value '2' is outside the codomain"),
    (lambda: CurriedMap(AB, BOOL, (("0", "0"),)), "one row per domain element required"),
    (lambda: CurriedMap(AB, BOOL, (("0", "0"), ("0",))), "each row must cover the whole domain"),
    (lambda: CurriedMap(AB, BOOL, (("0", "0"), ("0", "J"))), "row value outside the base codomain"),
    (lambda: FinMap.from_dict(ABC, BOOL, {"b": "0"}), "the map assigns no value to a, c"),
    (lambda: FinMap.from_dict(AB, BOOL, {"a": "0", "b": "1", "z": "0", "y": "1"}),
     "z, y not in the domain a, b"),
    (lambda: AB.index("z"), "label 'z' is not in ('a', 'b')"),
    (lambda: cantor_diagonal(SWAP, FinMap(BOOL, TRI, ("1", "0"))),
     "the post-map must be an endomap of the base codomain"),
    (lambda: find_representation(SWAP, FinMap(ABC, BOOL, ("0", "0", "0"))),
     "candidate map must go from the domain to the base codomain"),
])
def test_refusals_name_their_cause(build, message):
    with pytest.raises(InvalidDefinition) as refused:
        build()
    assert refused.value.code == "invalid-definition"
    assert str(refused.value) == message


def test_cantor_pointwise():
    F = CurriedMap(AB, BOOL, (("0", "0"), ("0", "0")))
    C = cantor_diagonal(F, bool_negation())
    assert C.table == ("1", "1")
    ident = cantor_diagonal(F, identity_map(BOOL))
    assert ident.table == ("0", "0")


def test_find_representation_smallest_index():
    F = CurriedMap(AB, BOOL, (("1", "0"), ("1", "0")))
    C = FinMap(AB, BOOL, ("1", "0"))
    assert find_representation(F, C) == "a"
    F2 = CurriedMap(AB, BOOL, (("0", "0"), ("1", "0")))
    assert find_representation(F2, C) == "b"
    assert find_representation(F2, FinMap(AB, BOOL, ("1", "1"))) is None


def test_cantor_diagonal_never_represented_exhaustive():
    for labels in (("p",), ("p", "q"), ("p", "q", "r")):
        X = FinSet(labels)
        for F in all_curried_maps(X, BOOL):
            C = cantor_diagonal(F, bool_negation())
            assert find_representation(F, C) is None


def test_one_point_codomain_always_represented():
    Z1 = FinSet(("z",))
    F = CurriedMap(AB, Z1, (("z", "z"), ("z", "z")))
    C = FinMap(AB, Z1, ("z", "z"))
    assert find_representation(F, C) == "a"
    value, witness = lawvere_fixed_point(F, identity_map(Z1))
    assert value == "z" and witness == "a"


def test_lawvere_negation_not_surjective():
    for labels in (("p",), ("p", "q"), ("p", "q", "r")):
        X = FinSet(labels)
        for F in all_curried_maps(X, BOOL):
            with pytest.raises(NotSurjective):
                lawvere_fixed_point(F, bool_negation())


def test_lawvere_soundness_on_random_representable_instances():
    rng = random.Random(13)
    accepted = 0
    attempts = 0
    while accepted < 200 and attempts < 100_000:
        attempts += 1
        n = rng.randrange(1, 4)
        zsize = rng.randrange(1, 4)
        X = FinSet(tuple(f"x{i}" for i in range(n)))
        Z = FinSet(tuple(str(i) for i in range(zsize)))
        rows = tuple(tuple(rng.choice(Z.elements) for _ in range(n)) for _ in range(n))
        F = CurriedMap(X, Z, rows)
        alpha = FinMap(Z, Z, tuple(rng.choice(Z.elements) for _ in range(zsize)))
        if find_representation(F, cantor_diagonal(F, alpha)) is None:
            continue
        value, witness = lawvere_fixed_point(F, alpha)
        assert alpha(value) == value
        assert F.row(witness)(witness) == value
        accepted += 1
    assert accepted == 200


def test_diagonal_via_delta_matches_pointwise():
    # oracle route: identity diagonal first, then the post-map, one point at a time
    X = ABC
    for F in itertools.islice(all_curried_maps(X, BOOL), 0, 512, 7):
        for alpha_table in itertools.product(BOOL.elements, repeat=2):
            alpha = FinMap(BOOL, BOOL, alpha_table)
            raw = cantor_diagonal(F, identity_map(BOOL))
            oracle = FinMap(X, BOOL, tuple(alpha(raw(x)) for x in X))
            assert diagonal_via_delta(F, alpha) == oracle


def test_delta_identity_is_plain_diagonal():
    F = CurriedMap(AB, BOOL, (("0", "1"), ("1", "1")))
    assert diagonal_via_delta(F, identity_map(BOOL)).table == ("0", "1")


def test_three_valued_all_j():
    F = CurriedMap(AB, TRI, (("J", "J"), ("J", "J")))
    report = three_valued_diagonal_analysis(F)
    assert report.diagonal.table == ("J", "J")
    assert report.representations == ("a", "b")
    assert report.witnessed


def test_three_valued_exhaustive_two_elements():
    X = AB
    witnessed = 0
    for F in all_curried_maps(X, TRI):
        report = three_valued_diagonal_analysis(F)
        for z in report.representations:
            assert F.row(z)(z) == "J"
        witnessed += bool(report.representations)
    assert witnessed >= 1


def _model_curried_tables(dom, cod_base):
    """The tables of all_curried_maps as one flat n * n-cell product, cut into rows."""
    n = len(dom.elements)
    return [tuple(cells[i * n : (i + 1) * n] for i in range(n))
            for cells in itertools.product(cod_base.elements, repeat=n * n)]


@pytest.mark.parametrize("n,cod_base", [(n, BOOL) for n in range(4)] + [(n, TRI) for n in range(3)])
def test_all_curried_maps_match_the_flat_product(n, cod_base):
    dom = FinSet(tuple("abc"[:n]))
    maps = list(all_curried_maps(dom, cod_base))
    assert [F.rows for F in maps] == _model_curried_tables(dom, cod_base)
    assert all(type(F) is CurriedMap and F.dom == dom and F.cod_base == cod_base for F in maps)


def test_three_valued_reduces_to_cantor_without_j():
    X = AB
    for rows in itertools.product(itertools.product(("0", "1"), repeat=2), repeat=2):
        F = CurriedMap(X, TRI, rows)
        report = three_valued_diagonal_analysis(F)
        assert not report.witnessed


def test_three_valued_requires_tri():
    F = CurriedMap(AB, BOOL, (("0", "0"), ("0", "0")))
    with pytest.raises(InvalidDefinition):
        three_valued_diagonal_analysis(F)


def _random_table(rng, n, z):
    X = FinSet(tuple(f"x{i}" for i in range(n)))
    return CurriedMap(X, z, tuple(tuple(rng.choice(z.elements) for _ in range(n)) for _ in range(n)))


def test_cantor_verdict_past_the_surjectivity_cap():
    # 2**21 candidate maps, none enumerated: the unrepresented diagonal is the witness
    F = _random_table(random.Random(21), 21, BOOL)
    with pytest.raises(NotSurjective):
        lawvere_fixed_point(F, bool_negation())


@given(st.integers(1, 40), st.integers(1, 3), st.randoms(use_true_random=False))
def test_cantor_diagonal_agrees_with_delta(n, zsize, rng):
    Z = FinSet(tuple(str(i) for i in range(zsize)))
    F = _random_table(rng, n, Z)
    alpha = FinMap(Z, Z, tuple(rng.choice(Z.elements) for _ in range(zsize)))
    assert cantor_diagonal(F, alpha) == diagonal_via_delta(F, alpha)
