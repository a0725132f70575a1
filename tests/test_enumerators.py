"""The two enumerators under the recursions: `series.compositions` for the
dimension-valid exponent vectors and `gw.multiset_splits` for the splits of
the marks.  Each caller is checked against a naive definition written here,
in the order it promises."""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charnum.descend import TangencySpace, _ab_partitions
from charnum.geometry import BUILTIN_NAMES, builtin_geometry
from charnum.gw import canonical_keys
from charnum.planecurves import PLANE
from charnum.quadric import QUADRIC
from charnum.series import compositions


def brute_compositions(total, weights, caps):
    """Every vector of the box [0, total // w_i], in lexicographic order,
    kept if it has the weighted sum and fits under the caps."""
    box = product(*(range(total // w + 1) for w in weights)) if total >= 0 else ()
    return [
        m for m in box
        if sum(w * k for w, k in zip(weights, m)) == total and (caps is None or all(map(int.__le__, m, caps)))
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 12),
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 12)), max_size=4),
    st.booleans(),
)
def test_compositions_equal_a_filtered_product(total, slots, capped):
    weights = tuple(w for w, _ in slots)
    caps = tuple(c for _, c in slots) if capped else None
    assert list(compositions(total, weights, caps)) == brute_compositions(total, weights, caps)


def test_compositions_edge_cases():
    assert list(compositions(0, ())) == [()]
    assert list(compositions(3, ())) == []
    assert list(compositions(-1, (1, 2))) == []
    assert list(compositions(0, (2, 1, 1))) == [(0, 0, 0)]
    assert list(compositions(4, (1, 1), (2, 9))) == [(0, 4), (1, 3), (2, 2)]


@pytest.mark.parametrize(
    "name, box", [("p1xp1", None), ("p1xp1", (3, 1)), ("p1xp1", (0, 4)), ("gr24", None), ("gr24", (2,))]
)
def test_curve_classes_are_the_lexicographic_box(name, box):
    geom = builtin_geometry(name)
    n = len(geom.divisors)
    for total in range(7):
        naive = [
            b for b in product(range(total + 1), repeat=n)
            if total > 0 and sum(b) == total and (box is None or all(map(int.__le__, b, box)))
        ]
        assert list(geom.curve_classes(total, box)) == naive


@pytest.mark.parametrize("surface", [PLANE, QUADRIC], ids=["PLANE", "QUADRIC"])
@pytest.mark.parametrize("genus", [0, 1, 2])
def test_strata_keep_the_flags_outermost(surface, genus):
    for total in range(1, 7):
        top = surface.c1 * total - 1 + genus
        naive = [(top - b - 2 * c, b, c) for c in range(top // 2 + 1) for b in range(top - 2 * c + 1)]
        assert list(surface.strata(genus, total)) == naive


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_canonical_keys_are_the_dimension_valid_multisets(name):
    geom = builtin_geometry(name)
    classes = [i for i in range(geom.rank) if geom.codim(i) >= 2]
    for beta in (b for t in range(1, 4) for b in geom.curve_classes(t)):
        budget = geom.vdim(0, beta, 0)
        naive = [
            key for n in range(budget + 1) for key in combinations_with_replacement(classes, n)
            if sum(geom.codim(c) - 1 for c in key) == budget
        ]
        assert canonical_keys(geom, beta) == sorted(naive, key=lambda t: (len(t), t))


@pytest.mark.parametrize("name", ["p2", "p1xp1", "gr24"])
def test_gated_and_descendant_keys_are_the_weighted_vectors(name):
    geom = builtin_geometry(name)
    ts = TangencySpace(geom)
    for genus in (0, 1):
        for beta in (b for t in range(1, 4) for b in geom.curve_classes(t)):
            budget = geom.vdim(genus, beta, 0)
            slots = range(len(ts.weights))
            naive = sorted(
                tuple(key.count(i) for i in slots)
                for n in range(budget + 1) for key in combinations_with_replacement(slots, n)
                if sum(ts.weights[i] for i in key) == budget
            )
            assert ts.gated_keys(genus, beta) == tuple(naive)
            descendant = [k for k in naive if any(k[ts.nx:])]
            assert ts.descendant_keys(genus, beta) == tuple(sorted(descendant, key=lambda k: sum(k[ts.nx:])))


def recursive_ab_partitions(marks, forced):
    """The definition `_ab_partitions` had before it was written over
    `multiset_splits`: one recursion over the sorted multiplicities."""
    pool = sorted(Counter(marks + forced).items())
    out = []

    def rec(i, a, b, w):
        if i == len(pool):
            out.append(((tuple(a), tuple(b)), w))
            return
        (m, c), mult = pool[i]
        if m == 0:
            rec(i + 1, a + [(m, c)] * mult, b, w)
            return
        for k in range(mult + 1):
            rec(i + 1, a + [(m, c)] * (mult - k), b + [(m, c)] * k, w * comb(mult, k))

    rec(0, [], [], 1)
    return out


insertion = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(insertion, max_size=7), st.lists(insertion, max_size=2))
def test_ab_partitions_equal_the_recursive_definition(marks, forced):
    marks, forced = tuple(marks), tuple(forced)
    assert list(_ab_partitions(marks, forced)) == recursive_ab_partitions(marks, forced)
