from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

from charnum.oracles import (
    cross_check,
    hurwitz_bruteforce,
    schubert_gr24_cup_table,
    schubert_gr24_product,
)
from charnum.quadric import hurwitz


def test_trivial_cover():
    assert hurwitz_bruteforce(1, 0) == 1
    assert hurwitz_bruteforce(1, 3) == 0


def test_two_sheets():
    # the single tuple ((12),(12)) over |S_2| = 2
    assert hurwitz_bruteforce(2, 2) == Fraction(1, 2)


def test_three_sheets_genus0():
    assert hurwitz_bruteforce(3, 4) == 4


def test_parity_vanishing():
    # odd transposition count can never multiply to the identity
    assert hurwitz_bruteforce(3, 3) == 0


def test_intransitive_tuples_excluded():
    # in S_3 with b = 2, products ((ij),(ij)) are identity but intransitive
    assert hurwitz_bruteforce(3, 2) == 0


def test_deterministic():
    assert hurwitz_bruteforce(3, 4) == hurwitz_bruteforce(3, 4)


def test_size_limit():
    with pytest.raises(ValueError, match="size limit"):
        hurwitz_bruteforce(7, 2)
    with pytest.raises(ValueError, match="size limit"):
        hurwitz_bruteforce(6, 13)


def naive_count(d: int, b: int) -> Fraction:
    """Every b-tuple of transpositions of {0..d-1}, one at a time; the orbit
    of 0 is grown edge by edge until it stops changing."""
    identity = list(range(d))
    count = 0
    for tup in product(combinations(range(d), 2), repeat=b):
        sigma = identity
        for i, j in tup:
            sigma = [j if x == i else i if x == j else x for x in sigma]
        reached = {0}
        for _ in range(d):
            reached |= {x for pair in tup if reached & set(pair) for x in pair}
        count += sigma == identity and len(reached) == d
    return Fraction(count, factorial(d))


def test_matches_naive_enumeration():
    for d in range(1, 5):
        for b in range(7):
            assert hurwitz_bruteforce(d, b) == naive_count(d, b), (d, b)


def test_goulden_jackson_genus0():
    # Goulden-Jackson (1997): H_0(d) = d^(d-3) (2d-2)! / d!
    table = hurwitz(0, 6)
    for d in range(2, 7):
        want = Fraction(d) ** (d - 3) * factorial(2 * d - 2) / factorial(d)
        assert hurwitz_bruteforce(d, 2 * d - 2) == want, d
        assert table[(0, d, 2 * d - 2)] == want, d


def test_cross_check_reports_key():
    a = {("x",): Fraction(1), ("y",): Fraction(2)}
    b = {("x",): Fraction(1), ("y",): Fraction(3), ("z",): Fraction(0)}
    report = cross_check(a, b)
    assert report == [(("y",), Fraction(2), Fraction(3))]
    assert cross_check(a, dict(a)) == []


def test_schubert_pieri_square():
    assert schubert_gr24_product((1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}
    assert schubert_gr24_product((1, 0), (2, 1)) == {(2, 2): 1}
    assert schubert_gr24_product((2, 0), (1, 1)) == {}
    assert schubert_gr24_product((2, 0), (2, 0)) == {(2, 2): 1}


def test_schubert_table_is_symmetric():
    table = schubert_gr24_cup_table()
    for i in range(6):
        for j in range(6):
            assert table[(i, j)] == table[(j, i)]


def test_schubert_poincare_pairs():
    table = schubert_gr24_cup_table()
    # complementary classes hit the point class exactly once
    assert table[(1, 4)][5] == 1
    assert table[(2, 2)][5] == 1
    assert table[(3, 3)][5] == 1
    assert table[(2, 3)][5] == 0
