from __future__ import annotations

from fractions import Fraction

import pytest

from charnum.gw import InsufficientSeeds
from charnum.planecurves import P2_SPACE, PLANE
from charnum.seeds import (
    load_genus1_seeds,
    load_gw_seeds,
    load_virtual2,
    packaged_seed_text,
)


def test_p2_packaged_seeds(p2):
    seeds = load_genus1_seeds(packaged_seed_text("p2-genus1"), p2)
    assert seeds == {
        (1,): 0,
        (2,): 0,
        (3,): 1,
        (4,): 225,
        (5,): 87192,
    }


def test_p1xp1_packaged_seeds(quadric):
    seeds = load_genus1_seeds(packaged_seed_text("p1xp1-genus1"), quadric)
    assert seeds[(2, 2)] == 1
    assert seeds[(3, 2)] == seeds[(2, 3)] == 20
    assert seeds[(1, 1)] == 0
    assert seeds[(5, 0)] == 0
    # symmetric under ruling swap
    for (d1, d2), v in seeds.items():
        assert seeds[(d2, d1)] == v


def test_genus1_seed_stratum_validated(p2):
    with pytest.raises(ValueError, match="point insertions"):
        load_genus1_seeds("3;0,0,8;1\n", p2)
    with pytest.raises(ValueError, match="point"):
        load_genus1_seeds("3;0,0,4;1\n".replace("0,0,4", "0,0,4"), p2)


def virtual2_records(dmax):
    return [f"{d};{a},{b},{c}" for d in range(4, dmax + 1) for a, b, c in PLANE.strata(2, d)]


def test_virtual2_records():
    values = {"4;13,0,0": "7/3", "5;16,0,0": "2"}
    table = load_virtual2("# header\n" + "".join(f"{r};{values.get(r, 0)}\n" for r in virtual2_records(5)), 5)
    assert table.space == P2_SPACE
    assert table.coeff((4,), (13, 0, 0)) == Fraction(7, 3)
    assert table.coeff((5,), (16, 0, 0)) == 2
    assert len(table) == 2


def test_virtual2_needs_every_stratum_of_every_degree():
    assert (len(virtual2_records(4)), len(virtual2_records(5))) == (56, 56 + 81)
    with pytest.raises(InsufficientSeeds, match="missing genus-2 virtual record 5;16,0,0 "):
        load_virtual2("".join(f"{r};0\n" for r in virtual2_records(4)), 5)


def test_virtual2_malformed_record_names_the_line():
    with pytest.raises(ValueError, match=r"line 3: expected a record d;a,b,c;p/q, got '1;0,0'"):
        load_virtual2("# header\n4;13,0,0;7/3\n1;0,0\n", 5)


@pytest.mark.parametrize(
    "record, message",
    [
        ("4;0,0,0;5", "line 2: a genus-2 record of degree 4 needs a+b+2c = 13, got 0"),
        ("4;12,0,1;5", "line 2: a genus-2 record of degree 4 needs a+b+2c = 13, got 14"),
        ("4;-1,0,0;5", "line 2: the degree and the counts must not be negative"),
        ("-1;0,0,-1;5", "line 2: the degree and the counts must not be negative"),
    ],
    ids=["all-zero", "off-by-one", "negative-count", "negative-degree"],
)
def test_virtual2_record_off_the_genus2_stratum_names_the_line(record, message):
    with pytest.raises(ValueError) as err:
        load_virtual2("# header\n" + record + "\n", 5)
    assert str(err.value) == message


def test_repeated_seed_key_names_both_lines(p2):
    with pytest.raises(ValueError) as err:
        load_virtual2("4;13,0,0;1\n# note\n4;13,0,0;2\n", 5)
    assert str(err.value) == "line 3: repeats the record of line 1"
    with pytest.raises(ValueError) as err:
        load_gw_seeds("1;0,0,2;1\n1;0,0,2;5\n", p2)
    assert str(err.value) == "line 2: repeats the class and insertions of line 1"
    # the same count in another class is another key
    assert len(load_gw_seeds("1;0,0,2;1\n2;0,0,5;1\n", p2)) == 2
