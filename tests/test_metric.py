from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest

from charnum.geometry import builtin_geometry
from charnum.metric import deformed_metric, substitute_metric


def poly(d):
    return {k: Fraction(v) for k, v in d.items()}


def test_p2_inverse_matrix_display():
    # exp(2 y0) [[0,0,1],[0,1,2y1],[1,2y1,2y1^2+2y2]]
    _, up = deformed_metric(builtin_geometry("p2"))
    assert up.exp_y0 == 2
    one = poly({(0, 0): 1})
    assert up.entry(0, 0) == {} and up.entry(0, 1) == {}
    assert up.entry(0, 2) == one
    assert up.entry(1, 1) == one
    assert up.entry(1, 2) == poly({(1, 0): 2})
    assert up.entry(2, 2) == poly({(2, 0): 2, (0, 1): 2})


def test_gr24_substituted_display():
    # y1 -> v, all other y to 0: rows culminating in (1, 2v, 2v^2, 2v^2, 8/3 v^3, 4/3 v^4)
    _, up = deformed_metric(builtin_geometry("gr24"))
    sub = substitute_metric(
        up, {"y1": [(1, "v")], "y2": [], "y3": [], "y4": [], "y5": []}, ("v",)
    )
    v = lambda k, c: poly({(k,): c})
    expect = [
        [{}, {}, {}, {}, {}, v(0, 1)],
        [{}, {}, {}, {}, v(0, 1), v(1, 2)],
        [{}, {}, v(0, 1), {}, v(1, 2), v(2, 2)],
        [{}, {}, {}, v(0, 1), v(1, 2), v(2, 2)],
        [{}, v(0, 1), v(1, 2), v(1, 2), v(2, 4), v(3, Fraction(8, 3))],
        [v(0, 1), v(1, 2), v(2, 2), v(2, 2), v(3, Fraction(8, 3)), v(4, Fraction(4, 3))],
    ]
    for i in range(6):
        for j in range(6):
            assert sub.entry(i, j) == expect[i][j], (i, j)


def test_quadric_substituted_display():
    # (y1,y2,y3) -> (v,v,w): last row (1, 2v, 2v, 4v^2+2w)
    _, up = deformed_metric(builtin_geometry("p1xp1"))
    sub = substitute_metric(
        up, {"y1": [(1, "v")], "y2": [(1, "v")], "y3": [(1, "w")]}, ("v", "w")
    )
    assert sub.entry(3, 0) == poly({(0, 0): 1})
    assert sub.entry(3, 1) == poly({(1, 0): 2})
    assert sub.entry(3, 2) == poly({(1, 0): 2})
    assert sub.entry(3, 3) == poly({(2, 0): 4, (0, 1): 2})
    assert sub.entry(1, 2) == poly({(0, 0): 1})
    assert sub.entry(1, 1) == {}


def test_p2_char_variable_matrix():
    # (y1,y2) -> (v,w) gives [[0,0,1],[0,1,2v],[1,2v,2v^2+2w]]
    _, up = deformed_metric(builtin_geometry("p2"))
    sub = substitute_metric(up, {"y1": [(1, "v")], "y2": [(1, "w")]}, ("v", "w"))
    assert sub.entry(2, 2) == poly({(2, 0): 2, (0, 1): 2})
    assert sub.entry(1, 2) == poly({(1, 0): 2})


def test_identity_assignment_keeps_matrix():
    _, up = deformed_metric(builtin_geometry("p2"))
    same = substitute_metric(up, {"y1": [(1, "y1")], "y2": [(1, "y2")]}, ("y1", "y2"))
    assert same == replace(up, exp_y0=0)


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4", "p1xp1", "gr24"])
def test_inverse_relation_exact(name):
    lo, up = deformed_metric(builtin_geometry(name))
    assert lo.matmul(up).is_identity()
    assert up.matmul(lo).is_identity()


@pytest.mark.parametrize("name", ["p2", "p1xp1", "gr24"])
def test_lower_matrix_at_zero_is_pairing(name):
    g = builtin_geometry(name)
    lo, up = deformed_metric(g)
    zero = (0,) * len(lo.varnames)
    for m, expect in ((lo, g.pairing), (up, g.pairing_inv)):
        assert tuple(tuple(m.entry(i, j).get(zero, 0) for j in range(m.size)) for i in range(m.size)) == expect


@pytest.mark.parametrize("name", ["p2", "p1xp1", "gr24"])
def test_termwise_cross_check(name):
    # every coefficient equals ((-2)^|s|/s!) \int T^s T_i T_j recomputed via cup
    g = builtin_geometry(name)
    lo, _ = deformed_metric(g)
    for i in range(g.rank):
        for j in range(g.rank):
            for mono, coef in lo.entry(i, j).items():
                classes = [k + 1 for k in range(g.rank - 1) for _ in range(mono[k])]
                val = g.integral(g.cup_classes(classes + [i, j]))
                val *= Fraction(-2) ** sum(mono)
                for e in mono:
                    val /= factorial(e)
                assert val == coef, (i, j, mono)
