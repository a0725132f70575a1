from __future__ import annotations

import io
from fractions import Fraction
from math import comb

import pytest

from charnum import cli, descend, gw, quadric
from charnum.descend import DescendantEngine, DescendantSpec
from charnum.geometry import TargetGeometry, in_box
from charnum.oracles import hurwitz_bruteforce
from charnum.planecurves import charnum_genus1_virtual_route
from charnum.quadric import QUADRIC, hurwitz, quadric_genus0, quadric_genus1
from charnum.surface import Surface


# -- Hurwitz numbers -----------------------------------------------------------


def test_identity_cover(hurwitz_table):
    assert hurwitz_table[(0, 1, 0)] == 1


def test_half_from_automorphism(hurwitz_table):
    assert hurwitz_table[(0, 2, 2)] == Fraction(1, 2)
    assert hurwitz_table[(1, 2, 4)] == Fraction(1, 2)


def test_support_is_riemann_hurwitz(hurwitz_table):
    for (g, d, b), val in hurwitz_table.items():
        assert b == 2 * d + 2 * g - 2
        assert val != 0


def test_recursion_matches_bruteforce():
    table = hurwitz(1, 6)
    for g in (0, 1):
        for d in range(1, 7):
            b = 2 * d + 2 * g - 2
            want = hurwitz_bruteforce(d, b)
            assert table.get((g, d, b), Fraction(0)) == want, (g, d)


def test_denominator_divides_factorial(hurwitz_table):
    from math import factorial

    for (g, d, b), val in hurwitz_table.items():
        assert factorial(d) % val.denominator == 0


# -- rule-cover potentials -----------------------------------------------------


@pytest.fixture(scope="module")
def rule_covers(hurwitz_table):
    """I + J, `QUADRIC.cover` of the genus-1 Hurwitz potential, and I, its
    part on the first ruling (d2 = 0)."""
    covers = QUADRIC.cover({(d, b): val for (g, d, b), val in hurwitz_table.items() if g == 1}, 5)
    return covers, covers.filter_keys(lambda deg, mono: deg[1] == 0)


def test_rule_covers_linear_in_u(rule_covers):
    covers, _ = rule_covers
    assert all(mono[0] <= 1 for (_, mono) in covers.entries)


def test_rule_covers_start_at_degree_two(rule_covers):
    _, i_pot = rule_covers
    assert all(sum(deg) >= 2 for (deg, _) in i_pot.entries)


def test_rule_cover_weights(rule_covers):
    # per cover degree i the tangency/flag weight b + 2c is 2i (one incidence),
    # 2i + 1 with two extra tangencies, or 2i + 1 via one flag
    _, i_pot = rule_covers
    assert i_pot.entries
    for (deg, mono), _ in i_pot.entries.items():
        i = deg[0]
        a, b, c = mono
        assert deg[1] == 0
        if a == 1:
            assert b == 2 * i and c == 0
        else:
            assert (b, c) in ((2 * i + 1, 0), (2 * i - 1, 1))


def test_j_is_i_with_rulings_swapped(rule_covers):
    """The cover is swap-symmetric and lies on the rulings, so J, its part
    at d1 = 0, is I with the rulings swapped."""
    covers, _ = rule_covers
    flipped = {((d2, d1), mono): v for ((d1, d2), mono), v in covers.entries.items()}
    assert flipped == covers.entries
    assert all(0 in deg for (deg, _) in covers.entries)


# -- genus 0 -------------------------------------------------------------------


def test_unique_diagonal_conic(g0_quadric):
    assert g0_quadric.coeff((1, 1), (3, 0, 0)) == 1


def test_swap_symmetry_genus0(g0_quadric):
    for ((d1, d2), mono), val in g0_quadric.entries.items():
        assert g0_quadric.coeff((d2, d1), mono) == val


def test_dimension_gate_genus0(g0_quadric):
    for ((d1, d2), mono), val in g0_quadric.entries.items():
        assert mono in QUADRIC.strata(0, d1 + d2)


def test_genus0_against_recursion(quadric, gw_quadric, g0_quadric):
    engine = DescendantEngine(quadric, gw_quadric)

    def virtual(d1, d2, a, b, c):
        tot = Fraction(0)
        for i in range(b + 1):
            for j in range(b - i + 1):
                k = b - i - j
                mult = comb(b, i) * comb(b - i, j) * 2**i
                ins = ((0, 3),) * (a + i) + ((1, 1),) * j + ((1, 2),) * k + ((1, 3),) * c
                tot += mult * engine.value(DescendantSpec(0, (d1, d2), ins))
        return tot

    for d1, d2 in ((1, 0), (1, 1), (2, 1)):
        top = 2 * (d1 + d2) - 1
        for c in range(top // 2 + 1):
            for b in range(top - 2 * c + 1):
                a = top - b - 2 * c
                assert virtual(d1, d2, a, b, c) == g0_quadric.coeff((d1, d2), (a, b, c))


def test_rational_ruling_multiples_present(g0_quadric):
    # bi-degree (2,0): double covers of rules; the counted maps are not
    # immersions but the numbers are still produced by the equations
    assert any(deg == (2, 0) for (deg, _) in g0_quadric.entries)


# -- genus 1 -------------------------------------------------------------------


def test_swap_symmetry_genus1(g1_quadric):
    for ((d1, d2), mono), val in g1_quadric.entries.items():
        assert g1_quadric.coeff((d2, d1), mono) == val


def test_genus1_rules_excluded(g1_quadric):
    assert all(deg[0] >= 1 and deg[1] >= 1 for (deg, _) in g1_quadric.entries)


def test_genus1_integrality(g1_quadric):
    for (deg, mono), val in g1_quadric.entries.items():
        assert mono in QUADRIC.strata(1, deg[0] + deg[1])
        assert val.denominator == 1 and val >= 0


def test_genus1_zero_below_arithmetic_genus_one(g1_quadric):
    # (1,1), (2,1), (3,1), (4,1): arithmetic genus 0, no elliptic curves
    for deg in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (4, 1), (1, 4)):
        assert not any(d == deg for (d, _) in g1_quadric.entries), deg


def test_genus1_seed_echo(g1_quadric):
    assert g1_quadric.coeff((2, 2), (8, 0, 0)) == 1
    assert g1_quadric.coeff((3, 2), (10, 0, 0)) == 20


def test_corrections_vanish_without_multiple_covers(gw_quadric, quadric_genus1_seeds):
    # up to total degree 3 the I/J potentials cannot contribute (covers need
    # a ruling degree >= 2 ... they start at bidegree (2,0)/(0,2) and couple
    # to positive-degree rational pieces only from total degree 3 on); check
    # the virtual route against the bare correction at (1,1) and (2,1)
    small = quadric_genus1(gw_quadric, quadric_genus1_seeds, 3)
    for deg in ((1, 1), (2, 1), (1, 2)):
        assert not any(d == deg for (d, _) in small.entries)


# -- the degree box ----------------------------------------------------------------

BOXES = [(d1, d2) for d1 in range(6) for d2 in range(6) if 1 <= d1 + d2 <= 5]


def box_part(table, box):
    return {key: val for key, val in table.entries.items() if in_box(key[0], box)}


@pytest.mark.parametrize("box", BOXES, ids=lambda box: f"{box[0]},{box[1]}")
def test_boxed_tables_are_the_total_degree_tables_cut_to_the_box(
    box, gw_quadric, g0_quadric, g1_quadric, quadric_genus1_seeds
):
    dmax = sum(box)
    g0 = quadric_genus0(gw_quadric, dmax, box)
    assert g0.entries == box_part(g0_quadric, box)
    g1 = quadric_genus1(gw_quadric, quadric_genus1_seeds, dmax, box=box)
    assert g1.entries == box_part(g1_quadric, box)


def test_no_class_outside_the_box_reaches_a_recursion(monkeypatch, gw_quadric, quadric_genus1_seeds):
    box, dmax = (3, 1), 4
    solved = []  # every quadric class a level loop visits; the Hurwitz numbers are solved on P^1
    classes = TargetGeometry.curve_classes

    def spy_classes(self, total, *args):
        for beta in classes(self, total, *args):
            if self.name == "p1xp1":
                solved.append(beta)
            yield beta

    potentials = []

    def spy(potential):
        def run(*args, **kwargs):
            potentials.append(potential(*args, **kwargs))
            return potentials[-1]
        return run

    monkeypatch.setattr(TargetGeometry, "curve_classes", spy_classes)
    for name in ("genus0_tangency_potential", "genus1_tangency_potential"):
        monkeypatch.setattr(descend, name, spy(getattr(descend, name)))
    g0 = quadric_genus0(gw_quadric, dmax, box)
    quadric_genus1(gw_quadric, quadric_genus1_seeds, dmax, box=box)
    inside = {(d1, d2) for d1 in range(4) for d2 in range(2)} - {(0, 0)}
    assert set(solved) == inside
    assert len(potentials) == 2
    assert sum(not in_box(deg, box) for pot in potentials for deg, _ in pot.entries) == 0


def test_genus1_solves_genus0_once_and_stays_in_its_box(monkeypatch, gw_p2, p2_genus1_seeds):
    """A p1xp1 genus-1 `compute` takes G^0 from its own tangency potential,
    solves WDVV only on the classes of its box, and reads the Hurwitz covers
    only up to max(box); the plane's virtual route runs no genus-0 level
    loop either."""
    genus0_runs = []
    genus0 = Surface.genus0

    def counted_genus0(surface, *args, **kwargs):
        genus0_runs.append(surface.geom.name)
        return genus0(surface, *args, **kwargs)

    levels = []
    solve_level = gw._solve_level

    def spy_level(geom, table, beta):
        if geom.name == "p1xp1":
            levels.append(beta)
        return solve_level(geom, table, beta)

    covers = []

    def spy_hurwitz(*args):
        covers.append(args)
        return hurwitz(*args)

    monkeypatch.setattr(Surface, "genus0", counted_genus0)
    monkeypatch.setattr(gw, "_solve_level", spy_level)
    monkeypatch.setattr(quadric, "hurwitz", spy_hurwitz)
    argv = ["compute", "--target", "p1xp1", "--genus", "1", "--dmax", "3,1"]
    assert cli.run(argv, out=io.StringIO()) == 0
    assert genus0_runs == []
    assert sorted(levels) == sorted({(d1, d2) for d1 in range(4) for d2 in range(2)} - {(0, 0)})
    assert covers == [(1, 3)]
    charnum_genus1_virtual_route(gw_p2, p2_genus1_seeds, 3)
    assert genus0_runs == []
