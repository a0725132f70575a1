from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from charnum.descend import DescendantEngine, TangencySpace, genus0_tangency_potential, genus1_tangency_potential
from charnum.gw import SeedConflict
from charnum.planecurves import (
    P2_SPACE,
    PLANE,
    charnum_genus1,
    charnum_genus1_virtual_route,
    charnum_genus2,
    genus2_corrections,
    tangency_expand,
)
from charnum.oracles import hurwitz_bruteforce
from charnum.quadric import hurwitz
from charnum.series import DiffOperator, NumeratorSum, SeriesTable


def row(table, d, c=None):
    out = {}
    for (deg, mono), val in table.entries.items():
        if deg == (d,) and (c is None or mono[2] == c):
            out[mono] = val
    return out


# -- genus 0 -------------------------------------------------------------------


def test_seed_is_echoed(g0_p2):
    assert g0_p2.coeff((1,), (2, 0, 0)) == 1


def test_line_flags(g0_p2):
    assert g0_p2.coeff((1,), (0, 0, 1)) == 1
    assert g0_p2.coeff((1,), (0, 2, 0)) == 0


def test_conic_characteristic_numbers(g0_p2):
    # the classical self-dual chain for smooth conics
    chain = [g0_p2.coeff((2,), (5 - b, b, 0)) for b in range(6)]
    assert chain == [1, 2, 4, 4, 2, 1]
    assert g0_p2.coeff((2,), (3, 0, 1)) == 1
    assert g0_p2.coeff((2,), (0, 1, 2)) == 1


def test_cubic_characteristic_numbers(g0_p2):
    # Zeuthen's rational-cubic numbers; the b = 0 entry is the count of
    # nodal cubics through 8 points
    chain = [g0_p2.coeff((3,), (8 - b, b, 0)) for b in range(9)]
    assert chain == [12, 36, 100, 240, 480, 712, 756, 600, 400]


def test_dimension_gate_everywhere(g0_p2):
    for (deg, mono), val in g0_p2.entries.items():
        assert mono in PLANE.strata(0, deg[0]), (deg, mono)
        assert val.denominator == 1 and val > 0


def test_genus0_base_is_gw(g0_p2, gw_p2):
    for d in (1, 2, 3, 4):
        assert g0_p2.coeff((d,), (3 * d - 1, 0, 0)) == gw_p2.lookup((d,), [2] * (3 * d - 1))


def test_cross_path_against_recursion(p2, gw_p2, g0_p2):
    engine = DescendantEngine(p2, gw_p2)
    for d in (1, 2, 3):
        for c in range((3 * d) // 2 + 1):
            for b in range(3 * d - 2 * c):
                a = 3 * d - 1 - b - 2 * c
                total = sum(
                    (m * engine.value(s) for s, m in tangency_expand(a, b, c, d)), Fraction(0)
                )
                assert total == g0_p2.coeff((d,), (a, b, c)), (d, a, b, c)


def test_tangency_expand_multiplicities():
    specs = tangency_expand(1, 2, 0, 2)
    assert [m for _, m in specs] == [1, 2, 1]
    assert len(tangency_expand(3, 1, 0, 2)) == 2
    (spec, mult), = tangency_expand(5, 0, 0, 2)
    assert mult == 1 and all(ins == (0, 2) for ins in spec.insertions)


def test_expanded_tangency_equation_residual(g0_p2):
    # the non-integrated form: G_vs = G_us - G_u + (1/2) G_ss^2
    #                                 + 2v G_ss G_us + (v^2 + w) G_us^2
    g = g0_p2
    g_ss = g.partial("s").partial("s")
    g_us = g.partial("u").partial("s")
    rhs = NumeratorSum(P2_SPACE, g.dmax)
    rhs.add(g_us, [(1, {})])
    rhs.add(g.partial("u"), [(-1, {})])
    rhs.add(g_ss * g_ss, [(Fraction(1, 2), {})])
    rhs.add(g_ss * g_us, [(2, {"v": 1})])
    rhs.add(g_us * g_us, [(1, {"v": 2}), (1, {"w": 1})])
    assert g.partial("v").partial("s") == rhs.table()


# -- the cover polynomials ----------------------------------------------------


def double_cover(genus):
    """E (genus 1) or H (genus 2): the cover term of the genus-g double covers
    of a line, in degree 2."""
    return PLANE.cover({(2, 2 * genus + 2): Fraction(1, 2)}, 2)


def test_elliptic_cover_table():
    e = double_cover(1)
    assert e.coeff((2,), (0, 6, 0)) == Fraction(45, 2)
    assert e.coeff((2,), (1, 5, 0)) == 10
    assert e.coeff((2,), (2, 4, 0)) == 2
    assert e.coeff((2,), (0, 4, 1)) == 3
    assert e.coeff((2,), (1, 3, 1)) == 1
    assert e.coeff((2,), (0, 2, 2)) == Fraction(1, 2)
    assert len(e.entries) == 6


def test_genus2_cover_table():
    h = double_cover(2)
    assert h.coeff((2,), (0, 8, 0)) == 105
    assert h.coeff((2,), (1, 7, 0)) == 21
    assert h.coeff((2,), (2, 6, 0)) == 2
    assert h.coeff((2,), (0, 6, 1)) == Fraction(15, 2)
    assert h.coeff((2,), (1, 5, 1)) == 1
    assert h.coeff((2,), (0, 4, 2)) == Fraction(1, 2)
    assert len(h.entries) == 6
    # at most two incidence conditions on a double cover of a line
    assert all(mono[0] <= 2 for (_, mono) in h.entries)


def test_forty_five_ways():
    # the inner coefficient of v^6: (1/2)/(2!2!2!) equals 45/6!
    assert Fraction(1, 2) / (2 * 2 * 2) == Fraction(45, 720)


def test_cover_support_levels():
    # double covers of a line satisfy 2g + 4 conditions: 6 for E, 8 for H
    e, h = double_cover(1), double_cover(2)
    assert all(sum(m) + m[2] == 6 for (_, m) in e.entries)
    assert all(sum(m) + m[2] == 8 for (_, m) in h.entries)


@pytest.mark.parametrize("genus", [1, 2])
def test_double_cover_hurwitz_number(genus):
    """E and H are the cover term of one Hurwitz number each: 1/2, the double
    covers of P^1 branched over 2g + 2 points."""
    assert hurwitz_bruteforce(2, 2 * genus + 2) == Fraction(1, 2)


def test_elliptic_cover_from_every_genus1_cover():
    """Degree 2 is the only cover degree that reaches the genus-1 strata: the
    cover term of the whole genus-1 Hurwitz potential to degree 6, kept on
    a + b + 2c = 3d, is E."""
    h1 = {(d, b): val for (g, d, b), val in hurwitz(1, 6).items() if g == 1}
    on_strata = PLANE.cover(h1, 6).filter_keys(lambda deg, mono: mono in PLANE.strata(1, deg[0]))
    assert on_strata == double_cover(1)


def test_flag_line_term_is_the_known_wrong_number(g0_p2):
    """Z = w ds on the genus-1 double covers of a line: the covered line is
    the flag's own line and the flag's point one of two marks.  Z is the
    one entry (0,4,1) = 1, the printed genus-1 conic count that no conic
    has; without it degree 2 cancels.  Z is not subtracted in `src/`."""
    z = DiffOperator.build([(1, {"w": 1}, "s")])(SeriesTable(P2_SPACE, 2, {((2,), (0, 4, 0)): Fraction(1, 2)}))
    assert z.entries == {((2,), (0, 4, 1)): 1}
    g1 = charnum_genus1(g0_p2, {(1,): 0, (2,): 0, (3,): 1}, 3)
    assert g1.coeff((2,), (0, 4, 1)) == 1
    assert not (g1 - z).filter_keys(lambda deg, mono: deg == (2,)).entries


# -- genus 1 -------------------------------------------------------------------


def test_genus1_seed_echo(g1_p2):
    assert g1_p2.coeff((3,), (9, 0, 0)) == 1
    assert g1_p2.coeff((4,), (12, 0, 0)) == 225


def test_genus1_classical_cubics(g1_p2):
    # Zeuthen's elliptic-cubic chain; the first tangency number 4 is forced
    # by the pencil through 8 points (degree-3 cover of the t-line has 4
    # simple branch points)
    chain = [g1_p2.coeff((3,), (9 - b, b, 0)) for b in range(10)]
    assert chain == [1, 4, 16, 64, 256, 976, 3424, 9766, 21004, 33616]


def test_genus1_missing_seed_degree_raises(g0_p2):
    with pytest.raises(KeyError):
        charnum_genus1(g0_p2, {(1,): 0, (2,): 0}, 3)


def test_genus1_routes_agree(gw_p2, g0_p2, p2_genus1_seeds, g1_p2):
    virtual = charnum_genus1_virtual_route(gw_p2, p2_genus1_seeds, 4)
    assert virtual == g1_p2


def bumped(table: SeriesTable, key) -> SeriesTable:
    """`table` with 1 added to the entry at `key`."""
    entries = dict(table.entries)
    entries[key] += 1
    return SeriesTable(table.space, table.dmax, entries)


def test_wrong_genus0_entry_stops_both_genus1_routes(p2, gw_p2, g0_p2, p2_genus1_seeds):
    # every genus-0 entry of degree <= 3 is read by two equations of a genus-1 stratum that then disagree
    low = [key for key in g0_p2.entries if key[0][0] <= 3]
    assert len(low) == 39
    for key in low:
        with pytest.raises(SeedConflict, match="tangency and flag equations disagree"):
            charnum_genus1(bumped(g0_p2, key), p2_genus1_seeds, 4)
    ts = TangencySpace(p2)
    gamma0 = genus0_tangency_potential(ts, gw_p2, 4)
    low = [key for key in gamma0.entries if key[0][0] <= 3]
    assert len(low) == 36
    for key in low:
        with pytest.raises(SeedConflict, match="y_k equations disagree"):
            genus1_tangency_potential(ts, bumped(gamma0, key), p2_genus1_seeds, 4)


def test_genus1_integrality(g1_p2):
    for (deg, mono), val in g1_p2.entries.items():
        assert mono in PLANE.strata(1, deg[0])
        assert val.denominator == 1 and val >= 0


def test_genus1_degree_one_empty(g1_p2):
    assert not row(g1_p2, 1)


# -- genus 2 -------------------------------------------------------------------


def test_two_tail_equals_six_terms(g0_p2):
    P = PLANE.point
    two_tail = P(P(g0_p2)).scale(Fraction(1, 2 * 24 * 24))

    def six(d, a, b, c):
        def n0(aa, bb, cc):
            if min(aa, bb, cc) < 0:
                return Fraction(0)
            return g0_p2.coeff((d,), (aa, bb, cc))

        tot = Fraction(0)
        tot += 4 * comb(b, 2) * d * d * n0(a, b - 2, c)
        tot += 4 * b * (b - 1) * (b - 2) * d * n0(a + 1, b - 3, c)
        tot += 4 * b * c * d * n0(a + 1, b - 1, c - 1)
        tot += 2 * b * (b - 1) * (b - 2) * (b - 3) * n0(a + 2, b - 4, c)
        tot += 8 * comb(b, 2) * c * n0(a + 2, b - 2, c - 1)
        tot += 4 * comb(c, 2) * n0(a + 2, b, c - 2)
        return tot / (24 * 24)

    for d in (1, 2, 3, 4):
        top = 3 * d + 1
        for c in range(top // 2 + 1):
            for b in range(top - 2 * c + 1):
                a = top - b - 2 * c
                assert two_tail.coeff((d,), (a, b, c)) == six(d, a, b, c), (d, a, b, c)


def test_one_tail_display(g1_p2):
    P = PLANE.point
    one_tail = P(g1_p2).scale(Fraction(-1, 24))
    for d in (3, 4):
        top = 3 * d + 1
        for c in range(top // 2 + 1):
            for b in range(top - 2 * c + 1):
                a = top - b - 2 * c

                def n1(aa, bb, cc):
                    if min(aa, bb, cc) < 0:
                        return Fraction(0)
                    return g1_p2.coeff((d,), (aa, bb, cc))

                display = Fraction(-1, 24) * (
                    2 * b * d * n1(a, b - 1, c)
                    + 4 * comb(b, 2) * n1(a + 1, b - 2, c)
                    + 2 * c * n1(a + 1, b, c - 1)
                )
                assert one_tail.coeff((d,), (a, b, c)) == display, (d, a, b, c)


def test_cover_terms_operator_vs_expansion(g0_p2):
    L, P = PLANE.lines[0], PLANE.point
    h = double_cover(2).truncate(4)
    op_form = h.partial("s") * L(g0_p2) + h.partial("u") * P(g0_p2)
    g_s, g_u = g0_p2.partial("s"), g0_p2.partial("u")
    h_s, h_u = h.partial("s"), h.partial("u")
    expanded = NumeratorSum(P2_SPACE, op_form.dmax)
    expanded.add(h_s * g_s, [(1, {})])
    expanded.add(h_s * g_u, [(2, {"v": 1})])
    expanded.add(h_u * g_s, [(2, {"v": 1})])
    expanded.add(h_u * g_u, [(2, {"v": 2}), (2, {"w": 1})])
    assert op_form == expanded.table()


def test_genus2_zero_virtual_is_minus_corrections(g0_p2, g1_p2):
    zero = SeriesTable(P2_SPACE, 4)
    g2 = charnum_genus2(g0_p2, g1_p2, zero, 4)
    corr = genus2_corrections(g0_p2, g1_p2)
    assert g2 == corr.scale(-1).filter_keys(lambda deg, mono: deg[0] >= 4)


def test_genus2_linearity(g0_p2, g1_p2):
    virt = SeriesTable(P2_SPACE, 4, {((4,), (13, 0, 0)): Fraction(5)})
    g2 = charnum_genus2(g0_p2, g1_p2, virt, 4)
    zero = charnum_genus2(g0_p2, g1_p2, SeriesTable(P2_SPACE, 4), 4)
    diff = g2 - zero
    assert diff.entries == {((4,), (13, 0, 0)): 5}


def test_genus2_scope_gate(g0_p2, g1_p2):
    with pytest.raises(ValueError, match="d >= 4"):
        charnum_genus2(g0_p2, g1_p2, SeriesTable(P2_SPACE, 3), 3)


def test_genus2_output_restricted_to_enumerative_range(g0_p2, g1_p2):
    g2 = charnum_genus2(g0_p2, g1_p2, SeriesTable(P2_SPACE, 4), 4)
    assert all(deg[0] >= 4 for (deg, _) in g2.entries)
