r"""Characteristic numbers on P^1 x P^1 (genus 0 and 1) and the simple
Hurwitz numbers that drive the genus-1 corrections.

Conditions: a points, b tangencies with general (1,1)-curves, c such
tangencies at specified points.  N^g_{(d1,d2)}(a,b,c) is zero unless
a + b + 2c = 2(d1+d2) - 1 + g; tables are symmetric under swapping rulings.

Hurwitz potentials H^g(t,v) = sum_{d>0} e^{dt} sum_b v^b/b! N^g_d(b) count
d-sheeted genus-g covers of the sphere simply branched over b = 2d + 2g - 2
points.  They are the first-descendant potentials of `descend` on P^1, with
t the degree and v the tau_1(pt) variable, seeded only by the identity cover
N^0_1(0) = 1; `oracles.hurwitz_bruteforce` counts the same numbers by
factorizations in the symmetric group.  Genus-1 covers of a ruling,
packaged as I = u H1_{u1} + (v^2 + w) H1_v (and J with the rulings swapped),
are the excess components behind the genus-1 correction formula

    virtual = G1 - (1/24) P G0 + I_{u1}.L1 G0 + I_u.P G0
                                + J_{u2}.L2 G0 + J_u.P G0,

with the ruling operators L1 = d/du2 + 2v d/du, L2 = d/du1 + 2v d/du and
P = 2v d/du1 + 2v d/du2 + (4v^2 + 2w) d/du.
"""

from __future__ import annotations

from .descend import TangencySpace, genus0_tangency_potential, genus1_tangency_potential
from .geometry import builtin_geometry, in_box
from .gw import GWTable, wdvv_solve
from .seeds import default_gw_seeds
from .series import DiffOperator, Rat, SeriesTable, VarSpace
from .surface import Surface

__all__ = [
    "Q_SPACE",
    "QUADRIC",
    "hurwitz",
    "hurwitz_in_ruling",
    "rule_cover_potentials",
    "quadric_genus0",
    "quadric_genus1",
]

Q_SPACE = VarSpace(("u1", "u2"), ("u", "v", "w"))


def hurwitz(gmax: int, dmax: int) -> dict[tuple[int, int, int], Rat]:
    """Simple Hurwitz numbers as {(g, d, b): value}, g <= gmax <= 1, read off
    the first-descendant potentials of P^1."""
    if gmax > 1:
        raise ValueError("only genus 0 and 1 are covered by the two recursions")
    p1 = builtin_geometry("p1")
    ts = TangencySpace(p1)
    h0 = genus0_tangency_potential(p1, wdvv_solve(p1, default_gw_seeds(p1), dmax), dmax, ts=ts)
    potentials = [h0] if gmax == 0 else [h0, genus1_tangency_potential(p1, h0, {}, dmax, ts=ts)]
    return {(g, deg[0], mono[0]): v for g, h in enumerate(potentials) for (deg, mono), v in h.entries.items()}


def hurwitz_in_ruling(table: dict[tuple[int, int, int], Rat], genus: int, ruling: int, dmax: int) -> SeriesTable:
    """The genus-g Hurwitz potential placed on one ruling of the quadric."""
    entries = {}
    for (g, d, b), val in table.items():
        if g != genus or d > dmax:
            continue
        beta = (d, 0) if ruling == 1 else (0, d)
        entries[(beta, (0, b, 0))] = val
    return SeriesTable(Q_SPACE, dmax, entries)


def rule_cover_potentials(h1_table: dict[tuple[int, int, int], Rat], dmax: int) -> tuple[SeriesTable, SeriesTable]:
    """I and J: genus-1 multiple covers of a horizontal resp. vertical rule.

    The supporting rule is pinned by one incidence condition (i mark choices),
    by two tangency conditions (through an intersection point), or by one
    flag condition; hence u H1_{u1} + (v^2 + w) H1_v per ruling.
    """
    out = []
    for ruling, dvar in ((1, "u1"), (2, "u2")):
        h1 = hurwitz_in_ruling(h1_table, 1, ruling, dmax)
        pot = h1.partial(dvar).times_monomial({"u": 1}) + h1.partial("v").times_monomial(
            {"v": 2}
        ) + h1.partial("v").times_monomial({"w": 1})
        out.append(pot)
    return out[0], out[1]


# the ruling operators L1 (paired with u1), L2 (with u2) and the point operator
QUADRIC = Surface(
    "p1xp1",
    Q_SPACE,
    (
        DiffOperator.build([(1, {}, "u2"), (2, {"v": 1}, "u")]),
        DiffOperator.build([(1, {}, "u1"), (2, {"v": 1}, "u")]),
    ),
    DiffOperator.build([(2, {"v": 1}, "u1"), (2, {"v": 1}, "u2"), (4, {"v": 2}, "u"), (2, {"w": 1}, "u")]),
    c1=2,
    d_sq=2,
)


def quadric_genus0(gw: GWTable, dmax: int, box: tuple[int, int] | None = None) -> SeriesTable:
    """Genus-0 quadric characteristic numbers up to total degree dmax, on the
    bidegrees componentwise <= `box` if given."""
    return QUADRIC.genus0(gw, dmax, box)


def quadric_genus1(
    gw: GWTable,
    g0: SeriesTable,
    seeds: dict[tuple[int, int], Rat],
    dmax: int,
    box: tuple[int, int] | None = None,
) -> SeriesTable:
    """Genus-1 quadric characteristic numbers via the correction formula.

    `seeds` maps bidegrees to the genus-1 point-only invariant.  Only entries
    with both partial degrees positive are enumerative; rule-supported
    bidegrees are dropped from the output.  With `box`, only the bidegrees
    componentwise <= box are computed and returned, `g0` needs only those,
    and only their seeds are read.
    """
    virtual = QUADRIC.genus1_virtual(gw, g0, seeds, dmax, box)
    i_pot, j_pot = rule_cover_potentials(hurwitz(1, dmax), dmax)
    # I has no u2-degree and J no u1-degree, so one pairing gives both cover terms
    g1 = virtual - QUADRIC.pair(i_pot + j_pot, g0, box=box)
    return g1.filter_keys(lambda deg, mono: deg[0] >= 1 and deg[1] >= 1 and in_box(deg, box))
