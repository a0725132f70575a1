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
`QUADRIC.cover` of the genus-1 potential H1 placed on both rulings, are
I = u H1_{u1} + (v^2 + w) H1_v (and J with the rulings swapped).  They sit
one above the genus-1 dimension, so `QUADRIC.excess` pairs them with G0 in
the genus-1 correction formula

    virtual = G1 - (1/24) P G0 + I_{u1}.L1 G0 + I_u.P G0
                                + J_{u2}.L2 G0 + J_u.P G0,

with the ruling operators L1 = d/du2 + 2v d/du, L2 = d/du1 + 2v d/du and
P = 2v d/du1 + 2v d/du2 + (4v^2 + 2w) d/du, the rows of the deformed metric
of P^1 x P^1 that `Surface` derives.  G0 here is the genus-0 tangency
potential under the change of variables that gives the virtual potential,
so `quadric_genus1` needs no `quadric_genus0` table, and a degree box bounds
every solve in it, the Hurwitz covers included.
"""

from __future__ import annotations

from .descend import TangencySpace, genus0_tangency_potential, genus1_tangency_potential
from .geometry import builtin_geometry
from .gw import GWTable, wdvv_solve
from .seeds import default_gw_seeds
from .series import Rat, SeriesTable, VarSpace
from .surface import Surface

__all__ = [
    "Q_SPACE",
    "QUADRIC",
    "hurwitz",
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
    h0 = genus0_tangency_potential(ts, wdvv_solve(p1, default_gw_seeds(p1), dmax), dmax)
    potentials = [h0] if gmax == 0 else [h0, genus1_tangency_potential(ts, h0, {}, dmax)]
    return {(g, deg[0], mono[0]): v for g, h in enumerate(potentials) for (deg, mono), v in h.entries.items()}


QUADRIC = Surface(builtin_geometry("p1xp1"), Q_SPACE)


def quadric_genus0(gw: GWTable, dmax: int, box: tuple[int, int] | None = None) -> SeriesTable:
    """Genus-0 quadric characteristic numbers up to total degree dmax, on the
    bidegrees componentwise <= `box` if given."""
    return QUADRIC.genus0(gw, dmax, box)


def quadric_genus1(
    gw: GWTable, seeds: dict[tuple[int, int], Rat], dmax: int, box: tuple[int, int] | None = None
) -> SeriesTable:
    """Genus-1 quadric characteristic numbers via the correction formula.

    `seeds` maps bidegrees to the genus-1 point-only invariant.  Only entries
    with both partial degrees positive are enumerative; rule-supported
    bidegrees are dropped from the output.  G^0, in (1/24) P G^0 and in
    `Surface.excess`, is the genus-0 table that `Surface.genus1_virtual` gets
    from its own tangency potential, so no second genus-0 solve runs.  With
    `box`, only the bidegrees componentwise <= box are computed and
    returned, only their seeds are read, and the Hurwitz covers are read up
    to degree max(box): a cover of degree d lies on a ruling, at (d, 0) or
    (0, d).
    """
    virtual, g0 = QUADRIC.genus1_virtual(gw, seeds, dmax, box)
    h1 = hurwitz(1, dmax if box is None else min(dmax, max(box)))
    g1 = virtual - QUADRIC.excess({(d, b): val for (g, d, b), val in h1.items() if g == 1}, g0, 1, box)
    return g1.filter_keys(lambda deg, mono: deg[0] >= 1 and deg[1] >= 1)
