r"""Characteristic numbers of plane curves (genus 0, 1, 2).

N^g_d(a,b,c) counts irreducible degree-d genus-g plane curves through a
general points, tangent to b general lines, and tangent to c general lines at
a specified point (flag conditions); it is zero unless a + b + 2c = 3d+g-1.
The potential

    G^g(s,u,v,w) = sum_{d>0} exp(ds) sum u^a/a! v^b/b! w^c/c! N^g_d(a,b,c)

is computed per genus:

* genus 0: tangency and flag conditions are removed one at a time:

    G_vs  = G_us - G_u + (1/2)(G_ss . L G_s + G_us . P G_s)
    G_wss = G_uu + (G_us . L G_ss + G_uu . P G_ss)

  with the line and point operators L = d/ds + 2v d/du and
  P = 2v d/ds + (2v^2 + 2w) d/du, the rows of the deformed metric of P^2
  that `Surface` derives, seeded by the point-only Gromov-Witten numbers.
  Virtual equals enumerative in genus 0.

* genus 1: `Surface.genus1` solves the genus-1 equations of the ring and
  returns G^1 + E = virtual + (1/24) P G^0, where E, the generating
  polynomial of elliptic double covers of a line, is subtracted at reporting
  time.  An independent route takes the virtual potential from the genus-1
  tangency potential of `descend`.  E and H below are the cover terms of one
  Hurwitz number; `Surface.excess` enters E as it is and pairs H with G^0.

* genus 2: only the correction layer: for d >= 4,

    G^2 = virtual + (1/24) P G^1 - (1/2)((1/24) P)^2 G^0
          - (H_s . L G^0 + H_u . P G^0),

  where H counts genus-2 double covers of a line and the virtual numbers are
  ingested seed data.  Degrees d <= 3 carry further degenerate-cover terms
  that are not evaluated here and are rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .descend import DescendantSpec
from .geometry import builtin_geometry
from .gw import GWTable
from .series import Rat, SeriesTable, VarSpace
from .surface import Surface

__all__ = [
    "P2_SPACE",
    "PLANE",
    "tangency_expand",
    "charnum_genus0",
    "charnum_genus1",
    "charnum_genus1_virtual_route",
    "charnum_genus2",
    "genus2_corrections",
]

P2_SPACE = VarSpace(("s",), ("u", "v", "w"))


PLANE = Surface(builtin_geometry("p2"), P2_SPACE)


def _double_covers(g0: SeriesTable, genus: int) -> SeriesTable:
    """The excess of the Hurwitz number 1/2 of P^1 at 2g + 2 branch points."""
    return PLANE.excess({(2, 2 * genus + 2): Fraction(1, 2)}, g0, genus)


def tangency_expand(a: int, b: int, c: int, d: int):
    """Expand point^a (point + tau_1(line))^b flag^c into pure descendant
    specs with binomial multiplicities (the bridge to the recursion engine)."""
    out = []
    for k in range(b + 1):
        ins = ((0, 2),) * (a + k) + ((1, 1),) * (b - k) + ((1, 2),) * c
        out.append((DescendantSpec(0, (d,), ins), comb(b, k)))
    return out


def charnum_genus0(gw: GWTable, dmax: int) -> SeriesTable:
    """All genus-0 characteristic numbers of the plane up to degree dmax."""
    return PLANE.genus0(gw, dmax)


def charnum_genus1(g0: SeriesTable, seeds: dict[tuple, Rat], dmax: int) -> SeriesTable:
    """Genus-1 characteristic numbers: `Surface.genus1` minus E.  `seeds`
    maps the class (d,) to the point-only count N^1_d(3d,0,0)."""
    return PLANE.genus1(g0, seeds, dmax) - _double_covers(g0, 1)


def charnum_genus1_virtual_route(gw: GWTable, seeds: dict[tuple, Rat], dmax: int) -> SeriesTable:
    """Genus-1 numbers via the tangency potential and the correction formula
    enumerative = virtual + (1/24) P G^0 - E; `seeds` as for `charnum_genus1`.
    G^0 is the substituted genus-0 tangency potential of
    `Surface.genus1_virtual`, not the level loop of `charnum_genus0`, so the
    route shares no genus-0 table with `charnum_genus1`."""
    virtual, g0 = PLANE.genus1_virtual(gw, seeds, dmax)
    return virtual - _double_covers(g0, 1)


def genus2_corrections(g0: SeriesTable, g1: SeriesTable) -> SeriesTable:
    """The terms added to G^2 to produce the virtual potential (degree >= 4
    part; the degree-2/3 degenerate-cover terms are never evaluated)."""
    P = PLANE.point
    two_tail = P(P(g0)).scale(Fraction(1, 2 * 24 * 24))
    one_tail = P(g1).scale(Fraction(-1, 24))
    return one_tail + two_tail + _double_covers(g0, 2)


def charnum_genus2(
    g0: SeriesTable,
    g1: SeriesTable,
    virtual2: SeriesTable,
    dmax: int,
) -> SeriesTable:
    """Genus-2 characteristic numbers for 4 <= d <= dmax from ingested
    virtual numbers; degrees below 4 are out of enumerative scope."""
    if dmax < 4:
        raise ValueError(
            "genus-2 enumerative output needs d >= 4: the degree-2 and degree-3 "
            "degenerate-cover terms are not evaluated"
        )
    out = virtual2.truncate(dmax) - genus2_corrections(g0, g1).truncate(dmax)
    return out.filter_keys(lambda deg, mono: deg[0] >= 4)
