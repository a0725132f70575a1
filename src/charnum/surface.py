r"""One description of a homogeneous surface and the genus-0 level solver
shared by the plane and the quadric.

On a surface with tangency divisor D, a point operator P and one line
operator L_i per degree variable x_i, the genus-0 characteristic potential
G(x, u, v, w) (u points, v tangencies to D, w flags) satisfies

    G_vx  = (D.D) (G_ux - G_u) + (1/2) <G_x, G_x>
    G_wxx = (D.D) G_uu + <G_u, G_xx>

with x the total-degree derivative sum_i d/dx_i and the pairing

    <F, G> = sum_i F_{x_i} . L_i G + F_u . P G.

Read off at a class of total degree n, the first removes one tangency and
the second one flag, dividing by n resp. n^2; the point-only invariants seed
each level.

The genus-1 virtual potential comes from the first-descendant (tangency)
potentials of `descend` by one change of variables, which `tangency_map`
derives from the geometry and D.D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import descend
from .geometry import CurveClass, TargetGeometry
from .gw import GWTable
from .series import DiffOperator, Rat, SeriesTable, VarSpace, series_product

__all__ = ["Surface"]


@dataclass(frozen=True)
class Surface:
    """`name` is the geometry whose GW tables the solver accepts.  Exponent
    variables are (u, v, w); `lines[i]` pairs with the degree variable
    `space.degree_vars[i]`.  `c1` is c_1 per unit of total degree and `d_sq`
    the self-intersection D.D of the tangency divisor."""

    name: str
    space: VarSpace
    lines: tuple[DiffOperator, ...]
    point: DiffOperator
    c1: int
    d_sq: int

    def strata(self, genus: int, total: int):
        """(a, b, c) with a + b + 2c = c1 * total - 1 + genus, flags outermost."""
        top = self.c1 * total - 1 + genus
        for c in range(top // 2 + 1):
            for b in range(top - 2 * c + 1):
                yield top - b - 2 * c, b, c

    def ds(self, f: SeriesTable) -> SeriesTable:
        """The total-degree derivative: the sum of the degree-variable partials."""
        first, *rest = self.space.degree_vars
        out = f.partial(first)
        for x in rest:
            out = out + f.partial(x)
        return out

    def images(self, g: SeriesTable) -> tuple[SeriesTable, ...]:
        """(P G, L_1 G, L_2 G, ...): the right-hand factors of <F, G>."""
        return (self.point(g), *(line(g) for line in self.lines))

    def pair(self, f: SeriesTable, g: SeriesTable, total: int | None = None) -> SeriesTable:
        """sum_i F_{x_i} . L_i G + F_u . P G, only at total degree `total` if given."""
        return self.pair_images(f, self.images(g), total)

    def pair_images(self, f: SeriesTable, images: tuple[SeriesTable, ...], total: int | None = None) -> SeriesTable:
        """`pair` with G given by its `images`, for a G shared by many pairings."""
        point_image, *line_images = images
        out = series_product(f.partial("u"), point_image, total=total)
        for x, image in zip(self.space.degree_vars, line_images):
            out = out + series_product(f.partial(x), image, total=total)
        return out

    def _geometry(self, gw: GWTable) -> TargetGeometry:
        """The geometry of `gw`, which must be this surface's."""
        if gw.geom.name != self.name:
            raise ValueError(f"the {self.name} solver needs the {self.name} geometry, got {gw.geom.name}")
        return gw.geom

    def tangency_map(self, geom: TargetGeometry) -> dict[str, list[tuple[int, str]]]:
        """Each exponent variable of the tangency potentials as a sum of (u, v, w).

        With D the sum of the divisor classes, tangency to D is
        tau_1(D) + (D.D) tau_0(pt) and a flag is tau_1(pt).  So the y of
        every divisor becomes v, the x of the point u + (D.D) v and the y of
        the point w.
        """
        point = geom.rank - 1
        out = {f"y{i}": [(1, "v")] for i in geom.divisors}
        out[f"x{point}"] = [(1, "u"), (self.d_sq, "v")]
        out[f"y{point}"] = [(1, "w")]
        return out

    def genus0(self, gw: GWTable, dmax: int, box: CurveClass | None = None) -> SeriesTable:
        """All genus-0 characteristic numbers up to total degree dmax, on the
        classes componentwise <= `box` if given.

        Level n reads G below degree n only through G_s = ds(G), G_u and the
        images of G_s and ds(G_s).  The maps are linear and keep the curve
        class, so each level adds its own slice to them for the levels above.
        A class reads only classes below it, so the box needs no others.
        The tangency product <G_s, G_s> is read only at w = 0, and w adds up
        in products and is never lowered by the operators, so G_s and its
        images keep only their w = 0 part.
        """
        geom = self._geometry(gw)
        point_class = geom.rank - 1
        w = self.space.exp_index("w")

        def flat(t: SeriesTable) -> SeriesTable:
            return t.filter_keys(lambda deg, mono: not mono[w])

        empty = SeriesTable._trusted(self.space, dmax, {})
        g_s = g_u = empty
        images_s = images_ss = self.images(empty)
        entries: dict = {}
        for n in range(1, dmax + 1):
            level: dict = {}
            for beta in geom.curve_classes(n, box):
                npts = self.c1 * n - 1
                seed = Fraction(gw.lookup(beta, [point_class] * npts))
                if seed:
                    level[(beta, (npts, 0, 0))] = seed
            qv = self.pair_images(g_s, images_s, n).scale(Fraction(1, 2))
            qw = self.pair_images(g_u, images_ss, n)
            for beta in geom.curve_classes(n, box):
                for a, b, c in self.strata(0, n):
                    if b == 0 and c == 0:
                        continue
                    if c == 0:
                        prev = level.get((beta, (a + 1, b - 1, 0)), Fraction(0))
                        val = (self.d_sq * (n - 1) * prev + qv.coeff(beta, (a, b - 1, 0))) / n
                    else:
                        prev = level.get((beta, (a + 2, b, c - 1)), Fraction(0))
                        val = (self.d_sq * prev + qw.coeff(beta, (a, b, c - 1))) / (n * n)
                    if val:
                        level[(beta, (a, b, c))] = val
            entries.update(level)
            if n < dmax:
                new = SeriesTable._trusted(self.space, dmax, level)
                new_s = self.ds(new)
                flat_s = flat(new_s)
                g_s = g_s + flat_s
                g_u = g_u + new.partial("u")
                images_s = tuple(old + flat(add) for old, add in zip(images_s, self.images(flat_s)))
                images_ss = tuple(old + add for old, add in zip(images_ss, self.images(self.ds(new_s))))
        return SeriesTable._trusted(self.space, dmax, entries)

    def genus1_virtual(
        self,
        gw: GWTable,
        g0: SeriesTable,
        seeds: dict[tuple, Rat],
        dmax: int,
        box: CurveClass | None = None,
    ) -> SeriesTable:
        """The genus-1 virtual potential in (u, v, w), plus (1/24) P G^0.

        Runs both tangency potentials up to total degree dmax (on the classes
        componentwise <= `box` if given) from the GW table and the genus-1
        point-only `seeds` (by curve class), then substitutes `tangency_map`;
        the degree slots keep their position.  What is left to subtract is
        each surface's own cover term.
        """
        geom = self._geometry(gw)
        gamma0 = descend.genus0_tangency_potential(geom, gw, dmax, box)
        gamma1 = descend.genus1_tangency_potential(geom, gamma0, seeds, dmax, box)
        virtual = gamma1.substitute(self.space, self.tangency_map(geom))
        return virtual + self.point(g0).scale(Fraction(1, 24))
