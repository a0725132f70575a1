r"""One description of a homogeneous surface, the genus-0 and genus-1
level solvers and the cover terms, all shared by the plane and the quadric.

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

The genus-1 virtual potential V satisfies the genus-1 equation of
`descend`, summed over the divisors (tangency) and taken at the point (flag):

    V_v = (D.D) V_u + <G_x, V> + B(G_x)
    V_w = <G_u, V> + B(G_u)
    B(f) = (1/24) (sum_i L_i f_{x_i} + P f_u) + sum_i c_i L_i f

with c_i = -(1/24) \int T_i c(T_X).  Neither divides, and P has no constant
term, so the point-only genus-1 invariants seed V as they are.

The virtual numbers also count genus-g covers of a curve of total degree 1
(a line, a ruling), fixed by branch points on tangency curves (v) and by
k = c1 - 1 pins: a point at one of d marks (u ds), or a branch point at a
flag (w d/dv) or at one of the D.D points where two tangency curves meet
((D.D)/2 v^2 d/dv).  With H^g the Hurwitz potential of P^1 on each such
class, and d/dv acting on H^g only (normal order), the cover term is

    (1/k!) :(u ds + ((D.D)/2 v^2 + w) d/dv)^k: H^g,

and `excess` enters each of its entries as its weight a + b + 2c picks.

The pairing is gamma^{ef}, the inverse deformed metric of `metric`, under
the y-part of the tangency change of variables `tangency_map`: L_i is the
row of the divisor T_i and P that of the point class, column f acting as the
partial by f's variable.  The whole map takes the first-descendant
(tangency) potentials of `descend`, both over one `TangencySpace` of the
ring, to G (genus 0) and to the genus-1 virtual potential.  A surface's
solvers take only tables over its own built-in ring
(`geometry.builtin_name`), not over another ring that bears its name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from . import descend
from .geometry import CurveClass, TargetGeometry, builtin_name, in_box
from .gw import GWTable, SeedConflict
from .metric import inverse_metric, substitute_metric
from .series import (
    DiffOperator,
    NumeratorSum,
    Operand,
    Packing,
    Rat,
    SeriesTable,
    Slice,
    VarSpace,
    compositions,
    series_product,
)

__all__ = ["Surface"]


@dataclass(frozen=True)
class Surface:
    """The surface `geom` in the variables (degree vars; u, v, w) of `space`.
    Derived from `geom`: `c1` (c_1 per unit of total degree), `d_sq` (D.D),
    `lines[i]` (L of `space.degree_vars[i]`) and `point` (P)."""

    geom: TargetGeometry
    space: VarSpace
    c1: int = field(init=False)
    d_sq: int = field(init=False)
    lines: tuple[DiffOperator, ...] = field(init=False)
    point: DiffOperator = field(init=False)

    def __post_init__(self):
        geom, point = self.geom, self.geom.point
        (c1,) = set(geom.c1)
        object.__setattr__(self, "c1", int(c1))
        object.__setattr__(self, "d_sq", int(sum(geom.pairing[i][j] for i in geom.divisors for j in geom.divisors)))
        ys = {y: terms for y, terms in self.tangency_map().items() if y[0] == "y"}
        gamma = substitute_metric(inverse_metric(geom), ys, ("v", "w"))
        # the variable of each column; the potentials have none for T_0
        var = {**dict(zip(geom.divisors, self.space.degree_vars)), point: "u"}
        *lines, point_op = (
            DiffOperator.build(
                (coef, {n: k for n, k in zip(gamma.varnames, mono) if k}, var[f])
                for f, poly in enumerate(gamma.rows[e])
                if f in var
                for mono, coef in sorted(poly.items(), reverse=True)
            )
            for e in (*geom.divisors, point)
        )
        object.__setattr__(self, "lines", tuple(lines))
        object.__setattr__(self, "point", point_op)

    def strata(self, genus: int, total: int):
        """(a, b, c) with a + b + 2c = c1 * total - 1 + genus, flags outermost:
        (c, b, a) in lexicographic order."""
        for c, b, a in compositions(self.c1 * total - 1 + genus, (2, 1, 1)):
            yield a, b, c

    def ds(self, f: SeriesTable) -> SeriesTable:
        """The total-degree derivative: the sum of the degree-variable partials."""
        first, *rest = self.space.degree_vars
        out = f.partial(first)
        for x in rest:
            out = out + f.partial(x)
        return out

    def partials(self, f: SeriesTable | Slice) -> tuple:
        """(F_u, F_{x_1}, F_{x_2}, ...): the left-hand factors of <F, G>, of
        a table or of a prepared slice."""
        return (f.partial("u"), *(f.partial(x) for x in self.space.degree_vars))

    def images(self, g: SeriesTable) -> tuple[SeriesTable, ...]:
        """(P G, L_1 G, L_2 G, ...): the right-hand factors of <F, G>."""
        return (self.point(g), *(line(g) for line in self.lines))

    def slice_images(self, g: Slice) -> tuple[Slice, ...]:
        """`images` of a prepared slice."""
        return (self.point.image(g), *(line.image(g) for line in self.lines))

    def packing(self, dmax: int, box: CurveClass | None = None) -> Packing:
        """A packing for every factor of a level loop to total degree dmax at
        genus <= 1: an entry of G^g at total degree n has a + b + 2c =
        c1 n - 1 + g <= c1 dmax, and the operators raise v by at most 2."""
        return Packing(self.space, dmax, [self.c1 * dmax + 2] * len(self.space.exp_vars), box)

    def pair(self, f: SeriesTable, g: SeriesTable, box: CurveClass | None = None) -> SeriesTable:
        """sum_i F_{x_i} . L_i G + F_u . P G, on the classes componentwise
        <= `box` if given."""
        lefts, rights = self.partials(f), self.images(g)
        pk = Packing.fitting((*lefts, *rights), box)
        return self.pair_operands([Operand(pk, t) for t in lefts], [Operand(pk, t) for t in rights])

    @staticmethod
    def pair_operands(lefts, rights, total: int | None = None) -> SeriesTable:
        """`pair` with its factors prepared: the operands of `partials` and `images`."""
        first, *rest = (series_product(left, right, total=total) for left, right in zip(lefts, rights))
        for product in rest:
            first = first + product
        return first

    def _geometry(self, gw: GWTable) -> TargetGeometry:
        """The geometry of `gw`, which must be this surface's ring."""
        if builtin_name(gw.geom) != self.geom.name:
            name = self.geom.name
            raise ValueError(f"the {name} solver needs the built-in {name} geometry, got a table over {gw.geom.name!r}")
        return gw.geom

    def tangency_map(self) -> dict[str, list[tuple[int, str]]]:
        """Each exponent variable of the tangency potentials as a sum of (u, v, w).

        With D the sum of the divisor classes, tangency to D is
        tau_1(D) + (D.D) tau_0(pt) and a flag is tau_1(pt).  So the y of
        every divisor becomes v, the x of the point u + (D.D) v and the y of
        the point w.
        """
        geom, point = self.geom, self.geom.point
        out = {f"y{i}": [(1, "v")] for i in geom.divisors}
        out[f"x{point}"] = [(1, "u"), (self.d_sq, "v")]
        out[f"y{point}"] = [(1, "w")]
        return out

    def genus0(self, gw: GWTable, dmax: int, box: CurveClass | None = None) -> SeriesTable:
        """All genus-0 characteristic numbers up to total degree dmax, on the
        classes componentwise <= `box` if given.

        Level n reads G below degree n only through the partials of
        G_s = ds(G) and G_u and the images of G_s and ds(G_s).  The maps are
        linear and keep the curve class, so these factors are product
        operands that gain one degree slice per level, and level n convolves
        only the slice pairs (k, n - k).  A class reads only classes below
        it, so the box needs no others, and the products skip the class
        pairs that leave it.  The tangency product <G_s, G_s> is read only
        at w = 0, and w adds up in products and is never lowered by the
        operators, so G_s and its images keep only their w = 0 part.  The
        operators have coefficients in v and w only, so they commute with ds
        and with that cut.  A solved level is packed once (`Packing.prepare`)
        and every factor slice is derived from that one `Slice`: ds of a
        slice of total degree n is n times it, so with S the level and I its
        images, the factors are the partials of n S|w=0 and of S_u, n I|w=0
        and n^2 I.  A level is a `NumeratorSum`; a stratum reads its product
        before the level's own numerator, and `put` divides.
        """
        geom = self._geometry(gw)
        pk = self.packing(dmax, box)
        # the factors of <G_s, G_s> and <G_u, G_ss>
        factors = [[Operand(pk) for _ in range(1 + len(self.lines))] for _ in range(4)]
        left_s, right_s, left_u, right_ss = factors
        out = NumeratorSum(self.space, dmax)
        for n in range(1, dmax + 1):
            level = NumeratorSum(self.space, dmax)
            for beta in geom.curve_classes(n, box):
                npts = self.c1 * n - 1
                seed = gw.lookup(beta, [geom.point] * npts)
                if seed:
                    level.put((beta, (npts, 0, 0)), seed.numerator, seed.denominator)
            # the tangency equation halves qv: it divides by 2n
            qv = self.pair_operands(left_s, right_s, n)
            qw = self.pair_operands(left_u, right_ss, n)
            for beta in geom.curve_classes(n, box):
                for a, b, c in self.strata(0, n):
                    if b == 0 and c == 0:
                        continue
                    if c == 0:
                        q = level.read(qv, (beta, (a, b - 1, 0)))
                        num = 2 * self.d_sq * (n - 1) * level.acc.get((beta, (a + 1, b - 1, 0)), 0) + q
                        den = 2 * n
                    else:
                        q = level.read(qw, (beta, (a, b, c - 1)))
                        num = self.d_sq * level.acc.get((beta, (a + 2, b, c - 1)), 0) + q
                        den = n * n
                    if num:
                        level.put((beta, (a, b, c)), num, den * level.den)
            new = level.table()
            out.add(new, [(1, {})])
            if n < dmax and (part := pk.prepare(new).get(n)) is not None:
                images = self.slice_images(part)
                slices = (
                    self.partials(part.cut("w").scale(n)),
                    [image.cut("w").scale(n) for image in images],
                    self.partials(part.partial("u")),
                    [image.scale(n * n) for image in images],
                )
                for operands, parts in zip(factors, slices):
                    for operand, s in zip(operands, parts):
                        operand.append(s)
        return out.table()

    def _genus1_block(self, f: SeriesTable) -> SeriesTable:
        """B(f), the genus-0 term of both genus-1 equations: one `add` per
        distinct partial of f, with every (coefficient, monomial) that reads it."""
        first = {x: f.partial(x) for x in ("u", *self.space.degree_vars)}
        terms: dict[tuple[str, ...], list] = {}
        for x, op, c in zip(first, (self.point, *self.lines), (0, *self.geom.chern_divisor)):
            for coef, mono, var in op.terms:
                terms.setdefault(tuple(sorted((x, var))), []).append((coef / 24, dict(mono)))
                terms.setdefault((var,), []).append((-c * coef / 24, dict(mono)))
        out = NumeratorSum(self.space, f.dmax)
        for xs, ts in terms.items():
            out.add(first[xs[0]] if len(xs) == 1 else first[xs[0]].partial(xs[1]), ts)
        return out.table()

    def genus1(self, g0: SeriesTable, seeds: dict[tuple, Rat], dmax: int) -> SeriesTable:
        """V + (1/24) P G^0 up to total degree dmax, the table of
        `genus1_virtual`, from the genus-0 numbers `g0` and the point-only
        `seeds` by class; a missing class raises KeyError.  A stratum with a
        tangency and a flag is solved by both equations, and unequal values
        raise SeedConflict.  The operators and B have coefficients in v and w
        only, so the images and B of G^0_x and G^0_u are the partials of
        those of G^0, formed once.  G^0 is packed once, slice by slice, and
        the images of each slice are formed once: P's image enters the sum as
        the term (1/24) P G^0 (`NumeratorSum.add_slice`), and the images of
        the slices below the top one give the product operands: ds of the
        image of a slice of total degree n is n times it.  Each level of V is
        packed once, and the partials of V gain its slice.  A level is a
        `NumeratorSum` over its right sides' denominators."""
        block = self._genus1_block(g0)
        block_s, block_u = self.ds(block), block.partial("u")
        # no product reaches above the degrees that G^0 holds, and a product
        # at n <= pk.dmax reads images of total degree < n only
        pk = self.packing(min(dmax, g0.dmax))
        images_s, images_u, lower = ([Operand(pk) for _ in range(1 + len(self.lines))] for _ in range(3))
        out = NumeratorSum(self.space, dmax)
        for n, part in pk.prepare(g0).items():
            images = self.slice_images(part)
            out.add_slice(images[0], Fraction(1, 24))
            if n < pk.dmax:
                for image, op_s, op_u in zip(images, images_s, images_u):
                    op_s.append(image.scale(n))
                    op_u.append(image.partial("u"))
        for n in range(1, dmax + 1):
            level = NumeratorSum(self.space, dmax)
            qv = self.pair_operands(lower, images_s, n)
            qw = self.pair_operands(lower, images_u, n)
            # no division follows, so no read below grows the denominator
            for t in (qv, qw, block_s, block_u):
                level.over(t.den)
            for beta in self.geom.curve_classes(n):
                if beta not in seeds:
                    raise KeyError(f"genus-1 seed for class {beta} is missing")
                level.put((beta, (self.c1 * n, 0, 0)), seeds[beta].numerator, seeds[beta].denominator)
                for a, b, c in self.strata(1, n):
                    if b == 0 and c == 0:
                        continue
                    vals = []
                    if c > 0:
                        key = (beta, (a, b, c - 1))
                        vals.append(level.read(qw, key) + level.read(block_u, key))
                    if b > 0:
                        key = (beta, (a, b - 1, c))
                        prev = level.acc.get((beta, (a + 1, b - 1, c)), 0)
                        vals.append(self.d_sq * prev + level.read(qv, key) + level.read(block_s, key))
                    if len(set(vals)) > 1:
                        where = f"d={','.join(map(str, beta))}, (a,b,c)=({a},{b},{c})"
                        shown = ", ".join(str(Fraction(v, level.den)) for v in vals)
                        raise SeedConflict(f"the genus-1 tangency and flag equations disagree at {where}: {shown}")
                    if vals[0]:
                        level.put((beta, (a, b, c)), vals[0], level.den)
            new = level.table()
            out.add(new, [(1, {})])
            if n < dmax and (part := pk.prepare(new).get(n)) is not None:
                for operand, s in zip(lower, self.partials(part)):
                    operand.append(s)
        return out.table()

    def genus1_virtual(
        self, gw: GWTable, seeds: dict[tuple, Rat], dmax: int, box: CurveClass | None = None
    ) -> tuple[SeriesTable, SeriesTable]:
        """The genus-1 virtual potential in (u, v, w), plus (1/24) P G^0, and
        the genus-0 characteristic numbers G^0 it used.

        Runs both tangency potentials over one `TangencySpace` up to total
        degree dmax (on the classes componentwise <= `box` if given) from
        the GW table and the genus-1 point-only `seeds` (by curve class),
        then substitutes `tangency_map` in both; the degree slots keep their
        position.  The substituted genus-0 potential is G^0, the table that
        `genus0` gives on the same box, so a caller needs no second genus-0
        solve.  What is left to subtract is the `excess` of the covers.
        """
        ts = descend.TangencySpace(self._geometry(gw))
        gamma0 = descend.genus0_tangency_potential(ts, gw, dmax, box)
        gamma1 = descend.genus1_tangency_potential(ts, gamma0, seeds, dmax, box)
        tangency = self.tangency_map()
        g0 = gamma0.substitute(self.space, tangency)
        virtual = gamma1.substitute(self.space, tangency) + self.point(g0).scale(Fraction(1, 24))
        return virtual, g0

    def cover(self, hurwitz: dict[tuple[int, int], Rat], dmax: int) -> SeriesTable:
        """The cover term of the genus-g Hurwitz numbers {(d, b): N_d(b)} of
        P^1 up to total degree dmax: one `add` per choice of j marks, l
        tangency pairs and m flags for the k = j + l + m pins."""
        degree_one = self.geom.curve_classes(1)
        placed = {(tuple(d * x for x in e), (0, b, 0)): val for e in degree_one for (d, b), val in hurwitz.items()}
        h = SeriesTable(self.space, dmax, placed)
        out = NumeratorSum(self.space, dmax)
        for j, l, m in compositions(self.c1 - 1, (1, 1, 1)):
            f = h
            for _ in range(j):
                f = self.ds(f)
            for _ in range(l + m):
                f = f.partial("v")
            coef = Fraction(self.d_sq, 2) ** l / (factorial(j) * factorial(l) * factorial(m))
            out.add(f, [(coef, {"u": j, "v": 2 * l, "w": m})])
        return out.table()

    def excess(self, hurwitz: dict, g0: SeriesTable, genus: int, box: CurveClass | None = None) -> SeriesTable:
        """The `cover` entries of the genus-g `hurwitz` as they enter the
        genus-g numbers, to the degree of `g0` (G^0), on the classes <= `box`.

        A degree-d cover has 2d + 2g - 2 branch points and k pins: the weight
        of its entries.  An entry on the genus-g dimension c1 n - 1 + g enters
        as it is, and F one above it as <F, G^0>, which adds c1 n0 - 1 to the
        weight of F; no other weight lands on the dimension.  With none one
        above no image of G^0 is formed.  On the plane double covers of a line
        sit at 2g + 4: on the genus-1 dimension (E), one above genus 2's (H)."""
        cover = self.cover(hurwitz, g0.dmax)
        # a + b + 2c above the genus-g dimension c1 n - 1 + g
        height = {(deg, mono): sum(mono) + mono[2] + 1 - genus - self.c1 * sum(deg) for deg, mono in cover.nums}
        out = cover.filter_keys(lambda deg, mono: height[deg, mono] == 0 and in_box(deg, box))
        paired = cover.filter_keys(lambda deg, mono: height[deg, mono] == 1)
        return out + self.pair(paired, g0, box) if paired.nums else out
