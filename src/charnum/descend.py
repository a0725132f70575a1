r"""Tangency descendants: invariants with modified-psi-class insertions.

An insertion tau_m(T_c) pairs a psi power m with a basis class; an invariant
is a top product of such insertions in genus 0 or 1.  Three computation paths
live here:

* `DescendantEngine`: the general genus-0 recursion.  The insertion of
  maximal psi power is traded for boundary terms: three cup-merge terms and a
  double sum over splittings of the curve class and the remaining marks, with
  inverse-pairing classes on the gluing marks.  Marks carrying a positive psi
  power may migrate to the gluing mark, accumulating the cup product of their
  classes and psi power sum_B (m_i - 1).  Each step lowers the total psi
  power by one.  Only the request is validated; the steps run on plain keys,
  in ints while exact, with per-engine memos of mark splits and gluing sides.

* `genus0_tangency_potential`: the first-descendant differential equations
  (psi powers <= 1) in terms of the deformed metric:

    G_{y_k x_i x_j} = G_{x_k (x_i x_j)} - G_{(x_k x_i) x_j} - G_{(x_k x_j) x_i}
                      + sum_{e,f} G_{x_k x_e} gamma^{ef} G_{x_f x_i x_j},

  solved stratum by stratum from the y = 0 slice (the Gromov-Witten
  potential), taking i = j = a divisor direction so the left side is a
  grading-weighted copy of the target entry.

* `genus1_tangency_potential`: the genus-1 first-descendant equation

    G1_{y_k} = sum_{e,f} G0_{x_k x_e} gamma^{ef} G1_{x_f}
               + (1/24) sum_{e,f} gamma^{ef} G0_{x_k x_e x_f},

  seeded by the genus-1 invariants with no psi classes.  The degree-0 part of
  G1_{x_f} is the constant -(1/24) \int T_f cup c(T_X) for divisor slots (the
  special one-point values in degree 0) and enters the product term as a
  constant correction; for the projective line this bookkeeping is what turns
  the equation into the classical simple-Hurwitz recursions.

Both potentials take the `TangencySpace` of their target, which holds the
variables, gamma (`metric.inverse_metric`), and gamma's rows and the genus-1
term T as ready terms, so a caller that runs both shares one.
They are solved one total degree at a time, and a level reads the levels
below it only through the products of its quadratic term (and, at genus 1,
through T).  Their factors live in a `_SliceStore` for the call: it packs
each completed level once and holds it only as that packed `Slice`, derives
its x-partials and contractions from it, and appends each slice of each
product operand once.
gamma depends on y only, so it commutes with the x-partials and the product,
and sum_{e,f} L_{x_e} gamma^{ef} R_{x_f} is formed as r - 1 products
sum_e L_{x_e} M_e against the contractions M_e = sum_f gamma^{ef} R_{x_f}.

Variables: one structural degree slot per divisor class, one x-exponent slot
per class of codimension >= 2, one y-exponent slot per class T_1..T_r.  The
T_0 slots are dropped: x_0-derivatives vanish identically and the y_0
dependence is a pure exponential factor that every downstream use sets to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import CurveClass, TargetGeometry, _int_view, in_box
from .gw import GWTable, SeedConflict, class_splits, multiset_splits
from .metric import inverse_metric
from .series import NumeratorSum, Operand, Packing, Rat, SeriesTable, Slice, VarSpace, compositions

__all__ = [
    "DescendantSpec",
    "DescendantEngine",
    "reduce_special",
    "TangencySpace",
    "genus0_tangency_potential",
    "genus0_pde_residual",
    "genus0_integrated_residual",
    "genus1_tangency_potential",
    "genus1_degree0_constants",
]

Insertion = tuple[int, int]  # (psi power m, basis class index)


@dataclass(frozen=True)
class DescendantSpec:
    """One invariant <prod tau_{m_i}(T_{c_i})> at (genus, curve class)."""

    genus: int
    beta: CurveClass
    insertions: tuple[Insertion, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "insertions", tuple(sorted(self.insertions)))
        if self.genus == 0 and not any(self.beta):
            raise ValueError("genus-0 invariants in class 0 are not defined")
        if any(m < 0 for m, _ in self.insertions):
            raise ValueError("psi powers must be non-negative")

    @property
    def psi_total(self) -> int:
        return sum(m for m, _ in self.insertions)


def dimension_valid(geom: TargetGeometry, spec: DescendantSpec) -> bool:
    total = sum(geom.codim(c) + m for m, c in spec.insertions)
    return total == geom.vdim(spec.genus, spec.beta, len(spec.insertions))


def reduce_special(geom: TargetGeometry, spec: DescendantSpec):
    """Apply the modified-psi string/dilaton/divisor reductions once-through.

    Returns ("value", v) when fully evaluated (including the two special
    degree-0 genus-1 one-point values), else ("factor", f, reduced_spec)
    with all tau_0(T0), tau_1(T0) and tau_0(divisor) insertions removed.
    """
    beta, g = spec.beta, spec.genus
    if g == 1 and not any(beta):
        # in degree 0 only tau_1(T0) and tau_0 of a divisor are nonzero
        if spec.insertions == ((1, 0),):
            return ("value", Fraction(geom.euler, 24))
        if len(spec.insertions) == 1 and spec.insertions[0][0] == 0:
            return ("value", genus1_degree0_constants(geom).get(spec.insertions[0][1], Fraction(0)))
        return ("value", Fraction(0))
    factor = Fraction(1)
    kept = []
    for m, c in spec.insertions:
        if c == 0 and m == 0:
            return ("value", Fraction(0))  # string
        if c == 0 and m == 1:
            factor *= 2 * g - 2  # dilaton
            continue
        if m == 0 and c in geom.divisors:
            factor *= geom.degree_of(c, beta)  # divisor
            continue
        kept.append((m, c))
    if factor == 0:
        return ("value", Fraction(0))
    return ("factor", factor, DescendantSpec(g, beta, tuple(kept)))


class DescendantEngine:
    """Genus-0 evaluator with memoization on the canonical reduced spec.

    `value` checks a spec (genus, effective class, dimension) and returns a
    Fraction; below it the recursion runs on plain (beta, sorted insertions)
    keys, whose terms keep those properties by construction.  Values stay
    ints while integral (`geometry._int_view`).  `memo` maps (beta, reduced
    insertions) to a value and may be a cache file's records; `sides` and
    `side_values` live and die with the engine, the ring's views and memos
    (vdim0, cup_view) with `geom`, shared by every engine and table over it.
    """

    def __init__(self, geom: TargetGeometry, gw: GWTable, memo: dict | None = None):
        self.geom = geom
        self.gw = gw
        self.memo: dict[tuple, Rat] = memo if memo is not None else {}
        # the gluing pairs (e, f) with gamma^{ef} != 0, by (codim e, codim f)
        self.gluing: dict[tuple[int, int], list[tuple[int, int, int | Rat]]] = {}
        for e, row in enumerate(geom.pairing_inv):
            for f, c in enumerate(row):
                if c:
                    self.gluing.setdefault((geom.codims[e], geom.codims[f]), []).append((e, f, _int_view(c)))
        self.sides: dict[tuple[Insertion, ...], dict[int, list]] = {}
        self.side_values: dict[tuple, int | Rat] = {}

    def value(self, spec: DescendantSpec) -> Rat:
        if spec.genus != 0:
            raise ValueError("the general recursion is genus 0 only")
        if not self.geom.is_effective(spec.beta) or not dimension_valid(self.geom, spec):
            return Fraction(0)
        return Fraction(self._value(spec.beta, spec.insertions))

    # exposed for the choice-independence property test
    def value_with_choice(self, spec: DescendantSpec, choice: tuple[int, int, int]) -> Rat:
        red = reduce_special(self.geom, spec)
        if red[0] == "value":
            return red[1]
        _, factor, reduced = red
        if reduced.psi_total == 0:
            return factor * self.gw.lookup(reduced.beta, [c for _, c in reduced.insertions])
        return Fraction(factor * self._recurse(reduced.beta, reduced.insertions, choice))

    def _value(self, beta: CurveClass, ins: tuple[Insertion, ...]) -> int | Rat:
        """A checked spec's value: the reductions of `reduce_special`, then
        the table or the memoized recursion."""
        factor = 1
        kept = []
        slot = self.geom.slots
        for m, c in ins:
            if c == 0 and m < 2:
                if m == 0:
                    return 0  # string
                factor *= -2  # dilaton
            elif m == 0 and slot[c] is not None:
                factor *= beta[slot[c]]  # divisor
                if not factor:
                    return 0
            else:
                kept.append((m, c))
        if all(m == 0 for m, _ in kept):
            return factor * _int_view(self.gw.lookup(beta, [c for _, c in kept]))
        key = (beta, tuple(kept))
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._recurse(*key)
        return factor * _int_view(hit)

    def _recurse(self, beta: CurveClass, ins: tuple[Insertion, ...], choice: tuple[int, int, int] | None = None) -> int | Rat:
        geom = self.geom
        if len(ins) < 3:
            # pad with a divisor insertion, dividing by its degree; beta > 0
            # meets some divisor
            dv = next(i for i in geom.divisors if geom.degree_of(i, beta))
            padded = self._recurse(beta, tuple(sorted(ins + ((0, dv),))), choice)
            return _int_view(Fraction(padded, geom.degree_of(dv, beta)))
        if choice is None:
            p1 = max(range(len(ins)), key=lambda t: (ins[t][0], -ins[t][1]))
            p2, p3 = [t for t in range(len(ins)) if t != p1][:2]
        else:
            p1, p2, p3 = choice
        (m1, g1), (m2, g2), (m3, g3) = ins[p1], ins[p2], ins[p3]
        if m1 == 0:
            raise ValueError("distinguished mark must carry a psi class")
        m1 -= 1
        others = tuple(ins[t] for t in range(len(ins)) if t not in (p1, p2, p3))
        value, cup = self._value, geom.cup_view
        total = 0
        # cup-merge terms
        for k, c in cup((g2, g3)).items():
            total += c * value(beta, tuple(sorted(others + ((m1, g1), (m2 + m3, k)))))
        for k, c in cup((g1, g2)).items():
            total -= c * value(beta, tuple(sorted(others + ((m1 + m2, k), (m3, g3)))))
        for k, c in cup((g1, g3)).items():
            total -= c * value(beta, tuple(sorted(others + ((m1 + m3, k), (m2, g2)))))
        # splitting sum over curve-class and mark distributions; a side is
        # dimension-valid for one codimension of its gluing class only, so
        # only the pairs (e, f) of those codimensions are visited
        vdim, sides, side, gluing = geom.vdim0, self._sides, self._side, self.gluing
        splits = [(b1, b2, vdim(b1), vdim(b2)) for b1, b2 in class_splits(beta, nonzero=True)]
        for s1, s2, w_split in multiset_splits(others):
            opts1 = sides(s1 + ((m1, g1),))
            opts2 = sides(s2 + ((m2, g2), (m3, g3)))
            for beta1, beta2, v1, v2 in splits:
                for need1, group1 in opts1.items():
                    for need2, group2 in opts2.items():
                        for e, f, c in gluing.get((v1 + need1, v2 + need2), ()):
                            for a1, b1, w1 in group1:
                                lhs = side(beta1, a1, b1, e)
                                if lhs:
                                    lhs *= w_split * w1 * c
                                    for a2, b2, w2 in group2:
                                        rhs = side(beta2, a2, b2, f)
                                        if rhs:
                                            total += lhs * w2 * rhs
        return total

    def _sides(self, marks: tuple[Insertion, ...]) -> dict[int, list]:
        """The A | B options (A, B, weight) of one side, `_ab_partitions` of
        the sorted marks, by the codimension their gluing class needs for the
        side to be dimension-valid, less vdim(0, beta, 0): the cup table is
        graded, so the glued class has codim sum_B codim + codim(e)."""
        key = tuple(sorted(marks))
        hit = self.sides.get(key)
        if hit is None:
            codim = self.geom.codims
            hit = self.sides[key] = {}
            for (a, b), w in _ab_partitions(key, ()):
                need = len(a) + 1 - sum(codim[c] + m for m, c in a) - sum(codim[c] + m - 1 for m, c in b)
                hit.setdefault(need, []).append((a, b, w))
        return hit

    def _side(self, beta: CurveClass, a_marks, b_marks, gluing_class: int) -> int | Rat:
        """One side of a split: marks A plus the gluing mark carrying the cup
        product of the migrated classes and psi power sum_B (m_i - 1)."""
        key = (beta, a_marks, b_marks, gluing_class)
        hit = self.side_values.get(key)
        if hit is None:
            mb = sum(m - 1 for m, _ in b_marks)
            hit = self.side_values[key] = sum(
                c * self._value(beta, tuple(sorted(a_marks + ((mb, k),))))
                for k, c in self.geom.cup_view(tuple(c for _, c in b_marks) + (gluing_class,)).items()
            )
        return hit


def _ab_partitions(marks: tuple[Insertion, ...], forced: tuple[Insertion, ...]):
    """Partitions A | B of marks (plus forced members of A-or-B pool) where
    every B-mark needs positive psi power.  Yields ((A, B), weight), the
    weight from the multiset multiplicities, in the order of
    `multiset_splits` over the psi-positive marks with B as its first part;
    A holds the psi-0 marks first, and each part is sorted."""
    pool = sorted(marks + forced)
    zeros = tuple(x for x in pool if x[0] == 0)
    for b, a, w in multiset_splits(tuple(x for x in pool if x[0])):
        yield (zeros + a, b), w


# ---------------------------------------------------------------------------
# The first-descendant potentials
# ---------------------------------------------------------------------------


class TangencySpace:
    """Variable bookkeeping for tangency potentials over a fixed target."""

    def __init__(self, geom: TargetGeometry):
        self.geom = geom
        self.space = VarSpace(
            tuple(f"x{i}" for i in geom.divisors),
            tuple(f"x{i}" for i in geom.nondiv) + tuple(f"y{k}" for k in range(1, geom.rank)),
        )
        self.nx = len(geom.nondiv)
        # the grading weight of each exponent slot in the dimension constraint
        self.weights = tuple(geom.steps[c] for c in geom.nondiv) + geom.codims[1:]
        # gamma^{ef}: polynomial entries over y1..yr at y0 = 0
        self.gamma = gamma = inverse_metric(geom).rows
        r = geom.rank
        # the row of each e >= 1 as (f, the terms of its entry as monomial shifts), f >= 1:
        # a contraction's factors
        self.rows = {e: [(f, self._shifts(gamma[e][f])) for f in range(1, r) if gamma[e][f]] for e in range(1, r)}
        # T of `_genus1_top` as terms by the partial of G0 they read (its sorted x-indices), monomials as shifts
        consts, top = genus1_degree0_constants(geom), {}
        for e in range(1, r):
            for f in range(1, r):
                for idx, coef in (((e,), consts.get(f)), (tuple(sorted((e, f))), Fraction(1, 24))):
                    if coef and gamma[e][f]:
                        acc = top.setdefault(idx, {})
                        for mono, c in gamma[e][f].items():
                            acc[mono] = acc.get(mono, 0) + coef * c
        self.top = {idx: self._shifts(poly) for idx, poly in top.items()}

    def gated_keys(self, genus: int, beta: CurveClass) -> tuple[tuple[int, ...], ...]:
        """All exponent vectors satisfying the dimension constraint, in
        lexicographic order (the x-slots outermost)."""
        return tuple(compositions(self.geom.vdim(genus, beta, 0), self.weights))

    def descendant_keys(self, genus: int, beta: CurveClass) -> tuple[tuple[int, ...], ...]:
        """The gated exponent vectors with some y-exponent, fewest y first,
        so each one's lowered keys are solved before it."""
        gated = compositions(self.geom.vdim(genus, beta, 0), self.weights)
        return tuple(sorted((k for k in gated if any(k[self.nx:])), key=lambda k: sum(k[self.nx:])))

    def packing(self, genus: int, dmax: int, box: CurveClass | None = None) -> Packing:
        """One packing for every product operand of a potential of this
        genus to total degree dmax on the classes componentwise <= `box` if
        given; its products skip the others.  An entry of genus g <= genus
        at class beta has sum_i weights[i] m_i = vdim(g, beta), x-partials
        only lower exponents, and a factor gamma^{ef} raises each y-slot by
        at most its degree in gamma; `Packing.pack` raises on anything
        larger."""
        geom = self.geom
        classes = [beta for t in range(1, dmax + 1) for beta in geom.curve_classes(t, box)]
        budget = max((geom.vdim(g, beta, 0) for beta in classes for g in range(genus + 1)), default=0)
        ydeg = [max(col) for col in zip(*(mono for row in self.gamma for poly in row for mono in poly))]
        raise_by = [0] * self.nx + ydeg
        return Packing(self.space, dmax, [max(budget, 0) // w + k for w, k in zip(self.weights, raise_by)], box)

    def key(self, insertions) -> tuple[int, ...]:
        """The exponent vector of a product of insertions (m, c) with m <= 1:
        tau_0 fills the x-slot of its class of codim >= 2, tau_1 the y-slot
        of T_1..T_r."""
        out = [0] * len(self.space.exp_vars)
        for m, c in insertions:
            out[self.nx + c - 1 if m else self.geom.nondiv.index(c)] += 1
        return tuple(out)

    def lowered(self, key: tuple[int, ...], k: int) -> tuple[int, ...]:
        """`key` with one y_k fewer."""
        out = list(key)
        out[self.nx + k - 1] -= 1
        return tuple(out)

    def poly_terms(self, poly) -> list[tuple[Rat, dict[str, int]]]:
        """A polynomial in the y-variables, as the (coefficient, monomial)
        terms of `NumeratorSum.add`."""
        return [(c, {f"y{k + 1}": e for k, e in enumerate(mono) if e}) for mono, c in poly.items()]

    def _shifts(self, poly) -> list[tuple[Rat, tuple[tuple[int, int], ...]]]:
        """`poly_terms` with each monomial as its `VarSpace.shift`: the terms
        of `Slice.combine`."""
        return [(c, self.space.shift(mono)) for c, mono in self.poly_terms(poly)]

    def poly_times(self, table: SeriesTable, poly) -> SeriesTable:
        """Multiply a table by a polynomial in the y-variables."""
        out = NumeratorSum(self.space, table.dmax)
        out.add(table, self.poly_terms(poly))
        return out.table()


def _deriv_coeff(ts: TangencySpace, entries, beta, mono, derivs) -> Rat:
    """Coefficient of a multi-derivative of the potential at one key; 0 where
    the key is absent."""
    geom = ts.geom
    factor = 1
    mono = list(mono)
    for i in derivs:  # basis index, x-derivative
        if i in geom.divisors:
            factor *= geom.degree_of(i, beta)
        else:
            mono[geom.nondiv.index(i)] += 1
    val = entries.get((tuple(beta), tuple(mono)), 0)
    return val * factor if val and factor != 1 else val


def genus0_tangency_potential(ts: TangencySpace, gw: GWTable, dmax: int, box: CurveClass | None = None) -> SeriesTable:
    """Full genus-0 first-descendant potential of `ts.geom` up to total
    degree dmax, on the classes componentwise <= `box` if given: the
    equations for a class read only classes below it.

    Level t reads the levels below it only through the products of its
    quadratic term, so each level, once solved, joins a `_SliceStore` as
    one degree slice.  A level is a `NumeratorSum`, seeded with the
    Gromov-Witten values: a stratum reads its quadratic term first, then
    the level's own numerators, and `put` divides by the squared degree."""
    geom = ts.geom
    levels = {t: NumeratorSum(ts.space, dmax) for t in range(1, dmax + 1)}
    # y = 0 slice from the Gromov-Witten table
    for (beta, key), val in gw.entries.items():
        if val == 0 or sum(beta) > dmax or not in_box(beta, box):
            continue
        levels[sum(beta)].put((beta, ts.key((0, c) for c in key)), val.numerator, val.denominator)

    store = _SliceStore(ts, ts.packing(0, dmax, box))
    out = NumeratorSum(ts.space, dmax)
    for t, level in levels.items():
        quad_by_dv_k: dict[tuple[int, int], SeriesTable] = {}
        for beta in geom.curve_classes(t, box):
            dv = next((i for i in geom.divisors if geom.degree_of(i, beta)), None)
            if dv is None:
                continue
            dd = geom.degree_of(dv, beta) ** 2
            for mono in ts.descendant_keys(0, beta):
                k_idx = next(k + 1 for k, b in enumerate(mono[ts.nx:]) if b)
                target = ts.lowered(mono, k_idx)
                quad = quad_by_dv_k.get((dv, k_idx))
                if quad is None:
                    # sum_{e,f} G_{x_k x_e} gamma^{ef} G_{x_f x_dv x_dv}
                    acc = NumeratorSum(ts.space, t)
                    _metric_sum(store, acc, ("G", (k_idx,)), ("G", (dv, dv)), t)
                    quad = quad_by_dv_k[(dv, k_idx)] = acc.table()
                rhs = _pde_rhs_coeff(ts, level, quad, beta, target, k_idx, dv)
                if rhs:
                    level.put((beta, mono), rhs.numerator, rhs.denominator * dd * level.den)
        solved = level.table()
        out.add(solved, [(1, {})])
        if t < dmax:
            store.add("G", solved)
    return out.table()


class _SliceStore:
    """The tables that the equations of one potential call read, by name,
    one degree slice at a time, each held only as its packed `Slice`.

    A slice is added once, when its level is complete, and never changes:
    `add` packs a table once (`Packing.prepare`), and every factor a level
    reads is derived from those packed slices.  The x-partials are memoized
    under their sorted indices (the partials commute), and a contraction
    (name, idx, e), the sum over f of gamma^{ef} times the x_f-partial of
    (name, idx), applies the terms of gamma's row e as monomial shifts to
    those partials.  Each product operand, all over the one `packing`, gains
    each slice once: `operand(key, t)` appends the slices below t it does
    not hold yet; a key is a partial (name, idx) or a contraction.  The
    store lives inside one potential call.
    """

    def __init__(self, ts: TangencySpace, packing: Packing):
        self.ts = ts
        self.packing = packing
        # (name, sorted x-indices) -> total degree -> packed slice
        self.slices: dict[tuple[str, tuple[int, ...]], dict[int, Slice]] = {}
        # operand key -> [operand, number of slices held]
        self.operands: dict[tuple, list] = {}

    def add(self, name: str, t: SeriesTable) -> None:
        """Add the slices of `t` to `name`; nothing has read them yet."""
        by_total = self.slices.setdefault((name, ()), {})
        for total, part in self.packing.prepare(t).items():
            if total in by_total:
                raise ValueError(f"slice {total} of {name} is already in use")
            by_total[total] = part

    def packed(self, name: str, idx: tuple[int, ...], total: int) -> Slice:
        """The slice of `name` at `total`, differentiated once by each x_i,
        i in idx; a slice never added is zero."""
        idx = tuple(sorted(idx))
        by_total = self.slices.setdefault((name, idx), {})
        hit = by_total.get(total)
        if hit is None:
            if idx:
                hit = self.packed(name, idx[:-1], total).partial(f"x{idx[-1]}")
            else:
                hit = Slice(self.packing, total)
            by_total[total] = hit
        return hit

    def contraction(self, name: str, idx: tuple[int, ...], e: int, total: int) -> Slice:
        """sum_f gamma^{ef} times the x_f-partial of `name` x idx, at `total`."""
        return Slice.combine((self.packed(name, idx + (f,), total), terms) for f, terms in self.ts.rows[e])

    def operand(self, key: tuple, below: int) -> Operand:
        """The operand of `key`, holding its slices of total degree < below."""
        hit = self.operands.get(key)
        if hit is None:
            hit = self.operands[key] = [Operand(self.packing), 0]
        op, held = hit
        for total in range(held, below):
            op.append(self.packed(*key, total) if len(key) == 2 else self.contraction(*key, total))
        hit[1] = max(held, below)
        return op


def _metric_sum(store: _SliceStore, out: NumeratorSum, left: tuple, right: tuple, t: int) -> None:
    """Add sum_{e,f} L_{x_e} gamma^{ef} R_{x_f}, degree t only, to `out`, from
    the slices of `store` below t, where `left` and `right` are a name and
    x-indices.  gamma depends on y only, so it commutes with the x-partials
    and the product: the sum is sum_e L_{x_e} M_e with the contraction
    M_e = sum_f gamma^{ef} R_{x_f}, one product per e."""
    (lname, lidx), (rname, ridx) = left, right
    for e in range(1, store.ts.geom.rank):
        lhs = store.operand((lname, tuple(sorted(lidx + (e,)))), t)
        if lhs:
            rhs = store.operand((rname, tuple(sorted(ridx)), e), t)
            if rhs:
                out.add_product(lhs, rhs, t)


def _pde_rhs_coeff(ts, level: NumeratorSum, quad: SeriesTable, beta, target, k_idx: int, dv: int) -> int | Rat:
    """Right side of the first-descendant equation at one coefficient, over
    `level.den` (a Fraction only if a cup coefficient is); `quad`, read
    first, may grow that denominator."""
    geom = ts.geom
    val = level.read(quad, (beta, target))
    entries = level.acc
    for m, c in geom.cup_view((dv, dv)).items():
        if d := _deriv_coeff(ts, entries, beta, target, [k_idx, m]):
            val += c * d
    for m, c in geom.cup_view((k_idx, dv)).items():
        if d := _deriv_coeff(ts, entries, beta, target, [m, dv]):
            val -= 2 * c * d
    return val


def genus0_pde_residual(
    geom: TargetGeometry, g0: SeriesTable, k: int, i: int, j: int
) -> SeriesTable:
    """Left minus right of the first-descendant equation for indices (k,i,j)."""
    ts = TangencySpace(geom)
    gamma = ts.gamma
    lhs = g0.partial(f"y{k}").partial(f"x{i}").partial(f"x{j}")
    rhs = SeriesTable(ts.space, g0.dmax)
    for m, c in enumerate(geom.cup_table[i][j]):
        if c:
            rhs = rhs + g0.partial(f"x{k}").partial(f"x{m}").scale(c)
    for m, c in enumerate(geom.cup_table[k][i]):
        if c:
            rhs = rhs - g0.partial(f"x{m}").partial(f"x{j}").scale(c)
    for m, c in enumerate(geom.cup_table[k][j]):
        if c:
            rhs = rhs - g0.partial(f"x{m}").partial(f"x{i}").scale(c)
    for e in range(1, geom.rank):
        for f in range(1, geom.rank):
            poly = gamma[e][f]
            if not poly:
                continue
            prod = g0.partial(f"x{k}").partial(f"x{e}") * g0.partial(f"x{f}").partial(f"x{i}").partial(f"x{j}")
            rhs = rhs + ts.poly_times(prod, poly)
    return lhs - rhs


def genus0_integrated_residual(geom: TargetGeometry, g0: SeriesTable, k: int) -> SeriesTable:
    """The total-derivative form at k = i = j:
    G_{x_k y_k} + G_{(x_k x_k)} - (1/2) sum G_{x_k x_e} gamma^{ef} G_{x_f x_k}."""
    ts = TangencySpace(geom)
    gamma = ts.gamma
    out = g0.partial(f"x{k}").partial(f"y{k}")
    for m, c in enumerate(geom.cup_table[k][k]):
        if c:
            out = out + g0.partial(f"x{m}").scale(c)
    for e in range(1, geom.rank):
        for f in range(1, geom.rank):
            poly = gamma[e][f]
            if not poly:
                continue
            prod = g0.partial(f"x{k}").partial(f"x{e}") * g0.partial(f"x{f}").partial(f"x{k}")
            out = out - ts.poly_times(prod, poly).scale(Fraction(1, 2))
    return out


def genus1_degree0_constants(geom: TargetGeometry) -> dict[int, Rat]:
    r"""Degree-0 slice of G1_{x_f}: -(1/24) \int T_f cup c(T_X) on divisor slots."""
    out: dict[int, Rat] = {}
    for pos, i in enumerate(geom.divisors):
        out[i] = Fraction(-1, 24) * geom.chern_divisor[pos]
    return out


def genus1_tangency_potential(
    ts: TangencySpace,
    g0: SeriesTable,
    seeds: dict[CurveClass, Rat] | dict[tuple, Rat],
    dmax: int,
    box: CurveClass | None = None,
) -> SeriesTable:
    """Genus-1 first-descendant potential of `ts.geom` from its psi-free slice.

    `seeds` maps curve classes to the genus-1 invariant with the gated number
    of point-type insertions (the only psi-free stratum for the built-in
    surfaces); a class absent from `seeds` reads as 0, where
    `Surface.genus1` raises KeyError.  A stratum is solved by the
    y_k equation of every y_k it holds, and unequal values raise
    SeedConflict.  With `box`, only the classes componentwise <= box are
    solved, and only their seeds are read.  `g0` is the genus-0 potential of
    the same `ts`.

    G0 is complete, so all its slices join the `_SliceStore` at once, less
    its classes outside the box, which may exceed the packing; each level of
    G1 joins it once solved.  A level is a `NumeratorSum`, brought over each
    right side's denominator as its y_k equation is formed; a stratum forms
    every y_k right side it needs before it reads any, so reading and
    comparing them is integer work over one denominator.
    """
    geom = ts.geom
    seeded = {t: NumeratorSum(ts.space, dmax) for t in range(1, dmax + 1)}
    for beta in (b for t in range(1, dmax + 1) for b in geom.curve_classes(t, box)):
        slice_keys = [k for k in ts.gated_keys(1, beta) if not any(k[ts.nx:])]
        if not slice_keys:
            continue
        val = seeds.get(tuple(beta), 0)
        if len(slice_keys) != 1:
            raise ValueError(f"expected one psi-free stratum at beta={beta}, got {slice_keys}")
        if val:
            seeded[sum(beta)].put((tuple(beta), slice_keys[0]), val.numerator, val.denominator)

    store = _SliceStore(ts, ts.packing(1, dmax, box))
    store.add("G0", g0 if box is None else g0.filter_keys(lambda deg, _: in_box(deg, box)))
    out = NumeratorSum(ts.space, dmax)
    for t, level in seeded.items():
        rhs_by_k: dict[int, SeriesTable] = {}  # the right side of the y_k equation
        top: Slice | None = None
        for beta in geom.curve_classes(t, box):
            for mono in ts.descendant_keys(1, beta):
                choices = [k + 1 for k, b in enumerate(mono[ts.nx:]) if b]
                for k_idx in choices:
                    if k_idx not in rhs_by_k:
                        if top is None:
                            top = _genus1_top(store, t)
                        rhs_by_k[k_idx] = _genus1_rhs(store, top, k_idx, t)
                        level.over(rhs_by_k[k_idx].den)
                vals = [level.read(rhs_by_k[k], (beta, ts.lowered(mono, k))) for k in choices]
                if any(v != vals[0] for v in vals):
                    raise SeedConflict(
                        f"the genus-1 y_k equations disagree at beta={beta}, "
                        f"stratum={mono}: {', '.join(str(Fraction(v, level.den)) for v in vals)}"
                    )
                if vals[0]:
                    level.put((beta, mono), vals[0], level.den)
        solved = level.table()
        out.add(solved, [(1, {})])
        if t < dmax:
            store.add("G1", solved)
    return out.table()


def _genus1_top(store: _SliceStore, t: int) -> Slice:
    """T = sum_{e,f} gamma^{ef} (c_f G0_{x_e} + G0_{x_e x_f} / 24) at degree t:
    the degree-0 constants c_f of G1_{x_f} times G0, and the 1/24 term.
    Both terms of the y_k equation are T_{x_k}, as gamma depends on y only.
    `TangencySpace.top` holds the terms that multiply one partial of G0, so
    each packed partial is walked once."""
    return Slice.combine((store.packed("G0", idx, t), terms) for idx, terms in store.ts.top.items())


def _genus1_rhs(store: _SliceStore, top: Slice, k_idx: int, t: int) -> SeriesTable:
    """The right side of the y_k equation, degree t only: the metric sum of
    G0 and G1 (G1 has no degree-0 slice, so a product at t reads G0 below t
    only), plus T_{x_k} for T = `_genus1_top`."""
    out = NumeratorSum(store.ts.space, t)
    _metric_sum(store, out, ("G0", (k_idx,)), ("G1", ()), t)
    out.add_slice(top.partial(f"x{k_idx}"))
    return out.table()
