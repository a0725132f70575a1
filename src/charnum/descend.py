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
  power by one, so the depth of recursion equals the number of psi classes.

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

Variables: one structural degree slot per divisor class, one x-exponent slot
per class of codimension >= 2, one y-exponent slot per class T_1..T_r.  The
T_0 slots are dropped: x_0-derivatives vanish identically and the y_0
dependence is a pure exponential factor that every downstream use sets to 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .geometry import CurveClass, TargetGeometry, in_box
from .gw import GWTable, class_splits, multiset_splits
from .metric import deformed_metric
from .series import NumeratorSum, Rat, SeriesTable, VarSpace, series_product

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

    def describe(self) -> str:
        parts = [f"tau{m}(T{c})" for m, c in self.insertions]
        return " ".join(parts) + f" @ g={self.genus} beta={self.beta}"


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
        if not dimension_valid(geom, spec):
            return ("value", Fraction(0))
        if spec.insertions == ((1, 0),):
            return ("value", Fraction(geom.euler, 24))
        if len(spec.insertions) == 1:
            (m, c), = spec.insertions
            if m == 0 and c in geom.divisors:
                chern = geom.chern_divisor[geom.divisors.index(c)]
                return ("value", Fraction(-1, 24) * chern)
            return ("value", Fraction(0))
        # with >= 2 marks the one-mark forgetful map exists, so the ordinary
        # reductions apply; each produces a factor of 0 in degree 0
        for m, c in spec.insertions:
            if (m, c) == (0, 0) or (m == 0 and c in geom.divisors):
                return ("value", Fraction(0))
            if (m, c) == (1, 0):
                return ("value", Fraction(0))  # dilaton factor 2g-2 = 0
        return ("value", Fraction(0))  # no reduction applies => gate kills it
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
    """Genus-0 evaluator with memoization on the canonical reduced spec."""

    def __init__(self, geom: TargetGeometry, gw: GWTable, memo: dict | None = None):
        self.geom = geom
        self.gw = gw
        self.memo: dict[tuple, Rat] = memo if memo is not None else {}
        self.codims = [geom.codim(i) for i in range(geom.rank)]
        # the gluing pairs (e, f) with gamma^{ef} != 0, by (codim e, codim f)
        self.gluing: dict[tuple[int, int], list[tuple[int, int, Rat]]] = {}
        for e, row in enumerate(geom.pairing_inv):
            for f, c in enumerate(row):
                if c:
                    self.gluing.setdefault((self.codims[e], self.codims[f]), []).append((e, f, c))
        # cup expansions by their sorted non-unit indices, for this engine only
        self.cups: dict[tuple[int, ...], dict[int, Rat]] = {}

    def value(self, spec: DescendantSpec) -> Rat:
        if spec.genus != 0:
            raise ValueError("the general recursion is genus 0 only")
        geom = self.geom
        if not geom.is_effective(spec.beta):
            return Fraction(0)
        if not dimension_valid(geom, spec):
            return Fraction(0)
        red = reduce_special(geom, spec)
        if red[0] == "value":
            return red[1]
        _, factor, spec = red
        if spec.psi_total == 0:
            return factor * self.gw.lookup(spec.beta, [c for _, c in spec.insertions])
        key = (spec.beta, spec.insertions)
        hit = self.memo.get(key)
        if hit is None:
            hit = self._recurse(spec)
            self.memo[key] = hit
        return factor * hit

    # -- one recursion step -------------------------------------------------

    def _recurse(self, spec: DescendantSpec, choice: tuple[int, int, int] | None = None) -> Rat:
        geom = self.geom
        ins = list(spec.insertions)
        while len(ins) < 3:
            # pad with a divisor insertion, dividing by its degree
            dv = next((i for i in geom.divisors if geom.degree_of(i, spec.beta)), None)
            if dv is None:
                raise ValueError(f"no divisor meets beta={spec.beta}; cannot pad {spec.describe()}")
            return self._recurse(
                DescendantSpec(0, spec.beta, tuple(ins) + ((0, dv),)), choice
            ) / geom.degree_of(dv, spec.beta)
        if choice is None:
            p1 = max(range(len(ins)), key=lambda t: (ins[t][0], -ins[t][1]))
            rest = sorted(t for t in range(len(ins)) if t != p1)
            p2, p3 = rest[0], rest[1]
        else:
            p1, p2, p3 = choice
        m1, g1 = ins[p1]
        m2, g2 = ins[p2]
        m3, g3 = ins[p3]
        if m1 == 0:
            raise ValueError("distinguished mark must carry a psi class")
        m1 -= 1
        others = tuple(ins[t] for t in range(len(ins)) if t not in (p1, p2, p3))
        beta = spec.beta
        total = Fraction(0)
        # cup-merge terms
        for k, c in self._cup((g2, g3)).items():
            total += c * self.value(DescendantSpec(0, beta, others + ((m1, g1), (m2 + m3, k))))
        for k, c in self._cup((g1, g2)).items():
            total -= c * self.value(DescendantSpec(0, beta, others + ((m1 + m2, k), (m3, g3))))
        for k, c in self._cup((g1, g3)).items():
            total -= c * self.value(DescendantSpec(0, beta, others + ((m1 + m3, k), (m2, g2))))
        # splitting sum over curve-class and mark distributions; a side is
        # dimension-valid for one codimension of its gluing class only, so
        # only the pairs (e, f) of those codimensions are visited
        side_cache: dict = {}
        splits = [
            (b1, b2, geom.vdim(0, b1, 0), geom.vdim(0, b2, 0)) for b1, b2 in class_splits(beta, nonzero=True)
        ]
        for s1, s2, w_split in multiset_splits(others):
            opts1 = self._sides(s1 + ((m1, g1),), forced=())
            opts2 = self._sides(s2, forced=((m2, g2), (m3, g3)))
            for beta1, beta2, v1, v2 in splits:
                for a1, b1, need1, w1 in opts1:
                    for a2, b2, need2, w2 in opts2:
                        glue = self.gluing.get((v1 + need1, v2 + need2))
                        if glue is None:
                            continue
                        w = w_split * w1 * w2
                        for e, f, c in glue:
                            lhs = self._eval_side(side_cache, beta1, a1, b1, e)
                            if lhs == 0:
                                continue
                            rhs = self._eval_side(side_cache, beta2, a2, b2, f)
                            if rhs == 0:
                                continue
                            total += w * c * lhs * rhs
        return total

    def _sides(self, marks, forced):
        """The A | B options of one side, each with the codimension its gluing
        class needs for the side to be dimension-valid, less vdim(0, beta, 0):
        the cup table is graded, so the glued class has codim
        sum_B codim + codim(e)."""
        codim = self.codims
        out = []
        for (a, b), w in _ab_partitions(marks, forced):
            need = len(a) + 1 - sum(codim[c] + m for m, c in a) - sum(codim[c] + m - 1 for m, c in b)
            out.append((a, b, need, w))
        return out

    def _cup(self, indices) -> dict[int, Rat]:
        """`geom.cup_classes`, memoized by the sorted non-unit indices: the
        cup product is commutative and associative with unit T0."""
        key = tuple(sorted(i for i in indices if i))
        hit = self.cups.get(key)
        if hit is None:
            hit = self.cups[key] = self.geom.cup_classes(key)
        return hit

    def _eval_side(self, cache, beta, a_marks, b_marks, gluing_class: int) -> Rat:
        """One side of a split: marks A plus the gluing mark carrying the cup
        product of the migrated classes and psi power sum_B (m_i - 1)."""
        key = (beta, a_marks, b_marks, gluing_class)
        hit = cache.get(key)
        if hit is not None:
            return hit
        mb = sum(m - 1 for m, _ in b_marks)
        out = Fraction(0)
        for k, c in self._cup(tuple(c for _, c in b_marks) + (gluing_class,)).items():
            out += c * self.value(DescendantSpec(0, beta, a_marks + ((mb, k),)))
        cache[key] = out
        return out

    # exposed for the choice-independence property test
    def value_with_choice(self, spec: DescendantSpec, choice: tuple[int, int, int]) -> Rat:
        red = reduce_special(self.geom, spec)
        if red[0] == "value":
            return red[1]
        _, factor, reduced = red
        if reduced.psi_total == 0:
            return factor * self.gw.lookup(reduced.beta, [c for _, c in reduced.insertions])
        return factor * self._recurse(reduced, choice)


def _ab_partitions(marks: tuple[Insertion, ...], forced: tuple[Insertion, ...]):
    """Partitions A | B of marks (plus forced members of A-or-B pool) where
    every B-mark needs positive psi power.  Yields ((A, B), weight-folded) -
    weights come from the multiset multiplicities."""
    pool = sorted(Counter(marks + forced).items())
    out = []

    def rec(i, a, b, w):
        if i == len(pool):
            out.append(((tuple(a), tuple(b)), w))
            return
        (m, c), mult = pool[i]
        if m == 0:
            rec(i + 1, a + [(m, c)] * mult, b, w)
            return
        for k in range(mult + 1):
            rec(i + 1, a + [(m, c)] * (mult - k), b + [(m, c)] * k, w * comb(mult, k))

    rec(0, [], [], 1)
    for (a, b), w in out:
        yield (a, b), w


# ---------------------------------------------------------------------------
# The first-descendant potentials
# ---------------------------------------------------------------------------


class TangencySpace:
    """Variable bookkeeping for tangency potentials over a fixed target."""

    def __init__(self, geom: TargetGeometry):
        self.geom = geom
        self.nondiv = tuple(i for i in range(geom.rank) if geom.codim(i) >= 2)
        self.space = VarSpace(
            tuple(f"x{i}" for i in geom.divisors),
            tuple(f"x{i}" for i in self.nondiv) + tuple(f"y{k}" for k in range(1, geom.rank)),
        )
        self.nx = len(self.nondiv)
        # gamma^{ef}: polynomial entries over y1..yr at y0 = 0
        self.gamma = deformed_metric(geom)[1].rows

    def gated_keys(self, genus: int, beta: CurveClass):
        """All exponent vectors satisfying the dimension constraint."""
        geom = self.geom
        weights = [geom.codim(c) - 1 for c in self.nondiv] + [
            geom.codim(k) for k in range(1, geom.rank)
        ]
        budget = geom.vdim(genus, beta, 0)
        n = len(weights)
        out = []

        def rec(pos, rem, acc):
            if pos == n:
                if rem == 0:
                    out.append(tuple(acc))
                return
            w = weights[pos]
            top = rem // w if w else 0
            for k in range(top + 1):
                acc.append(k)
                rec(pos + 1, rem - k * w, acc)
                acc.pop()

        if budget >= 0:
            rec(0, budget, [])
        return out

    def descendant_keys(self, genus: int, beta: CurveClass) -> list[tuple[int, ...]]:
        """The gated exponent vectors with some y-exponent, fewest y first,
        so each one's lowered keys are solved before it."""
        keys = [k for k in self.gated_keys(genus, beta) if any(k[self.nx:])]
        keys.sort(key=lambda k: sum(k[self.nx:]))
        return keys

    def key(self, insertions) -> tuple[int, ...]:
        """The exponent vector of a product of insertions (m, c) with m <= 1:
        tau_0 fills the x-slot of its class of codim >= 2, tau_1 the y-slot
        of T_1..T_r."""
        out = [0] * len(self.space.exp_vars)
        for m, c in insertions:
            out[self.nx + c - 1 if m else self.nondiv.index(c)] += 1
        return tuple(out)

    def lowered(self, key: tuple[int, ...], k: int) -> tuple[int, ...]:
        """`key` with one y_k fewer."""
        out = list(key)
        out[self.nx + k - 1] -= 1
        return tuple(out)

    def poly_terms(self, poly, coef=1) -> list[tuple[Rat, dict[str, int]]]:
        """coef times a polynomial in the y-variables, as the (coefficient,
        monomial) terms of `NumeratorSum.add`."""
        return [(coef * c, {f"y{k + 1}": e for k, e in enumerate(mono) if e}) for mono, c in poly.items()]

    def poly_times(self, table: SeriesTable, poly) -> SeriesTable:
        """Multiply a table by a polynomial in the y-variables."""
        out = NumeratorSum(self.space, table.dmax)
        out.add(table, self.poly_terms(poly))
        return out.table()


def _deriv_coeff(ts: TangencySpace, entries, beta, mono, derivs) -> Rat:
    """Coefficient of a multi-derivative of the potential at one key."""
    geom = ts.geom
    factor = Fraction(1)
    mono = list(mono)
    for i in derivs:  # basis index, x-derivative
        if i in geom.divisors:
            factor *= geom.degree_of(i, beta)
            if factor == 0:
                return Fraction(0)
        else:
            mono[ts.nondiv.index(i)] += 1
    val = entries.get((tuple(beta), tuple(mono)), Fraction(0))
    return factor * val


def genus0_tangency_potential(
    geom: TargetGeometry, gw: GWTable, dmax: int, box: CurveClass | None = None
) -> SeriesTable:
    """Full genus-0 first-descendant potential up to total degree dmax, on
    the classes componentwise <= `box` if given: the equations for a class
    read only classes below it."""
    ts = TangencySpace(geom)
    entries: dict = {}
    # y = 0 slice from the Gromov-Witten table
    for (beta, key), val in gw.entries.items():
        if val == 0 or sum(beta) > dmax or not in_box(beta, box):
            continue
        entries[(beta, ts.key((0, c) for c in key))] = Fraction(val)

    for t in range(1, dmax + 1):
        lower = SeriesTable._trusted(ts.space, dmax, {k: v for k, v in entries.items() if sum(k[0]) < t})
        level = _Level(t, below=lower)
        quad_by_dv_k: dict[tuple[int, int], SeriesTable] = {}
        for beta in geom.curve_classes(t, box):
            dv = next((i for i in geom.divisors if geom.degree_of(i, beta)), None)
            if dv is None:
                continue
            dd = Fraction(geom.degree_of(dv, beta)) ** 2
            for mono in ts.descendant_keys(0, beta):
                k_idx = next(k + 1 for k, b in enumerate(mono[ts.nx:]) if b)
                target = ts.lowered(mono, k_idx)
                quad = quad_by_dv_k.get((dv, k_idx))
                if quad is None:
                    # sum_{e,f} G_{x_k x_e} gamma^{ef} G_{x_f x_dv x_dv}
                    out = NumeratorSum(ts.space, t)
                    _metric_sum(ts, level, out, ("below", k_idx), ("below", dv, dv))
                    quad = quad_by_dv_k[(dv, k_idx)] = out.table()
                rhs = _pde_rhs_coeff(ts, entries, quad, beta, target, k_idx, dv)
                if rhs:
                    entries[(beta, mono)] = rhs / dd
    return SeriesTable._trusted(ts.space, dmax, entries)


class _Level:
    """The tables that the equations of one level t read, by name, and their
    x-partials.  The partials commute, so each is kept under its sorted
    indices; the whole is dropped after the level."""

    def __init__(self, t: int, **tables: SeriesTable):
        self.t = t
        self.partials: dict[tuple, SeriesTable] = {(name, ()): table for name, table in tables.items()}

    def partial(self, name: str, *idx: int) -> SeriesTable:
        """The table `name` differentiated once by each x_i, i in idx."""
        idx = tuple(sorted(idx))
        hit = self.partials.get((name, idx))
        if hit is None:
            hit = self.partials[(name, idx)] = self.partial(name, *idx[:-1]).partial(f"x{idx[-1]}")
        return hit


def _metric_sum(ts: TangencySpace, level: _Level, out: NumeratorSum, left: tuple, right: tuple) -> None:
    """Add sum_{e,f} L_{x_e} gamma^{ef} R_{x_f}, degree `level.t` only, to `out`,
    where `left` and `right` are a table name of `level` and x-indices."""
    r = ts.geom.rank
    for e in range(1, r):
        for f in range(1, r):
            poly = ts.gamma[e][f]
            if not poly:
                continue
            lhs = level.partial(*left, e)
            if lhs.is_zero():
                continue
            rhs = level.partial(*right, f)
            if rhs.is_zero():
                continue
            out.add(series_product(lhs, rhs, total=level.t), ts.poly_terms(poly))


def _pde_rhs_coeff(ts, entries, quad: SeriesTable, beta, target, k_idx: int, dv: int) -> Rat:
    """Right side of the first-descendant equation at one coefficient."""
    geom = ts.geom
    val = Fraction(0)
    for m, c in enumerate(geom.cup_table[dv][dv]):
        if c:
            val += c * _deriv_coeff(ts, entries, beta, target, [k_idx, m])
    for m, c in enumerate(geom.cup_table[k_idx][dv]):
        if c:
            val -= 2 * c * _deriv_coeff(ts, entries, beta, target, [m, dv])
    val += quad.coeff(beta, target)
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
    geom: TargetGeometry,
    g0: SeriesTable,
    seeds: dict[CurveClass, Rat] | dict[tuple, Rat],
    dmax: int,
    check_overdetermined: bool = False,
    box: CurveClass | None = None,
) -> SeriesTable:
    """Genus-1 first-descendant potential from its psi-free slice.

    `seeds` maps curve classes to the genus-1 invariant with the gated number
    of point-type insertions (the only psi-free stratum for the built-in
    surfaces).  With check_overdetermined, every admissible k-equation for a
    stratum must agree, else ValueError.  With `box`, only the classes
    componentwise <= box are solved, and only their seeds are read.
    """
    ts = TangencySpace(geom)
    consts = genus1_degree0_constants(geom)
    entries: dict = {}
    for beta in (b for t in range(1, dmax + 1) for b in geom.curve_classes(t, box)):
        slice_keys = [k for k in ts.gated_keys(1, beta) if not any(k[ts.nx:])]
        if not slice_keys:
            continue
        val = seeds.get(tuple(beta), Fraction(0))
        if len(slice_keys) != 1:
            raise ValueError(f"expected one psi-free stratum at beta={beta}, got {slice_keys}")
        if val:
            entries[(tuple(beta), slice_keys[0])] = Fraction(val)

    for t in range(1, dmax + 1):
        g1_lower = SeriesTable._trusted(ts.space, dmax, {k: v for k, v in entries.items() if sum(k[0]) < t})
        rhs_by_k: dict[int, SeriesTable] = {}
        level = None
        for beta in geom.curve_classes(t, box):
            for mono in ts.descendant_keys(1, beta):
                choices = [k + 1 for k, b in enumerate(mono[ts.nx:]) if b]
                vals = []
                for k_idx in choices:
                    if k_idx not in rhs_by_k:
                        if level is None:
                            # G1 starts in degree 1, so its products at degree t read G0 below t
                            below = g0.filter_keys(lambda deg, _: sum(deg) < t)
                            top = g0.filter_keys(lambda deg, _: sum(deg) == t)
                            level = _Level(t, below=below, top=top, g1=g1_lower)
                        rhs_by_k[k_idx] = _genus1_rhs(ts, level, consts, k_idx)
                    vals.append(rhs_by_k[k_idx].coeff(beta, ts.lowered(mono, k_idx)))
                    if not check_overdetermined:
                        break
                if check_overdetermined and len(set(vals)) > 1:
                    raise ValueError(
                        f"genus-1 recursion overdetermination failure at beta={beta}, "
                        f"stratum={mono}: {vals}"
                    )
                if vals[0]:
                    entries[(tuple(beta), mono)] = vals[0]
    return SeriesTable._trusted(ts.space, dmax, entries)


def _genus1_rhs(ts, level: _Level, consts, k_idx: int) -> SeriesTable:
    """The right side of the y_k equation, degree t only: the metric sum of
    G0 below t and G1, plus the degree-0 constants of G1_{x_f} and the 1/24
    term, both on G0 at t."""
    out = NumeratorSum(ts.space, level.t)
    _metric_sum(ts, level, out, ("below", k_idx), ("g1",))
    r = ts.geom.rank
    for e in range(1, r):
        for f in range(1, r):
            poly = ts.gamma[e][f]
            if not poly:
                continue
            if consts.get(f):
                out.add(level.partial("top", k_idx, e), ts.poly_terms(poly, consts[f]))
            out.add(level.partial("top", k_idx, e, f), ts.poly_terms(poly, Fraction(1, 24)))
    return out.table()
