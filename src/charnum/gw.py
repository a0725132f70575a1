r"""Genus-0 Gromov-Witten invariants from WDVV associativity.

Invariants are stored in canonical form: the fundamental class is removed by
the string equation (zero for beta > 0) and divisor insertions by the divisor
equation, so a key is (curve class, sorted multiset of basis indices of
codimension >= 2).  A key is dimension-valid when the insertion codimensions
add up to the expected dimension; every valid key within the bound is stored
explicitly once a solve completes.

The solver walks curve classes by increasing total degree and solves each
class by one incremental exact Gauss-Jordan elimination.  Keys are taken in
canonical order; an open key pulls in its candidate associativity instances,
each evaluated at most once per class, until it is determined.  The rows stay
in reduced echelon form, and a row left with only its pivot is a value that
enters the table at once, so later residuals see it as a constant.  This
also settles unknowns that no single instance isolates (Gr(2,4), whose
cohomology is not generated by divisors: sigma_2- and sigma_{1,1}-insertions
enter cup terms in pairs).  A key still open after all of its candidates are
in is refused with InsufficientSeeds.

Residuals read the table through insertion codes.  A multiset of insertions
of codimension >= 2 has the code sum count(c) * R^pos(c), pos(c) the place of
c among them (`TargetGeometry.nondiv`), so the code of a union is the sum of
the codes.  The radix R is one more than the largest vdim(0, beta, 0) within
the bound.  A readable key has weight sum step(c) = vdim(0, beta, 0) with
every step >= 1, so no count reaches R and no slot carries into the next;
every code is read only after its side has passed that weight.  Beside
`entries` the table keeps the readable values by class and code
(`GWTable.by_code`); `GWTable.store` writes both.  A residual first takes T0
and the divisors out of its extras (an extra T0 makes it 0, a divisor x
scales it by beta.x), then reads each term whose two sides both have
positive degree by two code additions and two dict reads.  Those sides lie
in classes below the instance's, which a solve has completed, so no read
misses.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb

from .geometry import CurveClass, TargetGeometry, _int_view, in_box
from .series import Rat, compositions, parse_rat

__all__ = [
    "GWTable",
    "SeedConflict",
    "InsufficientSeeds",
    "wdvv_solve",
    "wdvv_instance_residual",
    "sample_wdvv_residuals",
    "parse_seed_records",
]


class SeedConflict(ValueError):
    """Two equations force different values."""


class InsufficientSeeds(ValueError):
    """The seed data do not determine an invariant: the associativity
    instances of a class leave it open, or a genus-2 virtual record is
    missing."""


GWKey = tuple[CurveClass, tuple[int, ...]]


@dataclass
class GWTable:
    geom: TargetGeometry
    dmax: int
    entries: dict[GWKey, Rat] = field(default_factory=dict)
    # the nonzero inverse-pairing entries grouped by the step of their first
    # index; the ring's integer views and memos (steps, slots, vdim0,
    # triple_view) live on `geom`, shared by every table over it
    pairs_by_step: dict[int, list[tuple[int, int, Rat]]] = field(init=False, repr=False, compare=False)
    # the insertion codes (module docstring): R, and R^pos(c) by basis index,
    # 0 for T0 and the divisors
    radix: int = field(init=False, repr=False, compare=False)
    units: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the values of `entries` that `_strip` can read, by class, then code
    by_code: dict[CurveClass, dict[int, int | Rat]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        geom = self.geom
        self.pairs_by_step = {}
        for e, row in enumerate(geom.pairing_inv):
            for f, g in enumerate(row):
                if g:
                    self.pairs_by_step.setdefault(geom.steps[e], []).append((e, f, _int_view(g)))
        top = max((geom.vdim0(b) for t in range(1, self.dmax + 1) for b in geom.curve_classes(t)), default=0)
        self.radix = 1 + max(top, 1)
        units = [0] * geom.rank
        for pos, c in enumerate(geom.nondiv):
            units[c] = self.radix**pos
        self.units = tuple(units)
        self.by_code = {}
        for key, val in list(self.entries.items()):
            self.store(key, val)

    def store(self, key: GWKey, val: Rat) -> None:
        """Enter a value: the one writer of `entries`, which keeps `by_code`
        in step.  Only a key that `_strip` can read gets a code."""
        self.entries[key] = val
        beta, ins = key
        step = self.geom.steps
        if (
            0 < sum(beta) <= self.dmax
            and min(beta) >= 0
            and all(step[i] > 0 for i in ins)
            and sum(step[i] for i in ins) == self.geom.vdim0(beta)
        ):
            self.by_code.setdefault(beta, {})[self.code(ins)] = _int_view(val)

    def code(self, insertions) -> int:
        """The code of a multiset of insertions of codimension >= 2."""
        return sum(self.units[i] for i in insertions)

    def _strip(self, beta: CurveClass, insertions) -> tuple[int | Rat, GWKey | None]:
        """(coef, None) for a known value, (coef, key) for coef times an
        unknown.  coef is an int unless a stored value is not integral."""
        beta = tuple(beta)
        total = sum(beta)
        ins = tuple(insertions)
        geom = self.geom
        if total == 0:
            if len(ins) != 3:
                return 0, None
            return geom.triple_view(ins), None
        if total > self.dmax or min(beta) < 0:
            raise KeyError(f"curve class {beta} outside the truncation bound {self.dmax}")
        step, slot = geom.steps, geom.slots
        factor = 1
        weight = 0
        kept = []
        for i in ins:
            if i == 0:
                return 0, None  # string equation
            s = slot[i]
            if s is None:
                kept.append(i)
                weight += step[i]
            else:
                factor *= beta[s]  # divisor equation
                if not factor:
                    return 0, None
        if weight != geom.vdim0(beta):
            return 0, None  # dimension gate
        full = (beta, tuple(sorted(kept)))
        val = self.entries.get(full)
        if val is not None:
            return _int_view(val) * factor, None
        return factor, full

    def lookup(self, beta: CurveClass, insertions) -> Rat:
        """Invariant with arbitrary insertions; strips T0/divisors first."""
        coef, unknown = self._strip(beta, insertions)
        if unknown is not None:
            raise KeyError(f"table incomplete at beta={unknown[0]}, insertions={unknown[1]}")
        return Fraction(coef)


def canonical_keys(geom: TargetGeometry, beta: CurveClass) -> list[tuple[int, ...]]:
    """All dimension-valid canonical insertion multisets at this class,
    fewest insertions first, then lexicographic."""
    # each insertion adds its step, codim - 1, to the budget vdim(0, beta, 0)
    counts = compositions(geom.vdim0(beta), tuple(geom.steps[c] for c in geom.nondiv))
    keys = [sum(((c,) * k for c, k in zip(geom.nondiv, m)), ()) for m in counts]
    return sorted(keys, key=lambda t: (len(t), t))


@dataclass(frozen=True)
class Instance:
    """One associativity equation: F(i,j|k,l) = F(i,k|j,l) at (beta, extras)."""

    beta: CurveClass
    marks: tuple[int, int, int, int]
    extras: tuple[int, ...]

    def describe(self) -> str:
        i, j, k, l = self.marks
        m = ",".join(f"T{x}" for x in self.extras) or "-"
        return f"beta={self.beta} marks=(T{i},T{j},T{k},T{l}) extras=[{m}]"


def class_splits(beta: CurveClass, nonzero: bool = False):
    """All (beta1, beta2) with beta1 + beta2 = beta, componentwise >= 0;
    with `nonzero`, only those with both sides nonzero."""
    for b1 in product(*(range(b + 1) for b in beta)):
        b2 = tuple(b - a for b, a in zip(beta, b1))
        if not nonzero or (any(b1) and any(b2)):
            yield b1, b2


def multiset_splits(marks: tuple):
    """Distinct (M1, M2) splits of a multiset of marks, each weighted by the
    number of ways to split the labeled marks that way."""
    items = sorted(Counter(marks).items())

    def rec(i, m1, m2, w):
        if i == len(items):
            yield tuple(m1), tuple(m2), w
            return
        mark, mult = items[i]
        for k in range(mult + 1):
            yield from rec(i + 1, m1 + [mark] * k, m2 + [mark] * (mult - k), w * comb(mult, k))

    yield from rec(0, [], [], 1)


def _mark_splits(table: GWTable, extras: tuple[int, ...]) -> dict[int, list[tuple[int, int, int]]]:
    """The splits (M1, M2) of a multiset of marks of codimension >= 2 as
    {sum step(M1): [(code(M1), code(M2), weight)]}, the weight the number of
    ways to split the labeled marks that way (as in `multiset_splits`)."""
    step, units = table.geom.steps, table.units
    splits = [(0, 0, 1)]  # (code(M1), sum step(M1), weight)
    for x, m in Counter(extras).items():
        u, t = units[x], step[x]
        splits = [(c + k * u, s + k * t, w * comb(m, k)) for c, s, w in splits for k in range(m + 1)]
    whole = table.code(extras)
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for c, s, w in splits:
        groups.setdefault(s, []).append((c, whole - c, w))
    return groups


def _fixed_marks(beta: CurveClass, marks, slots, units) -> tuple[int, int]:
    """(divisor factor, code) of marks on a side of positive degree; the
    factor is 0 when T0 is among them (string equation)."""
    factor, code = 1, 0
    for x in marks:
        if x == 0:
            return 0, 0
        s = slots[x]
        if s is None:
            code += units[x]
        else:
            factor *= beta[s]
    return factor, code


def _assoc_sum(table: GWTable, beta: CurveClass, class_pairs, extras, groups, marks, sign: int, out: dict) -> None:
    """Add sign * F(a,b|c,d) at beta, summed over splittings with the
    inverse-pairing insertion, into out: {unknown: coef}, the constant term
    under None.  class_pairs holds the `class_splits` of beta with both
    sides nonzero, extras marks of codimension >= 2 only (an extra T0 or
    divisor is taken out before, see `wdvv_instance_residual`), and groups
    their `_mark_splits`; step(x) = codim(T_x) - 1 (`TargetGeometry.steps`).

    A side of degree 0 is a three-point integral, so it takes only the split
    that leaves it (a, b, e) or (c, d, f) alone; the other side, at beta,
    goes through `_strip`, since that is where the open class's unknowns are.

    On a class pair (beta1, beta2) with both sides of positive degree only
    the pairs (e, f) and the split group with step(a) + step(b) + step(e) +
    sum step(M1) = vdim(0, beta1, 0) are visited, and of those only the ones
    whose right side passes its own dimension gate.  Every other term is
    zero: T0 kills it, and divisors have step 0.  A term is then two code
    additions and two reads of `GWTable.by_code`.  The codes cannot carry:
    each side's weight, sum step(c) over its insertions of codimension >= 2,
    is vdim(0, beta_i, 0) < R (module docstring).  In a solve both sides lie
    in classes below beta, which the solve has completed (every
    dimension-valid key is stored), so no read misses.  On a table that
    lacks a readable key, a miss is the unknown with that code.

    The sums stay Python ints while every factor is integral; a stored value
    or a g^{ef} that is not makes its term, and the sum, a Fraction.
    """
    a, b, c, d = marks
    geom = table.geom
    step, slots, units, vdim0 = geom.steps, geom.slots, table.units, geom.vdim0
    pairs_by_step = table.pairs_by_step
    weight = sum(step[x] for x in extras)
    zero = (0,) * len(beta)
    for e, f, g in pairs_by_step.get(vdim0(zero) - step[a] - step[b], ()):  # (0, beta)
        left = geom.triple_view((a, b, e))
        if left:
            right, rkey = table._strip(beta, (c, d, f) + extras)
            if right:
                out[rkey] = out.get(rkey, 0) + left * right * (sign * g)
    if any(beta):
        for e, f, g in pairs_by_step.get(vdim0(beta) - step[a] - step[b] - weight, ()):  # (beta, 0)
            right = geom.triple_view((c, d, f))
            if right:
                left, lkey = table._strip(beta, (a, b, e) + extras)
                if left:
                    out[lkey] = out.get(lkey, 0) + left * right * (sign * g)
    const = 0
    for beta1, beta2 in class_pairs:
        abf, abcode = _fixed_marks(beta1, (a, b), slots, units)
        cdf, cdcode = _fixed_marks(beta2, (c, d), slots, units)
        if not abf or not cdf:
            continue
        lvals, rvals = table.by_code.get(beta1, {}), table.by_code.get(beta2, {})
        budget = vdim0(beta1) - step[a] - step[b]
        rbudget = vdim0(beta2) - step[c] - step[d] - weight
        for t, pairs in pairs_by_step.items():
            s1 = budget - t
            group = groups.get(s1)
            if group is None:
                continue
            for e, f, g in pairs:
                if step[f] - s1 != rbudget or not e or not f:
                    continue  # the right side fails its dimension gate, or T0 kills a side
                lf = abf if slots[e] is None else abf * beta1[slots[e]]
                rf = cdf if slots[f] is None else cdf * beta2[slots[f]]
                if not lf or not rf:
                    continue
                lcode, rcode = abcode + units[e], cdcode + units[f]
                acc = 0
                for c1, c2, w in group:
                    lv, rv = lvals.get(lcode + c1), rvals.get(rcode + c2)
                    if lv is not None and rv is not None:
                        acc += w * lv * rv
                        continue
                    # a miss: the side's key is an unknown
                    if lv == 0 or rv == 0:
                        continue
                    if lv is None and rv is None:
                        raise AssertionError("product of two unknown invariants in one instance")
                    beta_u, code = (beta1, lcode + c1) if lv is None else (beta2, rcode + c2)
                    key = (beta_u, next(k for k in canonical_keys(geom, beta_u) if table.code(k) == code))
                    coef = (lf if lv is None else lf * lv) * (rf if rv is None else rf * rv)
                    out[key] = out.get(key, 0) + coef * (sign * w * g)
                const += acc * lf * rf * g
    if const:
        out[None] = out.get(None, 0) + sign * const


def wdvv_instance_residual(table: GWTable, inst: Instance) -> dict[GWKey | None, Rat]:
    """F(i,j|k,l) - F(i,k|j,l) as {unknown: coef}, the constant under None;
    zero terms are dropped, so {} means 0 = 0.

    The extras are reduced first.  An extra T0 makes every term zero: the
    string equation kills a side of positive degree, and a side of degree 0
    would hold four marks.  An extra divisor x scales the residual by
    beta.x and is dropped: summed over its two placements, the divisor
    equation gives beta1.x + beta2.x = beta.x (a side of degree 0 that took
    it would vanish, as beta1.x = 0 there)."""
    beta = tuple(inst.beta)
    if sum(beta) > table.dmax:
        raise KeyError(f"curve class {beta} outside the truncation bound {table.dmax}")
    slots = table.geom.slots
    scale = 1
    extras = []
    for x in inst.extras:
        if x == 0:
            return {}
        if slots[x] is None:
            extras.append(x)
        else:
            scale *= beta[slots[x]]
    if not scale:
        return {}
    extras = tuple(extras)
    groups = _mark_splits(table, extras)
    class_pairs = list(class_splits(beta, nonzero=True))
    i, j, k, l = inst.marks
    out: dict[GWKey | None, int | Rat] = {}
    _assoc_sum(table, beta, class_pairs, extras, groups, (i, j, k, l), 1, out)
    _assoc_sum(table, beta, class_pairs, extras, groups, (i, k, j, l), -1, out)
    # the elimination divides by these, so it gets Fractions, never ints
    return {key: Fraction(v * scale) for key, v in out.items() if v}


def _candidate_instances(geom: TargetGeometry, beta: CurveClass, key: tuple[int, ...]):
    """Instances whose cup-merged terms can reach this canonical key."""
    r = geom.rank
    seen = set()
    for t in sorted(set(range(len(key))), key=lambda t: key[t]):
        produced = key[t]
        rest = key[:t] + key[t + 1:]
        for i in range(1, r):
            for j in range(i, r):
                if geom.cup_table[i][j][produced] == 0:
                    continue
                if len(rest) >= 2:
                    kl_choices = sorted({(rest[p], rest[q]) for p in range(len(rest)) for q in range(p + 1, len(rest))})
                else:
                    kl_choices = []
                # divisor pairs keep the instance nontrivial when few marks remain
                for dv in geom.divisors:
                    kl_choices.append((dv, dv))
                for k_, l_ in kl_choices:
                    extras = list(rest)
                    for x in (k_, l_):
                        if x in extras:
                            extras.remove(x)
                    inst = Instance(tuple(beta), (i, j, k_, l_), tuple(sorted(extras)))
                    if inst not in seen:
                        seen.add(inst)
                        yield inst


def wdvv_solve(
    geom: TargetGeometry, seeds: dict[GWKey, Rat], dmax: int, box: CurveClass | None = None
) -> GWTable:
    """Complete the genus-0 table up to total degree dmax from the seeds, on
    the classes componentwise <= `box` if given: every instance of a class
    splits it into classes below it, so the box needs no others, and seeds
    outside it are left out.

    Once a class is solved, up to three associativity instances touching
    each of its seeded invariants are evaluated; a nonzero residual raises
    SeedConflict naming the instance.
    """
    table = GWTable(geom, dmax)
    seeded: dict[CurveClass, list] = {}
    for (beta, key), val in seeds.items():
        beta = tuple(beta)
        key = tuple(sorted(key))
        if sum(geom.steps[i] for i in key) != geom.vdim0(beta):
            raise ValueError(f"seed at beta={beta}, key={key} violates the dimension gate")
        if sum(beta) <= dmax and in_box(beta, box):
            table.store((beta, key), Fraction(val))
            seeded.setdefault(beta, []).append(key)
    for total in range(1, dmax + 1):
        for beta in geom.curve_classes(total, box):
            _solve_level(geom, table, beta)
            for key in seeded.get(beta, ()):
                for n, inst in enumerate(_candidate_instances(geom, beta, key)):
                    if n >= 3:
                        break
                    resid = wdvv_instance_residual(table, inst)
                    if list(resid) == [None]:
                        raise SeedConflict(
                            f"seed at beta={beta}, insertions={key} contradicts the "
                            f"instance {inst.describe()} (residual {resid[None]})"
                        )
    return table


def _add_scaled(row: dict, other: dict, c: Rat) -> None:
    """row += c * other, dropping terms that cancel."""
    for k, v in other.items():
        s = row.get(k, 0) + c * v
        if s:
            row[k] = s
        else:
            row.pop(k, None)


def _solve_level(geom, table: GWTable, beta: CurveClass) -> None:
    """Gauss-Jordan elimination over the instances of one curve class.

    rows maps each pivot to its row: pivot coefficient 1, no other pivot in
    the row.  A key still open after its turn has pulled in every one of its
    candidate instances.
    """
    keys = canonical_keys(geom, beta)
    rows: dict[GWKey, dict] = {}
    seen: set[Instance] = set()
    for key in keys:
        for inst in _candidate_instances(geom, beta, key):
            if (beta, key) in table.entries:
                break
            if inst in seen:
                continue
            seen.add(inst)
            row = wdvv_instance_residual(table, inst)
            for p in [k for k in row if k in rows]:
                _add_scaled(row, rows[p], -row[p])
            unknowns = [k for k in row if k is not None]
            if not unknowns:
                if row:
                    raise SeedConflict(f"inconsistent instance {inst.describe()}: residual {row[None]}")
                continue
            pivot = min(unknowns)
            inv = 1 / row[pivot]
            row = {k: v * inv for k, v in row.items()}
            for other in rows.values():
                if pivot in other:
                    _add_scaled(other, row, -other[pivot])
            rows[pivot] = row
            for p in [p for p, r in rows.items() if len(r) - (None in r) == 1]:
                table.store(p, -rows.pop(p).get(None, Fraction(0)))
    remaining = [k for k in keys if (beta, k) not in table.entries]
    if remaining:
        raise InsufficientSeeds(
            f"no associativity instance determines beta={beta}, insertions={remaining[0]}"
        )


def sample_wdvv_residuals(
    geom: TargetGeometry, table: GWTable, count: int, rng: random.Random
) -> list[tuple[Instance, Rat]]:
    """Evaluate `count` random dimension-active instances on a completed table."""
    out = []
    betas = [b for t in range(1, table.dmax + 1) for b in geom.curve_classes(t)]
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        beta = rng.choice(betas)
        keys = canonical_keys(geom, beta)
        if not keys:
            continue
        key = rng.choice(keys)
        insts = list(_candidate_instances(geom, beta, key))
        if not insts:
            continue
        inst = rng.choice(insts)
        resid = wdvv_instance_residual(table, inst)
        if any(k is not None for k in resid):
            raise KeyError(f"table incomplete for instance {inst.describe()}")
        out.append((inst, resid.get(None, Fraction(0))))
    return out


def parse_seed_records(text: str, geom: TargetGeometry) -> dict[GWKey, Rat]:
    """Read `beta;full-basis exponent vector;p/q` records (# lines ignored)."""
    out: dict[GWKey, Rat] = {}
    seen: dict[GWKey, int] = {}  # key -> its line
    for n, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            b, m, v = ln.split(";")
            beta = tuple(int(x) for x in b.split(","))
            counts = tuple(int(x) for x in m.split(","))
            val = parse_rat(v)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {n}: expected a record beta;counts;p/q, got {ln!r}") from None
        if len(counts) != geom.rank:
            raise ValueError(f"line {n}: expected {geom.rank} insertion slots, got {len(counts)}")
        if counts[0]:
            raise ValueError(f"line {n}: seed records must not carry fundamental-class insertions")
        if any(counts[i] for i in geom.divisors):
            raise ValueError(f"line {n}: seed records must not carry divisor insertions")
        if len(beta) != len(geom.divisors):
            raise ValueError(f"line {n}: expected {len(geom.divisors)} degrees in the class, got {len(beta)}")
        if min(beta) < 0 or min(counts) < 0:
            raise ValueError(f"line {n}: degrees and insertion counts must not be negative")
        weight = sum(k * s for k, s in zip(counts, geom.steps))
        top = max(geom.vdim(0, beta, 0), geom.vdim(1, beta, 0))
        if weight > top:
            raise ValueError(f"line {n}: insertion weight {weight} exceeds {top}, the class's virtual dimension in genus 0 or 1")
        key = (beta, tuple(sorted(i for i in range(geom.rank) for _ in range(counts[i]))))
        if key in seen:
            raise ValueError(f"line {n}: repeats the class and insertions of line {seen[key]}")
        seen[key] = n
        out[key] = val
    return out
