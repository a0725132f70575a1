r"""Graded exponential generating functions over exact rationals.

A potential like

    G(s, u, v, w) = sum_{d>0} exp(d s) sum_{a,b,c} u^a/a! v^b/b! w^c/c! N_d(a,b,c)

is stored as a sparse table mapping (curve class, exponent multi-index) to the
invariant N itself, never to the expanded EGF coefficient N/(a! b! c!).  The
exp(d s) grading is structural: degree variables (one per divisor class) are
carried by the curve-class key and are never expanded as power series, so a
derivative by a degree variable is a grading-weighted scaling.  Factorial
weights enter only through products (binomial convolution) and through
multiplication by monomials in the exponent variables.

A product convolves `Operand`s: each factor is grouped into degree slices
and classes, its exponent vectors are packed into ints by a shared
`Packing` (a mixed radix, so packed vectors add without carries), and its
values become ordinary power-series coefficients c = N/(a! b! c!), held as
integer numerators over one denominator per slice (a `Slice`).  In that
form every linear map a level loop applies to a solved level is an exact
integer edit of (packed key, numerator) pairs: a degree partial by x_i
scales each class group by beta_i; the partial by exponent slot j maps
(k, c) to (k - W_j, c m_j), with W_j the slot's weight and m_j its exponent
in k, and drops m_j = 0; a monomial adds its packed shift to k, with no
factorial factor; ds of a slice of total degree n is n times it; and the
w = 0 cut keeps the keys with m_w = 0.  So a level loop packs each solved
level once (`Packing.prepare`), derives every factor slice from it and
`Operand.append`s it, and reuses it at every level above: `Surface.genus0`,
`Surface.genus1` and both tangency potentials of `descend`, which hold a
solved level as its packed slice only.  A `DiffOperator` has one term plan,
variable -> (coefficient, shift), for tables and slices alike.  The level
loops add their products to a `NumeratorSum` with `add_product`, straight
from the kernel's integer numerators, and a slice that enters a sum as a
term (P G^0, the genus-1 term T) with `add_slice`, the inverse of `prepare`.

A table holds its values as nonzero integer numerators over one least
common denominator, and every operation reads and returns numerators.  A
level loop holds each level as a `NumeratorSum` that `read`s its right
sides and `put`s its solved values, and sums the levels in one more, so it
does integer work only.  `fractions.Fraction`s are built only at the
boundary: `coeff`, the `entries` view for output, oracles and tests, and
the checked input of the constructor.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul
from typing import Iterable, Mapping

Rat = Fraction

__all__ = [
    "Rat",
    "VarSpace",
    "SeriesTable",
    "DiffOperator",
    "series_product",
    "Packing",
    "Slice",
    "Operand",
    "NumeratorSum",
    "compositions",
]


class VariableMismatch(ValueError):
    """Raised when two tables live over different variable sets."""


@dataclass(frozen=True)
class VarSpace:
    """Names of the structural degree variables and of the exponent variables."""

    degree_vars: tuple[str, ...]
    exp_vars: tuple[str, ...]

    def exp_index(self, name: str) -> int:
        return self.exp_vars.index(name)

    def degree_index(self, name: str) -> int:
        return self.degree_vars.index(name)

    def shift(self, powers: Mapping[str, int]) -> Shift:
        """(slot, k) for each exponent slot that the monomial prod(var^k) raises."""
        shift = [0] * len(self.exp_vars)
        for name, k in powers.items():
            if k < 0:
                raise ValueError("monomial powers must be non-negative")
            shift[self.exp_index(name)] += k
        return tuple((i, k) for i, k in enumerate(shift) if k)


Key = tuple[tuple[int, ...], tuple[int, ...]]  # (curve class, exponent multi-index)
Shift = tuple[tuple[int, int], ...]  # (exponent slot, power) of a monomial, slots ascending


def _as_rat(x) -> Rat:
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact tables")
    return Fraction(x)


class SeriesTable:
    """Sparse graded EGF table; immutable by convention (ops return new tables).

    The value at a key is nums[key] / den: the numerators are nonzero ints
    and den > 0 is their least common denominator, gcd(den, *nums) == 1, so
    equal tables have equal representations.  `dmax` bounds the total
    degree |curve class| of trusted strata; entries beyond it are never
    stored, absent entries within it are exactly zero.
    """

    __slots__ = ("space", "dmax", "nums", "den")

    def __init__(self, space: VarSpace, dmax: int, entries: Mapping[Key, Rat] | None = None):
        self.space = space
        self.dmax = dmax
        table: dict[Key, Rat] = {}
        if entries:
            for (deg, mono), val in entries.items():
                v = _as_rat(val)
                if v == 0:
                    continue
                if len(deg) != len(space.degree_vars) or len(mono) != len(space.exp_vars):
                    raise ValueError(f"key {(deg, mono)} does not fit variable space {space}")
                if any(x < 0 for x in deg) or any(x < 0 for x in mono):
                    raise ValueError(f"negative key component in {(deg, mono)}")
                if sum(deg) <= dmax:
                    table[(tuple(deg), tuple(mono))] = v
        self.den = lcm(*(v.denominator for v in table.values()))
        self.nums = {key: v.numerator * (self.den // v.denominator) for key, v in table.items()}

    @classmethod
    def _of(cls, space: VarSpace, dmax: int, nums: dict[Key, int], den: int) -> "SeriesTable":
        """The table of the integer numerators `nums` over `den` > 0, in
        lowest terms and without zeros."""
        nums = {key: num for key, num in nums.items() if num}
        common = gcd(den, *nums.values())
        if common != 1:
            den, nums = den // common, {key: num // common for key, num in nums.items()}
        out = cls.__new__(cls)
        out.space, out.dmax, out.nums, out.den = space, dmax, nums, den
        return out

    @property
    def entries(self) -> dict[Key, Rat]:
        """The values as Fractions, in a new dict: for output, oracles and tests."""
        den = self.den
        return {key: Fraction(num, den) for key, num in self.nums.items()}

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTable):
            return NotImplemented
        return self.space == other.space and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        raise TypeError("SeriesTable is not hashable")

    def __repr__(self) -> str:
        return f"SeriesTable({self.space}, dmax={self.dmax}, {len(self.nums)} entries)"

    def coeff(self, degrees: Iterable[int], exponents: Iterable[int]) -> Rat:
        return Fraction(self.nums.get((tuple(degrees), tuple(exponents)), 0), self.den)

    def _check_same_space(self, other: "SeriesTable") -> None:
        if self.space != other.space:
            raise VariableMismatch(f"{self.space} vs {other.space}")

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "SeriesTable") -> "SeriesTable":
        self._check_same_space(other)
        dmax = min(self.dmax, other.dmax)
        den = lcm(self.den, other.den)
        grow, grow_other = den // self.den, den // other.den
        out = {key: num * grow for key, num in self.nums.items()}
        for key, num in other.nums.items():
            out[key] = out.get(key, 0) + num * grow_other
        if self.dmax != other.dmax:
            out = {k: v for k, v in out.items() if sum(k[0]) <= dmax}
        return SeriesTable._of(self.space, dmax, out, den)

    def __sub__(self, other: "SeriesTable") -> "SeriesTable":
        return self + other.scale(-1)

    def scale(self, c) -> "SeriesTable":
        c = _as_rat(c)
        return SeriesTable._of(
            self.space, self.dmax, {k: v * c.numerator for k, v in self.nums.items()}, self.den * c.denominator
        )

    def __mul__(self, other: "SeriesTable") -> "SeriesTable":
        return series_product(self, other)

    # -- calculus ----------------------------------------------------------

    def partial(self, var: str) -> "SeriesTable":
        """EGF partial derivative.

        Degree variable: scale each stratum by the matching partial degree.
        Exponent variable: shift that slot down by one; the stored invariant
        is unchanged (d/dv of v^b/b! is v^{b-1}/(b-1)!).
        """
        sp = self.space
        out: dict[Key, int] = {}
        if var in sp.degree_vars:
            i = sp.degree_index(var)
            for (deg, mono), num in self.nums.items():
                if deg[i]:
                    out[(deg, mono)] = num * deg[i]
        elif var in sp.exp_vars:
            i = sp.exp_index(var)
            for (deg, mono), num in self.nums.items():
                if mono[i]:
                    m = list(mono)
                    m[i] -= 1
                    out[(deg, tuple(m))] = num
        else:
            raise KeyError(f"unknown variable {var!r} in {sp}")
        return SeriesTable._of(sp, self.dmax, out, self.den)

    def truncate(self, dmax: int) -> "SeriesTable":
        return SeriesTable._of(self.space, dmax, {k: v for k, v in self.nums.items() if sum(k[0]) <= dmax}, self.den)

    def filter_keys(self, keep) -> "SeriesTable":
        return SeriesTable._of(self.space, self.dmax, {k: v for k, v in self.nums.items() if keep(*k)}, self.den)

    def substitute(
        self,
        new_space: VarSpace,
        exp_map: Mapping[str, list[tuple[Rat, str]]],
    ) -> "SeriesTable":
        """Linear change of exponent variables, e.g. x -> u + 2v.

        Each old exponent variable maps to a list of (coefficient, new name);
        an empty list sets it to zero.  The i-th degree variable becomes the
        i-th one of `new_space`.  An entry at exponents m expands into
        integer multiples of itself (`_expand`, once per distinct m); with
        the coefficients over a common denominator cden, its terms are
        integer numerators over den * cden^|m|.  A variable with one target
        moves its whole exponent in one step; only one with several targets
        is split over them.
        """
        old_sp = self.space
        if len(new_space.degree_vars) != len(old_sp.degree_vars):
            raise VariableMismatch("degree variables may only be renamed")
        targets: list[list[tuple[Rat, int]]] = []
        for old in old_sp.exp_vars:
            if old not in exp_map:
                raise KeyError(f"assignment must cover every exponent variable; missing {old!r}")
            targets.append([(_as_rat(c), new_space.exp_index(n)) for c, n in exp_map[old]])
        cden = lcm(*(c.denominator for tgt in targets for c, _ in tgt))
        # a zero coefficient contributes only through its zeroth power
        int_targets = [[(c.numerator * (cden // c.denominator), j) for c, j in tgt if c] for tgt in targets]

        top = max((sum(mono) for _, mono in self.nums), default=0)
        expansions: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        acc: dict[Key, int] = {}
        for (deg, mono), num in self.nums.items():
            terms = expansions.get(mono)
            if terms is None:
                terms = expansions[mono] = _expand(mono, int_targets, len(new_space.exp_vars))
            num *= cden ** (top - sum(mono))
            for nmono, w in terms:
                key = (deg, nmono)
                acc[key] = acc.get(key, 0) + num * w
        return SeriesTable._of(new_space, self.dmax, acc, self.den * cden**top)


def format_rat(x: Rat) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Rat:
    return Fraction(s)


def compositions(total: int, weights: tuple[int, ...], caps: tuple[int, ...] | None = None):
    """Every m >= 0 with sum(weights[i] * m[i]) == total and, given `caps`,
    m[i] <= caps[i], in lexicographic order.  The weights are positive."""
    last = len(weights) - 1

    def rec(i, rem):
        w = weights[i]
        top = rem // w if caps is None else min(rem // w, caps[i])
        if i == last:
            if rem == top * w:
                yield (top,)
            return
        for k in range(top + 1):
            for rest in rec(i + 1, rem - k * w):
                yield (k, *rest)

    if weights and total >= 0:
        yield from rec(0, total)
    elif total == 0:
        yield ()


def _expand(
    mono: tuple[int, ...], targets: list[list[tuple[int, int]]], nexp: int
) -> list[tuple[tuple[int, ...], int]]:
    """The EGF image of the monomial x^mono under x_i -> sum_j c_ij z_j.

    prod_i x_i^{m_i}/m_i! becomes sum prod c_ij^{k_ij} z^n / prod k_ij! over
    the splits m_i = sum_j k_ij, taken in lexicographic order, with n_l the
    sum of the k_ij sent to z_l.  Restoring n! turns prod_l n_l!/prod k_ij!
    into a product of binomials, so with integer c_ij every stored multiple
    (n, w) has an integer w; the multiples come in the order the splits
    first reach them.  A variable with one target c z_j has the one split
    k = m, which moves every multiple to a distinct n: w times
    binomial(n_j + m, m) c^m.
    """
    acc: dict[tuple[int, ...], int] = {(0,) * nexp: 1}
    for m, tgt in zip(mono, targets):
        if not m:
            continue
        if not tgt:
            return []
        if len(tgt) == 1:
            ((c, j),) = tgt
            cm = c**m
            acc = {base[:j] + (base[j] + m,) + base[j + 1:]: w * comb(base[j] + m, m) * cm for base, w in acc.items()}
            continue
        nxt: dict[tuple[int, ...], int] = {}
        for split in compositions(m, (1,) * len(tgt)):
            for base, w in acc.items():
                new = list(base)
                for (c, j), k in zip(tgt, split):
                    if k:
                        w *= comb(new[j] + k, k) * c**k
                        new[j] += k
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + w
        acc = nxt
    return [(key, w) for key, w in acc.items() if w]


def _raise(mono: tuple[int, ...], shift: Shift) -> tuple[tuple[int, ...], int]:
    """`mono` raised by `shift`, and the EGF factor prod (m+1)...(m+k) as an int."""
    new = list(mono)
    fac = 1
    for i, k in shift:
        m = new[i]
        new[i] = m + k
        fac *= factorial(m + k) // factorial(m)
    return tuple(new), fac


class NumeratorSum:
    """A running sum of tables times monomials and of products, as integer
    numerators over one common denominator; also a level being solved.

    A sum of many terms costs integer additions, not a new table per term.
    Each `add`, `read` or `put` may grow the denominator, which rescales
    every numerator in `acc`: a numerator taken before one is stale after it.
    """

    __slots__ = ("space", "dmax", "acc", "den")

    def __init__(self, space: VarSpace, dmax: int):
        self.space = space
        self.dmax = dmax
        self.acc: dict[Key, int] = {}
        self.den = 1

    def add(self, t: SeriesTable, terms: Iterable[tuple[Rat | int, Mapping[str, int]]]) -> None:
        """Add sum_j c_j m_j t for the (coefficient c_j, monomial m_j) of
        `terms`, in one pass over t; entries above `dmax` are left out."""
        self._add_shifted(t, [(_as_rat(c), self.space.shift(mono)) for c, mono in terms])

    def _add_shifted(self, t: SeriesTable, terms: Iterable[tuple[Rat, Shift]]) -> None:
        """`add` with each monomial given as its `VarSpace.shift`."""
        if t.space != self.space:
            raise VariableMismatch(f"{t.space} vs {self.space}")
        plan = [(c, shift) for c, shift in terms if c]
        if not plan or not t.nums:
            return
        cden = lcm(*(c.denominator for c, _ in plan))
        rest = self.over(t.den * cden)
        plan = [(c.numerator * (cden // c.denominator) * rest, shift) for c, shift in plan]
        acc = self.acc
        cut = t.dmax > self.dmax
        for (deg, mono), num in t.nums.items():
            if cut and sum(deg) > self.dmax:
                continue
            for c, shift in plan:
                new, fac = _raise(mono, shift) if shift else (mono, 1)
                key = (deg, new)
                acc[key] = acc.get(key, 0) + num * c * fac

    def add_product(self, f: Operand, g: Operand, total: int | None = None) -> None:
        """Add the part of total degree `total` of the product of two
        operands, straight from the kernel's numerators; a `total` above
        `dmax` adds nothing.  Without `total`, the whole product, which needs
        a sum whose dmax is at least the packing's."""
        pk = f.packing
        if pk.space != self.space:
            raise VariableMismatch(f"{pk.space} vs {self.space}")
        if total is not None and total > self.dmax:
            return
        self._add_packed(pk, *_convolve(f, g, total))

    def add_slice(self, s: Slice, c: Rat | int = 1) -> None:
        """Add c times the slice `s`, the inverse of `Packing.prepare`: the
        numerator at exponents m adds c m! num / den; a slice above `dmax`
        adds nothing."""
        pk = s.packing
        if pk.space != self.space:
            raise VariableMismatch(f"{pk.space} vs {self.space}")
        if s.total <= self.dmax:
            c = _as_rat(c)
            self._add_packed(pk, s.den * c.denominator, s.groups, c.numerator)

    def _add_packed(self, pk: Packing, den: int, by_class: dict[tuple[int, ...], dict[int, int]], c: int = 1) -> None:
        """Add c times the numerators {class: {packed exponents: num}} over
        `den`, each times the factorials of its exponents."""
        if not by_class or not c:
            return
        rest = self.over(den) * c
        acc = self.acc
        for deg, nums in by_class.items():
            for key, num in nums.items():
                if num:
                    mono, mfact = pk.unpack(key)
                    key = (deg, mono)
                    acc[key] = acc.get(key, 0) + num * mfact * rest

    def over(self, den: int) -> int:
        """Bring the sum over a multiple of `den`; the factor that takes a
        numerator over `den` to the sum's denominator."""
        common = lcm(self.den, den)
        if common != self.den:
            grow = common // self.den
            for key in self.acc:
                self.acc[key] *= grow
            self.den = common
        return common // den

    def read(self, t: SeriesTable, key: Key) -> int:
        """t's value at `key` as a numerator over the sum's denominator,
        after bringing the sum over a multiple of `t.den`."""
        return t.nums.get(key, 0) * self.over(t.den)

    def put(self, key: Key, num: int, den: int) -> None:
        """Set the value at `key` to num / den, reduced by their gcd first,
        so an integral value never grows the denominator."""
        common = gcd(num, den)
        self.acc[key] = num // common * self.over(den // common)

    def table(self) -> SeriesTable:
        """The sum as a table; the accumulator is used up."""
        return SeriesTable._of(self.space, self.dmax, self.acc, self.den)


class Packing:
    """The keys one family of product operands may hold.

    Classes have total degree <= `dmax` (and lie componentwise <= `box` if
    given), and exponent slot i is at most `bounds[i]` in every operand.  An
    exponent vector is packed into one int in the mixed radix
    2 bounds[i] + 1, so two packed vectors add as their slots do, with no
    carry: the exponents of a product term are one int addition.
    """

    __slots__ = ("space", "dmax", "bounds", "box", "weights", "_packed", "_unpacked")

    def __init__(self, space: VarSpace, dmax: int, bounds: Iterable[int], box: tuple[int, ...] | None = None):
        self.space = space
        self.dmax = dmax
        self.bounds = tuple(bounds)
        self.box = box
        weights = [1]
        for b in self.bounds[:-1]:
            weights.append(weights[-1] * (2 * b + 1))
        self.weights = tuple(weights)
        # memos of `pack` and `unpack`
        self._packed: dict[tuple[int, ...], tuple[int, int]] = {}
        self._unpacked: dict[int, tuple[tuple[int, ...], int]] = {}

    @classmethod
    def fitting(cls, tables: Iterable[SeriesTable], box: tuple[int, ...] | None = None) -> "Packing":
        """The packing of `tables`, over their common space and smallest dmax."""
        first, *rest = tables = list(tables)
        for t in rest:
            first._check_same_space(t)
        monos = [mono for t in tables for _, mono in t.nums]
        bounds = map(max, zip(*monos)) if monos else [0] * len(first.space.exp_vars)
        return cls(first.space, min(t.dmax for t in tables), bounds, box)

    def pack(self, mono: tuple[int, ...]) -> tuple[int, int]:
        """The packed key of `mono`, and the product of its factorials."""
        hit = self._packed.get(mono)
        if hit is None:
            if any(map(int.__gt__, mono, self.bounds)):
                raise ValueError(f"exponents {mono} exceed the packing bounds {self.bounds}")
            hit = self._packed[mono] = (sum(map(mul, mono, self.weights)), prod(map(factorial, mono)))
        return hit

    def unpack(self, key: int) -> tuple[tuple[int, ...], int]:
        """The exponents of a packed key, and the product of their factorials."""
        hit = self._unpacked.get(key)
        if hit is None:
            mono, rest = [], key
            for b in self.bounds:
                rest, m = divmod(rest, 2 * b + 1)
                mono.append(m)
            hit = self._unpacked[key] = (tuple(mono), prod(map(factorial, mono)))
        return hit

    def prepare(self, t: SeriesTable) -> dict[int, "Slice"]:
        """The slices of `t` by total degree, up to `dmax`: an entry N at
        exponents m becomes the numerator of N/m! over the slice's
        denominator t.den * lcm(m!).  `NumeratorSum.add_slice` inverts it."""
        if t.space != self.space:
            raise VariableMismatch(f"{t.space} vs {self.space}")
        by_total: dict[int, list[tuple[tuple[int, ...], tuple[int, ...], int]]] = {}
        for (deg, mono), num in t.nums.items():
            total = sum(deg)
            if total <= self.dmax:
                by_total.setdefault(total, []).append((deg, mono, num))
        out = {}
        for total, rows in by_total.items():
            packed = [(self._packed.get(mono) or self.pack(mono)) for _, mono, _ in rows]
            facts = lcm(*(mfact for _, mfact in packed))
            groups: dict[tuple[int, ...], dict[int, int]] = {}
            for (deg, _, num), (key, mfact) in zip(rows, packed):
                groups.setdefault(deg, {})[key] = num * (facts // mfact)
            top = tuple(map(max, zip(*(mono for _, mono, _ in rows))))
            out[total] = Slice(self, total, t.den * facts, groups, top)
        return out


class Slice:
    """One total degree of a product factor in ordinary-coefficient form.

    `groups` maps each class to {packed exponents: numerator}, and the
    coefficient of x^m is numerator/den: N/m! for a table value N.  In this
    form every linear map a level loop applies to a solved level is an exact
    integer edit of (key, numerator) pairs, so a level is packed once
    (`Packing.prepare`) and each factor of the levels above is derived from
    it: `partial`, `scale` (ds of a degree-n slice is n times it), `cut`
    (the w = 0 part) and `combine` (coefficients times monomials, which add
    their packed shift to the keys and need no factorial factor).  The
    numerators are nonzero; the classes all have this total degree.

    `top` bounds each exponent slot from above: it is exact as packed and
    stays an upper bound through the transforms.  A monomial that raises a
    slot past it is checked against the exact maximum, and one that raises
    a slot past the packing's bound raises ValueError, as `Packing.pack`
    does.  A slice is immutable by convention: a transform returns a new one
    that may share the inner dicts of its source.
    """

    __slots__ = ("packing", "total", "den", "groups", "top")

    def __init__(self, packing: Packing, total: int, den: int = 1, groups=None, top: tuple[int, ...] | None = None):
        self.packing = packing
        self.total = total
        self.den = den
        self.groups: dict[tuple[int, ...], dict[int, int]] = groups or {}
        self.top = top or (0,) * len(packing.bounds)

    def _with(self, groups: dict[tuple[int, ...], dict[int, int]], top: tuple[int, ...] | None = None) -> "Slice":
        return Slice(self.packing, self.total, self.den, groups, self.top if top is None else top)

    def _digit(self, j: int) -> tuple[int, int]:
        """The weight and the radix of exponent slot j: its exponent in key
        k is k // weight % radix."""
        return self.packing.weights[j], 2 * self.packing.bounds[j] + 1

    def partial(self, var: str) -> "Slice":
        """The derivative: a degree variable x_i scales each class group by
        its degree beta_i; exponent slot j maps (k, c) to (k - W_j, c m_j),
        m_j the slot's exponent, and drops the entries with m_j = 0."""
        sp = self.packing.space
        if var in sp.degree_vars:
            i = sp.degree_index(var)
            return self._with(
                {
                    deg: terms if deg[i] == 1 else {key: num * deg[i] for key, num in terms.items()}
                    for deg, terms in self.groups.items()
                    if deg[i]
                }
            )
        if var not in sp.exp_vars:
            raise KeyError(f"unknown variable {var!r} in {sp}")
        j = sp.exp_index(var)
        w, radix = self._digit(j)
        groups = {}
        for deg, terms in self.groups.items():
            out = {key - w: num * m for key, num in terms.items() if (m := key // w % radix)}
            if out:
                groups[deg] = out
        top = list(self.top)
        top[j] = max(top[j] - 1, 0)
        return self._with(groups, tuple(top))

    def scale(self, c: int) -> "Slice":
        """c times the slice, for an integer c."""
        if c == 1:
            return self
        if c == 0:
            return self._with({})
        return self._with({deg: {key: num * c for key, num in terms.items()} for deg, terms in self.groups.items()})

    def cut(self, var: str) -> "Slice":
        """The entries where exponent variable `var` is 0."""
        j = self.packing.space.exp_index(var)
        w, radix = self._digit(j)
        groups = {}
        for deg, terms in self.groups.items():
            out = {key: num for key, num in terms.items() if not key // w % radix}
            if out:
                groups[deg] = out
        top = list(self.top)
        top[j] = 0
        return self._with(groups, tuple(top))

    def _raised(self, shift: Shift) -> tuple[int, list[int]]:
        """The packed step of the monomial `shift` and the bound of each slot
        after it; ValueError if it takes an entry past the packing's bounds."""
        pk = self.packing
        top = list(self.top)
        step = 0
        for j, k in shift:
            if top[j] + k > pk.bounds[j]:
                w, radix = self._digit(j)
                key = max((key for terms in self.groups.values() for key in terms), key=lambda key: key // w % radix)
                mono = list(pk.unpack(key)[0])
                top[j] = mono[j]
                if top[j] + k > pk.bounds[j]:
                    mono[j] += k
                    raise ValueError(f"exponents {tuple(mono)} exceed the packing bounds {pk.bounds}")
            top[j] += k
            step += k * pk.weights[j]
        return step, top

    @staticmethod
    def combine(parts: Iterable[tuple["Slice", Iterable[tuple[Rat, Shift]]]]) -> "Slice":
        """sum_s sum_j c_j m_j s over the (slice s, terms) of `parts`, with
        each term a (coefficient c_j, `VarSpace.shift` m_j) pair; the slices
        share one packing and total degree, and there is at least one."""
        parts = [(s, [(c, shift) for c, shift in terms if c]) for s, terms in parts]
        first = parts[0][0]
        den = lcm(*(s.den for s, _ in parts))
        cden = lcm(*(c.denominator for _, terms in parts for c, _ in terms))
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        summed = set()
        top = [0] * len(first.top)
        for s, terms in parts:
            if not s.groups:
                continue
            grow = den // s.den
            for c, shift in terms:
                step, raised = s._raised(shift)
                top = list(map(max, top, raised))
                mult = c.numerator * (cden // c.denominator) * grow
                for deg, src in s.groups.items():
                    acc = groups.get(deg)
                    if acc is None:
                        groups[deg] = {key + step: num * mult for key, num in src.items()}
                        continue
                    summed.add(deg)
                    get = acc.get
                    for key, num in src.items():
                        key += step
                        acc[key] = get(key, 0) + num * mult
        for deg in summed:
            acc = {key: num for key, num in groups[deg].items() if num}
            if acc:
                groups[deg] = acc
            else:
                del groups[deg]
        return Slice(first.packing, first.total, den * cden, groups, tuple(top))


class Operand:
    """One factor of `series_product`, prepared once, one degree slice at a time.

    A slice holds the entries of one total degree, grouped by class, each
    as (packed exponents, integer numerator of its ordinary coefficient
    v/m!) over the slice's least common denominator: a `Slice` in lowest
    terms, in lists.  A product term is then one int addition of keys and
    one int product of numerators, with no binomial weight.  A level loop
    `append`s the slices it derives from a packed level; `extend` prepares
    and appends the slices of a table, for a product of tables
    (`series_product`, `Surface.pair`).  Entries above the packing's dmax
    are left out.
    """

    __slots__ = ("packing", "slices", "size")

    def __init__(self, packing: Packing, t: SeriesTable | None = None):
        self.packing = packing
        # total degree -> (denominator, [(class, [(packed exponents, numerator)])])
        self.slices: dict[int, tuple[int, list[tuple[tuple[int, ...], list[tuple[int, int]]]]]] = {}
        self.size = 0
        if t is not None:
            self.extend(t)

    def __len__(self) -> int:
        return self.size

    def extend(self, t: SeriesTable) -> None:
        """Prepare the slices of `t` and `append` them."""
        for s in self.packing.prepare(t).values():
            self.append(s)

    def append(self, s: Slice) -> None:
        """Add the slice `s` of this packing, reduced by the gcd of its
        denominator and numerators; an empty slice adds nothing, and a total
        degree is added once."""
        if s.packing is not self.packing:
            raise ValueError("a slice joins only an operand of its own packing")
        if s.total in self.slices:
            raise ValueError(f"total degree {s.total} is already prepared")
        if not s.groups:
            return
        common = gcd(s.den, *(num for terms in s.groups.values() for num in terms.values()))
        if common == 1:
            groups = [(deg, list(terms.items())) for deg, terms in s.groups.items()]
        else:
            groups = [(deg, [(key, num // common) for key, num in terms.items()]) for deg, terms in s.groups.items()]
        self.slices[s.total] = (s.den // common, groups)
        self.size += sum(len(terms) for _, terms in groups)


def series_product(f: SeriesTable | Operand, g: SeriesTable | Operand, *, total: int | None = None) -> SeriesTable:
    """EGF product: curve classes add, exponent slots convolve binomially.

    The factors are two tables, or two `Operand`s over one `Packing`, which
    a level loop prepares once and reuses.  With `total`, only the part of
    total degree `total` is formed: only the slice pairs whose total degrees
    add up to it are visited.  With a box, class pairs whose sum leaves it
    are skipped.  The numerators of each slice pair are convolved over the
    common denominator of all pairs (`NumeratorSum.add_product`).
    """
    if isinstance(f, SeriesTable) and isinstance(g, SeriesTable):
        pk = Packing.fitting((f, g))
        f, g = Operand(pk, f), Operand(pk, g)
    elif not (isinstance(f, Operand) and isinstance(g, Operand)):
        raise TypeError("series_product needs two tables or two operands")
    out = NumeratorSum(f.packing.space, f.packing.dmax)
    out.add_product(f, g, total)
    return out.table()


def _convolve(f: Operand, g: Operand, total: int | None) -> tuple[int, dict[tuple[int, ...], dict[int, int]]]:
    """The kernel of the product: (den, {class: {packed exponents: num}}),
    each term num * m! / den with m! the factorials of its exponents."""
    if f.packing is not g.packing:
        raise ValueError("the operands of a product must share one packing")
    pk = f.packing
    pairs = [
        (slice_f, slice_g)
        for tf, slice_f in f.slices.items()
        for tot in (range(tf, pk.dmax + 1) if total is None else (total,) if total <= pk.dmax else ())
        if (slice_g := g.slices.get(tot - tf)) is not None
    ]
    den = lcm(*(df * dg for (df, _), (dg, _) in pairs))
    box = pk.box
    by_class: dict[tuple[int, ...], dict[int, int]] = {}
    for (df, groups_f), (dg, groups_g) in pairs:
        scale = den // (df * dg)
        for deg_f, terms_f in groups_f:
            if scale != 1:
                terms_f = [(key, num * scale) for key, num in terms_f]
            for deg_g, terms_g in groups_g:
                deg = tuple(map(add, deg_f, deg_g))
                if box is not None and any(map(int.__gt__, deg, box)):
                    continue
                acc = by_class.get(deg)
                if acc is None:
                    acc = by_class[deg] = {}
                get = acc.get
                for key_f, num_f in terms_f:
                    for key_g, num_g in terms_g:
                        key = key_f + key_g
                        acc[key] = get(key, 0) + num_f * num_g
    return den, by_class


@dataclass(frozen=True)
class DiffOperator:
    """Linear differential operator: sum of coef * monomial * d/d(var) terms.

    Monomials are over the exponent variables, e.g. the plane-curve line and
    point operators  L = d/ds + 2v d/du,  P = 2v d/ds + (2v^2+2w) d/du.
    """

    terms: tuple[tuple[Rat, tuple[tuple[str, int], ...], str], ...]

    @classmethod
    def build(cls, terms: Iterable[tuple[Rat | int, Mapping[str, int], str]]) -> "DiffOperator":
        packed = []
        for coef, mono, var in terms:
            packed.append((_as_rat(coef), tuple(sorted(mono.items())), var))
        return cls(tuple(packed))

    def _plan(self, space: VarSpace) -> dict[str, list[tuple[Rat, Shift]]]:
        """The terms by the variable they differentiate, each a (coefficient,
        `VarSpace.shift` of its monomial) pair: the plan of `__call__` and
        `image` alike."""
        out: dict[str, list[tuple[Rat, Shift]]] = {}
        for coef, mono, var in self.terms:
            out.setdefault(var, []).append((coef, space.shift(dict(mono))))
        return out

    def __call__(self, f: SeriesTable) -> SeriesTable:
        """One partial of `f` per variable, added with its terms to one
        `NumeratorSum`."""
        out = NumeratorSum(f.space, f.dmax)
        for var, terms in self._plan(f.space).items():
            out._add_shifted(f.partial(var), terms)
        return out.table()

    def image(self, s: Slice) -> Slice:
        """The operator on a prepared slice: one partial of `s` per variable,
        with its terms as monomial shifts (`Slice.combine`)."""
        return Slice.combine((s.partial(var), terms) for var, terms in self._plan(s.packing.space).items())
