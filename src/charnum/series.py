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
values become the integer numerators of the EGF coefficients N/(a! b! c!)
over one denominator per slice.  A level loop prepares each slice of its
factors once, when the slice is solved, and reuses it at every level above:
`Surface.genus0`, `Surface.genus1` and both tangency potentials of
`descend`.  The potentials add their products to a `NumeratorSum` with
`add_product`, straight from the kernel's integer numerators.

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


Key = tuple[tuple[int, ...], tuple[int, ...]]  # (curve class, exponent multi-index)


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


def _exp_shift(space: VarSpace, powers: Iterable[tuple[str, int]]) -> tuple[tuple[int, int], ...]:
    """(slot, k) for each exponent slot that the monomial prod(var^k) raises."""
    shift = [0] * len(space.exp_vars)
    for name, k in powers:
        if k < 0:
            raise ValueError("monomial powers must be non-negative")
        shift[space.exp_index(name)] += k
    return tuple((i, k) for i, k in enumerate(shift) if k)


def _raise(mono: tuple[int, ...], shift: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], int]:
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
        if t.space != self.space:
            raise VariableMismatch(f"{t.space} vs {self.space}")
        plan = [(_as_rat(c), _exp_shift(self.space, mono.items())) for c, mono in terms]
        plan = [(c, shift) for c, shift in plan if c]
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
        den, by_class = _convolve(f, g, total)
        if not by_class:
            return
        rest = self.over(den)
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


class Operand:
    """One factor of `series_product`, prepared once, one degree slice at a time.

    A slice holds the entries of one total degree, grouped by class, each
    as (packed exponents, integer numerator of its EGF coefficient v/m!)
    over the slice's least common denominator.  A product term is then one
    int addition of keys and one int product of numerators, with no
    binomial weight.  Entries above the packing's dmax are left out.
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
        """Prepare the slices of `t`; none of its total degrees may be here yet."""
        pk = self.packing
        if t.space != pk.space:
            raise VariableMismatch(f"{t.space} vs {pk.space}")
        by_total: dict[int, list[tuple[tuple[int, ...], int, int, int]]] = {}
        for (deg, mono), num in t.nums.items():
            total = sum(deg)
            if total <= pk.dmax:
                key, mfact = pk._packed.get(mono) or pk.pack(mono)
                by_total.setdefault(total, []).append((deg, key, num, mfact))
        for total, rows in by_total.items():
            if total in self.slices:
                raise ValueError(f"total degree {total} is already prepared")
            # num / (t.den m!) over den = t.den * lcm(m!), then in lowest terms
            top = lcm(*(mfact for *_, mfact in rows))
            rows = [(deg, key, num * (top // mfact)) for deg, key, num, mfact in rows]
            common = gcd(t.den * top, *(num for *_, num in rows))
            groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
            for deg, key, num in rows:
                groups.setdefault(deg, []).append((key, num // common))
            self.slices[total] = (t.den * top // common, list(groups.items()))
            self.size += len(rows)


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

    def __call__(self, f: SeriesTable) -> SeriesTable:
        """One partial of `f` per variable, added with its (coefficient,
        monomial) terms to one `NumeratorSum`."""
        out = NumeratorSum(f.space, f.dmax)
        for var in dict.fromkeys(var for _, _, var in self.terms):
            out.add(f.partial(var), [(coef, dict(mono)) for coef, mono, v in self.terms if v == var])
        return out.table()
