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

Everything is a `fractions.Fraction`; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from operator import add
from typing import Iterable, Iterator, Mapping

Rat = Fraction

__all__ = [
    "Rat",
    "VarSpace",
    "SeriesTable",
    "DiffOperator",
    "series_product",
    "NumeratorSum",
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

    def __contains__(self, name: str) -> bool:
        return name in self.degree_vars or name in self.exp_vars


Key = tuple[tuple[int, ...], tuple[int, ...]]  # (curve class, exponent multi-index)


def _as_rat(x) -> Rat:
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact tables")
    return Fraction(x)


class SeriesTable:
    """Sparse graded EGF table; immutable by convention (ops return new tables).

    `dmax` bounds the total degree |curve class| of trusted strata; entries
    beyond it are never stored, absent entries within it are exactly zero.
    """

    __slots__ = ("space", "dmax", "entries")

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
        self.entries = table

    @classmethod
    def _trusted(cls, space: VarSpace, dmax: int, entries: dict[Key, Rat]) -> "SeriesTable":
        """Wrap a dict as it is, without the checks of `__init__`.

        For results of the table operations only: every value is a nonzero
        `Fraction` and every key fits `space` with total degree <= dmax.
        """
        out = cls.__new__(cls)
        out.space = space
        out.dmax = dmax
        out.entries = entries
        return out

    # -- basic protocol ----------------------------------------------------

    def __iter__(self) -> Iterator[tuple[Key, Rat]]:
        return iter(sorted(self.entries.items()))

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTable):
            return NotImplemented
        return self.space == other.space and self.entries == other.entries

    def __hash__(self):
        raise TypeError("SeriesTable is not hashable")

    def __repr__(self) -> str:
        return f"SeriesTable({self.space}, dmax={self.dmax}, {len(self.entries)} entries)"

    def is_zero(self) -> bool:
        return not self.entries

    def coeff(self, degrees: Iterable[int], exponents: Iterable[int]) -> Rat:
        return self.entries.get((tuple(degrees), tuple(exponents)), Fraction(0))

    def _check_same_space(self, other: "SeriesTable") -> None:
        if self.space != other.space:
            raise VariableMismatch(f"{self.space} vs {other.space}")

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "SeriesTable") -> "SeriesTable":
        self._check_same_space(other)
        dmax = min(self.dmax, other.dmax)
        out = dict(self.entries)
        for key, val in other.entries.items():
            s = out.get(key, Fraction(0)) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        if self.dmax != other.dmax:
            out = {k: v for k, v in out.items() if sum(k[0]) <= dmax}
        return SeriesTable._trusted(self.space, dmax, out)

    def __sub__(self, other: "SeriesTable") -> "SeriesTable":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "SeriesTable":
        c = _as_rat(c)
        if c == 0:
            return SeriesTable._trusted(self.space, self.dmax, {})
        return SeriesTable._trusted(self.space, self.dmax, {k: v * c for k, v in self.entries.items()})

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
        out: dict[Key, Rat] = {}
        if var in sp.degree_vars:
            i = sp.degree_index(var)
            for (deg, mono), val in self.entries.items():
                if deg[i]:
                    out[(deg, mono)] = val * deg[i]
        elif var in sp.exp_vars:
            i = sp.exp_index(var)
            for (deg, mono), val in self.entries.items():
                if mono[i]:
                    m = list(mono)
                    m[i] -= 1
                    out[(deg, tuple(m))] = val
        else:
            raise KeyError(f"unknown variable {var!r} in {sp}")
        return SeriesTable._trusted(sp, self.dmax, out)

    def times_monomial(self, powers: Mapping[str, int], coef=1) -> "SeriesTable":
        """Multiply by coef * prod(var^k); raises exponent slots with the EGF factor.

        Multiplying v^b/b! by v gives (b+1) * v^{b+1}/(b+1)!, so the stored
        invariant picks up (m+1)...(m+k) per slot.
        """
        out = NumeratorSum(self.space, self.dmax)
        out.add(self, [(coef, powers)])
        return out.table()

    def truncate(self, dmax: int) -> "SeriesTable":
        return SeriesTable._trusted(
            self.space, dmax, {k: v for k, v in self.entries.items() if sum(k[0]) <= dmax}
        )

    def filter_keys(self, keep) -> "SeriesTable":
        return SeriesTable._trusted(self.space, self.dmax, {k: v for k, v in self.entries.items() if keep(*k)})

    def substitute(
        self,
        new_space: VarSpace,
        exp_map: Mapping[str, list[tuple[Rat, str]]],
    ) -> "SeriesTable":
        """Linear change of exponent variables, e.g. x -> u + 2v.

        Each old exponent variable maps to a list of (coefficient, new name);
        an empty list sets it to zero.  The i-th degree variable becomes the
        i-th one of `new_space`.  An entry at exponents m expands into
        integer multiples of itself (`_expand`); with the coefficients over a
        common denominator cden, its terms are integer numerators over
        den * cden^|m|, and one Fraction is built per output entry.
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

        den = _denominator(self)
        top = max((sum(mono) for _, mono in self.entries), default=0)
        expansions: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        acc: dict[Key, int] = {}
        for (deg, mono), val in self.entries.items():
            terms = expansions.get(mono)
            if terms is None:
                terms = expansions[mono] = _expand(mono, int_targets, len(new_space.exp_vars))
            num = val.numerator * (den // val.denominator) * cden ** (top - sum(mono))
            for nmono, w in terms:
                key = (deg, nmono)
                acc[key] = acc.get(key, 0) + num * w
        return SeriesTable._trusted(new_space, self.dmax, _from_numerators(acc, den * cden**top))

    # -- canonical text form -------------------------------------------------

    def to_text(self) -> str:
        head = "vars " + ",".join(self.space.degree_vars) + ";" + ",".join(self.space.exp_vars)
        lines = [head, f"dmax {self.dmax}"]
        for (deg, mono), val in sorted(self.entries.items()):
            lines.append(
                ",".join(map(str, deg)) + ";" + ",".join(map(str, mono)) + ";" + format_rat(val)
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SeriesTable":
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("vars "):
            raise ValueError("missing 'vars' header")
        degs, exps = lines[0][5:].split(";")
        space = VarSpace(tuple(x for x in degs.split(",") if x), tuple(x for x in exps.split(",") if x))
        if not lines[1].startswith("dmax "):
            raise ValueError("missing 'dmax' header")
        dmax = int(lines[1][5:])
        entries: dict[Key, Rat] = {}
        for ln in lines[2:]:
            d, m, v = ln.split(";")
            key = (
                tuple(int(x) for x in d.split(",") if x),
                tuple(int(x) for x in m.split(",") if x),
            )
            entries[key] = parse_rat(v)
        return cls(space, dmax, entries)


def format_rat(x: Rat) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Rat:
    return Fraction(s)


def _compositions(m: int, parts: int):
    """All ways to write m as an ordered sum of `parts` non-negative integers."""
    if parts == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _compositions(m - first, parts - 1):
            yield (first,) + rest


def _expand(
    mono: tuple[int, ...], targets: list[list[tuple[int, int]]], nexp: int
) -> list[tuple[tuple[int, ...], int]]:
    """The EGF image of the monomial x^mono under x_i -> sum_j c_ij z_j.

    prod_i x_i^{m_i}/m_i! becomes sum prod c_ij^{k_ij} z^n / prod k_ij! over
    the splits m_i = sum_j k_ij, with n_l the sum of the k_ij sent to z_l.
    Restoring n! turns prod_l n_l!/prod k_ij! into a product of binomials,
    so with integer c_ij every stored multiple (n, w) has an integer w.
    """
    acc: dict[tuple[int, ...], int] = {(0,) * nexp: 1}
    for m, tgt in zip(mono, targets):
        if not m:
            continue
        if not tgt:
            return []
        nxt: dict[tuple[int, ...], int] = {}
        for split in _compositions(m, len(tgt)):
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


def _denominator(t: SeriesTable) -> int:
    """The least common denominator of the entries of `t`."""
    return lcm(*(val.denominator for val in t.entries.values()))


def _from_numerators(acc: dict[Key, int], den: int) -> dict[Key, Rat]:
    """Turn integer numerators over `den` into Fractions in place; zeros go."""
    for key in [key for key, num in acc.items() if not num]:
        del acc[key]
    for key, num in acc.items():
        acc[key] = Fraction(num) if den == 1 else Fraction(num, den)
    return acc


class NumeratorSum:
    """A running sum of tables times monomials, as integer numerators over
    one common denominator; `table` builds one Fraction per entry.

    Tables go in through `add` and never meet as Fractions, so a sum of many
    terms costs integer additions, not a Fraction per term and key.
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
        if not plan or not t.entries:
            return
        tden = _denominator(t)
        cden = lcm(*(c.denominator for c, _ in plan))
        den = lcm(self.den, tden * cden)
        if den != self.den:
            grow = den // self.den
            for key in self.acc:
                self.acc[key] *= grow
            self.den = den
        rest = den // (tden * cden)
        plan = [(c.numerator * (cden // c.denominator) * rest, shift) for c, shift in plan]
        acc = self.acc
        cut = t.dmax > self.dmax
        for (deg, mono), val in t.entries.items():
            if cut and sum(deg) > self.dmax:
                continue
            num = val.numerator * (tden // val.denominator)
            for c, shift in plan:
                new, fac = _raise(mono, shift) if shift else (mono, 1)
                key = (deg, new)
                acc[key] = acc.get(key, 0) + num * c * fac

    def table(self) -> SeriesTable:
        """The sum as a table; the accumulator is used up."""
        return SeriesTable._trusted(self.space, self.dmax, _from_numerators(self.acc, self.den))


def series_product(f: SeriesTable, g: SeriesTable, *, total: int | None = None) -> SeriesTable:
    """EGF product: curve classes add, exponent slots convolve binomially.

    With `total`, only the part of total degree `total` is formed: every
    pair whose total degrees do not add up to it is skipped.  Both factors
    are brought to a common denominator and their integer numerators
    convolved, so one Fraction is built per output entry.
    """
    f._check_same_space(g)
    dmax = min(f.dmax, g.dmax)
    df, dg = _denominator(f), _denominator(g)
    # group by total degree so pairs over the bound (or off `total`) are never visited
    by_deg_g: dict[int, list[tuple[Key, int]]] = {}
    for key, val in g.entries.items():
        by_deg_g.setdefault(sum(key[0]), []).append((key, val.numerator * (dg // val.denominator)))
    totals = range(dmax + 1) if total is None else range(total, min(total, dmax) + 1)
    acc: dict[Key, int] = {}
    for (deg1, m1), v1 in f.entries.items():
        n1 = v1.numerator * (df // v1.denominator)
        tot1 = sum(deg1)
        for tot in totals:
            for (deg2, m2), n2 in by_deg_g.get(tot - tot1, ()):
                w = n1 * n2
                for a, b in zip(m1, m2):
                    if a and b:
                        w *= comb(a + b, a)
                key = (tuple(map(add, deg1, deg2)), tuple(map(add, m1, m2)))
                acc[key] = acc.get(key, 0) + w
    return SeriesTable._trusted(f.space, dmax, _from_numerators(acc, df * dg))


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
        """One pass over `f`: each entry meets each term once, with the
        term's factor (coefficient numerator, degree weight and EGF rising
        factorial) an int, over the common denominator of `f` and the
        coefficients."""
        sp = f.space
        cden = lcm(*(coef.denominator for coef, _, _ in self.terms))
        plan = []
        for coef, mono, var in self.terms:
            if var in sp.degree_vars:
                by_degree, slot = True, sp.degree_index(var)
            elif var in sp.exp_vars:
                by_degree, slot = False, sp.exp_index(var)
            else:
                raise KeyError(f"unknown variable {var!r} in {sp}")
            if coef:
                plan.append((by_degree, slot, _exp_shift(sp, mono), coef.numerator * (cden // coef.denominator)))
        den = _denominator(f)
        acc: dict[Key, int] = {}
        for (deg, mono), val in f.entries.items():
            num = val.numerator * (den // val.denominator)
            for by_degree, slot, shift, c in plan:
                if by_degree:
                    weight = deg[slot]
                    if not weight:
                        continue
                    new, fac = _raise(mono, shift)
                else:
                    if not mono[slot]:
                        continue
                    lowered = list(mono)
                    lowered[slot] -= 1
                    new, fac = _raise(lowered, shift)
                    weight = 1
                key = (deg, new)
                acc[key] = acc.get(key, 0) + num * c * weight * fac
        return SeriesTable._trusted(sp, f.dmax, _from_numerators(acc, den * cden))
