r"""Genus-0 Gromov-Witten invariants from WDVV associativity.

Invariants are stored in canonical form: the fundamental class is removed by
the string equation (zero for beta > 0) and divisor insertions by the divisor
equation, so a key is (curve class, sorted multiset of basis indices of
codimension >= 2).  A key is dimension-valid when the insertion codimensions
add up to the expected dimension; every valid key within the bound is stored
explicitly once a solve completes.

The solver walks curve classes by increasing total degree and, inside a
level, unknowns by increasing insertion count; each unknown is isolated by
the first associativity instance that expresses it through known quantities.
Levels that no single instance resolves (possible when the cohomology is not
generated by divisors, e.g. Gr(2,4), where sigma_2- and sigma_{1,1}-insertions
enter cup terms in pairs) fall back to exact Gaussian elimination over the
level's instances, still in a fixed deterministic order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .geometry import CurveClass, TargetGeometry
from .series import Rat, SeriesTable, VarSpace, parse_rat

__all__ = [
    "GWTable",
    "SeedConflict",
    "InsufficientSeeds",
    "wdvv_solve",
    "wdvv_instance_residual",
    "sample_wdvv_residuals",
    "gw_potential",
    "parse_seed_records",
]


class SeedConflict(ValueError):
    """Two associativity instances force different values."""


class InsufficientSeeds(ValueError):
    """No instance (nor the level's joint system) determines an invariant."""


GWKey = tuple[CurveClass, tuple[int, ...]]


@dataclass
class GWTable:
    geom: TargetGeometry
    dmax: int
    entries: dict[GWKey, Rat] = field(default_factory=dict)

    def lookup(self, beta: CurveClass, insertions) -> Rat:
        """Invariant with arbitrary insertions; strips T0/divisors first."""
        val = self._linform(beta, insertions)
        if val.unknowns:
            key = next(iter(val.unknowns))
            raise KeyError(f"table incomplete at beta={key[0]}, insertions={key[1]}")
        return val.const

    def _linform(self, beta: CurveClass, insertions) -> "LinForm":
        return _strip(self.geom, beta, insertions, self.entries, self.dmax)

    def canonical_value(self, beta: CurveClass, key: tuple[int, ...]) -> Rat:
        return self.entries.get((tuple(beta), tuple(sorted(key))), Fraction(0))


@dataclass
class LinForm:
    """const + sum coeff * unknown, used while a level is being solved."""

    const: Rat = Fraction(0)
    unknowns: dict[GWKey, Rat] = field(default_factory=dict)

    def __add__(self, other: "LinForm") -> "LinForm":
        out = LinForm(self.const + other.const, dict(self.unknowns))
        for k, c in other.unknowns.items():
            s = out.unknowns.get(k, Fraction(0)) + c
            if s:
                out.unknowns[k] = s
            else:
                out.unknowns.pop(k, None)
        return out

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Rat) -> "LinForm":
        if c == 0:
            return LinForm()
        return LinForm(self.const * c, {k: v * c for k, v in self.unknowns.items()})


def canonical_keys(geom: TargetGeometry, beta: CurveClass) -> list[tuple[int, ...]]:
    """All dimension-valid canonical insertion multisets at this class."""
    weight = geom.vdim(0, beta, 0)  # each insertion of codim c adds c-1 to this budget
    classes = [i for i in range(geom.rank) if geom.codim(i) >= 2]
    out: list[tuple[int, ...]] = []

    def rec(pos: int, rem: int, acc: tuple[int, ...]):
        if rem == 0:
            out.append(acc)
            return
        if pos == len(classes):
            return
        c = classes[pos]
        step = geom.codim(c) - 1
        k = 0
        while k * step <= rem:
            rec(pos + 1, rem - k * step, acc + (c,) * k)
            k += 1

    if weight >= 0:
        rec(0, weight, ())
    return sorted(out, key=lambda t: (len(t), t))


def _strip(geom, beta, insertions, known: dict[GWKey, Rat], dmax: int) -> LinForm:
    beta = tuple(beta)
    total = sum(beta)
    ins = tuple(insertions)
    if total == 0:
        if len(ins) != 3:
            return LinForm()
        return LinForm(geom.integral(geom.cup_classes(ins)))
    if total > dmax or any(d < 0 for d in beta):
        raise KeyError(f"curve class {beta} outside the truncation bound {dmax}")
    factor = Fraction(1)
    kept = []
    for i in ins:
        if i == 0:
            return LinForm()  # string equation
        if i in geom.divisors:
            factor *= geom.degree_of(i, beta)  # divisor equation
            if factor == 0:
                return LinForm()
        else:
            kept.append(i)
    key = tuple(sorted(kept))
    weight = sum(geom.codim(i) - 1 for i in key)
    if weight != geom.vdim(0, beta, 0):
        return LinForm()  # dimension gate
    full = (beta, key)
    if full in known:
        return LinForm(known[full] * factor)
    return LinForm(Fraction(0), {full: factor})


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


def _splits(beta: CurveClass):
    """All (beta1, beta2) with beta1 + beta2 = beta, componentwise >= 0."""
    ranges = [range(b + 1) for b in beta]
    def rec(i, acc):
        if i == len(ranges):
            yield tuple(acc), tuple(b - a for b, a in zip(beta, acc))
            return
        for x in ranges[i]:
            acc.append(x)
            yield from rec(i + 1, acc)
            acc.pop()
    yield from rec(0, [])


def _multiset_splits(extras: tuple[int, ...]):
    """Distinct (M1, M2) splits with the labeled-marks binomial weight."""
    from collections import Counter

    items = sorted(Counter(extras).items())
    def rec(i, m1, m2, w):
        if i == len(items):
            yield tuple(m1), tuple(m2), w
            return
        cls, mult = items[i]
        for k in range(mult + 1):
            yield from rec(i + 1, m1 + [cls] * k, m2 + [cls] * (mult - k), w * comb(mult, k))
    yield from rec(0, [], [], 1)


def _assoc_sum(geom, table_entries, dmax, beta, a, b, c, d, extras) -> LinForm:
    """F(a,b|c,d): sum over splittings with the inverse-pairing insertion."""
    ginv = geom.pairing_inv
    pairs = [(e, f) for e in range(geom.rank) for f in range(geom.rank) if ginv[e][f]]
    total = LinForm()
    for beta1, beta2 in _splits(beta):
        for m1, m2, w in _multiset_splits(extras):
            for e, f in pairs:
                left = _strip(geom, beta1, (a, b, e) + m1, table_entries, dmax)
                if left.const == 0 and not left.unknowns:
                    continue
                right = _strip(geom, beta2, (c, d, f) + m2, table_entries, dmax)
                if right.const == 0 and not right.unknowns:
                    continue
                if left.unknowns and right.unknowns:
                    raise AssertionError("product of two unknown invariants in one instance")
                coef = Fraction(w) * ginv[e][f]
                if left.unknowns:
                    total = total + left.scale(coef * right.const)
                else:
                    total = total + right.scale(coef * left.const)
    return total


def wdvv_instance_residual(geom, table: GWTable, inst: Instance) -> LinForm:
    i, j, k, l = inst.marks
    one = _assoc_sum(geom, table.entries, table.dmax, inst.beta, i, j, k, l, inst.extras)
    two = _assoc_sum(geom, table.entries, table.dmax, inst.beta, i, k, j, l, inst.extras)
    return one - two


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
    geom: TargetGeometry, seeds: dict[GWKey, Rat], dmax: int, validate_seeds: bool = True
) -> GWTable:
    """Complete the genus-0 table up to total degree dmax from the seeds.

    With validate_seeds, a sample of associativity instances touching each
    seeded invariant is evaluated once its level is complete; a nonzero
    residual raises SeedConflict naming the instance.
    """
    table = GWTable(geom, dmax)
    seeded: dict[CurveClass, list] = {}
    for (beta, key), val in seeds.items():
        beta = tuple(beta)
        key = tuple(sorted(key))
        weight = sum(geom.codim(i) - 1 for i in key)
        if weight != geom.vdim(0, beta, 0):
            raise ValueError(f"seed at beta={beta}, key={key} violates the dimension gate")
        if sum(beta) <= dmax:
            table.entries[(beta, key)] = Fraction(val)
            seeded.setdefault(beta, []).append(key)
    for total in range(1, dmax + 1):
        for beta in geom.curve_classes(total):
            _solve_level(geom, table, beta)
            if not validate_seeds:
                continue
            for key in seeded.get(beta, ()):
                for n, inst in enumerate(_candidate_instances(geom, beta, key)):
                    if n >= 3:
                        break
                    resid = wdvv_instance_residual(geom, table, inst)
                    if not resid.unknowns and resid.const != 0:
                        raise SeedConflict(
                            f"seed at beta={beta}, insertions={key} contradicts the "
                            f"instance {inst.describe()} (residual {resid.const})"
                        )
    return table


def _solve_level(geom, table: GWTable, beta: CurveClass) -> None:
    todo = [k for k in canonical_keys(geom, beta) if (beta, k) not in table.entries]
    pending: list[tuple[Instance, LinForm]] = []
    for key in todo:
        if (beta, key) in table.entries:
            continue
        solved = False
        for inst in _candidate_instances(geom, beta, key):
            resid = wdvv_instance_residual(geom, table, inst)
            unk = resid.unknowns
            if list(unk) == [(beta, key)] and unk[(beta, key)] != 0:
                table.entries[(beta, key)] = -resid.const / unk[(beta, key)]
                solved = True
                break
            if unk:
                pending.append((inst, resid))
        if not solved:
            pending.append((None, None))  # marks that elimination is required
    if any(inst is None for inst, _ in pending):
        pending = [(i, r) for i, r in pending if i is not None]
        _eliminate(geom, table, beta, pending)
    remaining = [k for k in canonical_keys(geom, beta) if (beta, k) not in table.entries]
    if remaining:
        raise InsufficientSeeds(
            f"no associativity instance determines beta={beta}, insertions={remaining[0]}"
        )


def _eliminate(geom, table: GWTable, beta, rows: list[tuple[Instance, LinForm]]) -> None:
    """Exact Gaussian elimination over this level's unresolved unknowns."""
    # refresh residuals against newly solved entries, then also gather more
    # instances for every still-unknown key
    todo = [k for k in canonical_keys(geom, beta) if (beta, k) not in table.entries]
    insts = [inst for inst, _ in rows]
    for key in todo:
        for inst in _candidate_instances(geom, beta, key):
            if inst not in insts:
                insts.append(inst)
    system: list[tuple[Instance, LinForm]] = []
    for inst in insts:
        resid = wdvv_instance_residual(geom, table, inst)
        if resid.unknowns:
            system.append((inst, resid))
        elif resid.const != 0:
            raise SeedConflict(f"inconsistent instance {inst.describe()}: residual {resid.const}")
    order = sorted({k for _, r in system for k in r.unknowns})
    solved: dict[GWKey, LinForm] = {}
    for pivot_key in order:
        pivot = None
        for idx, (inst, resid) in enumerate(system):
            resid = _substitute_solved(resid, solved)
            system[idx] = (inst, resid)
            if pivot is None and resid.unknowns.get(pivot_key):
                pivot = (inst, resid)
        if pivot is None:
            continue
        inst, resid = pivot
        c = resid.unknowns[pivot_key]
        rest = LinForm(resid.const, {k: v for k, v in resid.unknowns.items() if k != pivot_key})
        solved[pivot_key] = rest.scale(Fraction(-1) / c)
    changed = True
    while changed:
        changed = False
        for key, form in solved.items():
            new = _substitute_solved(form, solved)
            if new.unknowns != form.unknowns or new.const != form.const:
                solved[key] = new
                changed = True
    for key, form in solved.items():
        if not form.unknowns:
            table.entries[key] = form.const
    # consistency: every remaining equation must now be 0 = 0
    for inst, resid in system:
        final = _substitute_solved(resid, solved)
        if not final.unknowns and final.const != 0:
            raise SeedConflict(f"inconsistent instance {inst.describe()}: residual {final.const}")


def _substitute_solved(form: LinForm, solved: dict[GWKey, LinForm]) -> LinForm:
    out = LinForm(form.const, {})
    for k, c in form.unknowns.items():
        if k in solved:
            out = out + solved[k].scale(c)
        else:
            out = out + LinForm(Fraction(0), {k: c})
    return out


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
        resid = wdvv_instance_residual(geom, table, inst)
        if resid.unknowns:
            raise KeyError(f"table incomplete for instance {inst.describe()}")
        out.append((inst, resid.const))
    return out


def gw_potential(table: GWTable, space: VarSpace | None = None) -> SeriesTable:
    """The y = 0 slice of the genus-0 tangency potential as a series table.

    Degree variables are the divisor slots; exponent slots are the
    codimension >= 2 basis classes in index order.
    """
    geom = table.geom
    nondiv = [i for i in range(geom.rank) if geom.codim(i) >= 2]
    if space is None:
        space = VarSpace(
            tuple(f"x{i}" for i in geom.divisors),
            tuple(f"x{i}" for i in nondiv),
        )
    entries = {}
    for (beta, key), val in table.entries.items():
        if val == 0:
            continue
        mono = tuple(key.count(i) for i in nondiv)
        entries[(beta, mono)] = val
    return SeriesTable(space, table.dmax, entries)


def parse_seed_records(text: str, geom: TargetGeometry) -> dict[GWKey, Rat]:
    """Read `beta;full-basis exponent vector;p/q` records (# lines ignored)."""
    out: dict[GWKey, Rat] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        b, m, v = ln.split(";")
        beta = tuple(int(x) for x in b.split(","))
        counts = tuple(int(x) for x in m.split(","))
        if len(counts) != geom.rank:
            raise ValueError(f"expected {geom.rank} insertion slots, got {len(counts)}")
        if counts[0]:
            raise ValueError("seed records must not carry fundamental-class insertions")
        if any(counts[i] for i in geom.divisors):
            raise ValueError("seed records must not carry divisor insertions")
        key = tuple(sorted(i for i in range(geom.rank) for _ in range(counts[i])))
        out[(beta, key)] = parse_rat(v)
    return out
