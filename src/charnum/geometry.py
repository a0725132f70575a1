r"""Cohomology-ring descriptions of the built-in target varieties.

A target is given by an additive basis T_0..T_r with T_0 the fundamental
class, the cup structure constants T_i T_j = sum_k g_{ij}^k T_k, the Poincare
pairing g_ij = \int T_i T_j and its exact inverse, the divisor sub-basis, and
the numerical data needed by the recursions: the expansion of c_1(T_X) in the
divisor basis, the Euler characteristic, and the integrals \int T_i cup c(T_X)
for each divisor T_i.

Curve classes are coordinate vectors against the divisor basis (partial
degrees d_i = \int_beta T_i); effectivity is "all coordinates >= 0".

Built-ins: projective spaces P^1..P^6 ("p1".."p6"), the quadric P^1 x P^1
("p1xp1"), and the Grassmannian of lines in P^3 ("gr24", Schubert basis;
its structure constants come from the Pieri/Giambelli oracle in
`charnum.oracles`, which the test suite re-derives).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb

from .series import Rat, compositions, format_rat, parse_rat

__all__ = ["TargetGeometry", "GeometryError", "builtin_geometry", "builtin_name", "load_geometry", "in_box", "BUILTIN_NAMES"]


class GeometryError(ValueError):
    """A validation failure in a cohomology-ring description."""


CurveClass = tuple[int, ...]


def in_box(beta: CurveClass, box: CurveClass | None) -> bool:
    """Whether `beta` lies componentwise below `box`; every class does if box is None."""
    return box is None or all(d <= b for d, b in zip(beta, box))


@dataclass(frozen=True)
class TargetGeometry:
    name: str
    dim: int
    labels: tuple[str, ...]
    degrees: tuple[int, ...]          # cohomological degrees, T0 has 0
    cup_table: tuple[tuple[tuple[Rat, ...], ...], ...]
    pairing: tuple[tuple[Rat, ...], ...]
    divisors: tuple[int, ...]         # indices of the H^2 sub-basis
    c1: tuple[Rat, ...]               # c_1(T_X) in the divisor basis
    euler: int
    chern_divisor: tuple[Rat, ...]    # \int T_i cup c(T_X), one per divisor
    pairing_inv: tuple[tuple[Rat, ...], ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.pairing_inv:
            object.__setattr__(self, "pairing_inv", _invert(self.pairing))
        _validate(self)

    # -- ring operations -----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.labels)

    def codim(self, i: int) -> int:
        return self.degrees[i] // 2

    def cup_classes(self, indices) -> dict[int, Rat]:
        """Expand a cup product of several basis classes into the basis."""
        acc: dict[int, Rat] = {0: Fraction(1)}
        for j in indices:
            nxt: dict[int, Rat] = {}
            for i, c in acc.items():
                for k, s in enumerate(self.cup_table[i][j]):
                    if s:
                        nxt[k] = nxt.get(k, Fraction(0)) + c * s
            acc = {k: v for k, v in nxt.items() if v}
            if not acc:
                break
        return acc

    def integral(self, vec: dict[int, Rat]) -> Rat:
        r"""\int_X of a class given in basis coordinates."""
        return sum((c * self.pairing[k][0] for k, c in vec.items()), Fraction(0))

    # -- numerical invariants --------------------------------------------------

    def vdim(self, g: int, beta: CurveClass, n: int) -> int:
        r"""Expected dimension (dim X - 3)(1 - g) + \int_beta c1 + n."""
        c1 = sum(a * d for a, d in zip(self.c1, beta))
        if c1.denominator != 1:
            raise GeometryError("c1 pairing must be integral")
        return (self.dim - 3) * (1 - g) + int(c1) + n

    def degree_of(self, i: int, beta: CurveClass) -> int:
        r"""\int_beta T_i for a divisor index i."""
        return beta[self.divisors.index(i)]

    def is_effective(self, beta: CurveClass) -> bool:
        return all(d >= 0 for d in beta) and any(beta)

    def curve_classes(self, total: int, box: CurveClass | None = None):
        """All effective classes with total degree == total, in lexicographic
        order, only those componentwise <= `box` if given."""
        if total > 0:
            yield from compositions(total, (1,) * len(self.divisors), box)

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"name {self.name}",
            f"dim {self.dim}",
            "basis " + " ".join(self.labels),
            "deg " + " ".join(map(str, self.degrees)),
            "divisors " + " ".join(map(str, self.divisors)),
            "c1 " + " ".join(format_rat(x) for x in self.c1),
            f"euler {self.euler}",
            "chern_divisor " + " ".join(format_rat(x) for x in self.chern_divisor),
            "pairing",
        ]
        for row in self.pairing:
            lines.append(" ".join(format_rat(x) for x in row))
        for i in range(1, self.rank):
            for j in range(i, self.rank):
                lines.append(
                    f"cup {i} {j} = " + " ".join(format_rat(x) for x in self.cup_table[i][j])
                )
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _invert(m: tuple[tuple[Rat, ...], ...]) -> tuple[tuple[Rat, ...], ...]:
    """Exact inverse by Gauss-Jordan; raises GeometryError when singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise GeometryError(f"pairing is singular (no pivot in column {col})")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _validate(geom: TargetGeometry) -> None:
    r = geom.rank
    if geom.degrees[0] != 0:
        raise GeometryError("T0 must be the fundamental class (degree 0)")
    if len(geom.degrees) != r or len(geom.pairing) != r:
        raise GeometryError("basis/degree/pairing sizes disagree")
    for i in geom.divisors:
        if geom.degrees[i] != 2:
            raise GeometryError(f"divisor index {i} has degree {geom.degrees[i]} != 2")
    for i in range(r):
        for j in range(r):
            if geom.pairing[i][j] != geom.pairing[j][i]:
                raise GeometryError(f"pairing not symmetric at ({i}, {j})")
            if geom.cup_table[i][j] != geom.cup_table[j][i]:
                raise GeometryError(f"cup not commutative at ({i}, {j})")
    # identity row and degree additivity
    for j in range(r):
        expect = tuple(Fraction(int(k == j)) for k in range(r))
        if geom.cup_table[0][j] != expect:
            raise GeometryError(f"cup(0, {j}) is not T{j}")
    for i in range(r):
        for j in range(r):
            for k, c in enumerate(geom.cup_table[i][j]):
                if c and geom.degrees[k] != geom.degrees[i] + geom.degrees[j]:
                    raise GeometryError(f"cup({i}, {j}) hits T{k} of wrong degree")
    # associativity of structure constants
    for i in range(1, r):
        for j in range(i, r):
            for l in range(j, r):
                left: dict[int, Rat] = {}
                for m, c in enumerate(geom.cup_table[i][j]):
                    if c:
                        for k, s in enumerate(geom.cup_table[m][l]):
                            if s:
                                left[k] = left.get(k, Fraction(0)) + c * s
                right: dict[int, Rat] = {}
                for m, c in enumerate(geom.cup_table[j][l]):
                    if c:
                        for k, s in enumerate(geom.cup_table[i][m]):
                            if s:
                                right[k] = right.get(k, Fraction(0)) + c * s
                for k in set(left) | set(right):
                    if left.get(k, Fraction(0)) != right.get(k, Fraction(0)):
                        raise GeometryError(f"cup not associative at ({i}, {j}, {l})")
    # pairing must match the ring: g_ij = \int T_i T_j
    for i in range(r):
        for j in range(r):
            byring = sum(
                (c * geom.pairing[k][0] for k, c in enumerate(geom.cup_table[i][j]) if c),
                Fraction(0),
            )
            if byring != geom.pairing[i][j]:
                raise GeometryError(f"pairing disagrees with cup at ({i}, {j})")
    # the integral lives in degree 2 dim: gw's contraction skips degree-0
    # three-point terms whose codimensions do not add up to dim
    for k in range(r):
        if geom.pairing[k][0] and geom.degrees[k] != 2 * geom.dim:
            raise GeometryError(f"integral of T{k} is nonzero off degree 2 dim = {2 * geom.dim}")


def _rows(vals) -> tuple[tuple[Rat, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in vals)


def _cup_from_dict(r: int, prods: dict[tuple[int, int], dict[int, int | Rat]]):
    table = [[None] * r for _ in range(r)]
    for j in range(r):
        e_j = tuple(Fraction(int(k == j)) for k in range(r))
        table[0][j] = e_j
        table[j][0] = e_j
    for (i, j), vec in prods.items():
        row = tuple(Fraction(vec.get(k, 0)) for k in range(r))
        table[i][j] = row
        table[j][i] = row
    zero = tuple(Fraction(0) for _ in range(r))
    for i in range(r):
        for j in range(r):
            if table[i][j] is None:
                table[i][j] = zero
    return tuple(tuple(row) for row in table)


def _projective_space(r: int) -> TargetGeometry:
    labels = tuple(f"T{i}" for i in range(r + 1))
    degrees = tuple(2 * i for i in range(r + 1))
    prods = {}
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            prods[(i, j)] = {i + j: 1} if i + j <= r else {}
    pairing = [[Fraction(int(i + j == r)) for j in range(r + 1)] for i in range(r + 1)]
    return TargetGeometry(
        name=f"p{r}",
        dim=r,
        labels=labels,
        degrees=degrees,
        cup_table=_cup_from_dict(r + 1, prods),
        pairing=_rows(pairing),
        divisors=(1,),
        c1=(Fraction(r + 1),),
        euler=r + 1,
        chern_divisor=(Fraction(comb(r + 1, 2)) if r >= 2 else Fraction(1),),
    )


def _quadric_surface() -> TargetGeometry:
    prods = {(1, 1): {}, (1, 2): {3: 1}, (2, 2): {}, (1, 3): {}, (2, 3): {}, (3, 3): {}}
    pairing = [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    return TargetGeometry(
        name="p1xp1",
        dim=2,
        labels=("T0", "T1", "T2", "T3"),
        degrees=(0, 2, 2, 4),
        cup_table=_cup_from_dict(4, prods),
        pairing=_rows(pairing),
        divisors=(1, 2),
        c1=(Fraction(2), Fraction(2)),
        euler=4,
        chern_divisor=(Fraction(2), Fraction(2)),
    )


def _grassmannian_24() -> TargetGeometry:
    # Schubert basis: T0 = 1, T1 = sigma_1 (hyperplane), T2 = sigma_2,
    # T3 = sigma_{1,1}, T4 = sigma_{2,1} (line class), T5 = sigma_{2,2} (point).
    # Products and the Chern data below are the output of
    # oracles.schubert_gr24_* (re-derived in tests/test_geometry.py):
    # c(T) = 1 + 4 s1 + 7(s2 + s11) + 12 s21 + 6 s22, \int c4 = chi = 6.
    prods = {
        (1, 1): {2: 1, 3: 1},
        (1, 2): {4: 1},
        (1, 3): {4: 1},
        (1, 4): {5: 1},
        (1, 5): {},
        (2, 2): {5: 1},
        (2, 3): {},
        (2, 4): {},
        (2, 5): {},
        (3, 3): {5: 1},
        (3, 4): {},
        (3, 5): {},
        (4, 4): {},
        (4, 5): {},
        (5, 5): {},
    }
    pairing = [
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ]
    return TargetGeometry(
        name="gr24",
        dim=4,
        labels=("T0", "T1", "T2", "T3", "T4", "T5"),
        degrees=(0, 2, 4, 4, 6, 8),
        cup_table=_cup_from_dict(6, prods),
        pairing=_rows(pairing),
        divisors=(1,),
        c1=(Fraction(4),),
        euler=6,
        chern_divisor=(Fraction(12),),
    )


@cache
def _builtins() -> dict[str, TargetGeometry]:
    geoms = {f"p{r}": _projective_space(r) for r in range(1, 7)}
    geoms["p1xp1"] = _quadric_surface()
    geoms["gr24"] = _grassmannian_24()
    return geoms


BUILTIN_NAMES = ("p1", "p2", "p3", "p4", "p5", "p6", "p1xp1", "gr24")


def builtin_geometry(name: str) -> TargetGeometry:
    try:
        return _builtins()[name]
    except KeyError:
        raise GeometryError(f"unknown target {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}") from None


def builtin_name(geom: TargetGeometry) -> str | None:
    """The name of the built-in target that `geom` is, or None: a config
    that takes a built-in's name but holds another ring is a custom target."""
    return geom.name if _builtins().get(geom.name) == geom else None


def load_geometry(text: str) -> TargetGeometry:
    """Parse the key-value + tables config format (see TargetGeometry.to_text).

    A malformed or wrongly sized record raises GeometryError naming its line.
    """
    kv: dict[str, tuple[int, str]] = {}
    pairing_at = 0
    pairing_rows: list[tuple[int, list[Rat]]] = []
    cup_lines: list[tuple[int, int, int, list[Rat]]] = []
    mode = None
    for n, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            if ln.startswith("cup "):
                head, _, tail = ln.partition("=")
                _, i, j = head.split()
                cup_lines.append((n, int(i), int(j), [parse_rat(x) for x in tail.split()]))
                mode = None
            elif ln == "pairing":
                mode, pairing_at = "pairing", n
            elif mode == "pairing" and ln[0] in "-0123456789":
                pairing_rows.append((n, [parse_rat(x) for x in ln.split()]))
            else:
                mode = None
                key, _, val = ln.partition(" ")
                kv[key] = (n, val.strip())
        except (ValueError, ZeroDivisionError):
            raise GeometryError(f"line {n}: malformed record {ln!r}") from None

    def read(key: str, conv, size: int | None = None) -> tuple:
        """The values on a key's line, exactly `size` of them when given."""
        if key not in kv:
            raise GeometryError(f"missing config key {key!r}")
        n, val = kv[key]
        try:
            vals = tuple(conv(x) for x in val.split())
        except (ValueError, ZeroDivisionError):
            raise GeometryError(f"line {n}: malformed {key} value {val!r}") from None
        if size is not None and len(vals) != size:
            raise GeometryError(f"line {n}: {key} has {len(vals)} values, expected {size}")
        return vals

    labels = read("basis", str)
    r = len(labels)
    degrees = read("deg", int, r)
    divisors = read("divisors", int)
    if any(not 0 < i < r for i in divisors):
        raise GeometryError(f"line {kv['divisors'][0]}: divisor indices must lie in 1..{r - 1}")
    c1 = read("c1", parse_rat, len(divisors))
    chern = read("chern_divisor", parse_rat, len(divisors))
    (dim,) = read("dim", int, 1)
    (euler,) = read("euler", int, 1)
    name = kv["name"][1] if "name" in kv else "custom"
    if not pairing_at:
        raise GeometryError("missing config section 'pairing'")
    if len(pairing_rows) != r:
        raise GeometryError(f"line {pairing_at}: pairing has {len(pairing_rows)} rows, expected {r}")
    for n, row in pairing_rows:
        if len(row) != r:
            raise GeometryError(f"line {n}: pairing row has {len(row)} entries, expected {r}")
    prods = {}
    for n, i, j, vec in cup_lines:
        if not (0 <= i < r and 0 <= j < r):
            raise GeometryError(f"line {n}: cup indices ({i}, {j}) outside 0..{r - 1}")
        if len(vec) != r:
            raise GeometryError(f"line {n}: cup row has {len(vec)} coefficients, expected {r}")
        prods[(i, j)] = {k: v for k, v in enumerate(vec) if v}
    return TargetGeometry(
        name=name,
        dim=dim,
        labels=labels,
        degrees=degrees,
        cup_table=_cup_from_dict(r, prods),
        pairing=_rows(row for _, row in pairing_rows),
        divisors=divisors,
        c1=c1,
        euler=euler,
        chern_divisor=chern,
    )
