r"""Cohomology-ring descriptions of the built-in target varieties.

A target is given by an additive basis T_0..T_r with T_0 the fundamental
class, the cup structure constants T_i T_j = sum_k g_{ij}^k T_k, the Poincare
pairing g_ij = \int T_i T_j and its exact inverse, the divisor sub-basis, and
the numerical data needed by the recursions: the expansion of c_1(T_X) in the
divisor basis, the Euler characteristic, and the integrals \int T_i cup c(T_X)
for each divisor T_i.

Curve classes are coordinate vectors against the divisor basis (partial
degrees d_i = \int_beta T_i); effectivity is "all coordinates >= 0".

The solvers read the ring only through its geometry: integer views derived
once (`codims`, `steps`, `slots`, `point`, `nondiv`), one multiplication by T_j
(`times`), and memos that every solver over the ring shares, in ints while
integral: vdim(0, beta, 0) by class, cup products and degree-0 three-point
integrals.  The views and memos take no part in equality or the fingerprint.

Built-ins: projective spaces P^1..P^6 ("p1".."p6"), the quadric P^1 x P^1
("p1xp1"), and the Grassmannian of lines in P^3 ("gr24", Schubert basis;
its structure constants come from the Pieri/Giambelli oracle in
`charnum.oracles`, which the test suite re-derives).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from math import comb

from .series import Rat, compositions, format_rat, parse_rat

__all__ = ["TargetGeometry", "GeometryError", "builtin_geometry", "builtin_name", "load_geometry", "in_box", "BUILTIN_NAMES"]


class GeometryError(ValueError):
    """A validation failure in a cohomology-ring description."""


CurveClass = tuple[int, ...]


def _int_view(x: Rat) -> int | Rat:
    """x as an int when it is integral: int products skip Fraction's gcd."""
    return x.numerator if x.denominator == 1 else x


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
    # derived from the fields above; all but pairing_inv once the ring is validated
    pairing_inv: tuple[tuple[Rat, ...], ...] = field(init=False, compare=False)
    codims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    steps: tuple[int, ...] = field(init=False, repr=False, compare=False)  # codim - 1: an insertion's genus-0 weight
    slots: tuple[int | None, ...] = field(init=False, repr=False, compare=False)  # position among the divisors
    point: int = field(init=False, repr=False, compare=False)  # the class of top codimension
    nondiv: tuple[int, ...] = field(init=False, repr=False, compare=False)  # the classes of codim >= 2
    vdims: dict[CurveClass, int] = field(init=False, repr=False, compare=False, default_factory=dict)
    cups: dict[tuple[int, ...], dict[int, int | Rat]] = field(init=False, repr=False, compare=False, default_factory=dict)
    triples: dict[tuple[int, int, int], int | Rat] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "pairing_inv", _invert(self.pairing))
        _validate(self)
        codims = tuple(self.codim(i) for i in range(self.rank))
        slot = {d: s for s, d in enumerate(self.divisors)}
        object.__setattr__(self, "codims", codims)
        object.__setattr__(self, "steps", tuple(c - 1 for c in codims))
        object.__setattr__(self, "slots", tuple(slot.get(i) for i in range(self.rank)))
        object.__setattr__(self, "point", max(range(self.rank), key=codims.__getitem__))
        object.__setattr__(self, "nondiv", tuple(i for i, c in enumerate(codims) if c >= 2))

    # -- ring operations -----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.labels)

    def codim(self, i: int) -> int:
        return self.degrees[i] // 2

    def times(self, vec: dict[int, Rat], j: int) -> dict[int, Rat]:
        """vec cup T_j for a class in basis coordinates, zero terms dropped."""
        out: dict[int, Rat] = {}
        for i, c in vec.items():
            for k, s in enumerate(self.cup_table[i][j]):
                if s:
                    out[k] = out.get(k, 0) + c * s
        return {k: v for k, v in out.items() if v}

    def cup_classes(self, indices) -> dict[int, Rat]:
        """Expand a cup product of several basis classes into the basis."""
        return reduce(self.times, indices, {0: Fraction(1)})

    def cup_view(self, indices) -> dict[int, int | Rat]:
        """`cup_classes` in ints while integral, memoized by the sorted non-unit
        indices (the product is commutative and associative with unit T0).
        The caller must not change the returned dict."""
        key = tuple(sorted(i for i in indices if i))
        hit = self.cups.get(key)
        if hit is None:
            hit = self.cups[key] = {k: _int_view(c) for k, c in self.cup_classes(key).items()}
        return hit

    def triple_view(self, ins: tuple[int, int, int]) -> int | Rat:
        r"""\int T_i T_j T_k, an int while integral, memoized by the sorted triple."""
        key = tuple(sorted(ins))
        hit = self.triples.get(key)
        if hit is None:
            hit = self.triples[key] = _int_view(self.integral(self.cup_classes(key)))
        return hit

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

    def vdim0(self, beta: CurveClass) -> int:
        """vdim(0, beta, 0), the weight of a class's genus-0 insertions, memoized."""
        hit = self.vdims.get(beta)
        if hit is None:
            hit = self.vdims[beta] = self.vdim(0, beta, 0)
        return hit

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
    # associativity of structure constants; commutativity holds by now, so
    # T_i (T_j T_l) is (T_j T_l) T_i
    prod = {(i, j): geom.times({i: 1}, j) for i in range(r) for j in range(r)}
    for i in range(1, r):
        for j in range(i, r):
            for l in range(j, r):
                if geom.times(prod[i, j], l) != geom.times(prod[j, l], i):
                    raise GeometryError(f"cup not associative at ({i}, {j}, {l})")
    # pairing must match the ring: g_ij = \int T_i T_j
    for (i, j), vec in prod.items():
        if geom.integral(vec) != geom.pairing[i][j]:
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
