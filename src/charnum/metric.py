r"""The deformed pairing gamma_ij(y) and its inverse gamma^ij(y).

    gamma_ij  = sum_s ((-2y)^s / s!) \int_X T^s cup T_i cup T_j
    gamma^ij  = sum_s (( 2y)^s / s!) \int_X T^s cup Tdual_i cup Tdual_j

where T^s runs over cup monomials in the basis and Tdual_k = sum_m g^{km} T_m.
The sums terminate because cup powers die above the top cohomological degree,
except in the T_0 slot, which exponentiates: the y_0 dependence is an overall
exp(-2 y_0) (resp. exp(+2 y_0)) factor stored separately, so the matrix
entries proper are polynomials in y_1..y_r with exact rational coefficients.
At y = 0 the matrices reduce to the Poincare pairing and its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .geometry import TargetGeometry
from .series import Rat, format_rat

__all__ = ["PolyMatrix", "deformed_metric", "inverse_metric", "substitute_metric"]

Poly = dict[tuple[int, ...], Rat]  # monomial exponent vector -> coefficient


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(key, Fraction(0)) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_text(p: Poly, names: tuple[str, ...]) -> str:
    if not p:
        return "0"
    pieces = []
    for mono in sorted(p, reverse=True):
        c = p[mono]
        factors = [f"{n}^{k}" if k > 1 else n for n, k in zip(names, mono) if k]
        body = "*".join(factors)
        if body:
            pieces.append(body if c == 1 else f"{format_rat(c)}*{body}")
        else:
            pieces.append(format_rat(c))
    return " + ".join(pieces).replace("+ -", "- ")


@dataclass(frozen=True)
class PolyMatrix:
    """Symmetric matrix of polynomials in y_1..y_r times exp(exp_y0 * y0)."""

    varnames: tuple[str, ...]
    exp_y0: int
    rows: tuple[tuple[Poly, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc: Poly = {}
                for k in range(n):
                    acc = _poly_add(acc, _poly_mul(self.rows[i][k], other.rows[k][j]))
                row.append(acc)
            rows.append(tuple(row))
        return PolyMatrix(self.varnames, self.exp_y0 + other.exp_y0, tuple(rows))

    def is_identity(self) -> bool:
        if self.exp_y0 != 0:
            return False
        one = {(0,) * len(self.varnames): Fraction(1)}
        for i in range(self.size):
            for j in range(self.size):
                if self.rows[i][j] != (one if i == j else {}):
                    return False
        return True

    def to_text(self) -> str:
        pre = ""
        if self.exp_y0:
            pre = f"exp({self.exp_y0}*y0) * "
        lines = []
        for i, row in enumerate(self.rows):
            lines.append("[ " + " | ".join(poly_text(p, self.varnames) for p in row) + " ]")
        return pre.rstrip(" *") + ("\n" if pre else "") + "\n".join(lines) if pre else "\n".join(lines)


def _terminating_sum(geom: TargetGeometry, base: dict[int, Rat], sign: int) -> Poly:
    r"""sum_s (sign*2)^|s| y^s/s! \int T^s cup (base), over s in slots 1..r."""
    r = geom.rank
    nvars = r - 1  # y_1..y_r
    out: Poly = {}

    def visit(kmin: int, mono: tuple[int, ...], vec: dict[int, Rat]):
        nonlocal out
        val = geom.integral(vec)
        if val:
            coef = val * Fraction(sign * 2) ** sum(mono)
            for e in mono:
                coef /= factorial(e)
            out = _poly_add(out, {mono: coef})
        for k in range(kmin, r):
            nxt = geom.times(vec, k)
            if nxt:
                bumped = list(mono)
                bumped[k - 1] += 1
                visit(k, tuple(bumped), nxt)

    visit(1, (0,) * nvars, {k: v for k, v in base.items() if v})
    return out


def deformed_metric(geom: TargetGeometry) -> tuple[PolyMatrix, PolyMatrix]:
    """Both matrices; the inverse relation gamma . gamma^{-1} = 1 is exact."""
    upper = inverse_metric(geom)
    lower = tuple(tuple(_terminating_sum(geom, dict(enumerate(vec)), sign=-1) for vec in row) for row in geom.cup_table)
    return PolyMatrix(upper.varnames, -2, lower), upper


def inverse_metric(geom: TargetGeometry) -> PolyMatrix:
    """gamma^ij alone, the second matrix of `deformed_metric`."""
    r = geom.rank
    duals = [{m: c for m, c in enumerate(row) if c} for row in geom.pairing_inv]
    upper_rows = []
    for i in range(r):
        up = []
        for j in range(r):
            dual: dict[int, Rat] = {}
            for n, c in duals[j].items():
                for k, v in geom.times(duals[i], n).items():
                    dual[k] = dual.get(k, 0) + c * v
            up.append(_terminating_sum(geom, dual, sign=+1))
        upper_rows.append(tuple(up))
    return PolyMatrix(tuple(f"y{i}" for i in range(1, r)), +2, tuple(upper_rows))


def substitute_metric(
    matrix: PolyMatrix, assignment: dict[str, list[tuple[Rat | int, str]]], new_vars: tuple[str, ...]
) -> PolyMatrix:
    """Substitute each y_i by a linear form in condition variables.

    y0 is sent to 0 and the exponential prefactor drops: no condition
    variable stands for T_0.
    """
    images: list[Poly] = []
    nnew = len(new_vars)
    for name in matrix.varnames:
        if name not in assignment:
            raise KeyError(f"assignment must cover every y-variable; missing {name!r}")
        img: Poly = {}
        for coef, var in assignment[name]:
            mono = [0] * nnew
            mono[new_vars.index(var)] = 1
            img = _poly_add(img, {tuple(mono): Fraction(coef)})
        images.append(img)
    one: Poly = {(0,) * nnew: Fraction(1)}
    rows = []
    for row in matrix.rows:
        new_row = []
        for p in row:
            acc: Poly = {}
            for mono, c in p.items():
                term = {(0,) * nnew: c}
                for img, e in zip(images, mono):
                    for _ in range(e):
                        term = _poly_mul(term, img)
                    if not term:
                        break
                acc = _poly_add(acc, term)
            new_row.append(acc)
        rows.append(tuple(new_row))
    return PolyMatrix(tuple(new_vars), 0, tuple(rows))
