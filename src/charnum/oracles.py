r"""Independent verifiers: exhaustive Hurwitz counts (one exact rational
per degree and branch number), table diffing, the Pieri/Giambelli oracle
behind the shipped Gr(2,4) ring constants, and the `charnum verify` suites.

The Hurwitz counts and the table diffing live in the library (not only in
the tests) so `charnum verify` can re-run them against the production
paths.  No suite runs the Pieri/Giambelli oracle: it is the tests'
reference for the gr24 ring.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

from .descend import DescendantEngine
from .geometry import builtin_geometry
from .gw import wdvv_solve
from .metric import deformed_metric
from .planecurves import charnum_genus0, charnum_genus1, charnum_genus1_virtual_route, tangency_expand
from .quadric import hurwitz as hurwitz_table
from .seeds import default_gw_seeds, load_genus1_seeds, packaged_seed_text
from .series import Rat

__all__ = [
    "hurwitz_bruteforce",
    "cross_check",
    "schubert_gr24_product",
    "schubert_gr24_cup_table",
    "run_verify_suite",
]

# ---------------------------------------------------------------------------
# Hurwitz numbers by exhaustive factorization in the symmetric group
# ---------------------------------------------------------------------------


def hurwitz_bruteforce(d: int, b: int) -> Rat:
    """The number of tuples of b transpositions in S_d with identity product
    and transitive generated action, divided by d!.

    The tuples are counted by a transfer over their b positions instead of
    one by one.  A state is the partial product together with the orbits of
    the transpositions taken so far (each point labelled by the least point
    of its orbit), and a tuple counts when it ends at the identity with one
    orbit.  No recursion, cut-and-join or character is used, so this stays a
    route independent of `quadric.hurwitz`.

    Desk scale only: d <= 6, b <= 12.
    """
    if d < 1 or b < 0:
        raise ValueError("need d >= 1 and b >= 0")
    if d > 6 or b > 12:
        raise ValueError(f"size limit exceeded: d={d}, b={b} (desk scale is d <= 6, b <= 12)")
    if d == 1:
        return Fraction(1 if b == 0 else 0)
    identity = tuple(range(d))
    moves = []
    for i, j in combinations(identity, 2):
        t = list(identity)
        t[i], t[j] = j, i
        moves.append((tuple(t), i, j))
    states = Counter({(identity, identity): 1})
    for _ in range(b):
        step = Counter()
        for (sigma, orbit), n in states.items():
            for t, i, j in moves:
                lo, hi = sorted((orbit[i], orbit[j]))
                merged = tuple(lo if o == hi else o for o in orbit)
                step[tuple(t[x] for x in sigma), merged] += n
        states = step
    count = states[identity, (0,) * d]
    return Fraction(count, factorial(d))


# ---------------------------------------------------------------------------
# Entry-wise comparison of two result tables
# ---------------------------------------------------------------------------


def cross_check(path_a: dict, path_b: dict) -> list[tuple]:
    """Entry-wise diff of two mappings; empty list means the paths agree.

    Returns (key, value_a, value_b) triples, absent entries read as 0.
    """
    zero = Fraction(0)
    report = []
    for key in sorted(set(path_a) | set(path_b)):
        va = path_a.get(key, zero)
        vb = path_b.get(key, zero)
        if va != vb:
            report.append((key, va, vb))
    return report


# ---------------------------------------------------------------------------
# Schubert calculus on the Grassmannian of lines in P^3
# ---------------------------------------------------------------------------

_BOX = (2, 2)
GR24_PARTITIONS = ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2))


def _pieri(a: int, lam: tuple[int, int]) -> dict[tuple[int, int], int]:
    """sigma_a * sigma_lam: horizontal strips inside the 2x2 box."""
    if a == 0:
        return {lam: 1}
    if a > _BOX[0]:
        return {}
    out: dict[tuple[int, int], int] = {}
    l1, l2 = lam
    for m1 in range(l1, _BOX[0] + 1):
        for m2 in range(l2, min(l1, _BOX[1]) + 1):
            if (m1 - l1) + (m2 - l2) == a and m1 >= m2:
                out[(m1, m2)] = out.get((m1, m2), 0) + 1
    return out


def _pieri_poly(a: int, poly: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for lam, c in poly.items():
        for nu, k in _pieri(a, lam).items():
            out[nu] = out.get(nu, 0) + c * k
    return {k: v for k, v in out.items() if v}


def schubert_gr24_product(lam: tuple[int, int], mu: tuple[int, int]) -> dict[tuple[int, int], int]:
    """sigma_lam * sigma_mu in H*(Gr(2,4)).

    Giambelli reduces to special classes: s_{l1,l2} = s_{l1} s_{l2} - s_{l1+1} s_{l2-1}.
    """
    l1, l2 = lam
    if l2 == 0:
        return _pieri(l1, mu)
    out = _pieri_poly(l1, _pieri_poly(l2, {mu: 1}))
    for k, v in _pieri_poly(l1 + 1, _pieri_poly(l2 - 1, {mu: 1})).items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


def schubert_gr24_cup_table() -> dict[tuple[int, int], tuple[int, ...]]:
    """All structure-constant vectors, indexed like the shipped gr24 built-in."""
    idx = {p: i for i, p in enumerate(GR24_PARTITIONS)}
    table = {}
    for i, li in enumerate(GR24_PARTITIONS):
        for j, lj in enumerate(GR24_PARTITIONS):
            vec = [0] * 6
            for nu, c in schubert_gr24_product(li, lj).items():
                vec[idx[nu]] = c
            table[(i, j)] = tuple(vec)
    return table


# ---------------------------------------------------------------------------
# The `charnum verify` suites: each production path against a second route
# ---------------------------------------------------------------------------


def run_verify_suite(suite: str, out) -> int:
    """Run one `charnum verify` suite, writing a line per mismatch to `out`;
    returns the number of mismatches."""
    failures = 0
    if suite == "hurwitz":
        table = hurwitz_table(1, 4)
        for g in (0, 1):
            for d in range(1, 5):
                b = 2 * d + 2 * g - 2
                want = hurwitz_bruteforce(d, b)
                got = table.get((g, d, b), Fraction(0))
                if want != got:
                    failures += 1
                    out.write(f"mismatch g={g} d={d} b={b}: recursion {got} brute force {want}\n")
    elif suite == "p2-genus0":
        geom = builtin_geometry("p2")
        gw = wdvv_solve(geom, default_gw_seeds(geom), 3)
        g0 = charnum_genus0(gw, 3)
        engine = DescendantEngine(geom, gw)
        pipeline = {(deg[0],) + mono: val for (deg, mono), val in g0.entries.items()}
        direct = {}
        for key in sorted(pipeline):
            d, a, b, c = key
            direct[key] = sum(
                (mult * engine.value(spec) for spec, mult in tangency_expand(a, b, c, d)),
                Fraction(0),
            )
        for key, va, vb in cross_check(pipeline, direct):
            failures += 1
            out.write(f"mismatch at {key}: pipeline {va} recursion {vb}\n")
    elif suite == "p2-genus1":
        geom = builtin_geometry("p2")
        gw = wdvv_solve(geom, default_gw_seeds(geom), 3)
        g0 = charnum_genus0(gw, 3)
        seeds = load_genus1_seeds(packaged_seed_text("p2-genus1"), geom)
        direct = charnum_genus1(g0, seeds, 3)
        virtual = charnum_genus1_virtual_route(gw, seeds, 3)
        for key, va, vb in cross_check(direct.entries, virtual.entries):
            failures += 1
            out.write(f"mismatch at {key}: direct {va} virtual route {vb}\n")
    elif suite == "metric":
        for name in ("p1", "p2", "p3", "p1xp1", "gr24"):
            geom = builtin_geometry(name)
            lower, upper = deformed_metric(geom)
            if not lower.matmul(upper).is_identity():
                failures += 1
                out.write(f"{name}: gamma . gamma^(-1) is not the identity\n")
            failures += _metric_term_check(geom, lower, out)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return failures


def _metric_term_check(geom, lower, out) -> int:
    """Independent term-by-term recomputation of gamma_ij coefficients."""
    bad = 0
    r = geom.rank
    for i in range(r):
        for j in range(r):
            for mono, coef in lower.entry(i, j).items():
                classes = [k + 1 for k in range(r - 1) for _ in range(mono[k])]
                vec = geom.cup_classes(classes + [i, j])
                val = geom.integral(vec) * Fraction(-2) ** sum(mono)
                for e in mono:
                    val /= factorial(e)
                if val != coef:
                    bad += 1
                    out.write(f"{geom.name}: gamma_{i}{j} at {mono}: {coef} vs {val}\n")
    return bad
