"""Values from the literature that the benchmark checks before it trusts
the reference digests.

* Kontsevich-Manin (1994): rational plane curves of degree d through 3d-1
  points, N_1..N_8.
* Zeuthen: characteristic numbers of conics, of rational cubics and of
  smooth (genus-1) cubics, points a + lines b = 3d - 1 + g.
* Goulden-Jackson (1997): genus-0 Hurwitz numbers
  H_0(d) = d^(d-3) (2d-2)! / d!.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

N_D = [1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392]
CONICS = [1, 2, 4, 4, 2, 1]  # (a, b) = (5, 0) ... (0, 5)
RATIONAL_CUBICS = [12, 36, 100, 240, 480, 712, 756, 600, 400]  # a = 8 ... 0
GENUS1_CUBICS = [1, 4, 16, 64, 256, 976, 3424, 9766, 21004, 33616]  # a = 9 ... 0
HURWITZ_DMAX = 8


def goulden_jackson(d: int) -> Fraction:
    return Fraction(d) ** (d - 3) * factorial(2 * d - 2) / factorial(d)


def _char_row(records, d: int, first_a: int) -> list[int]:
    """Values at degree d with no flag condition, for a = first_a down to 0."""
    by_a = {r["a"]: r["value"] for r in records if r["d"] == d and r["c"] == 0}
    return [int(by_a.get(a, "0")) for a in range(first_a, -1, -1)]


def check(call) -> list[str]:
    """`call(argv)` runs one CLI request and returns (exit code, stdout).
    Returns one line per anchor that does not match."""
    problems = []

    def records(argv):
        code, out = call(argv)
        if code != 0:
            problems.append(f"anchor request {' '.join(argv)} exited {code}")
            return []
        return json.loads(out)

    gw = records(["gw", "--target", "p2", "--dmax", "8"])
    got = [int(r["value"]) for r in gw if r["insertions"] == f"T2^{3 * r['d'] - 1}"]
    if got != N_D:
        problems.append(f"Kontsevich-Manin N_d: {got} != {N_D}")
    g0 = records(["compute", "--target", "p2", "--genus", "0", "--dmax", "3"])
    for name, d, first_a, want in (("conics", 2, 5, CONICS), ("rational cubics", 3, 8, RATIONAL_CUBICS)):
        if _char_row(g0, d, first_a) != want:
            problems.append(f"Zeuthen {name}: {_char_row(g0, d, first_a)} != {want}")
    g1 = records(["compute", "--target", "p2", "--genus", "1", "--dmax", "3"])
    if _char_row(g1, 3, 9) != GENUS1_CUBICS:
        problems.append(f"Zeuthen genus-1 cubics: {_char_row(g1, 3, 9)} != {GENUS1_CUBICS}")
    hur = records(["hurwitz", "--dmax", str(HURWITZ_DMAX), "--gmax", "0"])
    got_h = {r["d"]: Fraction(r["value"]) for r in hur if r["g"] == 0}
    for d in range(1, HURWITZ_DMAX + 1):
        if got_h.get(d) != goulden_jackson(d):
            problems.append(f"Goulden-Jackson H_0({d}): {got_h.get(d)} != {goulden_jackson(d)}")
    return problems
